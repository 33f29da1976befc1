"""The dichotomy classifier: product-class and affine-class membership
testers with re-verifiable certificates, the one-zero-per-pair test, and the
tractable/hard verdict with its case taxonomy.

Hard cases: 1 = some pair entirely zero, 2 = all six values nonzero,
3 = exactly one zero, 4 = exactly two zeros from distinct pairs. Case 1 takes
precedence in labeling; tractable verdicts are checked first in the order
P, A, M.

in_A shifts the support by its least string; the support is affine iff the
shifted set is closed under XOR. The certificate's basis is that subspace's
reduced echelon basis, read off without elimination: the row with pivot bit
p is the least element whose highest bit is p.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalar import (
    I_POWERS,
    Scalar,
    ZERO,
    as_scalar,
    format_scalar,
    ratio_power_of_i,
)
from .signature import (
    Signature,
    SignatureError,
    SixVertexParams,
    from_six_vertex,
)

__all__ = [
    "PFactor",
    "PReport",
    "ACertificate",
    "AReport",
    "Classification",
    "in_P",
    "in_A",
    "one_zero_each_pair",
    "zero_pattern",
    "classify",
    "reconstruct_from_p",
    "reconstruct_from_a",
]


@dataclass(frozen=True)
class PFactor:
    """One tensor factor: which variable positions it covers (0-based), its
    support strings (within the factor's own arity), and their values."""

    var_positions: tuple[int, ...]
    strings: tuple[int, ...]
    values: tuple[Scalar, ...]


@dataclass(frozen=True)
class PReport:
    member: bool
    factors: tuple[PFactor, ...] | None
    is_zero: bool = False

    def to_json(self):
        out = {"member": self.member, "is_zero": self.is_zero}
        if self.factors is not None:
            out["factors"] = [
                {
                    "vars": list(f.var_positions),
                    "strings": list(f.strings),
                    "values": [format_scalar(v) for v in f.values],
                }
                for f in self.factors
            ]
        return out


@dataclass(frozen=True)
class ACertificate:
    """Support = base xor span(basis); value at the point with free bits u is
    lam * i^(sum a_j u_j + 2 sum b_jk u_j u_k)."""

    base: int
    basis: tuple[int, ...]
    pivots: tuple[int, ...]
    lam: Scalar
    linear: tuple[int, ...]
    cross: tuple[tuple[int, int, int], ...]

    def to_json(self):
        return {
            "base": self.base,
            "basis": list(self.basis),
            "pivots": list(self.pivots),
            "lambda": format_scalar(self.lam),
            "linear": list(self.linear),
            "cross": [list(c) for c in self.cross],
        }


@dataclass(frozen=True)
class AReport:
    member: bool
    certificate: ACertificate | None
    is_zero: bool = False
    reason: str = ""

    def to_json(self):
        out = {"member": self.member, "is_zero": self.is_zero}
        if self.reason:
            out["reason"] = self.reason
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


def _reshape(table, k, s_positions):
    t_positions = [i for i in range(k) if i not in s_positions]
    rows, cols = 1 << len(s_positions), 1 << len(t_positions)
    m = [[ZERO] * cols for _ in range(rows)]
    for idx, val in enumerate(table):
        r = 0
        for j, pos in enumerate(s_positions):
            r = (r << 1) | ((idx >> (k - 1 - pos)) & 1)
        c = 0
        for j, pos in enumerate(t_positions):
            c = (c << 1) | ((idx >> (k - 1 - pos)) & 1)
        m[r][c] = val
    return m, t_positions


def _rank_one_split(m):
    """(row_vector, col_vector) with m = outer product, or None."""
    pivot = None
    for r, row in enumerate(m):
        for c, val in enumerate(row):
            if val:
                pivot = (r, c)
                break
        if pivot:
            break
    if pivot is None:
        return None
    r0, c0 = pivot
    pv = m[r0][c0]
    for r in range(len(m)):
        for c in range(len(m[0])):
            if m[r][c] * pv != m[r][c0] * m[r0][c]:
                return None
    g = tuple(m[r][c0] for r in range(len(m)))
    h = tuple(m[r0][c] / pv for c in range(len(m[0])))
    return g, h


def _pair_leaf(var_positions, table):
    k = len(var_positions)
    support = tuple(s for s, v in enumerate(table) if v)
    if len(support) == 1 or (
        len(support) == 2 and support[0] ^ support[1] == (1 << k) - 1
    ):
        return PFactor(var_positions, support, tuple(table[s] for s in support))
    return None


def _p_decompose(var_positions, table):
    k = len(var_positions)
    leaf = _pair_leaf(var_positions, table)
    if leaf is not None:
        return (leaf,)
    for mask in range(0, 1 << (k - 1)):
        s_pos = [0] + [i for i in range(1, k) if (mask >> (i - 1)) & 1]
        if len(s_pos) == k:
            continue
        m, t_pos = _reshape(table, k, s_pos)
        split = _rank_one_split(m)
        if split is None:
            continue
        g, h = split
        left = _p_decompose(tuple(var_positions[i] for i in s_pos), g)
        if left is None:
            continue
        right = _p_decompose(tuple(var_positions[i] for i in t_pos), h)
        if right is None:
            continue
        return left + right
    return None


def in_P(f: Signature) -> PReport:
    """Tensor product of factors each supported on a complementary pair."""
    if f.arity > 4:
        raise SignatureError("membership testers support arity <= 4")
    if f.is_zero():
        return PReport(True, None, is_zero=True)
    factors = _p_decompose(tuple(range(f.arity)), f.values)
    return PReport(factors is not None, factors)


def reconstruct_from_p(report: PReport, arity: int) -> Signature:
    if report.is_zero:
        return Signature(arity, [ZERO] * (1 << arity))
    values = []
    for idx in range(1 << arity):
        prod = as_scalar(1)
        for factor in report.factors:
            sub = 0
            for pos in factor.var_positions:
                sub = (sub << 1) | ((idx >> (arity - 1 - pos)) & 1)
            if sub not in factor.strings:
                prod = ZERO
                break
            prod = prod * factor.values[factor.strings.index(sub)]
        values.append(prod)
    return Signature(arity, values)


def in_A(f: Signature) -> AReport:
    """Affine support with values lam * i^(quadratic with even cross terms)."""
    if f.arity > 4:
        raise SignatureError("membership testers support arity <= 4")
    support = f.support()
    if not support:
        return AReport(True, None, is_zero=True)
    n = len(support)
    if n & (n - 1):
        return AReport(False, None, reason="support size not a power of 2")
    base = min(support)
    shifted = {s ^ base for s in support}
    if any(x ^ y not in shifted for x in shifted for y in shifted):
        return AReport(False, None, reason="support not affine")
    # shifted is a subspace; its reduced echelon row with pivot bit p is the
    # least element whose highest bit is p (any other such element is that
    # row plus lower rows, and so sets a lower pivot bit the row lacks)
    rows = {}
    for s in sorted(shifted):
        rows.setdefault(s.bit_length(), s)
    rows.pop(0)
    basis = sorted(rows.values(), reverse=True)
    d = len(basis)
    pivots = tuple(f.arity - 1 - (b.bit_length() - 1) for b in basis)
    lam = f[base]
    exps = {}
    for s in support:
        e = ratio_power_of_i(f[s], lam)
        if e is None:
            return AReport(False, None, reason="values not i-power multiples")
        exps[s] = e

    def coords(s):
        delta = s ^ base
        return tuple(
            (delta >> (f.arity - 1 - p)) & 1 for p in pivots
        )

    linear = tuple(exps[base ^ basis[j]] for j in range(d))
    cross = []
    for j in range(d):
        for k in range(j + 1, d):
            val = (exps[base ^ basis[j] ^ basis[k]] - linear[j] - linear[k]) % 4
            if val % 2:
                return AReport(False, None, reason="odd cross term")
            cross.append((j, k, val // 2))
    cross_map = {(j, k): b for j, k, b in cross}
    for s in support:
        u = coords(s)
        pred = sum(linear[j] * u[j] for j in range(d))
        pred += 2 * sum(
            b for (j, k), b in cross_map.items() if u[j] and u[k]
        )
        if pred % 4 != exps[s]:
            return AReport(False, None, reason="phase not quadratic")
    cert = ACertificate(base, tuple(basis), pivots, lam, linear, tuple(cross))
    return AReport(True, cert)


def reconstruct_from_a(cert: ACertificate, arity: int) -> Signature:
    values = [ZERO] * (1 << arity)
    d = len(cert.basis)
    cross_map = {(j, k): b for j, k, b in cert.cross}
    for u in range(1 << d):
        bits = tuple((u >> (d - 1 - j)) & 1 for j in range(d))
        s = cert.base
        for j in range(d):
            if bits[j]:
                s ^= cert.basis[j]
        e = sum(cert.linear[j] * bits[j] for j in range(d))
        e += 2 * sum(
            b for (j, k), b in cross_map.items() if bits[j] and bits[k]
        )
        values[s] = cert.lam * I_POWERS[e % 4]
    return Signature(arity, values)


def zero_pattern(p: SixVertexParams) -> tuple[str, str, str]:
    out = []
    for u, v in p.pairs():
        zeros = (not u) + (not v)
        out.append(("no_zero", "one_zero", "both_zero")[zeros])
    return tuple(out)


def one_zero_each_pair(p: SixVertexParams) -> bool:
    return all(not u or not v for u, v in p.pairs())


@dataclass(frozen=True)
class Classification:
    verdict: str  # "tractable" | "hard"
    tractable_class: str | None  # "P" | "A" | "M"
    hard_case: int | None  # 1..4
    witness: dict

    def to_json(self):
        out = {"verdict": self.verdict, "witness": self.witness}
        if self.verdict == "tractable":
            out["class"] = self.tractable_class
        else:
            out["case"] = self.hard_case
        return out


def classify(p: SixVertexParams) -> Classification:
    f = from_six_vertex(p)
    p_report = in_P(f)
    a_report = in_A(f)
    m_ok = one_zero_each_pair(p)
    zp = zero_pattern(p)
    witness = {
        "params": [format_scalar(v) for v in p],
        "zero_pattern": list(zp),
        "in_P": p_report.member,
        "in_A": a_report.member,
        "one_zero_each_pair": m_ok,
    }
    if p_report.member:
        witness["p_certificate"] = p_report.to_json()
        return Classification("tractable", "P", None, witness)
    if a_report.member:
        witness["a_certificate"] = a_report.to_json()
        return Classification("tractable", "A", None, witness)
    if a_report.reason:
        witness["a_failure"] = a_report.reason
    if m_ok:
        return Classification("tractable", "M", None, witness)
    zeros = sum(1 for v in p if not v)
    witness["zero_count"] = zeros
    if "both_zero" in zp:
        case = 1
    elif zeros == 0:
        case = 2
    elif zeros == 1:
        case = 3
    elif zeros == 2:
        case = 4
    else:
        # 3+ zeros with no zero pair means one per pair, which is tractable
        raise AssertionError(f"unreachable zero pattern for {p}")
    return Classification("hard", None, case, witness)
