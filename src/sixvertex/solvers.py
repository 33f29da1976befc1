"""Polynomial-time exact solvers for the three tractable classes, plus the
dispatching solve() front end.

solve_P and solve_M both end in one two-state component sum over nodes in
state 0 or 1 under XOR links: per connected component, the sum of its two
consistent state products. solve_P's nodes are the tensor-factor blocks;
solve_M pins the shared-value slots, propagates, and makes each residual
vertex a node whose state says which open port holds its token. solve_A
gives each edge one GF(2) variable, reads each vertex's parity checks off
its in_A certificate, builds one global Z4 quadratic phase, substitutes the
echelon rows' pivots in order and evaluates the rest as a Gauss sum. Each
solver tests every distinct signature once for membership in its class, in
vertex order, and raises SolverError at the first vertex outside it.
solve(auto) tries solve_P, solve_A and solve_M in that order, moves on when
one raises SolverError, and then falls back to brute force or refuses.
Every solver's correctness gate is exact agreement with brute force.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import in_A, in_P, one_zero_each_pair
from .evaluate import DEFAULT_EDGE_CAP, TooLargeError, brute_force_eval
from .contract import DEFAULT_RANK_CAP, contract_eval
from .gf2 import LinearSystemGF2, QuadraticPhase, gauss_sum
from .grid import Port, SignatureGrid
from .grid import validate  # unused here: perfbench/tracer.py binds this name
from .scalar import ONE, ZERO, Scalar
from .signature import bit_of, six_vertex_params

__all__ = [
    "SolverError",
    "MixedChiralityError",
    "SolveResult",
    "solve_P",
    "solve_A",
    "solve_M",
    "solve",
    "METHODS",
]


class SolverError(ValueError):
    pass


class MixedChiralityError(SolverError):
    """Adjacent one-zero-per-pair vertices pin opposite shared values; the
    residual counting is matching-hard, so no polynomial path exists."""


def _class_reports(grid: SignatureGrid, test, refusal, member=None):
    """test(f) once per distinct signature, keyed by signature.

    The signatures are met in vertex order; SolverError names the first
    vertex whose report fails member (default: its .member flag). None means
    every vertex passed but some signature is zero, so the sum is 0.
    """
    reports = {}
    for v in sorted(grid.vertices):
        f = grid.vertices[v]
        if f not in reports:
            report = reports[f] = test(f)
            if not (report.member if member is None else member(report)):
                raise SolverError(f"vertex {v} {refusal}")
    if any(f.is_zero() for f in reports):
        return None
    return reports


def _two_state_sum(values, adj):
    """Sum over states s_u in {0, 1} with s_u ^ s_v == d for each (v, d) in
    adj[u] of the product of values[u][s_u]; a one-value node takes state 0.
    One connected component at a time: ZERO on a parity conflict or a zero
    component."""
    parity = [None] * len(values)
    total = ONE
    for root in range(len(values)):
        if parity[root] is not None:
            continue
        parity[root] = 0
        comp = [root]
        for u in comp:  # grows while scanned: a breadth-first walk
            for v, d in adj[u]:
                if parity[v] is None:
                    parity[v] = parity[u] ^ d
                    comp.append(v)
                elif parity[v] != parity[u] ^ d:
                    return ZERO
        comp_value = ZERO
        for flip in (0, 1):
            weight = ONE
            for u in comp:
                s = parity[u] ^ flip
                if s >= len(values[u]):
                    break
                weight = weight * values[u][s]
            else:
                comp_value = comp_value + weight
        if not comp_value:
            return ZERO
        total = total * comp_value
    return total


# ---------------------------------------------------------------- P solver


def solve_P(grid: SignatureGrid) -> Scalar:
    reports = _class_reports(grid, in_P, "is not in the product class")
    if reports is None:
        return ZERO
    blocks = []
    port_block: dict[Port, tuple[int, int]] = {}  # port -> (block, local pos)
    for v in sorted(grid.vertices):
        for factor in reports[grid.vertices[v]].factors:
            for i, pos in enumerate(factor.var_positions):
                port_block[Port(v, pos)] = (len(blocks), i)
            blocks.append(factor)

    adj = [[] for _ in blocks]  # a block's state 1 is its complemented string
    for p, q in grid.edges:
        pb, pi = port_block[p]
        qb, qi = port_block[q]
        k = len(blocks[pb].var_positions)
        up = (blocks[pb].strings[0] >> (k - 1 - pi)) & 1
        k = len(blocks[qb].var_positions)
        uq = (blocks[qb].strings[0] >> (k - 1 - qi)) & 1
        d = 1 ^ up ^ uq  # s_p xor s_q must equal d
        adj[pb].append((qb, d))
        adj[qb].append((pb, d))
    return _two_state_sum([b.values for b in blocks], adj)


# ---------------------------------------------------------------- A solver


def _parity_checks(cert):
    """The support base ^ span(basis) as parity checks over the 4 ports: for
    each mask orthogonal to every basis row, its positions and its parity
    at base."""
    checks = []
    for mask in range(1, 16):
        if not any((mask & b).bit_count() & 1 for b in cert.basis):
            positions = [pos for pos in range(4) if bit_of(mask, pos, 4)]
            checks.append((positions, (mask & cert.base).bit_count() & 1))
    return checks


def solve_A(grid: SignatureGrid) -> Scalar:
    reports = _class_reports(grid, in_A, "is not in the affine class")
    if reports is None:
        return ZERO
    # Edge e's variable is its bit at the first end; the second end reads it
    # flipped, as in brute_force_eval.
    ends = {}  # port -> (edge, flip)
    for e, (p, q) in enumerate(grid.edges):
        ends[p] = (e, 0)
        ends[q] = (e, 1)

    checks = {f: _parity_checks(report.certificate) for f, report in reports.items()}
    system = LinearSystemGF2(len(grid.edges))
    phase = QuadraticPhase()
    prefactor = ONE
    for v in sorted(grid.vertices):
        f = grid.vertices[v]
        cert = reports[f].certificate
        port = [ends[Port(v, pos)] for pos in range(4)]
        # each check over the edges; XOR, so the two ends of a self-loop
        # cancel to the constant 1
        for positions, rhs in checks[f]:
            gmask = 0
            for pos in positions:
                e, flip = port[pos]
                gmask ^= 1 << e
                rhs ^= flip
            system.add(gmask, rhs)
        prefactor = prefactor * cert.lam
        # free bit u_j = x_e xor t_j at the j-th pivot position
        pvars = [port[pos][0] for pos in cert.pivots]
        tvals = [bit_of(cert.base, pos, 4) ^ port[pos][1] for pos in cert.pivots]
        for j, a in enumerate(cert.linear):
            phase.add_scaled_parity(a, tvals[j], [pvars[j]])
        for j, k, b in cert.cross:
            phase.add_const(2 * b * tvals[j] * tvals[k])
            phase.add_linear(pvars[k], 2 * b * tvals[j])
            phase.add_linear(pvars[j], 2 * b * tvals[k])
            phase.add_cross(pvars[j], pvars[k], b)

    if not system.consistent:
        return ZERO
    return prefactor * gauss_sum(phase, system.reduce(phase))


# ---------------------------------------------------------------- M solver


def _m_pins(f):
    """The (slot, value) pairs every support string of f shares, or None
    when f does not have a zero in each pair."""
    params = six_vertex_params(f)
    if params is None or not one_zero_each_pair(params):
        return None
    support = f.support()
    pins = []
    for pos in range(4):
        bits = {bit_of(s, pos, 4) for s in support}
        if len(bits) == 1:
            pins.append((pos, bits.pop()))
    return pins


def _m_token_weights(f, pin_slot, pin_val):
    weights = {}
    for k in range(4):
        if k == pin_slot:
            continue
        s = (1 << (3 - pin_slot)) | (1 << (3 - k))
        if pin_val == 0:
            s ^= 0b1111
        weights[k] = f[s]
    return weights


def solve_M(grid: SignatureGrid) -> Scalar:
    reports = _class_reports(
        grid, _m_pins, "does not have a zero in each pair",
        member=lambda pins: pins is not None,
    )
    if reports is None:
        return ZERO
    # pin the same value at every vertex if the signatures allow it, else
    # 0 wherever a signature allows it
    for val in (0, 1):
        if all(any(t[1] == val for t in ts) for ts in reports.values()):
            pin = {
                f: next(t for t in ts if t[1] == val)
                for f, ts in reports.items()
            }
            break
    else:
        pin = {
            f: next((t for t in ts if t[1] == 0), ts[0])
            for f, ts in reports.items()
        }
    sig_weights = {f: _m_token_weights(f, *t) for f, t in pin.items()}
    pin_slot = {v: pin[f][0] for v, f in grid.vertices.items()}
    pin_val = {v: pin[f][1] for v, f in grid.vertices.items()}
    weights = {v: sig_weights[f] for v, f in grid.vertices.items()}

    partner = {}
    for p, q in grid.edges:
        partner[p], partner[q] = q, p
    bits: dict[Port, int] = {}
    token: dict[int, int | None] = dict.fromkeys(grid.vertices, None)
    candidates = {
        v: {k for k in range(4) if k != pin_slot[v]} for v in grid.vertices
    }
    queue = [(Port(v, pin_slot[v]), pin_val[v]) for v in sorted(grid.vertices)]
    while queue:
        port, b = queue.pop()
        if port in bits:
            if bits[port] != b:
                return ZERO
            continue
        bits[port] = b
        queue.append((partner[port], 1 - b))
        v, slot = port
        if slot == pin_slot[v]:
            continue
        candidates[v].discard(slot)
        if b == pin_val[v]:
            if token[v] is not None:
                return ZERO  # second token
            token[v] = slot
            for k in list(candidates[v]):
                queue.append((Port(v, k), 1 - pin_val[v]))
        else:
            if token[v] is None:
                if not candidates[v]:
                    return ZERO
                if len(candidates[v]) == 1:
                    (k,) = candidates[v]
                    queue.append((Port(v, k), pin_val[v]))

    total = ONE
    for v, slot in token.items():
        if slot is not None:
            total = total * weights[v][slot]
            if not total:
                return ZERO

    # A residual vertex's state says which of its two open ports holds the
    # token, 0 the lower; each free edge carries exactly one token end.
    residual = [v for v in grid.vertices if token[v] is None]
    node = {v: u for u, v in enumerate(residual)}
    for v in residual:
        candidates[v] = sorted(candidates[v])  # the open ports
    adj = []
    for v in residual:
        links = []
        for k in candidates[v]:
            w, slot = partner[Port(v, k)]
            if pin_val[v] != pin_val[w]:
                raise MixedChiralityError(
                    f"vertices {v} and {w} pin opposite values across "
                    "a free edge; falling back is required"
                )
            d = 1 ^ (k == candidates[v][0]) ^ (slot == candidates[w][0])
            links.append((node[w], d))
        adj.append(tuple(links))  # not the list: keeps large tori's heap flat
    values = []
    for v in residual:
        if len(candidates[v]) != 2:
            return ZERO  # residual degree != 2: no token assignment exists
        a, b = candidates[v]
        values.append((weights[v][a], weights[v][b]))
    return total * _two_state_sum(values, adj)


# --------------------------------------------------------------- dispatch


# class method name -> class label; auto tries them in this order, the
# paper's P, A, M, and falls back to brute force
_CLASS_METHODS = {"p": "P", "a": "A", "m": "M"}
METHODS = ("auto", "brute", "contract", *_CLASS_METHODS)


@dataclass(frozen=True)
class SolveResult:
    value: Scalar
    class_used: str  # "P" | "A" | "M" | "brute" | "contract"


def solve(
    grid: SignatureGrid,
    method: str = "auto",
    edge_cap: int = DEFAULT_EDGE_CAP,
    rank_cap: int = DEFAULT_RANK_CAP,
) -> SolveResult:
    if method == "brute":
        return SolveResult(brute_force_eval(grid, edge_cap).value, "brute")
    if method == "contract":
        return SolveResult(contract_eval(grid, rank_cap=rank_cap).value, "contract")
    if method == "auto":
        tried = tuple(_CLASS_METHODS)
    elif method in _CLASS_METHODS:
        tried = (method,)
    else:
        raise ValueError(f"unknown method {method!r}")
    for name in tried:
        label = _CLASS_METHODS[name]
        # looked up now, not at import, so a rebound solve_X is the one used
        solver = globals()["solve_" + label]
        try:
            return SolveResult(solver(grid), label)
        except SolverError:
            if method != "auto":
                raise
    if len(grid.edges) <= edge_cap:
        return SolveResult(brute_force_eval(grid, edge_cap).value, "brute")
    raise TooLargeError(
        "no tractable algorithm applies and the instance exceeds the "
        f"brute-force cap ({len(grid.edges)} > {edge_cap} edges)"
    )
