"""Polynomial-time exact solvers for the three tractable classes, plus the
dispatching solve() front end.

solve_P propagates pattern choices across tensor-factor blocks; solve_A
gives each edge one GF(2) variable, assembles the vertices' parity checks and
one global Z4 quadratic phase, substitutes the echelon rows' pivots in order,
and evaluates the rest as a Gauss sum; solve_M pins the shared-value slots,
propagates, and counts the two token orientations of each residual cycle.
Each solver tests every distinct signature once for membership in its class,
in vertex order, and raises SolverError at the first vertex outside it.
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


def _partner_map(grid: SignatureGrid):
    partner = {}
    for p, q in grid.edges:
        partner[p] = q
        partner[q] = p
    return partner


# ---------------------------------------------------------------- P solver


def solve_P(grid: SignatureGrid) -> Scalar:
    reports = _class_reports(grid, in_P, "is not in the product class")
    if reports is None:
        return ZERO
    blocks = []  # (ports, strings, values)
    port_block: dict[Port, tuple[int, int]] = {}  # port -> (block, local pos)
    for v in sorted(grid.vertices):
        for factor in reports[grid.vertices[v]].factors:
            bid = len(blocks)
            for i, pos in enumerate(factor.var_positions):
                port_block[Port(v, pos)] = (bid, i)
            blocks.append(factor)

    # XOR constraints between block states: state 1 means the complemented
    # string; single-string blocks admit state 0 only.
    nblocks = len(blocks)
    adj: dict[int, list[tuple[int, int]]] = {b: [] for b in range(nblocks)}
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

    seen = [False] * nblocks
    total = ONE
    for root in range(nblocks):
        if seen[root]:
            continue
        comp = []
        parity = {root: 0}
        stack = [root]
        seen[root] = True
        consistent = True
        while stack:
            b = stack.pop()
            comp.append(b)
            for nb, d in adj[b]:
                want = parity[b] ^ d
                if nb in parity:
                    if parity[nb] != want:
                        consistent = False
                else:
                    parity[nb] = want
                    seen[nb] = True
                    stack.append(nb)
        if not consistent:
            return ZERO
        comp_value = ZERO
        for s_root in (0, 1):
            weight = ONE
            ok = True
            for b in comp:
                s = parity[b] ^ s_root
                if s >= len(blocks[b].strings):
                    ok = False
                    break
                weight = weight * blocks[b].values[s]
            if ok:
                comp_value = comp_value + weight
        if not comp_value:
            return ZERO
        total = total * comp_value
    return total


# ---------------------------------------------------------------- A solver


def _parity_checks(f):
    """f's affine support as parity checks over its 4 ports: the
    (positions, parity) pairs that every support string meets."""
    support = f.support()
    checks = []
    for mask4 in range(1, 16):
        dots = {bin(mask4 & s).count("1") & 1 for s in support}
        if len(dots) == 1:
            positions = [pos for pos in range(4) if (mask4 >> (3 - pos)) & 1]
            checks.append((positions, dots.pop()))
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

    checks = {f: _parity_checks(f) for f in reports}
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

    partner = _partner_map(grid)
    values: dict[Port, int] = {}
    token: dict[int, int | None] = dict.fromkeys(grid.vertices, None)
    candidates = {
        v: {k for k in range(4) if k != pin_slot[v]} for v in grid.vertices
    }
    queue = [(Port(v, pin_slot[v]), pin_val[v]) for v in sorted(grid.vertices)]
    while queue:
        port, b = queue.pop()
        if port in values:
            if values[port] != b:
                return ZERO
            continue
        values[port] = b
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

    residual = [v for v in grid.vertices if token[v] is None]
    open_ports = {v: sorted(candidates[v]) for v in residual}
    for v in residual:
        for k in open_ports[v]:
            q = partner[Port(v, k)]
            if 1 ^ pin_val[v] ^ pin_val[q.vertex] == 0:
                raise MixedChiralityError(
                    f"vertices {v} and {q.vertex} pin opposite values across "
                    "a free edge; falling back is required"
                )
    done = set()
    for v0 in sorted(residual):
        if v0 in done:
            continue
        if len(open_ports[v0]) != 2:
            return ZERO  # residual degree != 2: no token assignment exists
        comp_value = ZERO
        for start in open_ports[v0]:
            weight = ONE
            fired = {}
            cur_v, fire = v0, start
            good = True
            while True:
                if len(open_ports[cur_v]) != 2:
                    good = False
                    break
                fired[cur_v] = fire
                weight = weight * weights[cur_v][fire]
                nxt = partner[Port(cur_v, fire)]
                if nxt.vertex in fired:
                    a, b = open_ports[v0]
                    other0 = a if start == b else b
                    good = nxt.vertex == v0 and nxt.slot == other0
                    break
                if nxt.vertex not in open_ports or len(open_ports[nxt.vertex]) != 2:
                    good = False
                    break
                pa, pb = open_ports[nxt.vertex]
                fire = pa if nxt.slot == pb else pb
                cur_v = nxt.vertex
            if good:
                comp_value = comp_value + weight
            done.update(fired)
            done.add(v0)
        if not comp_value:
            return ZERO
        total = total * comp_value
    return total


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
