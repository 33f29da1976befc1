"""Brute-force evaluators and independent oracles.

brute_force_eval sums, over the 2^|E| edge orientations, the product of
the vertex values, directly from the Holant definition; it is the ground
truth every other evaluator is gated against, so it shares no code with
the contraction engine. eval_bipartite_equality is the same sum with
equality edges.

The sum is enumerated depth first, one edge bit per level. The edges are
ordered by taking the vertices in sorted order and listing each vertex's
edges not yet listed, and each vertex is evaluated at the first level where
all of its ports are set. A zero vertex value skips the whole subtree
below it (every leaf there has product 0), and each node returns the
product of the vertices it completes times the sum over its two children
(distributivity). The result is the same 2^|E|-term sum, exactly; nothing
is memoised on the open edges, which would make it a contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import SignatureGrid
from .grid import validate  # unused here: perfbench/tracer.py binds this name
from .scalar import ONE, ZERO, Scalar
from .signature import Signature, SixVertexParams, from_six_vertex, mat_mul

__all__ = [
    "EvalResult",
    "TooLargeError",
    "brute_force_eval",
    "eval_bipartite_equality",
    "count_eulerian_orientations",
    "DEFAULT_EDGE_CAP",
]

DEFAULT_EDGE_CAP = 24


class TooLargeError(RuntimeError):
    """Instance exceeds a configured resource cap."""


@dataclass(frozen=True)
class EvalResult:
    value: Scalar
    method: str
    stats: dict


def _port_layout(grid: SignatureGrid, second_end_flip: int):
    """Per-vertex list of (shift, edge_index, flip): the port at that shift
    reads edge bit xor flip. Edge bit b means first-end port = b; the second
    end reads b xor second_end_flip (1 for disequality edges, 0 for
    equality edges)."""
    layout = {v: [] for v in grid.vertices}
    for e, (p, q) in enumerate(grid.edges):
        layout[p.vertex].append((3 - p.slot, e, 0))
        layout[q.vertex].append((3 - q.slot, e, second_end_flip))
    return layout


def _assignment_sum(
    grid: SignatureGrid,
    signatures: dict[int, Signature],
    second_end_flip: int,
    edge_cap: int,
    method: str,
) -> EvalResult:
    """Sum over all 2^|E| edge assignments of the product of the vertex
    values, vertex v evaluated with signatures[v]."""
    m = len(grid.edges)
    if m > edge_cap:
        raise TooLargeError(
            f"{m} edges exceeds brute-force cap {edge_cap}"
        )
    layout = _port_layout(grid, second_end_flip)
    level: dict[int, int] = {}  # edge -> the level at which its bit is set
    # complete[k]: (table, ports) of each vertex whose ports are all set
    # once bits[:k] are, each port read as (shift, level, flip)
    complete = [[] for _ in range(m + 1)]
    for v in sorted(layout):
        for _, e, _ in layout[v]:
            level.setdefault(e, len(level))
        ports = [(shift, level[e], flip) for shift, e, flip in layout[v]]
        complete[1 + max(d for _, d, _ in ports)].append(
            (signatures[v].values, ports)
        )
    return EvalResult(_factored_sum(complete), method, {"assignments": 1 << m})


def _factored_sum(complete) -> Scalar:
    """Depth-first sum over the bits of levels 0..m-1 (m = len(complete)
    - 1). The node at level k, with bits[:k] set, is worth the product of
    the vertices in complete[k] times the sum of its two children; a zero
    vertex value makes it worth 0 without visiting them. An explicit stack,
    so the depth is not bounded by the recursion limit."""
    m = len(complete) - 1
    bits = [0] * m
    prods = [None] * m  # product of complete[k]; None when it is empty
    sums = [ZERO] * m  # sum over the finished children of level k
    k = 0
    while True:
        # enter the node at level k
        prod = None
        for table, ports in complete[k]:
            idx = 0
            for shift, d, flip in ports:
                idx |= (bits[d] ^ flip) << shift
            val = table[idx]
            if not val:
                value = ZERO  # every leaf below has product 0
                break
            prod = val if prod is None else prod * val
        else:
            if k < m:
                prods[k], sums[k], bits[k] = prod, ZERO, 0
                k += 1
                continue
            value = ONE if prod is None else prod
        # leave it: fold its value into the levels above that are done
        while k:
            k -= 1
            if value:
                sums[k] = sums[k] + value if sums[k] else value
            if not bits[k]:
                bits[k] = 1
                k += 1
                break
            value = sums[k]
            if prods[k] is not None and value:
                value = prods[k] * value
        else:
            return value


def brute_force_eval(grid: SignatureGrid, edge_cap: int = DEFAULT_EDGE_CAP) -> EvalResult:
    """The Holant sum by enumeration."""
    return _assignment_sum(grid, grid.vertices, 1, edge_cap, "brute")


def eval_bipartite_equality(
    grid: SignatureGrid,
    transformed: dict[int, Signature] | None = None,
    edge_cap: int = DEFAULT_EDGE_CAP,
) -> EvalResult:
    """Same sum with =_2 on the edges (both ends equal), optionally replacing
    each vertex signature; used to test holographic invariance."""
    sigs = dict(grid.vertices)
    if transformed:
        sigs.update(transformed)
    return _assignment_sum(grid, sigs, 0, edge_cap, "brute-eq")


def count_eulerian_orientations(grid: SignatureGrid) -> int:
    """Orientations with in-degree 2 everywhere, counted directly from the
    edge list (no signature machinery; oracle for the ice point)."""
    m = len(grid.edges)
    count = 0
    verts = list(grid.vertices)
    for assign in range(1 << m):
        indeg = dict.fromkeys(verts, 0)
        for e, (p, q) in enumerate(grid.edges):
            if (assign >> e) & 1:
                indeg[p.vertex] += 1
            else:
                indeg[q.vertex] += 1
        if all(d == 2 for d in indeg.values()):
            count += 1
    return count


def torus_transfer_matrix_value(n: int, p: SixVertexParams) -> Scalar:
    """Exact torus partition function by row transfer matrix: trace(T^n).

    Independent of the grid/contraction machinery. Practical for n <= 4
    (the matrix is 2^n x 2^n). An oracle for the tests only, so it is not
    exported; it stays here because perfbench's tests import it by name.
    """
    sig = from_six_vertex(p)

    def vertex_value(n_bit, e_bit, s_bit, w_bit):
        return sig[(n_bit << 3) | (e_bit << 2) | (s_bit << 1) | w_bit]

    size = 1 << n
    # T[u][w]: u = incoming vertical bits (south bit of the row above),
    # w = this row's south bits; horizontal wrap handled by a 2x2 trace.
    T = []
    for u in range(size):
        row = []
        for w in range(size):
            acc = None
            for c in range(n):
                n_bit = 1 - ((u >> (n - 1 - c)) & 1)
                s_bit = (w >> (n - 1 - c)) & 1
                # local[h_prev][h_cur], h = east-port bit of column c
                local = [
                    [
                        vertex_value(n_bit, h_cur, s_bit, 1 - h_prev)
                        for h_cur in (0, 1)
                    ]
                    for h_prev in (0, 1)
                ]
                acc = local if acc is None else mat_mul(acc, local)
            row.append(acc[0][0] + acc[1][1])
        T.append(row)

    power = None
    base = T
    k = n
    while k:
        if k & 1:
            power = base if power is None else mat_mul(power, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return sum((power[i][i] for i in range(size)), ZERO)
