"""Brute-force evaluators and independent oracles.

brute_force_eval enumerates the 2^|E| edge orientations directly from the
Holant definition; it is the ground truth every other evaluator is gated
against, so it shares no code with the contraction engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import SignatureGrid, validate
from .scalar import ONE, ZERO, Scalar
from .signature import Signature, SixVertexParams, from_six_vertex, mat_mul

__all__ = [
    "EvalResult",
    "TooLargeError",
    "brute_force_eval",
    "eval_bipartite_equality",
    "count_eulerian_orientations",
    "torus_transfer_matrix_value",
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
    errors = validate(grid)
    if errors:
        raise ValueError("invalid grid: " + "; ".join(errors))
    m = len(grid.edges)
    if m > edge_cap:
        raise TooLargeError(
            f"{m} edges exceeds brute-force cap {edge_cap}"
        )
    layout = _port_layout(grid, second_end_flip)
    vertices = [
        (signatures[v].values, layout[v]) for v in sorted(grid.vertices)
    ]
    total = ZERO
    for assign in range(1 << m):
        prod = ONE
        for table, ports in vertices:
            idx = 0
            for shift, e, flip in ports:
                idx |= (((assign >> e) & 1) ^ flip) << shift
            val = table[idx]
            if not val:
                prod = None
                break
            prod = prod * val
        if prod is not None:
            total = total + prod
    return EvalResult(total, method, {"assignments": 1 << m})


def brute_force_eval(grid: SignatureGrid, edge_cap: int = DEFAULT_EDGE_CAP) -> EvalResult:
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
    (the matrix is 2^n x 2^n); used as an oracle.
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
