"""Exact tensor-network contraction of signature grids.

Each vertex becomes a sparse tensor over its open edges (self-loops folded
at build time, the neq_2 on every edge folded into the second end as a bit
flip). Contraction follows a plan of pairwise merges; the default plan is a
greedy minimum-resulting-open-indices heuristic with deterministic
tie-breaking, so results and plans are reproducible.

Every merge multiplies plain Python ints. Each vertex tensor is scaled by
the lcm D_v of its denominators, so an entry is x0 + x1*i + (x2 + x3*i)*sqrt2
with integer x_k, and the contracted value is divided by the product of the
D_v once at the end. Rational tables stay exact ints (x0). Any other table
is packed by Kronecker substitution (von zur Gathen and Gerhard, Modern
Computer Algebra, 8.4): Q(i, sqrt2) = Q(z) for z = zeta8, with i = z^2 and
sqrt2 = z - z^3, so the entry is sum_j c_j z^j with
(c0, c1, c2, c3) = (x0, x2 + x3, x1, x3 - x2), and it becomes the int
sum_j c_j 2^(jB) mod N = 2^(4B) + 1. Since 2^(4B) = -1 mod N, 2^B is a root
of z^4 + 1 mod N, so sums and products of packed entries, reduced mod N,
are the packed sums and products.

The decoding is exact because B is large enough. For each complex embedding
s of Q(z), |c_j(Z)| <= max_s |s(Z)| (the c_j are an average of the s(Z)
times roots of unity), and |s(Z)| <= prod_v sum_x |c(f_v(x))|_1 (Z sums
products of one entry per vertex, and |s(z^j)| = 1). B is chosen with
2^(B-1) above that product, so the balanced residue of the packed Z splits
into four signed base-2^B digits, which are its c_j; then x2 = (c1 - c3)/2
and x3 = (c1 + c3)/2. The result is the same exact Scalar.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import lcm

from .evaluate import EvalResult, TooLargeError
from .grid import SignatureGrid, validate
from .scalar import ONE, Scalar

__all__ = [
    "ContractionPlan",
    "ContractionCapError",
    "plan_contraction",
    "sequential_plan",
    "contract_eval",
    "DEFAULT_RANK_CAP",
]

DEFAULT_RANK_CAP = 26


class ContractionCapError(TooLargeError):
    pass


@dataclass(frozen=True)
class ContractionPlan:
    """Pairwise merge steps, each naming two live tensors by the vertex sets
    they cover; peak_rank is the largest open-index count reached."""

    steps: tuple[tuple[frozenset, frozenset], ...]
    peak_rank: int


class _Tensor:
    __slots__ = ("edges", "data")

    def __init__(self, edges, data):
        self.edges = tuple(edges)
        self.data = data


def _incidence(grid: SignatureGrid) -> dict[int, dict[int, list[tuple[int, int]]]]:
    """One pass over the edges: vertex -> {edge: [(slot, flip), ...]}, edges
    in id order, flip 1 at an edge's second end. A self-loop lists both of
    its ends; every other edge at the vertex is open and lists one."""
    ends: dict[int, dict[int, list[tuple[int, int]]]] = {v: {} for v in grid.vertices}
    for e, (p, q) in enumerate(grid.edges):
        for port, flip in ((p, 0), (q, 1)):
            at = ends.get(port.vertex)
            if at is not None:
                at.setdefault(e, []).append((port.slot, flip))
    return ends


def _open_masks(grid: SignatureGrid) -> dict[int, int]:
    """vertex -> bitmask of its open (non-self-loop) edges."""
    return {
        v: sum(1 << e for e, at in ends.items() if len(at) == 1)
        for v, ends in _incidence(grid).items()
    }


def _vertex_tensor(sig, ends: dict[int, list[tuple[int, int]]]) -> _Tensor:
    open_edges = [e for e, lst in ends.items() if len(lst) == 1]
    loops = [lst for lst in ends.values() if len(lst) == 2]
    data: dict[int, Scalar] = {}
    for idx in range(16):
        val = sig[idx]
        if not val:
            continue
        bits = [(idx >> (3 - s)) & 1 for s in range(4)]
        if any(bits[s1] ^ f1 != bits[s2] ^ f2 for (s1, f1), (s2, f2) in loops):
            continue
        key = 0
        for i, e in enumerate(open_edges):
            (slot, flip), = ends[e]
            key |= (bits[slot] ^ flip) << i
        cur = data.get(key)
        data[key] = val if cur is None else cur + val
    return _Tensor(open_edges, {k: v for k, v in data.items() if v})


def _remap(data: dict, dst: list[int]):
    """Stream (x, value) over data, x being the key with its bit i moved to
    bit dst[i]. Each byte of a key is looked up in a 256-entry table, built
    by doubling, of the bits it moves to; the bytes' bits are disjoint, so
    the lookups are ORed (or summed)."""
    tables = []
    for lo in range(0, len(dst), 8):
        tab = [0]
        for d in dst[lo : lo + 8]:
            bit = 1 << d
            tab += [x | bit for x in tab]
        tables.append(tab)
    if len(tables) > 4:
        return (
            (sum(t[k >> 8 * j & 255] for j, t in enumerate(tables)), v)
            for k, v in data.items()
        )
    t0, t1, t2, t3 = tables + [[0]] * (4 - len(tables))
    return (
        (t0[k & 255] | t1[k >> 8 & 255] | t2[k >> 16 & 255] | t3[k >> 24], v)
        for k, v in data.items()
    )


def _lift(tensors) -> tuple[int, int, int | None]:
    """Turn every entry into one int, in place, as the module docstring
    describes; returns (D, B, N), N None when every table is rational."""
    scale = bound = 1
    for t in tensors:
        den = lcm(*(s.coords[4] for s in t.data.values()))
        scale *= den
        zeta = {}
        for k, s in t.data.items():
            x0, x1, x2, x3, d = s.coords
            m = den // d
            zeta[k] = (x0 * m, (x2 + x3) * m, x1 * m, (x3 - x2) * m)
        t.data = zeta
        bound *= sum(abs(x) for c in zeta.values() for x in c)
    b = bound.bit_length() + 1
    rational = not any(c[1] or c[2] or c[3] for t in tensors for c in t.data.values())
    mod = None if rational else (1 << 4 * b) + 1
    for t in tensors:
        packed = {
            k: c0 + (c1 << b) + (c2 << 2 * b) + (c3 << 3 * b)
            for k, (c0, c1, c2, c3) in t.data.items()
        }
        t.data = packed if mod is None else {k: x % mod for k, x in packed.items()}
    return scale, b, mod


def _unpack(x: int, b: int, mod: int | None) -> tuple[int, int, int, int]:
    """(x0, x1, x2, x3) of a contracted value packed by _lift."""
    if mod is not None and x > mod >> 1:
        x -= mod
    # adding half to each digit makes them all lie in [0, 2^B)
    half, low = 1 << (b - 1), (1 << b) - 1
    x += sum(half << (j * b) for j in range(4))
    c0, c1, c2, c3 = (((x >> (j * b)) & low) - half for j in range(4))
    return c0, c2, (c1 - c3) // 2, (c1 + c3) // 2


def _merge(a: _Tensor, b: _Tensor, mod: int | None) -> _Tensor:
    """Contract the shared edges of a and b; entries are reduced mod `mod`
    unless it is None. Out edges take the low key bits, shared ones the
    bits above them. The smaller tensor is grouped by its shared bits and
    the larger one streamed past it."""
    if len(a.data) < len(b.data):
        a, b = b, a
    ea, eb = set(a.edges), set(b.edges)
    out_edges = sorted(ea ^ eb)
    pos = {e: i for i, e in enumerate(out_edges + sorted(ea & eb))}
    s = len(out_edges)
    mask = (1 << s) - 1
    groups: dict[int, list[tuple[int, int]]] = {}
    for x, v in _remap(b.data, [pos[e] for e in b.edges]):
        groups.setdefault(x >> s, []).append((x & mask, v))
    acc: defaultdict[int, int] = defaultdict(int)
    for x, v in _remap(a.data, [pos[e] for e in a.edges]):
        grp = groups.get(x >> s)
        if grp:
            oa = x & mask
            for ob, w in grp:
                acc[oa | ob] += v * w
    if mod is None:
        data = {k: v for k, v in acc.items() if v}
    else:
        data = {k: r for k, v in acc.items() if (r := v % mod)}
    return _Tensor(out_edges, data)


def plan_contraction(grid: SignatureGrid) -> ContractionPlan:
    """Greedy: always merge the pair minimizing the resulting open-index
    count, ties broken by lowest involved vertex ids.

    The key (rank, lo, hi) of a pair never changes while both tensors live,
    and (lo, hi) is unique among live pairs, so one heap of pair keys finds
    every step: each merge pushes the new tensor's pairs and stale entries
    are skipped on pop, O(V^2 log V) in all. Tensors are numbered in the
    order they appear (grid.vertices order, then merges), and each step
    names the earlier one first."""
    masks = list(_open_masks(grid).items())
    keys = [frozenset((v,)) for v, _ in masks]
    low = [v for v, _ in masks]
    live = {t: m for t, (_, m) in enumerate(masks)}
    peak = max((m.bit_count() for m in live.values()), default=0)
    heap = [
        ((ma ^ mb).bit_count(), *sorted((low[a], low[b])), a, b)
        for (a, ma), (b, mb) in combinations(live.items(), 2)
    ]
    heapify(heap)
    steps = []
    while len(live) > 1:
        rank, _, _, a, b = heappop(heap)
        if a not in live or b not in live:
            continue
        merged = live.pop(a) ^ live.pop(b)
        steps.append((keys[a], keys[b]))
        new = len(keys)
        keys.append(keys[a] | keys[b])
        low.append(min(low[a], low[b]))
        peak = max(peak, rank)
        for t, m in live.items():
            heappush(heap, ((m ^ merged).bit_count(), *sorted((low[t], low[new])), t, new))
        live[new] = merged
    return ContractionPlan(tuple(steps), peak)


def sequential_plan(grid: SignatureGrid, order=None) -> ContractionPlan:
    """Absorb vertices one at a time into a growing cluster, in id order by
    default; the right shape for row-major lattices."""
    order = sorted(grid.vertices) if order is None else list(order)
    masks = _open_masks(grid)
    steps = []
    peak = max((m.bit_count() for m in masks.values()), default=0)
    cluster = frozenset((order[0],)) if order else frozenset()
    open_edges = masks[order[0]] if order else 0
    for v in order[1:]:
        steps.append((cluster, frozenset((v,))))
        open_edges ^= masks[v]
        cluster = cluster | {v}
        peak = max(peak, open_edges.bit_count())
    return ContractionPlan(tuple(steps), peak)


def _replay(grid: SignatureGrid, plan: ContractionPlan, rank_cap: int) -> int:
    """Check the plan on edge masks before any tensor is built: every step
    must merge two live tensors within rank_cap open edges, and the last
    must leave one tensor. Returns the peak rank."""
    live = {frozenset((v,)): m for v, m in _open_masks(grid).items()}
    peak = max(m.bit_count() for m in live.values())
    for ka, kb in plan.steps:
        if ka == kb or ka not in live or kb not in live:
            raise ValueError(f"plan step ({sorted(ka)}, {sorted(kb)}) does not match grid")
        merged = live.pop(ka) ^ live.pop(kb)
        rank = merged.bit_count()
        if rank > rank_cap:
            raise ContractionCapError(
                f"merging {sorted(ka)} with {sorted(kb)} needs rank {rank} > cap {rank_cap}"
            )
        live[ka | kb] = merged
        peak = max(peak, rank)
    if len(live) != 1:
        raise ValueError("plan does not contract the grid to one tensor")
    return peak


def contract_eval(
    grid: SignatureGrid,
    plan: ContractionPlan | None = None,
    rank_cap: int = DEFAULT_RANK_CAP,
) -> EvalResult:
    errors = validate(grid)
    if errors:
        raise ValueError("invalid grid: " + "; ".join(errors))
    if not grid.vertices:
        return EvalResult(ONE, "contract", {"peak_rank": 0})
    if plan is None:
        plan = plan_contraction(grid)
    peak = _replay(grid, plan, rank_cap)
    live = {
        frozenset((v,)): _vertex_tensor(grid.vertices[v], ends)
        for v, ends in _incidence(grid).items()
    }
    scale, b, mod = _lift(live.values())
    for ka, kb in plan.steps:
        live[ka | kb] = _merge(live.pop(ka), live.pop(kb), mod)
    (final,) = live.values()
    value = Scalar.from_coords(*_unpack(final.data.get(0, 0), b, mod), scale)
    return EvalResult(value, "contract", {"peak_rank": peak})
