"""Exact tensor-network contraction of signature grids.

Each vertex becomes a sparse tensor over its open edges (self-loops folded
at build time, the neq_2 on every edge folded into the second end as a bit
flip). Contraction follows a plan of pairwise merges; the default plan is a
greedy minimum-resulting-open-indices heuristic with deterministic
tie-breaking, so results and plans are reproducible.

The merges run on integers, not on Scalar: each vertex tensor is scaled by
the lcm D_v of its denominators, so its entries lie in Z[i, sqrt2] (plain
ints when every table is rational), and the contracted value is divided by
the product of the D_v once at the end. The result is the same exact Scalar.
"""

from __future__ import annotations

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


class _ZI2:
    """x0 + x1*i + (x2 + x3*i)*sqrt2 with integer coordinates, an element of
    Z[i, sqrt2]; the product follows Scalar.__mul__ (sqrt2^2 = 2)."""

    __slots__ = ("x0", "x1", "x2", "x3")

    def __init__(self, x0, x1, x2, x3):
        self.x0, self.x1, self.x2, self.x3 = x0, x1, x2, x3

    def __add__(self, o):
        return _ZI2(self.x0 + o.x0, self.x1 + o.x1, self.x2 + o.x2, self.x3 + o.x3)

    def __mul__(self, o):
        a, b, c, d = self.x0, self.x1, self.x2, self.x3
        e, f, g, h = o.x0, o.x1, o.x2, o.x3
        return _ZI2(
            a * e - b * f + 2 * (c * g - d * h),
            a * f + b * e + 2 * (c * h + d * g),
            a * g - b * h + c * e - d * f,
            a * h + b * g + c * f + d * e,
        )

    def __bool__(self):
        return bool(self.x0 or self.x1 or self.x2 or self.x3)


def _lift(t: _Tensor, rational: bool) -> int:
    """Scale t's entries in place by D, the lcm of their denominators,
    storing them as ints (rational tables) or _ZI2; returns D."""
    coords = {k: s.coords for k, s in t.data.items()}
    den = lcm(*(c[4] for c in coords.values()))
    if rational:
        t.data = {k: c[0] * (den // c[4]) for k, c in coords.items()}
    else:
        t.data = {
            k: _ZI2(*(x * (den // c[4]) for x in c[:4])) for k, c in coords.items()
        }
    return den


def _merge(a: _Tensor, b: _Tensor) -> _Tensor:
    ea, eb = set(a.edges), set(b.edges)
    shared = sorted(ea & eb)
    out_edges = sorted(ea ^ eb)
    apos = {e: i for i, e in enumerate(a.edges)}
    bpos = {e: i for i, e in enumerate(b.edges)}
    opos = {e: i for i, e in enumerate(out_edges)}
    a_sh = [(apos[e], i) for i, e in enumerate(shared)]
    b_sh = [(bpos[e], i) for i, e in enumerate(shared)]
    a_out = [(apos[e], opos[e]) for e in a.edges if e not in eb]
    b_out = [(bpos[e], opos[e]) for e in b.edges if e not in ea]

    def extract(key, pairs):
        out = 0
        for src, dst in pairs:
            out |= ((key >> src) & 1) << dst
        return out

    groups: dict[int, list[tuple[int, object]]] = {}
    for key, val in b.data.items():
        groups.setdefault(extract(key, b_sh), []).append(
            (extract(key, b_out), val)
        )
    data: dict[int, object] = {}
    for key, val in a.data.items():
        grp = groups.get(extract(key, a_sh))
        if not grp:
            continue
        oa = extract(key, a_out)
        for ob, bval in grp:
            k = oa | ob
            prod = val * bval
            cur = data.get(k)
            data[k] = prod if cur is None else cur + prod
    data = {k: v for k, v in data.items() if v}
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
    rational = all(s.is_rational() for t in live.values() for s in t.data.values())
    scale = 1
    for t in live.values():
        scale *= _lift(t, rational)
    for ka, kb in plan.steps:
        live[ka | kb] = _merge(live.pop(ka), live.pop(kb))
    (final,) = live.values()
    z = final.data.get(0, 0 if rational else _ZI2(0, 0, 0, 0))
    coords = (z, 0, 0, 0) if rational else (z.x0, z.x1, z.x2, z.x3)
    value = Scalar.from_coords(*coords, scale)
    return EvalResult(value, "contract", {"peak_rank": peak})
