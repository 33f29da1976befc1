"""Exact tensor-network contraction of signature grids.

Each vertex becomes a sparse tensor over its open edges (self-loops folded
at build time, the neq_2 on every edge folded into the second end as a bit
flip). Contraction follows a plan of pairwise merges; the default plan is a
greedy minimum-resulting-open-indices heuristic with deterministic
tie-breaking, so results and plans are reproducible. The planner keeps only
the pairs of tensors that share an edge in its heap, a few entries per
edge. A pair that shares none has as its rank the sum of the two tensors'
open-edge counts, so it is searched for only when the two smallest counts
could tie or beat the heap's top; the plan is the one a heap of all pairs
gives. Vertices with the same signature and port layout share one tensor.

Every merge multiplies plain Python ints. Each vertex tensor is scaled by
the lcm D_v of its denominators, so an entry is x0 + x1*i + (x2 + x3*i)*sqrt2
with integer x_k, and the contracted value is divided by the product of the
D_v once at the end. Rational tables stay exact ints (x0). Any other table
keeps each entry as its coordinates over Z[zeta8]: Q(i, sqrt2) = Q(z) for
z = zeta8, with i = z^2 and sqrt2 = z - z^3, so the entry is sum_j c_j z^j
with (c0, c1, c2, c3) = (x0, x2 + x3, x1, x3 - x2). Each merge packs its two
inputs by Kronecker substitution (von zur Gathen and Gerhard, Modern
Computer Algebra, 8.4) at a digit width W of its own: an entry becomes the
int sum_j c_j 2^(jW) mod N = 2^(4W) + 1. Since 2^(4W) = -1 mod N, 2^W is a
root of z^4 + 1 mod N, so sums and products of packed entries, reduced
mod N, are the packed sums and products.

The decoding is exact because W is large enough for its merge. The L1 norm
|c|_1 = sum_j |c_j| is submultiplicative under multiplication in
Z[z]/(z^4 + 1) (a negacyclic convolution), and |c_j| <= |c|_1. An output
entry sums at most min(len a, len b, 2^shared) products, one entry of each
input in each, so its digits are at most ta * tb * terms in absolute value,
ta and tb being the largest L1 norms among the inputs' entries. W is that
bound's bit length plus a sign bit, so the balanced residue of each output
entry splits into four signed base-2^W digits, which are its c_j. The
merge keeps those coordinates and, taken as it decodes them, their largest
L1 norm (_lift takes it for the vertex tensors), and the next merge packs
them at its own width. At the end x2 = (c1 - c3)/2 and x3 = (c1 + c3)/2,
and the result is the same exact Scalar.

A six-vertex tensor is nonzero in one flux sector only, the U(1) block
structure of Singh, Pfeifer and Vidal ("Tensor network decompositions in
the presence of a global U(1) symmetry", Phys. Rev. B 83, 115125, 2011).
Each tensor carries a flip mask: the open edges whose second end lies in
its cluster. A table nonzero on inputs of one weight only, as a six-vertex
table is, has the same charge popcount(key ^ flip) on every key: 2 less
one per self-loop, whose two ends' bits differ. A merge keeps it, with
charge ca + cb - (edges shared): on a shared edge the two keys' bits agree
and exactly one end flips, so that edge counts once in ca + cb. A tensor
whose table mixes weights has no charge, nor has any merge it is part of.

A merge groups the smaller tensor by its shared edges and streams the
larger one past the groups. Each product is one dict update, or, on the
row path, a Kronecker substitution again: each group becomes one int with
a W-bit slot per key of its class, so each streamed entry is one big-int
multiply-add into its output row. The classes are laid out once per merge
from the grouped tensor's distinct out keys, split by popcount(ob ^ flip)
(one class when the merge has no charge), a key's slot being its index in
its class. A group's keys all lie in one class, and so do the keys of an
output row, by the charge of the output; so a row has exactly its class's
slots and no empty ones. For exact ints a slot sums at most one product per
group, so W is the bit length of max|a| * max|b| * groups plus a sign bit.
Z[zeta8] merges take the same rows: their slot holds the unreduced product
polynomial at 2^w, w being the merge's digit width above, whose seven
digits' absolute values sum below 2^(w-1), so W = 7w bits; _unpack splits
each slot's sum mod 2^(4w) + 1 as it splits the dict path's. W is whole
bytes, a machine word of 1, 2, 4 or 8 bytes when it fits one, and adding
2^(W-1) to each slot makes a row's slots its unsigned fields. The row
path is taken when the dict products a streamed entry saves exceed the
cost of its multiply-add, a cost model over the merge's sizes and its
rows' slot counts (_row_path_pays), and stats["packed_merges"] counts the
merges that took it.

A merge also looks ahead in the plan, a semi-join (Bernstein and Chiu,
"Using semi-joins to solve relational queries", J. ACM 28(1), 1981): if
the tensor its output is merged with next, its partner, is already built,
the merge keeps only the output entries whose bits on the edges the two
share are one of the partner's keys' bits there. This is exact: the
partner merge pairs entries only when they agree on every shared edge, so
a dropped entry would meet no partner entry and add nothing to Z; and the
partner is final once it is live, since each cluster is merged exactly
once. The filter runs only where it pays (_prune_pays): where both
inputs have out edges the partner shares, the partner keeps some edges of
its own, the merge's products are at least a thousand and several times
the partner's size, and the partner's patterns are at most 0.45 of the
pairs of its patterns on the two inputs' sides. It runs on the dict path, and
stats["pruned_merges"] counts the merges it dropped products from. On the
12x12 torus with one zero weight it cuts two merges from 95,328 output
entries each to 4,096.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import lcm, prod

from .evaluate import EvalResult, TooLargeError
from .grid import SignatureGrid
from .grid import validate  # unused here: perfbench/tracer.py binds this name
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
    """Edges in key-bit order and the nonzero entries; norm is the largest
    L1 norm of a zeta8 entry (0 for exact ints). flip, in key bits, marks
    the edges whose second end lies in the tensor's cluster; charge is
    popcount(key ^ flip), the same for every key, or None when the keys
    have no one such count (a tensor that is not sectored)."""

    __slots__ = ("edges", "data", "norm", "flip", "charge")

    def __init__(self, edges, data, norm=0, flip=0, charge=None):
        self.edges = tuple(edges)
        self.data = data
        self.norm = norm
        self.flip = flip
        self.charge = charge


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
    data = {k: v for k, v in data.items() if v}
    # a six-vertex table has charge 2 less one per self-loop, whose two
    # ends' bits differ; an all-zero one is sectored too
    flip = sum(ends[e][0][1] << i for i, e in enumerate(open_edges))
    charges = {(k ^ flip).bit_count() for k in data}
    charge = charges.pop() if len(charges) == 1 else None if charges else 0
    return _Tensor(open_edges, data, flip=flip, charge=charge)


def _move(x: int, dst: list[int]) -> int:
    """x with its bit i moved to bit dst[i]."""
    return sum(1 << d for i, d in enumerate(dst) if x >> i & 1)


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


def _lift(tensors) -> tuple[list[int], bool]:
    """Turn every entry into exact ints, in place, as the module docstring
    describes: its zeta8 coordinates (c0, c1, c2, c3), with the tensor's
    norm, or the int c0 alone when every table is rational. Returns
    (each tensor's D_v, whether any table is not rational)."""
    dens = []
    for t in tensors:
        den = lcm(*(s.coords[4] for s in t.data.values()))
        dens.append(den)
        zeta = {}
        for k, s in t.data.items():
            x0, x1, x2, x3, d = s.coords
            m = den // d
            zeta[k] = (x0 * m, (x2 + x3) * m, x1 * m, (x3 - x2) * m)
        t.data = zeta
    if any(c[1] or c[2] or c[3] for t in tensors for c in t.data.values()):
        for t in tensors:
            t.norm = max((sum(map(abs, c)) for c in t.data.values()), default=0)
        return dens, True
    for t in tensors:
        t.data = {k: c[0] for k, c in t.data.items()}
    return dens, False


def _zeta_width(a: _Tensor, b: _Tensor) -> int:
    """The digit width W of merging Z[zeta8] tensors a and b, as the module
    docstring derives it: the bit length of ta * tb * terms plus a sign bit,
    ta and tb being the norms _lift or _unpack stored."""
    shared = len(set(a.edges) & set(b.edges))
    return (a.norm * b.norm * min(len(a.data), len(b.data), 1 << shared)).bit_length() + 1


def _pack(data: dict, width: int) -> dict[int, int]:
    """Each zeta8 coordinate tuple c as sum_j c_j 2^(j*width), which stands
    for the packed entry mod 2^(4*width) + 1 without being reduced."""
    w2, w3 = 2 * width, 3 * width
    return {
        k: c0 + (c1 << width) + (c2 << w2) + (c3 << w3)
        for k, (c0, c1, c2, c3) in data.items()
    }


def _unpack(data: dict, width: int) -> tuple[dict[int, tuple[int, int, int, int]], int]:
    """The nonzero entries of data mod 2^(4*width) + 1, each as its four
    signed width-bit digits, and the largest L1 norm among them; every
    digit must be below 2^(width-1) in absolute value. Adding 2^(width-1)
    to each digit makes them the unsigned width-bit fields of the residue."""
    w2, w3 = 2 * width, 3 * width
    mod, half, low = (1 << 4 * width) + 1, 1 << (width - 1), (1 << width) - 1
    bias = half + (half << width) + (half << w2) + (half << w3)
    out = {}
    norm = 0
    for k, v in data.items():
        r = (v + bias) % mod
        if r != bias:
            c0, c1 = (r & low) - half, (r >> width & low) - half
            c2, c3 = (r >> w2 & low) - half, (r >> w3) - half
            out[k] = c0, c1, c2, c3
            l1 = abs(c0) + abs(c1) + abs(c2) + abs(c3)
            if l1 > norm:
                norm = l1
    return out, norm


# The row path's cost, in units of one dict-path product: a streamed entry
# costs ROW_ENTRY_COST plus ROW_WORD_COST per 64-bit word of the packed row,
# the row priced at the mean slot count of the groups' classes. Both were
# chosen by timing both paths on 2,561 merges (2,135 rational, 426 over
# Z[zeta8]) of ice 6x6, 8x8 and 5x20, sqrt2 6x6, 7x7 and 6x10, one-zero
# 10x10, 12x12 and 6x24 and two-zero 8x8, 10x10 and 5x20 tori, three weight
# seeds each (CPython 3.11, x86-64): this pair took 1.236 s in all, against
# 1.201 s for always picking the faster path, 1.704 s for the dict path
# alone and 1.345 s for the pair measured for the 2^sb-slot rows (8, 0.1).
ROW_ENTRY_COST = 4.5
ROW_WORD_COST = 0.03


def _row_path_pays(products_per_entry: float, row_bits: float) -> bool:
    """Whether one big-int multiply-add on a row_bits-wide packed group is
    cheaper than the products_per_entry dict updates it replaces."""
    return products_per_entry > ROW_ENTRY_COST + ROW_WORD_COST * row_bits / 64


def _slot_width(a: _Tensor, b: _Tensor, n_groups: int, width: int) -> int:
    """The row path's slot width in bits, whole bytes. For exact ints
    (width 0) a slot sums at most one product per group, so |sum| <=
    max|a| * max|b| * groups < 2^(W-1). For Z[zeta8] entries packed at
    digit width w, a slot holds the unreduced product polynomial at 2^w:
    its seven digits' absolute values sum below 2^(w-1), as the output
    digits of _zeta_width do, so |sum| < 2^(7w-1)."""
    if width:
        bits = 7 * width
    else:
        top = max(map(abs, a.data.values())) * max(map(abs, b.data.values())) * n_groups
        bits = top.bit_length() + 1
    nbytes = (bits + 7) // 8
    if nbytes <= 8:  # a machine word, which _row_products reads in one call
        nbytes = 1 << (nbytes - 1).bit_length()
    return 8 * nbytes


def _row_layout(a: _Tensor, b: _Tensor, groups: dict, width: int, flip: int, sectored: bool):
    """The row path's layout of a merge, if _row_path_pays for it, else
    None. b's distinct out keys are split into classes by
    popcount(ob ^ flip), or into one class 0 when the merge is not
    sectored; a key's slot is its index in its class, and a group's class
    is that of all of its keys. Returns (class -> its keys in slot order,
    group -> its class, slot width in bits)."""
    per_entry = len(b.data) / len(groups)
    # a row has a slot of at least a byte for each entry of its group
    if not _row_path_pays(per_entry, 8 * per_entry):
        return None
    classes: dict[int, set] = {}
    group_class = {}
    for g, entries in groups.items():
        k = group_class[g] = (entries[0][0] ^ flip).bit_count() if sectored else 0
        classes.setdefault(k, set()).update(ob for ob, _ in entries)
    slots = sum(len(classes[k]) for k in group_class.values()) / len(groups)
    slot_width = _slot_width(a, b, len(groups), width)
    if not _row_path_pays(per_entry, slot_width * slots):
        return None
    return {k: sorted(keys) for k, keys in classes.items()}, group_class, slot_width


# slot widths in bytes -> the array type code of that machine word
_SLOT_CODES = {array(code).itemsize: code for code in "BHIQ"}


def _row_products(stream, groups, s, row_class, classes, group_class, width):
    """The row path of _merge: each group of the smaller tensor becomes one
    int with a width-bit slot per key of its class (_row_layout), so each
    streamed entry is one multiply-add into its output row, the key's bits
    above the grouped tensor's out bits. Row r holds the keys of class
    row_class(r). Slots are signed; as in _unpack, adding 2^(W-1) to each
    makes them the unsigned fields of the row, read and written with one
    array call when a slot is a machine word."""
    wb, half = width // 8, 1 << (width - 1)
    code, order, from_bytes = _SLOT_CODES.get(wb), sys.byteorder, int.from_bytes

    def pack(slots):
        if code:
            return from_bytes(array(code, slots).tobytes(), order)
        return from_bytes(b"".join(v.to_bytes(wb, order) for v in slots), order)

    layout = {}
    for k, keys in classes.items():
        at = {ob: i for i, ob in enumerate(keys)}
        layout[k] = (keys, at, pack([half] * len(keys)), len(keys) * wb)
    packed = {}
    for g, entries in groups.items():
        keys, at, bias, _ = layout[group_class[g]]
        slots = [half] * len(keys)
        for ob, w in entries:
            slots[at[ob]] = w + half
        packed[g] = pack(slots) - bias
    mask = (1 << s) - 1
    rows: defaultdict[int, int] = defaultdict(int)
    for x, v in stream:
        p = packed.get(x >> s)
        if p:
            rows[x & mask] += v * p
    data = {}
    for r, acc in rows.items():
        keys, _, bias, nbytes = layout[row_class(r)]
        raw = (acc + bias).to_bytes(nbytes, order)
        if code:
            slots = array(code, raw).tolist()
        else:
            slots = [from_bytes(raw[i : i + wb], order) for i in range(0, nbytes, wb)]
        for ob, v in zip(keys, slots):
            if v != half:
                data[r | ob] = v - half
    return data


# The partner filter's cost, next to the products it saves: counting b's
# groups and the partner's patterns, splitting the groups by their
# partner-shared bits and one entry list per (group, na bits) the stream
# meets. It pays when the merge's estimated products reach
# PRUNE_MIN_PRODUCTS and PRUNE_PRODUCTS_PER_KEY per partner entry, and the
# partner's patterns are at most PRUNE_MAX_COVER of the pairs of its
# projections on the two inputs' shared out bits; where they are more, the
# inputs' own entries had nearly always met the partner already (twozero
# 10x10: 4,173 of 4,173 and 3,589 of 4,453 entries kept). They were chosen
# by timing 137 merges with and without the filter, counting the partner
# merge after it, on one-zero and two-zero tori of 36-121 vertices under
# two weight seeds and on ice 6x6 and 8x8 (CPython 3.11, x86-64). The
# merges it takes saved 0.1-42 ms each, and 0.45-0.6 s on a twozero 11x11
# merge, but for a twozero 8x8 and a 7x14 merge that ran within their
# run-to-run spread; those it skips for their size would have saved at
# most 0.2 ms or lost time; those it skips for their cover gave -3.8 to
# +4.3 ms on 15-50 ms merges, within the same spread. Against the sector
# rows of the row path, the merges it took with a cover of 0.32-0.42
# (one-zero 10x10 to 12x12) still saved 5-80 ms each, the partner merge
# included, but the two-zero merges with a cover of 0.47 (8x8, 7x14, a
# partner of 177 entries) lost 1-9 ms, so PRUNE_MAX_COVER went from 0.5 to
# 0.45.
PRUNE_MIN_PRODUCTS = 1024
PRUNE_PRODUCTS_PER_KEY = 4
PRUNE_MAX_COVER = 0.45


def _prune_pays(products: float, partner: _Tensor, n_shared: int, cover: float) -> bool:
    """Whether the partner filter pays on a merge of about products dict
    products, the partner sharing n_shared of its edges with the output,
    cover being the share above. Before they are counted, products is an
    upper bound, n_shared 0 and cover 0, or 1 when an input shares no out
    edge with the partner, which the filter leaves alone. A partner that
    shares all of its edges meets each output entry at most once, so its
    merge is cheap and there is little to save."""
    return (
        products >= max(PRUNE_MIN_PRODUCTS, PRUNE_PRODUCTS_PER_KEY * len(partner.data))
        and n_shared < len(partner.edges)
        and cover <= PRUNE_MAX_COVER
    )


def _partner_patterns(a: _Tensor, b: _Tensor, partner: _Tensor, out_a: list, out_b: list):
    """The semi-join of a merge with the tensor its output meets next: the
    set of the partner's keys masked to the output edges it shares, in the
    partner's own bit positions, or None when _prune_pays says the filter
    does not pay. a is the streamed input, b the grouped one, and out_a,
    out_b their out edges."""
    # until b's groups are counted, the products are bounded by len(a)
    # times len(b) or the 2^len(out_b) entries a group can hold; a first
    # look at that bound turns small merges away cheaply
    products = len(a.data) * min(len(b.data), 1 << len(out_b))
    if not _prune_pays(products, partner, 0, 0.0):
        return None
    bits = {e: 1 << i for i, e in enumerate(partner.edges)}
    on_a = sum(bits[e] for e in out_a if e in bits)
    on_b = sum(bits[e] for e in out_b if e in bits)
    shared = on_a | on_b
    n_shared = shared.bit_count()
    # cover is 0 until the partner's patterns are counted (1 if an input
    # shares no out edge with the partner); either count may refuse the
    # filter, so the one over fewer entries goes first
    cover, patterns = (0.0 if on_a and on_b else 1.0), None
    for t in sorted((b, partner), key=lambda t: len(t.data)):
        if not _prune_pays(products, partner, n_shared, cover):
            return None
        if t is b:
            # each streamed entry meets the group of b that agrees with it
            # on the contracted edges
            inner = sum(1 << i for i, e in enumerate(b.edges) if e not in out_b)
            products /= max(len({k & inner for k in b.data}), 1)
        else:
            patterns = {k & shared for k in partner.data}
            pairs = len({k & on_a for k in patterns}) * len({k & on_b for k in patterns})
            cover = len(patterns) / max(pairs, 1)
    return patterns if _prune_pays(products, partner, n_shared, cover) else None


def _merge(a: _Tensor, b: _Tensor, width: int, partner: _Tensor | None = None):
    """Contract the shared edges of a and b: exact ints when width is 0,
    else zeta8 coordinate tuples, packed at this width for the merge (see
    _zeta_width). Returns the tensor and how the merge ran: "dict", "row"
    or "pruned".
    The smaller tensor's out edges take the low key bits, the larger's the
    bits above them and the shared ones the bits above those. The smaller
    tensor is grouped by its shared bits and the larger one streamed past
    it: into a dict of products, or, when _row_path_pays, into packed rows
    (_row_products).
    partner, when given, is the built tensor the output is merged with
    next. If _partner_patterns takes it, the out edges it shares take the
    smaller tensor's lowest out bits (nb of them) and the larger's highest
    (na); the stream looks up its group and those na bits together, and
    meets only the entries whose product lands on a key the partner can
    meet. The merge is "pruned" if that dropped any product."""
    if len(a.data) < len(b.data):
        a, b = b, a
    ea, eb = set(a.edges), set(b.edges)
    out_b, out_a = sorted(eb - ea), sorted(ea - eb)
    patterns = None if partner is None else _partner_patterns(a, b, partner, out_a, out_b)
    if patterns is not None:
        near = set(partner.edges)
        out_b.sort(key=near.__contains__, reverse=True)
        out_a.sort(key=near.__contains__)
        na, nb = len(near.intersection(out_a)), len(near.intersection(out_b))
    out_edges = out_b + out_a
    n_shared = len(ea) - len(out_a)
    pos = {e: i for i, e in enumerate(out_edges + sorted(ea & eb))}
    s, sb = len(out_edges), len(out_b)
    mask = (1 << s) - 1
    dst_a, dst_b = [pos[e] for e in a.edges], [pos[e] for e in b.edges]
    # the output's flip is its inputs' on the out edges; it is sectored
    # when both inputs are, each shared edge taking one from the sum of
    # their charges (its two ends' key bits agree and one end flips)
    flip = (_move(a.flip, dst_a) | _move(b.flip, dst_b)) & mask
    sectored = a.charge is not None and b.charge is not None
    charge = a.charge + b.charge - n_shared if sectored else None
    da, db = (_pack(a.data, width), _pack(b.data, width)) if width else (a.data, b.data)
    groups: dict[int, list[tuple[int, int]]] = {}
    for x, v in _remap(db, dst_b):
        groups.setdefault(x >> s, []).append((x & mask, v))
    stream = _remap(da, dst_a)
    # the stream looks up x >> t: its group and, with the filter, its na
    # partner-shared bits; on a miss the entry list is built from the
    # group's sub-groups by their nb partner-shared bits (subs), those
    # whose bits with the stream's are an allowed pattern
    subs: dict[int, dict[int, list]] = {}
    if patterns is None:
        layout = groups and _row_layout(a, b, groups, width, flip & (1 << sb) - 1, sectored)
        if layout:
            fa = flip >> sb << sb
            row_class = (lambda r: charge - (r ^ fa).bit_count()) if sectored else (lambda r: 0)
            data = _row_products(stream, groups, s, row_class, *layout)
            norm = 0
            if width:
                data, norm = _unpack(data, width)
            return _Tensor(out_edges, data, norm, flip, charge), "row"
        t, table = s, groups
    else:
        moves = [(1 << i, 1 << pos[e]) for i, e in enumerate(partner.edges) if e in pos]
        allowed = {sum(dst for src, dst in moves if k & src) for k in patterns}
        t, pb = s - na, (1 << nb) - 1
        for g, grp in groups.items():
            sub = subs[g] = {}
            for e in grp:
                sub.setdefault(e[0] & pb, []).append(e)
        table = {}
    pa = mask ^ ((1 << t) - 1)
    acc: defaultdict[int, int] = defaultdict(int)
    for x, v in stream:
        grp = table.get(x >> t)
        if not grp:
            if grp is not None or not subs:
                continue
            grp = table[x >> t] = []
            for p, part in subs.get(x >> s, {}).items():
                if x & pa | p in allowed:
                    grp += part
        oa = x & mask
        for ob, w in grp:
            acc[oa | ob] += v * w
    how = "dict"
    if subs and any(len(grp) < len(groups.get(k >> na, ())) for k, grp in table.items()):
        how = "pruned"
    if width:
        data, norm = _unpack(acc, width)
        return _Tensor(out_edges, data, norm, flip, charge), how
    return _Tensor(out_edges, {k: v for k, v in acc.items() if v}, 0, flip, charge), how


def _best_apart(live, pops, low, nbrs, bound):
    """The pair of live tensors that share no edge with the least key
    (rank, lo, hi), as (rank, t, u), if its rank pops[t] + pops[u] is at
    most bound; else None. For each rank from the least, the tensors are
    scanned by low: the first one with a partner of popcount rank - pops[t]
    and a higher low that is not its neighbour is lo, and the first such
    partner is hi. A tensor skips at most its neighbours before it finds
    one, so each rank costs O(L log L) for L live tensors."""
    order = sorted(live, key=low.__getitem__)
    by_pop = {}
    for t in order:
        by_pop.setdefault(pops[t], []).append(t)
    for rank in range(2 * min(by_pop), bound + 1):
        for t in order:
            us = by_pop.get(rank - pops[t])
            if us:
                near = nbrs[t]
                for j in range(bisect_right(us, low[t], key=low.__getitem__), len(us)):
                    if us[j] not in near:
                        return rank, t, us[j]
    return None


def plan_contraction(grid: SignatureGrid) -> ContractionPlan:
    """Greedy: always merge the pair minimizing the resulting open-index
    count, ties broken by lowest involved vertex ids.

    The key (rank, lo, hi) of a pair never changes while both tensors live,
    and (lo, hi) is unique among live pairs. The pairs that share an open
    edge sit in one heap of keys: the first ones are read off each edge's
    two holders, and a merge pushes only the new tensor's pairs with its
    neighbours, so the heap receives at most one entry per edge and one
    per neighbour of each merged tensor; stale entries are skipped on pop.
    A pair that shares no edge has rank pops[t] + pops[u], at least the sum
    of the two smallest live popcounts; only when that sum could tie or
    beat the heap's top does _best_apart search those pairs, and its pair
    is taken if its key is the smaller. Tensors are numbered in the order
    they appear (grid.vertices order, then merges), and each step names the
    earlier one first."""
    index = {v: t for t, v in enumerate(grid.vertices)}
    n = len(index)
    low = list(index)
    mask = [0] * n  # open edges
    nbrs = [set() for _ in range(n)]  # live tensors sharing an open edge
    for e, (p, q) in enumerate(grid.edges):
        a, b = index[p.vertex], index[q.vertex]
        if a != b:
            mask[a] |= 1 << e
            mask[b] |= 1 << e
            nbrs[a].add(b)
            nbrs[b].add(a)
    pops = [m.bit_count() for m in mask]
    counts = {}  # popcount -> live tensors that have it
    for p in pops:
        counts[p] = counts.get(p, 0) + 1
    peak = max(pops, default=0)
    heap = []
    for a in range(n):
        la, ma = low[a], mask[a]
        for b in nbrs[a]:
            if a < b:
                lb, r = low[b], (ma ^ mask[b]).bit_count()
                heap.append((r, la, lb, a, b) if la < lb else (r, lb, la, a, b))
    heapify(heap)
    keys = [frozenset((v,)) for v in low]
    live = set(range(n))
    steps = []
    for new in range(n, 2 * n - 1):
        while heap and (heap[0][3] not in live or heap[0][4] not in live):
            heappop(heap)
        bound = heap[0][0] if heap else 2 * max(counts)
        p1, *rest = sorted(counts)
        pick = None
        if p1 + (p1 if counts[p1] > 1 else rest[0]) <= bound:
            pick = _best_apart(live, pops, low, nbrs, bound)
            if pick and heap:
                r, t, u = pick
                if (r, *sorted((low[t], low[u]))) > heap[0][:3]:
                    pick = None
        if pick is None:
            rank, _, _, a, b = heappop(heap)
        else:
            rank, a, b = pick
            a, b = min(a, b), max(a, b)
        live.discard(a)
        live.discard(b)
        for p in (pops[a], pops[b]):
            if counts[p] == 1:
                del counts[p]
            else:
                counts[p] -= 1
        counts[rank] = counts.get(rank, 0) + 1
        pops.append(rank)
        peak = max(peak, rank)
        steps.append((keys[a], keys[b]))
        keys.append(keys[a] | keys[b])
        lo = min(low[a], low[b])
        low.append(lo)
        m = mask[a] ^ mask[b]
        mask.append(m)
        near = nbrs[a] | nbrs[b]
        near -= {a, b}
        nbrs.append(near)
        for c in near:
            nc = nbrs[c]
            nc.discard(a)
            nc.discard(b)
            nc.add(new)
            lc, r = low[c], (mask[c] ^ m).bit_count()
            heappush(heap, (r, lc, lo, c, new) if lc < lo else (r, lo, lc, c, new))
        live.add(new)
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
    if not grid.vertices:
        return EvalResult(
            ONE,
            "contract",
            {"peak_rank": 0, "packed_merges": 0, "pruned_merges": 0, "max_width": 0},
        )
    if plan is None:
        plan = plan_contraction(grid)
    peak = _replay(grid, plan, rank_cap)
    # one tensor per distinct signature and port layout (each edge's
    # (slot, flip) ends, in edge-id order), built and lifted once; the
    # vertices that share it share its entry dict, which is safe because no
    # merge mutates an input's data
    shared: dict[tuple, _Tensor] = {}
    copies = []
    live = {}
    for v, ends in _incidence(grid).items():
        sig = grid.vertices[v]
        layout = (sig, *map(tuple, ends.values()))
        first = shared.get(layout)
        if first is None:
            t = shared[layout] = _vertex_tensor(sig, ends)
        else:
            open_edges = [e for e, at in ends.items() if len(at) == 1]
            t = _Tensor(open_edges, first.data, flip=first.flip, charge=first.charge)
            copies.append((t, first))
        live[frozenset((v,))] = t
    dens, zeta = _lift(shared.values())
    den_of = dict(zip(shared.values(), dens))
    scale = prod(dens) * prod(den_of[first] for _, first in copies)
    for t, first in copies:
        t.data, t.norm = first.data, first.norm
    # each cluster is merged exactly once: partner_of names the tensor it
    # meets there, which is final once it is live
    partner_of = {}
    for ka, kb in plan.steps:
        partner_of[ka], partner_of[kb] = kb, ka
    packed = pruned = widest = 0
    for ka, kb in plan.steps:
        a, b = live.pop(ka), live.pop(kb)
        width = _zeta_width(a, b) if zeta else 0
        key = ka | kb
        live[key], how = _merge(a, b, width, live.get(partner_of.get(key)))
        packed += how == "row"
        pruned += how == "pruned"
        widest = max(widest, width)
    (final,) = live.values()
    if zeta:
        c0, c1, c2, c3 = final.data.get(0, (0, 0, 0, 0))
    else:
        c0, c1, c2, c3 = final.data.get(0, 0), 0, 0, 0
    value = Scalar.from_coords(c0, c2, (c1 - c3) // 2, (c1 + c3) // 2, scale)
    stats = {
        "peak_rank": peak,
        "packed_merges": packed,
        "pruned_merges": pruned,
        "max_width": widest,
    }
    return EvalResult(value, "contract", stats)
