"""Exact oracles for six-vertex partition functions, independent of sixvertex.

Nothing here imports the package under test. A weight is a 4-tuple of
Fractions (re0, im0, re1, im1) meaning re0 + im0*i + (re1 + im1*i)*sqrt2, the
same field Q(i, sqrt2) the program works in. A tuple is six weights
(a, x, b, y, c, z) on the patterns 0011, 1100, 0110, 1001, 0101, 1010 of the
ports (N, E, S, W) = slots 0..3, as in the README's table; bit 1 means the
edge points into the vertex at that end.

Arithmetic is done on integers: every weight is scaled by the common
denominator D of the tuple, so it lies in Z[i, sqrt2] (a plain int when the
whole tuple is rational), and a value over V vertices is divided by D^V once.

Oracles:
- torus_tm: sparse row transfer matrix on a w x L torus; any tuple.
- torus_closed_form: closed forms for tuples with (c, z) zero (the strands
  close into rows and columns) and for tuples whose support pins one slot
  (the one-zero-per-pair class).
- strand_cycles: any 4-regular multigraph, for tuples with a whole pair zero:
  the two strands through each vertex close into cycles of two states each.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, lcm

# pattern (N, E, S, W) as a 4-bit index, N most significant
PATTERNS = (0b0011, 0b1100, 0b0110, 0b1001, 0b0101, 0b1010)


class ZR2:
    """x0 + x1*i + (x2 + x3*i)*sqrt2 with integer coordinates."""

    __slots__ = ("x",)

    def __init__(self, x0=0, x1=0, x2=0, x3=0):
        self.x = (x0, x1, x2, x3)

    def __add__(self, o):
        a, b, c, d = self.x
        e, f, g, h = o.x
        return ZR2(a + e, b + f, c + g, d + h)

    def __mul__(self, o):
        a, b, c, d = self.x
        if isinstance(o, int):
            return ZR2(a * o, b * o, c * o, d * o)
        e, f, g, h = o.x
        return ZR2(
            a * e - b * f + 2 * (c * g - d * h),
            a * f + b * e + 2 * (c * h + d * g),
            a * g - b * h + c * e - d * f,
            a * h + b * g + c * f + d * e,
        )

    def __bool__(self):
        return any(self.x)


def weight(re0=0, im0=0, re1=0, im1=0):
    """A weight from four rationals (ints, Fractions or 'p/q' strings)."""
    return tuple(Fraction(v) for v in (re0, im0, re1, im1))


def weight_text(w) -> str:
    """The program's scalar grammar: <re>[+<im>i][+(<re2>[+<im2>i])r2]."""
    re0, im0, re1, im1 = w

    def part(re, im):
        if not im:
            return str(re)
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"

    text = part(re0, im0)
    if re1 or im1:
        text += f"+({part(re1, im1)})r2"
    return text


class Lifted:
    """A tuple scaled to integers: table[pattern] in the ring, and D."""

    def __init__(self, weights):
        if len(weights) != 6:
            raise ValueError("a six-vertex tuple has six weights")
        coords = [c for w in weights for c in w]
        self.rational = all(not (w[1] or w[2] or w[3]) for w in weights)
        self.den = lcm(*(c.denominator for c in coords))
        zero = 0 if self.rational else ZR2()
        self.zero = zero
        self.one = 1 if self.rational else ZR2(1)
        self.table = [zero] * 16
        for pat, w in zip(PATTERNS, weights):
            ints = [int(c * self.den) for c in w]
            self.table[pat] = ints[0] if self.rational else ZR2(*ints)

    def f(self, n, e, s, w):
        return self.table[(n << 3) | (e << 2) | (s << 1) | w]

    def value(self, z, vertices: int):
        """Divide a ring element by D^vertices: four Fractions."""
        scale = self.den**vertices
        coords = (z, 0, 0, 0) if self.rational else z.x
        return tuple(Fraction(c, scale) for c in coords)


def _pow(x, k, one):
    out = one
    while k:
        if k & 1:
            out = out * x
        k >>= 1
        if k:
            x = x * x
    return out


def _add(row, j, v):
    row[j] = row[j] + v if j in row else v


def _matmul(A, B):
    """Product of sparse matrices, each a list of {column: value} rows."""
    out = []
    for row in A:
        acc = {}
        for k, v in row.items():
            for j, u in B[k].items():
                _add(acc, j, v * u)
        out.append({j: v for j, v in acc.items() if v})
    return out


def _trace_power(T, L, zero):
    """Tr(T^L) as the trace of T^h T^(L-h), h = L // 2: every product has the
    sparse T as its right factor, and the last one is only a trace."""
    if L == 1:
        P, Q = T, [{i: 1} for i in range(len(T))]
    else:
        P = T
        for _ in range(L // 2 - 1):
            P = _matmul(P, T)
        Q = _matmul(P, T) if L % 2 else P
    total = zero
    for i, row in enumerate(P):
        for k, v in row.items():
            u = Q[k].get(i)
            if u is not None:
                total = total + v * u
    return total


def torus_tm(w: int, L: int, weights):
    """Z on the torus with w columns and L rows (vertex r*w + c; E of (r, c)
    meets W of (r, c+1), S of (r, c) meets N of (r+1, c)), as four Fractions.

    The row state is the N bits of a row, and Z is the trace of T^L for the
    row-to-row matrix T, kept sparse. Each vertex has two in-arrows, so the
    E bit after column c is fixed by the W bit before it and the choice of
    n'_c: e_c = e_{c-1} + n'_c - n_c. A row of T is built column by column
    from each of the two starting values of that chain, keeping only
    choices with a nonzero weight, and a chain must end where it started.
    """
    lift = Lifted(weights)
    T = [_row(lift, w, n) for n in range(1 << w)]
    return lift.value(_trace_power(T, L, lift.zero), w * L)


def _row(lift: Lifted, w: int, n: int) -> dict:
    """Row n of T: {m: weight} over the rows m reachable from n."""
    row = {}
    for start in (0, 1):
        partial = {(0, start): lift.one}  # (n' bits so far, e bit) -> weight
        for c in range(w):
            nc = (n >> c) & 1
            step = {}
            for (m, e_prev), val in partial.items():
                for mc in (0, 1):
                    e = e_prev + mc - nc
                    if e not in (0, 1):
                        continue
                    v = lift.f(nc, e, 1 - mc, 1 - e_prev)
                    if v:
                        _add(step, (m | (mc << c), e), val * v)
            partial = step
        for (m, e), val in partial.items():
            if e == start:
                _add(row, m, val)
    return {m: v for m, v in row.items() if v}


def torus_closed_form(w: int, L: int, weights):
    """Closed form on the w x L torus, or None when the tuple has neither
    (c, z) zero nor a pinned slot."""
    lift = Lifted(weights)
    f, one, zero = lift.f, lift.one, lift.zero
    c, z = weights[4:]
    V = w * L
    if not (any(c) or any(z)):
        # N != S and E != W: N bits constant down a column (state s), E bits
        # constant along a row (state t); vertex value f(s, t, 1-s, 1-t).
        # Sum over rows with k rows at t = 1, then columns are independent.
        total = zero
        for k in range(L + 1):
            col = _pow(f(0, 0, 1, 1), L - k, one) * _pow(f(0, 1, 1, 0), k, one)
            col = col + _pow(f(1, 0, 0, 1), L - k, one) * _pow(f(1, 1, 0, 0), k, one)
            total = total + _pow(col, w, one) * comb(L, k)
        return lift.value(total, V)
    support = [p for p, wt in zip(PATTERNS, weights) if any(wt)]
    for slot in range(4):
        bits = {(p >> (3 - slot)) & 1 for p in support}
        if len(bits) != 1:
            continue
        (bit,) = bits
        if slot in (0, 2):
            # every N bit is fixed, so E bits are constant along each row
            n = bit if slot == 0 else 1 - bit
            row = _pow(f(n, 0, 1 - n, 1), w, one) + _pow(f(n, 1, 1 - n, 0), w, one)
            return lift.value(_pow(row, L, one), V)
        # every E bit is fixed, so N bits are constant down each column
        e = bit if slot == 1 else 1 - bit
        col = _pow(f(0, e, 1, 1 - e), L, one) + _pow(f(1, e, 0, 1 - e), L, one)
        return lift.value(_pow(col, w, one), V)
    return None


# which two slots share a strand, for each whole-zero pair: (c, z) zero ->
# N-S and E-W; (a, x) zero -> N-E and S-W; (b, y) zero -> N-W and E-S
_STRANDS = {2: ((0, 2), (1, 3)), 0: ((0, 1), (2, 3)), 1: ((0, 3), (1, 2))}

# the most joint strand states strand_cycles enumerates
MAX_STRAND_STATES = 1 << 16


def strand_cycles(vertices: int, edges, weights):
    """Z on a 4-regular multigraph (edges: ((v, slot), (v, slot)) pairs) in
    which every nonzero orientation has opposite bits on the two slots of
    each strand. That holds on any graph for a tuple with a whole pair zero,
    and for a tuple that pins one slot on a graph whose edges all join N to
    S or E to W (the pin fixes the bits at both ends of every edge through
    the pinned slot, and the other two slots of a vertex then differ).

    An edge carries opposite bits at its ends, so the bit entering a strand
    is the same all along its cycle: each cycle has two states, and Z sums
    the vertex products over the joint states allowed by the support.
    """
    support = [p for p, wt in zip(PATTERNS, weights) if any(wt)]
    zero_pair = next(
        (i for i in range(3) if not (any(weights[2 * i]) or any(weights[2 * i + 1]))),
        None,
    )
    if zero_pair is not None:
        strands = _STRANDS[zero_pair]
    elif any(len({(p >> (3 - s)) & 1 for p in support}) == 1 for s in range(4)) and all(
        p[1] ^ 2 == q[1] for p, q in edges
    ):
        strands = _STRANDS[2]
    else:
        raise ValueError("strand_cycles needs a whole zero pair, or a pinned slot on N-S/E-W edges")
    lift = Lifted(weights)
    partner = {}
    for p, q in edges:
        partner[p] = q
        partner[q] = p
    other = {}
    for v in range(vertices):
        for s, t in strands:
            other[(v, s)] = (v, t)
            other[(v, t)] = (v, s)
    # bit at a port = state of its cycle xor parity (entry 0, exit 1)
    cycle_of, parity = {}, {}
    cycles = 0
    for start in sorted(other):
        if start in cycle_of:
            continue
        port = start
        while port not in cycle_of:
            cycle_of[port], parity[port] = cycles, 0
            out = other[port]
            cycle_of[out], parity[out] = cycles, 1
            port = partner[out]
        cycles += 1
    slot_bits = [{(p >> (3 - s)) & 1 for p in support} for s in range(4)]
    allowed = [{0, 1} for _ in range(cycles)]
    for (v, slot), cyc in cycle_of.items():
        allowed[cyc] &= {b ^ parity[(v, slot)] for b in slot_bits[slot]}
    n_states = 1
    for a in allowed:
        n_states *= len(a)
    if n_states > MAX_STRAND_STATES:
        raise ValueError(f"{n_states} joint strand states exceed the cap {MAX_STRAND_STATES}")
    ports = [[(cycle_of[(v, s)], parity[(v, s)]) for s in range(4)] for v in range(vertices)]
    total = lift.zero
    for states in product(*(sorted(a) for a in allowed)):
        prod = lift.one
        for vp in ports:
            val = lift.f(*(states[cyc] ^ par for cyc, par in vp))
            if not val:
                prod = None
                break
            prod = prod * val
        if prod is not None:
            total = total + prod
    return lift.value(total, vertices)


def torus_edges(w: int, L: int):
    """Edges of the w x L torus as ((v, slot), (v, slot)) pairs."""
    edges = []
    for r in range(L):
        for c in range(w):
            v = r * w + c
            edges.append(((v, 1), (r * w + (c + 1) % w, 3)))
            edges.append(((v, 2), (((r + 1) % L) * w + c, 0)))
    return edges

