"""GF(2) linear systems and Z4 quadratic phases for the Gauss-sum solver.

A phase is c + sum l_v x_v + 2 sum q_uv x_u x_v (mod 4) over 0/1 variables,
with q_uv in {0,1} (even cross terms), so the cross terms are stored as a
neighbour set per variable. This class is closed under substituting any
variable by an XOR of other variables plus a constant, and sums i^phase over
all assignments evaluate by one-variable elimination with multipliers 0, 2,
or 1 +- i, staying inside Q(i).
"""

from __future__ import annotations

from .scalar import I, I_POWERS, ONE, ZERO

__all__ = ["LinearSystemGF2", "QuadraticPhase", "gauss_sum"]


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class LinearSystemGF2:
    """Equations mask . x = rhs over GF(2) in echelon form: each row's pivot
    is its lowest set bit, and no two rows share a pivot."""

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.pivots: dict[int, tuple[int, int]] = {}  # var -> (mask, rhs)
        self.consistent = True

    def add(self, mask: int, rhs: int):
        while mask:
            low = mask & -mask
            var = low.bit_length() - 1
            if var in self.pivots:
                pmask, prhs = self.pivots[var]
                mask ^= pmask
                rhs ^= prhs
            else:
                self.pivots[var] = (mask, rhs)
                return
        if rhs:
            self.consistent = False

    def reduce(self, phase: QuadraticPhase) -> list[int]:
        """Substitute every pivot into phase and return the free variables.

        A row's other bits are higher than its pivot, so substituting the
        pivots lowest first never brings back one already substituted."""
        for var in sorted(self.pivots):
            mask, rhs = self.pivots[var]
            phase.substitute(var, rhs, _bits(mask ^ (1 << var)))
        return [v for v in range(self.nvars) if v not in self.pivots]


class QuadraticPhase:
    def __init__(self):
        self.const = 0
        self.lin: dict[int, int] = {}
        self.nbrs: dict[int, set[int]] = {}  # v -> {u : q_uv == 1}

    def add_const(self, c: int):
        self.const = (self.const + c) % 4

    def add_linear(self, v: int, c: int):
        c = (self.lin.get(v, 0) + c) % 4
        if c:
            self.lin[v] = c
        else:
            self.lin.pop(v, None)

    def add_cross(self, u: int, v: int, c: int):
        if u == v:
            # x^2 = x, and the cross slot carries a factor 2
            self.add_linear(u, 2 * (c % 2))
            return
        if c % 2:
            for a, b in ((u, v), (v, u)):
                self.nbrs.setdefault(a, set()).symmetric_difference_update((b,))

    def add_scaled_parity(self, k: int, eps: int, others):
        """Add k * (eps xor XOR(others)) to the phase, k in Z4."""
        k %= 4
        if not k:
            return
        others = list(others)
        self.add_const(k * eps)
        coef = (k * (1 - 2 * eps)) % 4
        for v in others:
            self.add_linear(v, coef)
        for i in range(len(others)):
            for j in range(i + 1, len(others)):
                self.add_cross(others[i], others[j], k)

    def pop_var(self, v: int):
        """Remove every term in x_v; return its linear coefficient and its
        cross partners."""
        ell = self.lin.pop(v, 0)
        partners = self.nbrs.pop(v, set())
        for a in partners:
            self.nbrs[a].discard(v)
        return ell, partners

    def substitute(self, v: int, eps: int, others):
        """Replace x_v := eps xor XOR(others); others must not contain v."""
        ell, partners = self.pop_var(v)
        self.add_scaled_parity(ell, eps, others)
        for a in partners:
            # 2 x_a (eps xor parity) == 2 x_a (eps + sum others) mod 4
            self.add_linear(a, 2 * eps)
            for k in others:
                self.add_cross(a, k, 1)


_ONE_PLUS_I = ONE + I
_ONE_MINUS_I = ONE - I


def gauss_sum(phase: QuadraticPhase, variables) -> Scalar:
    """Sum of i^phase over all 0/1 assignments of the given variables."""
    live = set(variables)
    multiplier = ONE
    for v in sorted(live):
        if v not in live:
            continue
        ell, partners = phase.pop_var(v)
        if ell % 2:
            multiplier = multiplier * (_ONE_PLUS_I if ell == 1 else _ONE_MINUS_I)
            phase.add_scaled_parity(3 if ell == 1 else 1, 0, partners)
        elif partners:
            # summing x_v out leaves 2 when the partners' parity is ell / 2
            multiplier = multiplier * 2
            k0 = min(partners)
            live.discard(k0)
            phase.substitute(k0, ell // 2, partners - {k0})
        elif ell:
            return ZERO
        else:
            multiplier = multiplier * 2
    return multiplier * I_POWERS[phase.const % 4]
