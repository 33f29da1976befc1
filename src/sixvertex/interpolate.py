"""The interpolation lemma: exponent lattices of (alpha, beta) over Q(i) and
coset-grouped Vandermonde solving.

compute_lattice factors nothing. Factor refinement (Bach, Driscoll &
Shallit, J. Algorithms 1993) turns the numerators and denominators of alpha
and beta into pairwise-coprime non-units of Z[i], which are multiplicatively
independent: alpha^j beta^k = 1 iff j * v(alpha) + k * v(beta) vanishes at
every base element and the unit exponents cancel mod 4. Each step is a
Gaussian gcd or an exact division. A value with a sqrt2 part is rejected
with LatticeError rather than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .scalar import ONE, Scalar, ZERO

__all__ = [
    "ExponentLattice",
    "InterpolationInstance",
    "InterpolationError",
    "LatticeError",
    "compute_lattice",
    "interpolation_solve",
    "make_observations",
    "cone_points",
]


class InterpolationError(ValueError):
    pass


class LatticeError(ValueError):
    """A value the exponent-lattice code cannot take: zero, or a value with
    a sqrt2 part (outside Q(i))."""


# Gaussian integers x + y*i are pairs (x, y).


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gnorm(a):
    return a[0] * a[0] + a[1] * a[1]


def _ggcd(a, b):
    """A gcd in Z[i] by Euclid with rounded quotients: each remainder has
    norm at most half the divisor's."""
    while b != (0, 0):
        nb = _gnorm(b)
        t = _gmul(a, (b[0], -b[1]))
        q = ((2 * t[0] + nb) // (2 * nb), (2 * t[1] + nb) // (2 * nb))
        qb = _gmul(q, b)
        a, b = b, (a[0] - qb[0], a[1] - qb[1])
    return a


def _gdiv_exact(a, b):
    """a / b in Z[i] or None when not divisible."""
    nb = _gnorm(b)
    t = _gmul(a, (b[0], -b[1]))
    if t[0] % nb or t[1] % nb:
        return None
    return (t[0] // nb, t[1] // nb)


_UNIT_EXPONENT = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}


def _coprime_base(zs):
    """Pairwise-coprime non-units of Z[i] such that each nonzero z in zs is
    a unit times a product of their powers. A z that shares a factor g
    with a base element b takes b's place as b/g, g and z/g, units dropped;
    the product of the norms falls each time, so the refinement ends."""
    base = []
    todo = [z for z in zs if _gnorm(z) > 1]
    while todo:
        z = todo.pop()
        for n, b in enumerate(base):
            g = _ggcd(z, b)
            if _gnorm(g) > 1:
                del base[n]
                parts = (_gdiv_exact(b, g), g, _gdiv_exact(z, g))
                todo.extend(w for w in parts if _gnorm(w) > 1)
                break
        else:
            base.append(z)
    return base


def _split(z, base):
    """(unit exponent, [exponent of each base element]) of z != 0, a unit
    times a product of powers of the base."""
    exps = []
    for b in base:
        e = 0
        while (w := _gdiv_exact(z, b)) is not None:
            z, e = w, e + 1
        exps.append(e)
    return _UNIT_EXPONENT[z], exps


def _valuations(alpha: Scalar, beta: Scalar):
    """[(unit exponent, exponents over one coprime base)] of alpha and of
    beta: each is i^unit times the product of base[n] ** exponents[n]."""
    parts = [((n0, n1), (d, 0)) for n0, n1, _, _, d in (alpha.coords, beta.coords)]
    base = _coprime_base([z for pair in parts for z in pair])
    out = []
    for num, den in parts:
        (un, vn), (ud, vd) = _split(num, base), _split(den, base)
        out.append(((un - ud) % 4, [x - y for x, y in zip(vn, vd)]))
    return out


@dataclass(frozen=True)
class ExponentLattice:
    """L = {(j,k): alpha^j beta^k = 1}. rank 0: trivial; rank 1: all integer
    multiples of `generator` (minimal, sign-normalized); rank 2: spanned by
    `basis`."""

    rank: int
    generator: tuple[int, int] | None = None
    basis: tuple[tuple[int, int], tuple[int, int]] | None = None

    def contains(self, j: int, k: int) -> bool:
        if self.rank == 0:
            return (j, k) == (0, 0)
        if self.rank == 1:
            s, t = self.generator
            if s:
                return j % s == 0 and k == (j // s) * t
            return j == 0 and t != 0 and k % t == 0
        (a, b), (c, d) = self.basis
        det = a * d - b * c
        pj, pk = d * j - c * k, -b * j + a * k
        return pj % det == 0 and pk % det == 0


def _hnf_basis(gens):
    """Hermite-style basis ((a,b),(0,d)) of the 2D lattice generated by gens."""
    vecs = [tuple(v) for v in gens if tuple(v) != (0, 0)]
    # Euclid on first coordinates
    while True:
        nz = [v for v in vecs if v[0]]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda v: abs(v[0]))
        a, rest = nz[0], nz[1:]
        new = [v for v in vecs if not v[0]]
        new.append(a)
        for v in rest:
            qk = v[0] // a[0]
            w = (v[0] - qk * a[0], v[1] - qk * a[1])
            if w != (0, 0):
                new.append(w)
        vecs = new
    first = next((v for v in vecs if v[0]), None)
    seconds = [abs(v[1]) for v in vecs if not v[0] and v[1]]
    d = gcd(*seconds) if len(seconds) > 1 else (seconds[0] if seconds else 0)
    if first is None:
        return ((0, d), (0, 0)) if d else ((0, 0), (0, 0))
    if first[0] < 0:
        first = (-first[0], -first[1])
    if d:
        first = (first[0], first[1] % d)
        return (first, (0, d))
    return (first, (0, 0))


def compute_lattice(alpha: Scalar, beta: Scalar) -> ExponentLattice:
    if not alpha or not beta:
        raise LatticeError("lattice needs nonzero alpha and beta")
    if not (alpha.is_gaussian() and beta.is_gaussian()):
        raise LatticeError(
            "lattice undetermined over this field: value has a sqrt2 part"
        )
    (ua, va), (ub, vb) = _valuations(alpha, beta)
    keys = [n for n in range(len(va)) if va[n] or vb[n]]
    if not keys:
        # both units: kernel of (j,k) -> j*ua + k*ub mod 4, a rank-2 lattice
        gens = [(4, 0), (0, 4)]
        for j in range(4):
            for k in range(4):
                if (j or k) and (j * ua + k * ub) % 4 == 0:
                    gens.append((j, k))
        b1, b2 = _hnf_basis(gens)
        return ExponentLattice(2, basis=(b1, b2))
    n0 = keys[0]
    a0, b0 = va[n0], vb[n0]
    g = gcd(a0, b0)
    s0, t0 = b0 // g, -a0 // g
    for n in keys[1:]:
        if s0 * va[n] + t0 * vb[n] != 0:
            return ExponentLattice(0)
    w = (s0 * ua + t0 * ub) % 4
    d = 1 if w == 0 else 4 // gcd(w, 4)
    s, t = d * s0, d * t0
    if s < 0 or (s == 0 and t < 0):
        s, t = -s, -t
    return ExponentLattice(1, generator=(s, t))


@dataclass(frozen=True)
class InterpolationInstance:
    alpha: Scalar
    beta: Scalar
    m: int
    n_values: tuple[Scalar, ...]


def cone_points(m: int):
    return [(j, k) for j in range(m + 1) for k in range(m + 1 - j)]


def make_observations(
    alpha: Scalar, beta: Scalar, m: int, x: dict
) -> tuple[Scalar, ...]:
    """Synthesize N_l = sum (alpha^j beta^k)^l x_{j,k} for l = 1..C(m+2,2)."""
    pts = cone_points(m)
    count = (m + 2) * (m + 1) // 2
    out = []
    for ell in range(1, count + 1):
        acc = ZERO
        for j, k in pts:
            xv = x.get((j, k))
            if xv is None or not xv:
                continue
            acc = acc + (alpha**j * beta**k) ** ell * xv
        out.append(acc)
    return tuple(out)


def _solve_linear(A, b):
    """Exact Gaussian elimination; A square and invertible."""
    n = len(A)
    M = [list(row) + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            raise InterpolationError("singular interpolation system")
        M[col], M[piv] = M[piv], M[col]
        inv = M[col][col].inverse()
        M[col] = [e * inv for e in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                factor = M[r][col]
                M[r] = [e - factor * p for e, p in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def interpolation_solve(
    inst: InterpolationInstance,
    phi: Scalar,
    psi: Scalar,
    lattice: ExponentLattice,
) -> Scalar:
    """Recover sum phi^j psi^k x_{j,k} from the N_l observations, given
    lattice = compute_lattice(inst.alpha, inst.beta)."""
    if inst.m < 0:
        raise InterpolationError("m must be >= 0")
    if lattice.rank == 2:
        raise InterpolationError(
            "rank-2 lattice (both roots of unity) is outside the lemma"
        )
    # counted before the cone is built, so a large m with few values is
    # refused at once
    count = (inst.m + 1) * (inst.m + 2) // 2
    if len(inst.n_values) != count:
        raise InterpolationError(
            f"need {count} observations, got {len(inst.n_values)}"
        )
    pts = cone_points(inst.m)
    if lattice.rank == 1:
        s, t = lattice.generator
        if phi**s * psi**t != ONE:
            raise InterpolationError("phi^s psi^t != 1 for the lattice generator")

    groups: list[list[tuple[int, int]]] = []
    for pt in pts:
        for grp in groups:
            dj, dk = pt[0] - grp[0][0], pt[1] - grp[0][1]
            if lattice.contains(dj, dk):
                grp.append(pt)
                break
        else:
            groups.append([pt])

    nodes = []
    for grp in groups:
        j, k = grp[0]
        nodes.append(inst.alpha**j * inst.beta**k)
    if len(set(nodes)) != len(nodes):
        raise AssertionError("coset nodes must be distinct")

    K = len(groups)
    A = [[node ** (ell + 1) for node in nodes] for ell in range(K)]
    coset_sums = _solve_linear(A, list(inst.n_values[:K]))

    total = ZERO
    for grp, xhat in zip(groups, coset_sums):
        j, k = grp[0]
        weight = phi**j * psi**k
        for j2, k2 in grp[1:]:
            if phi**j2 * psi**k2 != weight:
                raise InterpolationError("phi/psi not constant on a coset")
        total = total + weight * xhat
    return total

