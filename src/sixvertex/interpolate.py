"""The interpolation lemma: exponent lattices of (alpha, beta) over Q(i) and
coset-grouped Vandermonde solving.

compute_lattice is an exact decision procedure via Gaussian-prime
factorization: alpha^j beta^k = 1 iff every prime valuation combination
vanishes and the combined unit exponent is 0 mod 4. alpha and beta are
Scalars; one carrying a sqrt2 part is rejected with LatticeError rather
than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .gaussint import LatticeError, gaussian_valuations
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
    ua, va = gaussian_valuations(alpha)
    ub, vb = gaussian_valuations(beta)
    primes = sorted(set(va) | set(vb))
    if not primes:
        # both units: kernel of (j,k) -> j*ua + k*ub mod 4, a rank-2 lattice
        gens = [(4, 0), (0, 4)]
        for j in range(4):
            for k in range(4):
                if (j or k) and (j * ua + k * ub) % 4 == 0:
                    gens.append((j, k))
        b1, b2 = _hnf_basis(gens)
        return ExponentLattice(2, basis=(b1, b2))
    p0 = primes[0]
    a0, b0 = va.get(p0, 0), vb.get(p0, 0)
    g = gcd(a0, b0)
    s0, t0 = b0 // g, -a0 // g
    for p in primes[1:]:
        if s0 * va.get(p, 0) + t0 * vb.get(p, 0) != 0:
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

