"""Test-only reference for the exponent lattice: full Gaussian-prime
factorization, with rational primes factored by sympy.factorint (not
polynomial time, so only for the small values of the tests).

gaussian_valuations factors a nonzero element of Q(i) uniquely as
i^e * prod(pi_k ^ n_k) with the pi_k canonical Gaussian primes and n_k
possibly negative. Canonical associate: first quadrant with re > 0,
im >= 0; rational primes p = 3 mod 4 stay as-is. compute_lattice_reference
reads the lattice off those valuations.
"""

from math import gcd

from sympy import factorint

from sixvertex.interpolate import ExponentLattice, LatticeError, _hnf_basis
from sixvertex.scalar import Scalar


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gconj(a):
    return (a[0], -a[1])


def _gnorm(a):
    return a[0] * a[0] + a[1] * a[1]


def _gdivmod(a, b):
    """Rounded division in Z[i]; remainder has norm < norm(b)."""
    nb = _gnorm(b)
    t = _gmul(a, _gconj(b))
    qx = (2 * t[0] + nb) // (2 * nb)
    qy = (2 * t[1] + nb) // (2 * nb)
    q = (qx, qy)
    r = (a[0] - (q[0] * b[0] - q[1] * b[1]), a[1] - (q[0] * b[1] + q[1] * b[0]))
    return q, r


def _ggcd(a, b):
    while b != (0, 0):
        _, r = _gdivmod(a, b)
        a, b = b, r
    return a


def _gdiv_exact(a, b):
    """a / b in Z[i] or None when not divisible."""
    nb = _gnorm(b)
    t = _gmul(a, _gconj(b))
    if t[0] % nb or t[1] % nb:
        return None
    return (t[0] // nb, t[1] // nb)


def canonical_associate(z):
    """Rotate z != 0 by a unit into {re > 0, im >= 0}; returns (assoc, e)
    with z = i^e * assoc."""
    cand = z
    for e in range(4):
        if cand[0] > 0 and cand[1] >= 0:
            return cand, e
        # divide by i: (x, y)/i = (y, -x); so z = i^e * cand rotates up
        cand = (cand[1], -cand[0])
    raise ValueError("zero has no associate")


_UNIT_EXPONENT = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}


def _least_nonresidue(p: int) -> int:
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    return c


def _prime_above(p: int):
    """Canonical Gaussian prime over a rational prime p = 1 mod 4."""
    x = pow(_least_nonresidue(p), (p - 1) // 4, p)
    pi = _ggcd((p, 0), (x, 1))
    assoc, _ = canonical_associate(pi)
    return assoc


def _factor_gaussian_integer(z):
    """Factor z in Z[i], z != 0: returns (unit_exponent, {prime: exp})."""
    factors: dict[tuple[int, int], int] = {}
    for p, k in sorted(factorint(_gnorm(z)).items()):
        if p == 2:
            pi = (1, 1)
            e = 0
            while True:
                w = _gdiv_exact(z, pi)
                if w is None:
                    break
                z, e = w, e + 1
            if e:
                factors[pi] = e
        elif p % 4 == 3:
            e = k // 2
            for _ in range(e):
                z = _gdiv_exact(z, (p, 0))
            factors[(p, 0)] = e
        else:
            pi = _prime_above(p)
            for prime in (pi, canonical_associate(_gconj(pi))[0]):
                e = 0
                while True:
                    w = _gdiv_exact(z, prime)
                    if w is None:
                        break
                    z, e = w, e + 1
                if e:
                    factors[prime] = e
    if z not in _UNIT_EXPONENT:
        raise AssertionError(f"non-unit remainder {z} after factoring")
    return _UNIT_EXPONENT[z], factors


def gaussian_valuations(q: Scalar):
    """(unit_exponent, {(re, im) prime key: exponent}) of a nonzero element
    of Q(i): the canonical factorization with integer prime keys."""
    if not q.is_gaussian():
        raise LatticeError(
            "lattice undetermined over this field: value has a sqrt2 part"
        )
    if not q:
        raise ZeroDivisionError("cannot factor zero")
    re, im, _, _, den = q.coords
    num = (re, im)
    unit, fac = _factor_gaussian_integer(num)
    if den != 1:
        unit_den, fac_den = _factor_gaussian_integer((den, 0))
        unit = (unit - unit_den) % 4
        for prime, exp in fac_den.items():
            fac[prime] = fac.get(prime, 0) - exp
    return unit % 4, {p: e for p, e in sorted(fac.items()) if e != 0}


def compute_lattice_reference(alpha: Scalar, beta: Scalar) -> ExponentLattice:
    """ExponentLattice of (alpha, beta) from the full Gaussian-prime
    factorizations."""
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
