"""Gaussian-integer factorization over Q(i).

Nonzero elements of Q(i) factor uniquely as i^e * prod(pi_k ^ n_k) with the
pi_k canonical Gaussian primes and n_k possibly negative. Canonical associate:
first quadrant with re > 0, im >= 0; rational primes p = 3 mod 4 stay as-is.
Rational prime factorization is delegated to sympy.factorint, imported on
first use so that the rest of the package loads without sympy; the splitting
into Gaussian primes is done here. Values arrive as Scalars; one carrying a
sqrt2 part raises LatticeError.
"""

from __future__ import annotations

from .scalar import Scalar

__all__ = ["LatticeError", "gaussian_valuations"]


class LatticeError(ValueError):
    """A value the exponent-lattice code cannot take: zero, or a value with
    a sqrt2 part (outside Q(i))."""


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
    from sympy import factorint

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

