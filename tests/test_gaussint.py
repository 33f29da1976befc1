"""The test-only Gaussian-prime factorization that compute_lattice is
checked against (lattice_reference.py)."""

import random
from fractions import Fraction as Q

import pytest
from lattice_reference import gaussian_valuations

from sixvertex.interpolate import LatticeError
from sixvertex.scalar import I_POWERS, SQRT2, Scalar


def rebuild(unit, factors):
    """i^unit * prod(prime^exp): the value gaussian_valuations factored."""
    out = I_POWERS[unit]
    for (re, im), e in factors.items():
        out = out * Scalar(re, im) ** e
    return out


def test_factor_two():
    unit, factors = gaussian_valuations(Scalar(2))
    assert factors == {(1, 1): 2}
    assert unit == 3  # 2 = -i * (1+i)^2
    assert rebuild(unit, factors) == Scalar(2)


def test_factor_unit():
    unit, factors = gaussian_valuations(Scalar(0, 1))
    assert factors == {}
    assert I_POWERS[unit] == Scalar(0, 1)


def test_factor_three_fifths():
    unit, factors = gaussian_valuations(Scalar(Q(3, 5)))
    assert factors[(3, 0)] == 1
    assert factors[(2, 1)] == -1
    assert factors[(1, 2)] == -1
    assert rebuild(unit, factors) == Scalar(Q(3, 5))


def test_factor_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        gaussian_valuations(Scalar(0))


def test_factor_rejects_sqrt2():
    with pytest.raises(LatticeError):
        gaussian_valuations(SQRT2)
    with pytest.raises(LatticeError):
        gaussian_valuations(Scalar(1, 0, 0, 1))


def test_round_trip_randomized():
    rng = random.Random(5)
    for _ in range(200):
        re = Q(rng.randint(-30, 30), rng.randint(1, 12))
        im = Q(rng.randint(-30, 30), rng.randint(1, 12))
        if not re and not im:
            continue
        q = Scalar(re, im)
        unit, factors = gaussian_valuations(q)
        assert rebuild(unit, factors) == q
        # canonical associates: first quadrant, or rational inert primes
        for (p_re, p_im), e in factors.items():
            assert e != 0
            assert p_re > 0 and p_im >= 0


def test_deterministic():
    q = Scalar(Q(-7, 4), Q(3, 2))
    assert gaussian_valuations(q) == gaussian_valuations(q)


def test_valuations_match_exponent_arithmetic():
    rng = random.Random(13)
    for _ in range(50):
        a = Scalar(rng.randint(1, 20), rng.randint(0, 20))
        if not a:
            continue
        ua, va = gaussian_valuations(a)
        ub, vb = gaussian_valuations(a * a)
        assert ub == (2 * ua) % 4
        assert vb == {p: 2 * e for p, e in va.items()}

