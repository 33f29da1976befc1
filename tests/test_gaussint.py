import random
import subprocess
import sys

import pytest

from sixvertex.gaussint import factor_gaussian, gaussian_valuations
from sixvertex.rational import Q
from sixvertex.interpolate import LatticeError
from sixvertex.scalar import SQRT2, Scalar


def test_factor_two():
    f = factor_gaussian(Scalar(2))
    assert f.factors == ((Scalar(1, 1), 2),)
    assert f.unit_exponent == 3  # 2 = -i * (1+i)^2
    assert f.value() == Scalar(2)


def test_factor_unit():
    f = factor_gaussian(Scalar(0, 1))
    assert f.factors == ()
    assert f.unit == Scalar(0, 1)


def test_factor_three_fifths():
    f = factor_gaussian(Scalar(Q(3, 5)))
    primes = {(p.re0, p.im0): e for p, e in f.factors}
    assert primes[(3, 0)] == 1
    assert primes[(2, 1)] == -1
    assert primes[(1, 2)] == -1
    assert f.value() == Scalar(Q(3, 5))


def test_factor_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        factor_gaussian(Scalar(0))


def test_factor_rejects_sqrt2():
    with pytest.raises(LatticeError):
        factor_gaussian(SQRT2)
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
        f = factor_gaussian(q)
        assert f.value() == q
        # canonical associates: first quadrant, or rational inert primes
        for p, e in f.factors:
            assert e != 0
            assert p.is_gaussian()
            assert (p.re0 > 0 and p.im0 >= 0) or (p.im0 == 0 and p.re0 > 0)


def test_deterministic():
    q = Scalar(Q(-7, 4), Q(3, 2))
    assert factor_gaussian(q) == factor_gaussian(q)


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


def test_import_leaves_sympy_unloaded():
    code = "import sys, sixvertex.cli; assert 'sympy' not in sys.modules"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
