import copy
import pickle
import random
import sys
from fractions import Fraction as Q
from math import gcd

import pytest

from sixvertex.scalar import (
    I,
    ONE,
    SQRT2,
    Scalar,
    ScalarParseError,
    ZERO,
    approx_complex,
    format_scalar,
    parse_scalar,
    ratio_power_of_i,
)

POOL_COMPONENTS = (0, 1, -1, 2, -3, Q(1, 2), Q(-2, 7), Q(5, 3))


def random_scalar(rng):
    return Scalar(*(rng.choice(POOL_COMPONENTS) for _ in range(4)))


def test_definition_examples():
    assert ONE + SQRT2 == Scalar(1, 0, 1, 0)
    assert SQRT2 * SQRT2 == Scalar(2)
    inv = (ONE + SQRT2).inverse()
    assert inv == Scalar(-1, 0, 1, 0)
    assert inv * (ONE + SQRT2) == ONE


def test_field_operators():
    assert ONE + SQRT2 == Scalar(1, 0, 1, 0)
    assert SQRT2 * SQRT2 == Scalar(2)
    assert ONE / (ONE + SQRT2) == Scalar(-1, 0, 1, 0)
    assert ONE - SQRT2 == Scalar(1, 0, -1, 0)
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_field_axioms_randomized():
    rng = random.Random(2024)
    for _ in range(10_000):
        a, b, c = (random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_pow_and_negative_exponents():
    s = Scalar(1, 1, Q(1, 2), 0)
    assert s**0 == ONE
    assert s**3 == s * s * s
    assert s**-2 == (s * s).inverse()


def test_ratio_power_of_i():
    assert ratio_power_of_i(I, ONE) == 1
    assert ratio_power_of_i(Scalar(-3), Scalar(3)) == 2
    assert ratio_power_of_i(ONE + SQRT2, ONE) is None
    with pytest.raises(ZeroDivisionError):
        ratio_power_of_i(ONE, ZERO)


def test_ratio_power_exhaustive_consistency():
    rng = random.Random(7)
    powers = (ONE, I, Scalar(-1), Scalar(0, -1))
    for _ in range(500):
        v = random_scalar(rng)
        if not v:
            continue
        e = rng.randrange(4)
        assert ratio_power_of_i(powers[e] * v, v) == e
        u = random_scalar(rng)
        got = ratio_power_of_i(u, v)
        if got is None:
            assert all(u != powers[k] * v for k in range(4))
        else:
            assert u == powers[got] * v


def test_parse_format_round_trip():
    rng = random.Random(11)
    for _ in range(500):
        s = random_scalar(rng)
        text = format_scalar(s)
        assert parse_scalar(text) == s
        assert format_scalar(parse_scalar(text)) == text


def test_grammar_examples():
    assert parse_scalar("1/2+3i+(0+1i)r2") == Scalar(Q(1, 2), 3, 0, 1)
    assert format_scalar(Scalar(Q(1, 2), 3, 0, 1)) == "1/2+3i+(0+1i)r2"
    assert parse_scalar("0") == ZERO
    assert parse_scalar("-i") == Scalar(0, -1)
    assert parse_scalar("(1)r2") == SQRT2
    assert parse_scalar("-3/4") == Scalar(Q(-3, 4))
    assert parse_scalar("2r2i") == Scalar(0, 1, 2)
    assert parse_scalar("-(i-1/2)r2+i+i") == Scalar(0, 2, Q(1, 2), -1)


@pytest.mark.parametrize("bad", ["", "1+", "r2", "1+(2r2", "x", "(1)r3"])
def test_parse_rejects(bad):
    with pytest.raises(ScalarParseError):
        parse_scalar(bad)


@pytest.mark.parametrize(
    "bad, message",
    [
        (" ", "empty scalar"),
        ("1+", "bad token at '' in '1+'"),
        ("1 + x", "bad token at 'x' in '1 + x'"),
        ("1+(2r2", "malformed sqrt2 term in '1+(2r2'"),
        ("(1)r3", "malformed sqrt2 term in '(1)r3'"),
        ("()r2", "empty component in '()r2'"),
        ("(+)r2", "bad token at '' in '(+)r2'"),
        ("(1r2)r2", "bad token at 'r2' in '(1r2)r2'"),
        ("((1)r2)r2", "bad token at '(1' in '((1)r2)r2'"),
        ("2/0i", "zero denominator in '2/0i'"),
        ("(1/0)r2", "zero denominator in '(1/0)r2'"),
        (1, "scalar must be a string, got 1"),
        (None, "scalar must be a string, got None"),
        (["1"], "scalar must be a string, got ['1']"),
    ],
)
def test_parse_error_messages(bad, message):
    with pytest.raises(ScalarParseError) as exc:
        parse_scalar(bad)
    assert str(exc.value) == message


@pytest.mark.parametrize("template", ["{}", "1/{}i", "(2+{}i)r2"])
def test_parse_rejects_numbers_past_the_int_limit(template):
    # int() refuses longer digit strings; the limit itself is left alone
    limit = sys.get_int_max_str_digits()
    text = template.format("7" * (limit + 1))
    with pytest.raises(ScalarParseError) as exc:
        parse_scalar(text)
    assert str(exc.value) == f"number longer than {limit} digits in {text!r}"


def test_approx_complex():
    re, im = approx_complex(ONE + SQRT2)
    assert abs(float(re) - 2.414213562373095) < 1e-12
    assert float(im) == 0.0
    assert approx_complex(I) == (0, 1)
    assert approx_complex(ZERO) == (0, 0)
    with pytest.raises(ValueError):
        approx_complex(ONE, precision_bits=8)


def test_approx_precision_scales():
    import mpmath

    s = Scalar(Q(1, 3), 0, Q(1, 7), 0)
    hi = approx_complex(s, precision_bits=200)
    with mpmath.workprec(260):
        want = mpmath.mpf(1) / 3 + mpmath.mpf(1) / 7 * mpmath.sqrt(2)
        got = mpmath.mpf(hi[0].numerator) / hi[0].denominator
        assert abs(got - want) < mpmath.mpf(2) ** (-190)


def _mp_rounded(q, sqrt2_part, bits, work):
    """q + sqrt2_part * sqrt2, at `work` bits in mpmath, then rounded to
    `bits` (to nearest, ties to even), as a Fraction."""
    import mpmath

    with mpmath.workprec(work):
        x = mpmath.mpf(q.numerator) / q.denominator
        x += mpmath.mpf(sqrt2_part.numerator) / sqrt2_part.denominator * mpmath.sqrt(2)
    with mpmath.workprec(bits):
        sign, man, exp, _ = (+x)._mpf_
    return (-1) ** sign * Q(man) * Q(2) ** exp


@pytest.mark.parametrize("precision", [24, 53, 64, 200, 65536])
def test_approx_is_correctly_rounded(precision):
    # each part rounded once, at precision + 8 bits; mpmath at 400 bits
    # fixes that rounding for every precision but the last, which needs
    # precision + 72 bits
    rng = random.Random(precision)
    bits, work = precision + 8, max(400, precision + 72)

    def part():
        w = rng.choice([2, 10, 40, 300])
        return Q(rng.randint(-2**w, 2**w), rng.randint(1, 2**rng.choice([1, 8, 60])))

    count = 3 if precision == 65536 else 200
    for n in range(count):
        # every fourth scalar is rational-only, a sqrt2 part of 0
        s = Scalar(part(), part(), *((0, 0) if n % 4 == 0 else (part(), part())))
        re, im = approx_complex(s, precision)
        assert re == _mp_rounded(s.re0, s.re1, bits, work), (s, precision)
        assert im == _mp_rounded(s.im0, s.im1, bits, work), (s, precision)
        for x in (re, im):
            assert x.denominator & (x.denominator - 1) == 0  # dyadic
            assert abs(x.numerator).bit_length() <= bits or x.denominator == 1


def test_approx_ties_round_to_even():
    # 2^32 + 1 and 2^32 + 3 lie halfway between 32-bit neighbours
    assert approx_complex(Scalar(2**32 + 1), 24) == (2**32, 0)
    assert approx_complex(Scalar(-(2**32) - 3), 24) == (-(2**32) - 4, 0)


def test_approx_cancellation():
    # 99 - 70*sqrt2 = 1 / (99 + 70*sqrt2) ~ 0.00505: the two terms cancel
    # to 14 bits, which the bracket must make up
    import mpmath

    re, _ = approx_complex(Scalar(99, 0, -70), 53)
    with mpmath.workprec(400):
        want = 1 / (99 + 70 * mpmath.sqrt(2))
        got = mpmath.mpf(re.numerator) / re.denominator
        assert abs(got / want - 1) < mpmath.mpf(2) ** (-61)


def test_gaussian_rational_arithmetic():
    g = Scalar(2, 3)
    assert g * g.inverse() == Scalar(1)
    assert (g**3) == g * g * g
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()


@pytest.mark.parametrize("text", ["-2/3i", "1/2", "1+(1)r2"])
def test_text_constructor_is_parse_scalar(text):
    assert Scalar(text) == parse_scalar(text)


def test_immutability_and_hash():
    s = Scalar(1, 2, 3, 4)
    with pytest.raises(AttributeError):
        s.re0 = Q(5)
    assert hash(Scalar(1, 2, 3, 4)) == hash(s)
    assert len({Scalar(1), Scalar(1), Scalar(2)}) == 2


# Reference: the value as four Fractions (re0, im0, re1, im1) with the
# componentwise formulas, independent of Scalar's integer coordinates.


def ref_add(x, y):
    return tuple(u + v for u, v in zip(x, y))


def ref_sub(x, y):
    return tuple(u - v for u, v in zip(x, y))


def ref_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (
        a * e - b * f + 2 * (c * g - d * h),
        a * f + b * e + 2 * (c * h + d * g),
        a * g - b * h + c * e - d * f,
        a * h + b * g + c * f + d * e,
    )


def ref_inverse(x):
    a, b, c, d = x
    p = a * a - b * b - 2 * (c * c - d * d)
    q = 2 * (a * b - 2 * c * d)
    n = p * p + q * q
    return ((a * p + b * q) / n, (b * p - a * q) / n, -(c * p + d * q) / n, -(d * p - c * q) / n)


def ref_pow(x, k):
    if k < 0:
        return ref_pow(ref_inverse(x), -k)
    out = (Q(1), Q(0), Q(0), Q(0))
    for _ in range(k):
        out = ref_mul(out, x)
    return out


def views(s):
    return (s.re0, s.im0, s.re1, s.im1)


REF_POOL = (0, 0, 1, -1, 2, -6, 12, Q(1, 2), Q(-2, 7), Q(5, 3), Q(-9, 4), Q(7, 6))


def random_reference_operand(rng):
    """Four Fractions: sometimes zero, sometimes with no sqrt2 part."""
    shape = rng.randrange(4)
    if shape == 0:
        return (Q(0),) * 4
    x = [Q(rng.choice(REF_POOL)) for _ in range(4)]
    if shape == 1:
        x[2] = x[3] = Q(0)
    return tuple(x)


def assert_canonical(s, want):
    """s has the value want and the one lowest-terms integer form."""
    assert views(s) == want
    n0, n1, n2, n3, d = s.coords
    assert d > 0 and gcd(n0, n1, n2, n3, d) == 1
    built = Scalar(*want)
    assert s == built and hash(s) == hash(built)


def test_matches_fraction_reference():
    rng = random.Random(8)
    for _ in range(2000):
        x, y = random_reference_operand(rng), random_reference_operand(rng)
        sx, sy = Scalar(*x), Scalar(*y)
        assert views(sx) == x
        assert_canonical(sx + sy, ref_add(x, y))
        assert_canonical(sx - sy, ref_sub(x, y))
        assert_canonical(sx * sy, ref_mul(x, y))
        assert_canonical(-sx, tuple(-u for u in x))
        assert bool(sx) == any(x)
        for n in (0, 1, -1, 2):
            assert (sx == n) == (x == (n, 0, 0, 0))
        if any(y):
            assert_canonical(sx / sy, ref_mul(x, ref_inverse(y)))
            assert_canonical(sy.inverse(), ref_inverse(y))
        for k in range(-3, 4):
            if k >= 0 or any(x):
                assert_canonical(sx**k, ref_pow(x, k))
        assert_canonical(sx + 3, ref_add(x, (Q(3), Q(0), Q(0), Q(0))))
        assert_canonical(Q(1, 3) * sx, ref_mul((Q(1, 3), Q(0), Q(0), Q(0)), x))


@pytest.mark.parametrize(
    "left, right",
    [
        (Scalar(Q(2, 4)), Scalar("1/2")),
        (Scalar("1/3") + Scalar("2/3"), Scalar(1)),
        (Scalar(Q(1, 6), Q(1, 3)) * 6, Scalar(1, 2)),
        (Scalar(Q(1, 2), 0, Q(1, 2)) - Scalar(Q(1, 2), 0, Q(1, 2)), ZERO),
        (SQRT2 * SQRT2 / 4, Scalar(Q(1, 2))),
        (Scalar(4, 2, 6, 8) / 2, Scalar(2, 1, 3, 4)),
    ],
)
def test_equal_values_built_differently(left, right):
    assert left == right and hash(left) == hash(right)
    assert left.coords == right.coords


def test_from_coords_reduces_and_rejects_nonpositive_denominator():
    s = Scalar.from_coords(2, 4, 0, 6, 4)
    assert s == Scalar(Q(1, 2), 1, 0, Q(3, 2)) and s.coords == (1, 2, 0, 3, 2)
    assert Scalar.from_coords(0, 0, 0, 0, 7).coords == (0, 0, 0, 0, 1)
    for d in (0, -2):
        with pytest.raises(ValueError):
            Scalar.from_coords(1, 0, 0, 0, d)


@pytest.mark.parametrize("kind", ["scalar", "signature", "params", "grid"])
def test_copy_deepcopy_and_pickle_round_trip(kind):
    from sixvertex.grid import build_torus
    from sixvertex.signature import Signature, SixVertexParams

    params = SixVertexParams.of(1, "1/2", "-2i", 0, "1+(1/3)r2", 2)
    obj = {
        "scalar": Scalar(Q(1, 3), -2, Q(5, 7), 1),
        "signature": Signature(2, [ZERO, SQRT2, I, Scalar("1/2")]),
        "params": params,
        "grid": build_torus(2, params),
    }[kind]
    for other in (
        copy.copy(obj),
        copy.deepcopy(obj),
        pickle.loads(pickle.dumps(obj)),
    ):
        assert other == obj
        if kind != "grid":  # SignatureGrid holds a dict and is unhashable
            assert hash(other) == hash(obj)


@pytest.mark.parametrize("n", [0, 1, -3, 2**70])
def test_integer_valued_scalar_hashes_as_its_int(n):
    s = Scalar(n)
    assert s == n and hash(s) == hash(n)
    assert n in {s} and s in {n}
    assert {s: "x"}[n] == "x" and {n: "x"}[s] == "x"
    assert Scalar(n, 1) not in {n}
