"""Exact arithmetic in Q(i, sqrt2).

A Scalar is (n0 + n1*i + (n2 + n3*i)*sqrt2) / d with integers n0..n3 and
d > 0, kept in lowest terms: gcd(n0, n1, n2, n3, d) == 1, and zero is
(0, 0, 0, 0, 1). The form is unique because 1, i, sqrt2, i*sqrt2 are
linearly independent over Q, so equality and hashing compare integers.
Every result goes through one normalizing constructor, which does one
multi-argument gcd and skips it when d == 1. The rational components
re0, im0, re1, im1 (n_k / d) are read-only fractions.Fraction views for
the edges: formatting and callers that want Fractions. All operations are
pure and exact. approx_complex, for reporting, rounds each part to a dyadic
rational from exact integers, bracketing the sqrt2 term with math.isqrt.

Every scalar the program reads arrives as text and goes through
parse_scalar: one term loop, _terms, reads the top level and, with
nested=True, the inside of a (...)r2 group. Anything but a str (a JSON
number, say) is a ScalarParseError, like any text outside the grammar and
a number past the interpreter's int-string digit limit (left as it is).
format_scalar writes the canonical form, rationals as 'p' or 'p/q' (rat_str).
"""

from __future__ import annotations

import re as _re
import sys
from fractions import Fraction
from math import gcd, isqrt, lcm

__all__ = [
    "Scalar",
    "ScalarParseError",
    "ZERO",
    "ONE",
    "I",
    "SQRT2",
    "HALF_SQRT2",
    "I_POWERS",
    "ratio_power_of_i",
    "approx_complex",
    "parse_scalar",
    "format_scalar",
]

class ScalarParseError(ValueError):
    pass


class Scalar:
    """(n0 + n1*i + (n2 + n3*i)*sqrt2) / d, held as the integer tuple
    coords = (n0, n1, n2, n3, d) in lowest terms."""

    __slots__ = ("coords",)

    def __init__(self, re0=0, im0=0, re1=0, im1=0):
        """Four exact components, or one text parsed by parse_scalar."""
        if isinstance(re0, str):
            if im0 or re1 or im1:
                raise TypeError("Scalar(text) takes no other components")
            coords = parse_scalar(re0).coords
        else:
            qs = [Fraction(x) for x in (re0, im0, re1, im1)]
            d = lcm(*(q.denominator for q in qs))
            coords = tuple(q.numerator * (d // q.denominator) for q in qs) + (d,)
        _set_coords(self, coords)

    @classmethod
    def from_coords(cls, n0: int, n1: int, n2: int, n3: int, d: int) -> Scalar:
        """(n0 + n1*i + (n2 + n3*i)*sqrt2) / d from integers, d > 0."""
        if d <= 0:
            raise ValueError(f"denominator must be positive, got {d}")
        return _make(n0, n1, n2, n3, d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return Scalar.from_coords, self.coords

    @property
    def re0(self):
        return Fraction(self.coords[0], self.coords[4])

    @property
    def im0(self):
        return Fraction(self.coords[1], self.coords[4])

    @property
    def re1(self):
        return Fraction(self.coords[2], self.coords[4])

    @property
    def im1(self):
        return Fraction(self.coords[3], self.coords[4])

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.coords == other.coords
        if isinstance(other, int):
            return self.coords == (other, 0, 0, 0, 1)
        return NotImplemented

    def __hash__(self):
        # an integer value hashes as the int it equals
        c = self.coords
        if c[1] or c[2] or c[3] or c[4] != 1:
            return hash(c)
        return hash(c[0])

    def __bool__(self):
        return self.coords != _ZERO_COORDS

    def is_gaussian(self) -> bool:
        """True when the sqrt2 part vanishes (value lies in Q(i))."""
        c = self.coords
        return not c[2] and not c[3]

    def __add__(self, other):
        if not isinstance(other, Scalar):
            other = as_scalar(other)
        a, b, c, d, m = self.coords
        e, f, g, h, n = other.coords
        if m == n:
            return _make(a + e, b + f, c + g, d + h, m)
        return _make(a * n + e * m, b * n + f * m, c * n + g * m, d * n + h * m, m * n)

    __radd__ = __add__

    def __neg__(self):
        a, b, c, d, m = self.coords
        return _make(-a, -b, -c, -d, m)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            other = as_scalar(other)
        a, b, c, d, m = self.coords
        e, f, g, h, n = other.coords
        if m == n:
            return _make(a - e, b - f, c - g, d - h, m)
        return _make(a * n - e * m, b * n - f * m, c * n - g * m, d * n - h * m, m * n)

    def __rsub__(self, other):
        return as_scalar(other) - self

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            other = as_scalar(other)
        a, b, c, d, m = self.coords
        e, f, g, h, n = other.coords
        # (a+bi + (c+di)r2)(e+fi + (g+hi)r2) / (m n); r2^2 = 2
        if not (c or d or g or h):
            return _make(a * e - b * f, a * f + b * e, 0, 0, m * n)
        return _make(
            a * e - b * f + 2 * (c * g - d * h),
            a * f + b * e + 2 * (c * h + d * g),
            a * g - b * h + c * e - d * f,
            a * h + b * g + c * f + d * e,
            m * n,
        )

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        if not self:
            raise ZeroDivisionError("inverse of zero Scalar")
        a, b, c, d, m = self.coords
        # With g0 = a+bi and g1 = c+di: 1/(g0 + g1 r2) = (g0 - g1 r2)/den,
        # den = g0^2 - 2 g1^2 = p+qi, nonzero because sqrt2 is irrational
        # over Q(i); and 1/den = (p-qi)/n with n = p^2 + q^2 > 0. The value
        # is (g0 + g1 r2)/m, so its inverse is m (g0 - g1 r2)(p-qi)/n.
        p = a * a - b * b - 2 * (c * c - d * d)
        q = 2 * (a * b - 2 * c * d)
        return _make(
            m * (a * p + b * q),
            m * (b * p - a * q),
            -m * (c * p + d * q),
            -m * (d * p - c * q),
            p * p + q * q,
        )

    def __truediv__(self, other):
        other = as_scalar(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return as_scalar(other) * self.inverse()

    def __pow__(self, n: int) -> Scalar:
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


_ZERO_COORDS = (0, 0, 0, 0, 1)
_set_coords = Scalar.coords.__set__
_new = object.__new__


def _make(n0, n1, n2, n3, d) -> Scalar:
    """The Scalar (n0 + n1*i + (n2 + n3*i)*sqrt2) / d, d > 0, in lowest terms."""
    if d != 1:
        g = gcd(n0, n1, n2, n3, d)
        if g != 1:
            n0 //= g
            n1 //= g
            n2 //= g
            n3 //= g
            d //= g
    obj = _new(Scalar)
    _set_coords(obj, (n0, n1, n2, n3, d))
    return obj


def as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return _make(int(x), 0, 0, 0, 1)
    if isinstance(x, (Fraction, str)):
        return Scalar(x)
    raise TypeError(f"cannot coerce {x!r} to Scalar")


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
SQRT2 = Scalar(0, 0, 1)
HALF_SQRT2 = Scalar(0, 0, Fraction(1, 2))  # equals 1/sqrt2

I_POWERS = (ONE, I, Scalar(-1), Scalar(0, -1))


def ratio_power_of_i(u: Scalar, v: Scalar) -> int | None:
    """The e in {0,1,2,3} with u = i^e * v, or None if there is none.

    v must be nonzero.
    """
    if not v:
        raise ZeroDivisionError("ratio_power_of_i requires v != 0")
    for e, w in enumerate(I_POWERS):
        if u == w * v:
            return e
    return None


def approx_complex(s: Scalar, precision_bits: int = 64):
    """(re, im) as exact dyadic Fractions, each the correctly rounded value
    (to nearest, ties to even) of that part at precision_bits + 8
    significant bits, so the relative error is <= 2^(1-precision_bits)."""
    if precision_bits < 24:
        raise ValueError("precision_bits must be >= 24")
    n0, n1, n2, n3, d = s.coords
    bits = precision_bits + 8
    return _round_part(n0, n2, d, bits), _round_part(n1, n3, d, bits)


def _round_part(a: int, b: int, d: int, bits: int) -> Fraction:
    """(a + b*sqrt2) / d rounded to `bits` significant bits. For b != 0,
    b*sqrt2*2^k lies strictly between the integers r and r + 1 (isqrt,
    sqrt2 being irrational), so the value lies between (a*2^k + r) / d * 2^-k
    and the next such fraction; k grows until both ends round alike."""
    k = max(0, bits + 8 - max(a.bit_length(), b.bit_length()))
    while True:
        r = isqrt(2 * b * b << 2 * k)
        lo = (a << k) + (r if b >= 0 else -r - 1)
        q, e = _round(lo, d, -k, bits)
        if not b or (q, e) == _round(lo + 1, d, -k, bits):
            return Fraction(q << e) if e >= 0 else Fraction(q, 1 << -e)
        # too few bits, or cancellation between a and b*sqrt2
        k += max(16, bits + 8 - abs(lo).bit_length())


def _round(n: int, d: int, e: int, bits: int) -> tuple[int, int]:
    """(q, x) with q * 2^x the value n / d * 2^e (d > 0) rounded to `bits`
    significant bits, ties to even: |q| < 2^bits, and 2^(bits-1) <= |q|
    unless n is 0. The power of two stays out of the division."""
    if not n:
        return 0, 0
    shift = bits - 1 - (abs(n).bit_length() - d.bit_length())
    num, den = (abs(n) << shift, d) if shift >= 0 else (abs(n), d << -shift)
    if num < den << (bits - 1):
        # n / d was below the power of two its bit lengths suggested
        shift, num = shift + 1, num << 1
    q, rem = divmod(num, den)
    if 2 * rem > den or (2 * rem == den and q & 1):
        q += 1
        if q >> bits:
            q, shift = q >> 1, shift - 1
    return (-q if n < 0 else q), e - shift


# Text form: "<re>[+<im>i][+(<re2>[+<im2>i])r2]", rationals as p or p/q.
# The formatter folds signs into the joined terms ("1/2-3i+(0+1i)r2");
# the parser also accepts looser spellings like "3i", "i", "-(1)r2".

_RAT_RE = _re.compile(r"(\d+)(?:/(\d+))?")


def rat_str(q) -> str:
    """Canonical text form: 'p' for integers, 'p/q' otherwise."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def complex_str(re, im) -> str:
    if not im:
        return rat_str(re)
    sign = "-" if im < 0 else "+"
    return f"{rat_str(re)}{sign}{rat_str(abs(im))}i"


def format_scalar(s: Scalar) -> str:
    head = complex_str(s.re0, s.im0)
    if s.re1 or s.im1:
        head += f"+({complex_str(s.re1, s.im1)})r2"
    return head


def _terms(s: str, where: str, nested: bool) -> list:
    """The signed terms of s summed into [re0, im0, re1, im1].

    A term is <rat>, <rat>i or i, and at the top level also <rat>r2 or a
    (...)r2 group, whose inside is read by this loop with nested=True.
    Errors quote where, the text as given.
    """
    acc = [0, 0, 0, 0]
    i, n = 0, len(s)
    while i < n:
        sign = -1 if s[i] == "-" else 1
        if s[i] in "+-":
            i += 1
        if not nested and s.startswith("(", i):
            j = s.find(")", i)
            if j < 0 or s[j + 1 : j + 3] != "r2":
                raise ScalarParseError(f"malformed sqrt2 term in {where!r}")
            if j == i + 1:
                raise ScalarParseError(f"empty component in {where!r}")
            re1, im1, _, _ = _terms(s[i + 1 : j], where, True)
            acc[2] += sign * re1
            acc[3] += sign * im1
            i = j + 3
            continue
        m = _RAT_RE.match(s, i)
        if m:
            try:
                num, den = int(m.group(1)), int(m.group(2) or 1)
            except ValueError:  # past the interpreter's int-string limit
                raise ScalarParseError(
                    f"number longer than {sys.get_int_max_str_digits()} "
                    f"digits in {where!r}"
                ) from None
            if not den:
                raise ScalarParseError(f"zero denominator in {where!r}")
            val = Fraction(num, den)
            i = m.end()
        elif s.startswith("i", i):
            val = 1
        else:
            raise ScalarParseError(f"bad token at {s[i:]!r} in {where!r}")
        if not nested and s.startswith("r2", i):
            acc[2] += sign * val
            i += 2
        elif s.startswith("i", i):
            acc[1] += sign * val
            i += 1
        else:
            acc[0] += sign * val
    return acc


def parse_scalar(text: str) -> Scalar:
    """Exact parse of the canonical scalar grammar (and mild variants).

    Anything but a str, such as a number read from JSON, is a
    ScalarParseError, as is any text outside the grammar.
    """
    if not isinstance(text, str):
        raise ScalarParseError(f"scalar must be a string, got {text!r}")
    s = text.strip().replace(" ", "")
    if not s:
        raise ScalarParseError("empty scalar")
    return Scalar(*_terms(s, text, False))
