"""Exact arithmetic in Q(i, sqrt2).

A Scalar is g0 + g1*sqrt2 with g0, g1 in Q(i); internally four rationals
(re0, im0, re1, im1). The representation is unique because sqrt2 is not in
Q(i), so equality is componentwise. All operations are pure and exact; no
floating point enters except in approx_complex, which is reporting only.
"""

from __future__ import annotations

import re as _re

import mpmath

from .rational import Q, parse_rat, rat_str

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

_Q0 = Q(0)
_Q1 = Q(1)


class ScalarParseError(ValueError):
    pass


class Scalar:
    """re0 + im0*i + (re1 + im1*i)*sqrt2, all components exact rationals."""

    __slots__ = ("re0", "im0", "re1", "im1")

    def __init__(self, re0=0, im0=0, re1=0, im1=0):
        """Four exact components, or one text parsed by parse_scalar."""
        if isinstance(re0, str):
            if im0 or re1 or im1:
                raise TypeError("Scalar(text) takes no other components")
            parsed = parse_scalar(re0)
            re0, im0, re1, im1 = parsed.re0, parsed.im0, parsed.re1, parsed.im1
        object.__setattr__(self, "re0", Q(re0))
        object.__setattr__(self, "im0", Q(im0))
        object.__setattr__(self, "re1", Q(re1))
        object.__setattr__(self, "im1", Q(im1))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @classmethod
    def _raw(cls, re0, im0, re1, im1):
        obj = object.__new__(cls)
        object.__setattr__(obj, "re0", re0)
        object.__setattr__(obj, "im0", im0)
        object.__setattr__(obj, "re1", re1)
        object.__setattr__(obj, "im1", im1)
        return obj

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return (
                self.re0 == other.re0
                and self.im0 == other.im0
                and self.re1 == other.re1
                and self.im1 == other.im1
            )
        if isinstance(other, int):
            return (
                self.re0 == other
                and not self.im0
                and not self.re1
                and not self.im1
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.re0, self.im0, self.re1, self.im1))

    def __bool__(self):
        return bool(self.re0) or bool(self.im0) or bool(self.re1) or bool(self.im1)

    def is_gaussian(self) -> bool:
        """True when the sqrt2 part vanishes (value lies in Q(i))."""
        return not self.re1 and not self.im1

    def is_rational(self) -> bool:
        return not self.im0 and self.is_gaussian()

    def __add__(self, other):
        other = as_scalar(other)
        return Scalar._raw(
            self.re0 + other.re0,
            self.im0 + other.im0,
            self.re1 + other.re1,
            self.im1 + other.im1,
        )

    __radd__ = __add__

    def __neg__(self):
        return Scalar._raw(-self.re0, -self.im0, -self.re1, -self.im1)

    def __sub__(self, other):
        other = as_scalar(other)
        return Scalar._raw(
            self.re0 - other.re0,
            self.im0 - other.im0,
            self.re1 - other.re1,
            self.im1 - other.im1,
        )

    def __rsub__(self, other):
        return as_scalar(other) - self

    def __mul__(self, other):
        other = as_scalar(other)
        a, b, c, d = self.re0, self.im0, self.re1, self.im1
        e, f, g, h = other.re0, other.im0, other.re1, other.im1
        # (a+bi + (c+di)r2)(e+fi + (g+hi)r2); r2^2 = 2
        if not (c or d or g or h):
            return Scalar._raw(a * e - b * f, a * f + b * e, _Q0, _Q0)
        re0 = a * e - b * f + 2 * (c * g - d * h)
        im0 = a * f + b * e + 2 * (c * h + d * g)
        re1 = a * g - b * h + c * e - d * f
        im1 = a * h + b * g + c * f + d * e
        return Scalar._raw(re0, im0, re1, im1)

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        if not self:
            raise ZeroDivisionError("inverse of zero Scalar")
        a, b, c, d = self.re0, self.im0, self.re1, self.im1
        # With g0 = a+bi and g1 = c+di: 1/(g0 + g1 r2) = (g0 - g1 r2)/den,
        # den = g0^2 - 2 g1^2 = p+qi, nonzero because sqrt2 is irrational
        # over Q(i); and 1/den = (p-qi)/n with n = p^2 + q^2.
        p = a * a - b * b - 2 * (c * c - d * d)
        q = 2 * (a * b - 2 * c * d)
        n = p * p + q * q
        return Scalar._raw(
            (a * p + b * q) / n,
            (b * p - a * q) / n,
            -(c * p + d * q) / n,
            -(d * p - c * q) / n,
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

    def conjugate(self) -> Scalar:
        """Complex conjugate (sqrt2 stays real)."""
        return Scalar._raw(self.re0, -self.im0, self.re1, -self.im1)


def as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int) or type(x) is type(_Q0):
        return Scalar(x)
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"cannot coerce {x!r} to Scalar")


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
SQRT2 = Scalar(0, 0, 1)
HALF_SQRT2 = Scalar(0, 0, Q(1, 2))  # equals 1/sqrt2

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
    """Floating approximation with relative error <= 2^(1-precision_bits)."""
    if precision_bits < 24:
        raise ValueError("precision_bits must be >= 24")
    with mpmath.workprec(precision_bits + 8):
        r2 = mpmath.sqrt(2)
        re = _to_mpf(s.re0) + _to_mpf(s.re1) * r2
        im = _to_mpf(s.im0) + _to_mpf(s.im1) * r2
        return mpmath.mpc(re, im)


def _to_mpf(q):
    return mpmath.mpf(int(q.numerator)) / mpmath.mpf(int(q.denominator))


# Text form: "<re>[+<im>i][+(<re2>[+<im2>i])r2]", rationals as p or p/q.
# The formatter folds signs into the joined terms ("1/2-3i+(0+1i)r2");
# the parser also accepts looser spellings like "3i", "i", "-(1)r2".

_RAT_RE = _re.compile(r"\d+(?:/\d+)?")


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


def _parse_complex_terms(text: str, where: str):
    """Parse a sum of <rat> and <rat>i terms; returns (re, im)."""
    re_part, im_part = _Q0, _Q0
    i = 0
    n = len(text)
    if n == 0:
        raise ScalarParseError(f"empty component in {where!r}")
    while i < n:
        sign = 1
        if text[i] in "+-":
            sign = -1 if text[i] == "-" else 1
            i += 1
        m = _RAT_RE.match(text, i)
        if m:
            val = parse_rat(m.group(0))
            i = m.end()
            if i < n and text[i] == "i":
                i += 1
                im_part += sign * val
            else:
                re_part += sign * val
        elif i < n and text[i] == "i":
            i += 1
            im_part += sign * _Q1
        else:
            raise ScalarParseError(f"bad token at {text[i:]!r} in {where!r}")
    return re_part, im_part


def parse_scalar(text: str) -> Scalar:
    """Exact parse of the canonical scalar grammar (and mild variants)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ScalarParseError("empty scalar")
    re0 = im0 = re1 = im1 = _Q0
    i = 0
    n = len(s)
    saw_term = False
    while i < n:
        sign = 1
        if s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i += 1
        if i < n and s[i] == "(":
            j = s.find(")", i)
            if j < 0 or s[j + 1 : j + 3] != "r2":
                raise ScalarParseError(f"malformed sqrt2 term in {text!r}")
            r, m = _parse_complex_terms(s[i + 1 : j], text)
            re1 += sign * r
            im1 += sign * m
            i = j + 3
            saw_term = True
            continue
        m = _RAT_RE.match(s, i)
        if m:
            val = parse_rat(m.group(0))
            i = m.end()
            if s[i : i + 2] == "r2":
                re1 += sign * val
                i += 2
            elif i < n and s[i] == "i":
                im0 += sign * val
                i += 1
            else:
                re0 += sign * val
            saw_term = True
        elif i < n and s[i] == "i":
            im0 += sign * _Q1
            i += 1
            saw_term = True
        else:
            raise ScalarParseError(f"bad token at {s[i:]!r} in {text!r}")
    if not saw_term:
        raise ScalarParseError(f"no terms in {text!r}")
    return Scalar(re0, im0, re1, im1)
