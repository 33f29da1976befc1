"""Exact rationals: Q is fractions.Fraction.

Scalar does its arithmetic on integers over one shared denominator, so
rationals appear only at the edges: the components a Scalar shows as views,
parsing and formatting, the interpolation brackets and the acceptance
parameters. rat_str and parse_rat give the canonical text form 'p' or
'p/q' used by every file format and the CLI.
"""

from __future__ import annotations

from fractions import Fraction as Q

__all__ = ["Q", "rat_str", "parse_rat"]


def rat_str(q) -> str:
    """Canonical text form: 'p' for integers, 'p/q' otherwise."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rat(text: str):
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return Q(int(num), int(den))
    return Q(int(text))
