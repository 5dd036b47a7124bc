"""Exact rational scalars and their text representation.

Every rational the package reads, reports or certifies is a
:class:`fractions.Fraction`, which already guarantees lowest terms and a
positive denominator.  The hot loops do not use it: the simplex tableau,
the linear solves and the face tests scale their rows to Python ints and
divide back only at the end.  This module only adds the strict string
format used by the file interfaces: an optional sign, a decimal integer,
and an optional ``/`` followed by a positive decimal integer.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational string like ``-3/6`` (canonicalized to ``-1/2``)."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ParseError(f"not a rational string: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ParseError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(q: Fraction) -> str:
    """Canonical text form: ``p`` for integers, ``p/q`` otherwise."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_vector(items) -> tuple[Fraction, ...]:
    """Parse a JSON list of rational strings."""
    if not isinstance(items, list):
        raise ParseError(f"not a list of rational strings: {items!r}")
    return tuple(parse_rational(x) for x in items)


def format_vector(v) -> list[str]:
    return [format_rational(x) for x in v]
