"""Exact rational helpers: parsing, formatting, square roots.

The package stores every coefficient as `fractions.Fraction`.  These helpers
add the canonical "p/q" string form used on the command line and in JSON
files, and a perfect-square test needed by the Nikiforov--Uvarov reduction.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidRational

__all__ = [
    "MAX_DIGITS",
    "parse_rational",
    "format_rational",
    "rational_sqrt",
]

#: Most digits of a numerator or denominator read; the exact work grows with them.
MAX_DIGITS = 32


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer "p" into a Fraction.

    Floating-point literals are rejected: exactness is part of the contract.
    The result is reduced with a positive denominator; a zero denominator
    raises InvalidRational, as does a value that is not a string (a JSON
    number in a problem file, say) or a numerator or denominator of more
    than ``MAX_DIGITS`` digits.
    """
    if not isinstance(text, str):
        raise InvalidRational(f'expected a "p/q" string, got {text!r}')
    s = text.strip()
    if not s:
        raise InvalidRational("empty rational literal")
    if any(ch in s for ch in ".eE"):
        raise InvalidRational(f"floating literal not allowed: {text!r}")
    num, sep, den = s.partition("/")
    try:
        n = int(num)
        d = int(den) if sep else 1
    except ValueError as exc:
        raise InvalidRational(f"cannot parse rational: {text!r}") from exc
    if d == 0:
        raise InvalidRational("zero denominator")
    if max(abs(n), abs(d)) >= 10**MAX_DIGITS:
        raise InvalidRational(f"more than {MAX_DIGITS} digits in a numerator or denominator")
    return Fraction(n, d)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _isqrt_exact(n: int) -> int | None:
    if n < 0:
        return None
    root = math.isqrt(n)
    return root if root * root == n else None


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None.

    Returns the non-negative root when both numerator and denominator are
    perfect squares; never approximates.
    """
    num = _isqrt_exact(value.numerator)
    if num is None:
        return None
    den = _isqrt_exact(value.denominator)
    if den is None:
        return None
    return Fraction(num, den)
