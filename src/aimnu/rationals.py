"""Exact rational helpers: parsing, formatting, square roots.

Scalars are `fractions.Fraction`s, and polynomials hold integer numerators
over one denominator (``algebra.Poly``).  These helpers add the canonical
"p/q" string form used on the command line and in JSON files, and a
perfect-square test needed by the Nikiforov--Uvarov reduction.
"""

from __future__ import annotations

import math
import re
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

#: "p/q" or "p" in ASCII digits, each with an optional sign.
_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/([+-]?)([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer "p" into a Fraction.

    Each part is ASCII digits with an optional sign, so floats, digit
    separators and other digits are rejected.  The result is reduced with a
    positive denominator; a zero denominator raises InvalidRational, as does
    a value that is not a string (a JSON number in a problem file, say) or
    a part of more than ``MAX_DIGITS`` digits, leading zeros aside.
    """
    if not isinstance(text, str):
        raise InvalidRational(f'expected a "p/q" string, got {text!r}')
    s = text.strip()
    if not s:
        raise InvalidRational("empty rational literal")
    if any(ch in s for ch in ".eE"):
        raise InvalidRational(f"floating literal not allowed: {text!r}")
    match = _RATIONAL.fullmatch(s)
    if match is None:
        raise InvalidRational(f"cannot parse rational: {text!r}")
    num_sign, num, den_sign, den = match.groups()
    num, den = num.lstrip("0") or "0", (den or "1").lstrip("0") or "0"
    if max(len(num), len(den)) > MAX_DIGITS:
        raise InvalidRational(f"more than {MAX_DIGITS} digits in a numerator or denominator")
    if den == "0":
        raise InvalidRational("zero denominator")
    return Fraction(int(num_sign + num), int((den_sign or "") + den))


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
