"""The exact root kernel against sympy, an independent computer-algebra oracle.

sympy is a test-only dependency; without it this module is skipped.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aimnu.algebra import Poly, poly_gcd, rational_roots

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


def _to_sympy(p: Poly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, X, domain="QQ")


def _to_fraction(value) -> F:
    value = sympy.Rational(value)
    return F(int(value.p), int(value.q))


@st.composite
def factored_polys(draw):
    """Rational linear factors with multiplicity <= 3, times an optional r^2 + c."""
    p = Poly.const(draw(rationals.filter(bool)))
    for root in draw(st.lists(rationals, max_size=4)):
        p = p * Poly.linear_root(root) ** draw(st.integers(1, 3))
    if draw(st.booleans()):
        c = draw(st.one_of(st.integers(-(10**30), 10**30), rationals))
        p = p * Poly((c, 0, 1))
    return p


@st.composite
def random_polys(draw):
    coeffs = draw(st.lists(rationals, min_size=1, max_size=7).filter(lambda cs: cs[-1] != 0))
    p = Poly(coeffs)
    if draw(st.booleans()):  # a repeated factor exercises the squarefree step
        p = p * Poly(draw(st.lists(rationals, min_size=2, max_size=3).filter(any))) ** 2
    return p


@settings(max_examples=120, deadline=None)
@given(factored_polys())
def test_rational_roots_match_sympy(p):
    roots, residual = rational_roots(p)
    expected = sympy.roots(_to_sympy(p), filter="Q")
    assert roots == sorted((_to_fraction(r), m) for r, m in expected.items())
    product = residual
    for root, m in roots:
        product = product * Poly.linear_root(root) ** m
    assert product == p
    assert not any(residual.evaluate(root) == 0 for root, _ in roots)


def _check_root_count(p: Poly, lo: F, hi: F):
    found = p.real_roots(lo, hi, F(1, 10**6))
    lo_s, hi_s = sympy.Rational(str(lo)), sympy.Rational(str(hi))
    inside = {r for r in sympy.real_roots(_to_sympy(p)) if lo_s < r < hi_s}
    assert len(found) == len(inside)
    for a, b in found:
        if a == b:
            assert p.evaluate(a) == 0
        else:
            assert b - a < F(1, 10**6)
            a_s, b_s = sympy.Rational(str(a)), sympy.Rational(str(b))
            held = [r for r in inside if a_s < r < b_s]
            assert len(held) == 1 and not held[0].is_rational


@settings(max_examples=120, deadline=None)
@given(random_polys(), rationals, st.fractions(min_value=F(1, 50), max_value=30))
def test_root_count_matches_sympy(p, lo, width):
    _check_root_count(p, lo, lo + width)


#: Bracket ends with denominators up to 10^9, which the integer map from
#: (lo, hi) onto (0, 1) carries through v^n and (v s)^i t^(n-i).
fine = st.fractions(min_value=-40, max_value=40, max_denominator=10**9)


@settings(max_examples=80, deadline=None)
@given(random_polys(), fine.filter(lambda x: x < 0), fine.filter(lambda x: x >= F(1, 50)))
def test_root_count_on_fine_brackets_matches_sympy(p, lo, width):
    _check_root_count(p, lo, lo + width)


@settings(max_examples=60, deadline=None)
@given(random_polys(), random_polys(), random_polys())
def test_poly_gcd_matches_sympy(common, a, b):
    a, b = common * a, common * b
    assert _to_sympy(poly_gcd(a, b)) == _to_sympy(a).gcd(_to_sympy(b))


@settings(max_examples=60, deadline=None)
@given(random_polys(), random_polys())
def test_divmod_matches_sympy(a, b):
    quo, rem = divmod(a, b)
    assert (_to_sympy(quo), _to_sympy(rem)) == _to_sympy(a).div(_to_sympy(b))
