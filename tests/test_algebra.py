import math
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aimnu.algebra import (
    NEG_INF,
    Poly,
    RatFunc,
    WeightExpr,
    cleared,
    integrate_log_derivative,
    partial_fractions,
    poly_gcd,
    rational_roots,
)
from aimnu.aim import _floors
from aimnu.algebra import _quadratic_roots, _weight
from aimnu.errors import DivisionByZero, InvalidInput, InvalidRational, UnsupportedDenominator
from aimnu.rationals import MAX_DIGITS, parse_rational

R = Poly.variable()


class TestRational:
    def test_normalize(self):
        assert parse_rational("6/-4") == F(-3, 2)
        assert parse_rational(" +6/-4 ") == F(-3, 2)
        assert parse_rational("0/5") == F(0, 1)
        assert parse_rational("2/4") == F(1, 2)

    def test_zero_denominator(self):
        with pytest.raises(InvalidRational):
            parse_rational("1/0")

    def test_parse_and_format(self):
        assert parse_rational("-3/2") == F(-3, 2)
        assert parse_rational("7") == F(7)

    def test_parse_rejects_floats(self):
        # ASCII "p/q" only: no digit separators, other digits or stray signs
        for bad in ("1.5", "1e3", "", "x/2", "1_0/3", "\u0663/\uff17", "1 / 2", "--1", "1/2/3"):
            with pytest.raises(InvalidRational):
                parse_rational(bad)

    def test_parse_bounds_the_digits(self):
        widest = "9" * MAX_DIGITS
        assert parse_rational(f"-{widest}/{widest[1:]}7") == F(-int(widest), int(widest[1:] + "7"))
        # counted before int(), which refuses strings of more than 4,300 digits
        for bad in (f"1{widest}", f"1/1{widest}", f"-1{widest}/3", "3" * 300, "3" * 5000):
            with pytest.raises(InvalidRational, match=f"more than {MAX_DIGITS} digits"):
                parse_rational(bad)
        assert parse_rational("0" * 5000 + "7/-" + "0" * 40 + "2") == F(-7, 2)


class TestPoly:
    def test_zero_degree_sentinel(self):
        assert Poly().degree == NEG_INF
        assert Poly().is_zero
        assert Poly([0, 0]).is_zero

    def test_derivative(self):
        assert (R * R).derivative() == 2 * R
        assert Poly.const(7).derivative() == Poly()
        assert (R * R * F(1, 4) - R).derivative() == R * F(1, 2) - 1

    def test_gcd(self):
        assert poly_gcd(R * R - 1, R - 1) == R - 1
        assert poly_gcd(R**3, R**2) == R**2
        assert poly_gcd(R + 1, R + 2) == Poly.const(1)
        with pytest.raises(InvalidInput):
            poly_gcd(Poly(), Poly())

    def test_divmod(self):
        q, r = divmod(R**3 + 1, R + 1)
        assert q * (R + 1) + r == R**3 + 1
        assert r == Poly()

    def test_evaluate(self):
        assert (R**2 - F(1, 2)).evaluate(F(1, 2)) == F(-1, 4)

    def test_rejects_floats(self):
        for bad in ([0.1], [1, F(1, 2), 0.5], ["1"]):
            with pytest.raises(InvalidInput, match="not all ints or Fractions"):
                Poly(bad)
        with pytest.raises(InvalidInput):
            R + 0.5

    def test_exact_coefficients_keep_their_stored_form(self):
        class Int(int):
            pass

        class Frac(F):
            pass

        cases = [
            ([], ((), 1)),
            ([0, False, F(0, 3)], ((), 1)),
            ([True, False, 2], ((1, 0, 2), 1)),
            ([F(6, 4), -3, True], ((3, -6, 2), 2)),
            ([F(1, 6), F(-1, 4), F(2, 1)], ((2, -3, 24), 12)),
            ([Int(4), Frac(1, 3)], ((12, 1), 3)),
        ]
        for coeffs, stored in cases:
            p = Poly(coeffs)
            assert _stored(p) == stored
            assert all(type(v) is int for v in (*p._nums, p._den))

    def test_inexact_coefficients_are_refused(self):
        for bad in (0.5, 2.0, "1", Decimal(1), Decimal("0.5"), None, 1j, complex(1, 0)):
            with pytest.raises(InvalidInput) as raised:
                Poly([F(1, 2), 1, bad])
            assert str(raised.value) == f"polynomial coefficients {(F(1, 2), 1, bad)!r} are not all ints or Fractions"


def _stored(p: Poly) -> tuple[tuple[int, ...], int]:
    return p._nums, p._den


def _trim(cs) -> tuple[F, ...]:
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


coefficient = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
)
coefficients = st.lists(coefficient, max_size=7)


class TestIntegerKernel:
    """The stored integer form reads back as the Fractions it was built from, and its
    ring arithmetic agrees with arithmetic on values; ``test_oracle`` checks it against sympy."""

    @given(a=coefficients, b=coefficients, c=coefficient)
    @settings(max_examples=100, deadline=None)
    def test_ring_operations(self, a, b, c):
        # a polynomial with at most N coefficients is fixed by its values at N points
        p, q, size = Poly(a), Poly(b), len(a) + len(b) + 1
        results = [p + q, p - q, -p, p * q, p * c, c * p, c - p]
        for r in results:  # trimmed, of Fractions
            assert len(r.coeffs) <= size and r.coeffs[-1:] != (0,) and all(type(x) is F for x in r.coeffs)
        for x in range(size):
            u, v = p.evaluate(x), q.evaluate(x)
            assert [r.evaluate(x) for r in results] == [u + v, u - v, -u, u * v, u * c, c * u, c - u]

    @given(a=coefficients, x=coefficient)
    @settings(max_examples=100, deadline=None)
    def test_calculus_and_evaluation(self, a, x):
        p, ra = Poly(a), _trim(a)
        assert p.coeffs == ra and all(type(c) is F for c in p.coeffs)
        assert p.evaluate(x) == sum(c * F(x) ** i for i, c in enumerate(ra))
        if ra:
            assert p.leading == ra[-1]
        assert [p.coeff(i) for i in range(-1, 9)] == [0] + list(ra) + [0] * (9 - len(ra))
        assert [F(*p.coeff_pair(i)) for i in range(9)] == list(ra) + [0] * (9 - len(ra))

    @given(st.lists(st.one_of(coefficients.map(Poly), coefficient), max_size=5))
    @example([Poly(), F(0), 0, F(-1, 6), R * F(1, 4)])  # ([[], [], [], [-2], [0, 3]], 12)
    @settings(max_examples=100, deadline=None)
    def test_cleared(self, items):
        lists, m = cleared(*items)
        fractions = [p.coeffs if isinstance(p, Poly) else _trim([p]) for p in items]
        assert m == math.lcm(*(c.denominator for cs in fractions for c in cs))
        assert [tuple(F(v, m) for v in ints) for ints in lists] == fractions

    @given(a=coefficients, b=coefficients)
    @settings(max_examples=100, deadline=None)
    def test_divmod(self, a, b):
        p, q = Poly(a), Poly(b)
        if q.is_zero:
            with pytest.raises(DivisionByZero):
                divmod(p, q)
            return
        # the two facts fix the quotient and the remainder
        quo, rem = divmod(p, q)
        assert quo * q + rem == p and rem.degree < q.degree

    @given(a=coefficients, b=coefficients, c=coefficient)
    @settings(max_examples=100, deadline=None)
    def test_equality_and_hash(self, a, b, c):
        p, q = Poly(a), Poly(b)
        assert (p == q) == (_trim(a) == _trim(b))
        if p == q:
            assert hash(p) == hash(q)
        assert (p == c) == (_trim(a) == _trim([c]))

    @given(a=coefficients, b=coefficients.filter(lambda cs: any(cs)), c=coefficient)
    @settings(max_examples=100, deadline=None)
    def test_canonical_form(self, a, b, c):
        # equal polynomials built by different routes store the same pair
        p = Poly(a)
        routes = [
            Poly(list(a) + [0, F(0)]),
            Poly(F(x) for x in a),
            (p * Poly(b)) // Poly(b),
            p + Poly(b) - Poly(b),
            -(-p),
            p * 3 * F(1, 3),
            p.compose_linear(c).compose_linear(-F(c)),
        ]
        nums, den = _stored(p)
        assert den > 0 and math.gcd(den, *nums) == 1 and (not nums or nums[-1])
        for route in routes:
            assert _stored(route) == _stored(p)
            assert hash(route) == hash(p)
            assert repr(route) == repr(p)
        assert _stored(Poly()) == ((), 1)


class TestRationalRoots:
    def test_rational_roots_of_a_30_digit_constant(self):
        c = 10**30 + 57
        assert rational_roots(R * R + c) == ([], R * R + c)
        assert rational_roots(3 * (R - F(2, 3)) * (R - c)) == ([(F(2, 3), 1), (F(c), 1)], Poly.const(3))
        assert rational_roots(F(-1, 2) * (R - F(1, c)) ** 2) == ([(F(1, c), 2)], Poly.const(F(-1, 2)))
        assert rational_roots(3 * R - c) == ([(F(c, 3), 1)], Poly.const(3))
        assert rational_roots(Poly.const(c)) == ([], Poly.const(c))

    def test_rational_roots_by_discriminant(self):
        # a square over a leading coefficient 4 or over a denominator 4, a non-square,
        # a negative and a zero discriminant (a double root)
        assert rational_roots(4 * R * R - 9) == ([(F(-3, 2), 1), (F(3, 2), 1)], Poly.const(4))
        assert rational_roots(R * R - F(9, 4)) == ([(F(-3, 2), 1), (F(3, 2), 1)], Poly.const(1))
        assert rational_roots(R * R - 2) == ([], R * R - 2)
        assert rational_roots(R * R + 1) == ([], R * R + 1)
        assert rational_roots(-(R - F(2, 3)) ** 2) == ([(F(2, 3), 2)], Poly.const(-1))

    def test_rational_roots_rejects_zero_and_degree_three(self):
        for p in (R**3, (R - 1) * (R * R - 4), Poly()):
            with pytest.raises(InvalidInput):
                rational_roots(p)


class TestRatFunc:
    def test_normalize(self):
        assert RatFunc(2 * R * R - 2, 2 * R - 2) == RatFunc(R + 1)
        f = RatFunc(R, 2)
        assert f.den == Poly.const(1) and f.num == R * F(1, 2)
        assert RatFunc(Poly(), R) == RatFunc(0)

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZero):
            RatFunc(R, Poly())

    def test_quotient_rule(self):
        f = RatFunc(R, R * R + 1)
        expected = RatFunc(Poly.const(1) - R * R, (R * R + 1) ** 2)
        assert f.derivative() == expected


class TestPartialFractions:
    def test_double_pole(self):
        poly_part, terms = partial_fractions(RatFunc(2, R**2))
        assert poly_part == Poly()
        assert terms == ((F(0), 2, F(2)),)

    def test_cancellation(self):
        poly_part, terms = partial_fractions(RatFunc(-R, R))
        assert poly_part == Poly.const(-1)
        assert terms == ()

    def test_symmetric_split(self):
        poly_part, terms = partial_fractions(RatFunc(2 * R, R * R - 1))
        assert poly_part == Poly()
        assert terms == ((F(-1), 1, F(1)), (F(1), 1, F(1)))

    def test_irrational_denominator_rejected(self):
        with pytest.raises(UnsupportedDenominator):
            partial_fractions(RatFunc(Poly.const(1), R * R + 1))

    def test_denominator_of_degree_three_rejected(self):
        for den in (R**3, R**3 - R, R**3 + 1):
            with pytest.raises(InvalidInput):
                partial_fractions(RatFunc(Poly.const(1), den))
            with pytest.raises(InvalidInput):
                integrate_log_derivative(Poly.const(1), den)
        with pytest.raises(InvalidInput):  # deg p = 3; r^3/(r - 1) = r^2 + r + 1 + 1/(r - 1)
            integrate_log_derivative(R**3, R - 1)

    @given(
        roots=st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=3),
            min_size=1,
            max_size=2,
        ),
        num_coeffs=st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=4),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_reassembly_round_trip(self, roots, num_coeffs):
        # one or two roots, equal roots a double pole: the denominator has degree <= 2
        den = Poly.const(1)
        for root in roots:
            den = den * Poly.linear_root(root)
        f = RatFunc(Poly(num_coeffs), den)
        poly_part, terms = partial_fractions(f)
        total = RatFunc(poly_part)
        for root, order, coeff in terms:
            total = total + RatFunc(Poly.const(coeff), Poly.linear_root(root) ** order)
        assert total == f


class TestProductRule:
    @given(
        a=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=7),
        b=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=7),
    )
    @settings(max_examples=100, deadline=None)
    def test_poly_product_rule(self, a, b):
        p, q = Poly(a), Poly(b)
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


class TestWeightExpr:
    def test_gaussian_derivative(self, log_derivative_gap):
        # (exp(-r^2))' = -2r exp(-r^2)
        w = integrate_log_derivative(-2 * R, Poly.const(1))
        assert w == WeightExpr(RatFunc(1), (), RatFunc(-R * R))
        assert log_derivative_gap(w, -2 * R, Poly.const(1)) == 0

    def test_half_power_derivative(self, log_derivative_gap):
        # ((r-1)^{1/2})' = (1/2)(r-1)^{-1/2}
        w = integrate_log_derivative(Poly.const(F(1, 2)), R - 1)
        assert w == WeightExpr(RatFunc(1), ((F(1), F(1, 2)),), RatFunc(0))
        assert log_derivative_gap(w, Poly.const(F(1, 2)), R - 1) == 0

    def test_rational_exp_arg_derivative(self, log_derivative_gap):
        # (exp(-2/r))' = (2/r^2) exp(-2/r)
        w = integrate_log_derivative(Poly.const(2), R**2)
        assert w == WeightExpr(RatFunc(1), (), RatFunc(-2, R))
        assert log_derivative_gap(w, Poly.const(2), R**2) == 0

    def test_value_semantics(self):
        a = WeightExpr(RatFunc(-2), ((F(0), F(1)),), RatFunc(-R * R))
        b = WeightExpr(RatFunc(-2), ((F(0), F(1)),), RatFunc(-R * R))
        assert a == b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            a.factors = ()

    def test_str_signs_each_root_once(self):
        w = WeightExpr(RatFunc(1), ((F(-1), F(17, 10)), (F(0), F(2)), (F(2, 3), F(-1, 30))), RatFunc(0))
        assert str(w) == "(r + 1)^17/10 * r^2 * (r - 2/3)^-1/30"

    def test_log_derivative_identity(self, log_derivative_gap):
        # 2r/(r^2 - 1) = 1/(r + 1) + 1/(r - 1)
        w = integrate_log_derivative(2 * R, R * R - 1)
        assert w == WeightExpr(RatFunc(1), ((F(-1), F(1)), (F(1), F(1))), RatFunc(0))
        assert log_derivative_gap(w, 2 * R, R * R - 1) == 0

    def test_no_weight_for_a_quadratic_without_rational_roots(self):
        # p/sigma = 1/(1 + r^2) integrates to an arctan: _weight refuses it, once it gave (1)
        assert _weight([1, 0], [1, 0, 1], []) is None
        with pytest.raises(UnsupportedDenominator) as refused:
            integrate_log_derivative(Poly([1]), Poly([1, 0, 1]))
        assert str(refused.value) == "denominator factor without rational roots: r^2 + 1"

    def test_constant_and_zero_inputs_have_no_roots(self):
        # callers pass these unguarded: a constant sigma has no pole, a zero bound no cut point
        assert _quadratic_roots(5, 0, 0) == _quadratic_roots(0, 0, 0) == _floors([0, 0, 0]) == []


class TestExactness:
    def test_no_floats_leak(self):
        w = integrate_log_derivative(F(1, 3) - 2 * R, R**2 - R)
        for part in (w.prefactor.num, w.prefactor.den, w.exp_arg.num, w.exp_arg.den):
            assert all(isinstance(c, F) for c in part.coeffs)
        assert all(isinstance(mu, F) for _, mu in w.factors)
        f = RatFunc(2 * R, R * R - 1).derivative()
        assert all(isinstance(c, F) for c in f.num.coeffs + f.den.coeffs)
