"""The exact kernel, the closed-form spectrum and the linear solve against
sympy, an independent computer-algebra oracle.

This module is the only oracle for the ring arithmetic of ``Poly``, for
``gamma_n`` and for ``eigenvalue``, so it imports sympy (a test-only
dependency) plainly: without sympy the run fails at collection.
"""

from fractions import Fraction as F
from math import comb, gcd, prod

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aimnu.algebra import (
    Affine,
    Poly,
    RatFunc,
    _quadratic_roots,
    integrate_log_derivative,
    partial_fractions,
    poly_gcd,
    rational_roots,
)
from aimnu.eigenfunctions import polynomial_solution, rodrigues
from aimnu.errors import (
    DegenerateParameterMap,
    DegenerateSpectrum,
    InconsistentGamma,
    NoRationalReduction,
    NotHypergeometricType,
    UnsupportedDenominator,
)
from aimnu.hypergeometric import eigenvalue, gamma_n, validate
from aimnu.nu import NuProblem, build_phi, nu_find_k

X = sympy.Symbol("x")

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


def _to_sympy(p: Poly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, X, domain="QQ")


def _to_fraction(value) -> F:
    value = sympy.Rational(value)
    return F(int(value.p), int(value.q))


def _up_to_two_roots(draw) -> list[F]:
    """Zero, one or two rational roots; a single one is at times doubled."""
    roots = draw(st.lists(rationals, max_size=2))
    return roots * 2 if len(roots) == 1 and draw(st.booleans()) else roots


@st.composite
def factored_polys(draw):
    """A nonzero constant times up to two rational linear factors (one of them
    squared, at times), or times r^2 + c with c up to 30 digits."""
    p = Poly.const(draw(rationals.filter(bool)))
    if draw(st.booleans()):
        squares = st.integers(0, 10**15).map(lambda m: -m * m)
        c = draw(st.one_of(st.integers(-(10**30), 10**30), squares, rationals))
        return p * Poly((c, 0, 1))
    for root in _up_to_two_roots(draw):
        p = p * Poly.linear_root(root)
    return p


@st.composite
def random_polys(draw):
    coeffs = draw(st.lists(rationals, min_size=1, max_size=7).filter(lambda cs: cs[-1] != 0))
    p = Poly(coeffs)
    if draw(st.booleans()):  # at times with a repeated factor
        p = p * Poly(draw(st.lists(rationals, min_size=2, max_size=3).filter(any))) ** 2
    return p


@settings(max_examples=120, deadline=None)
@given(factored_polys())
@example(Poly((-(10**30), 0, 1)))  # roots -+10^15
@example(Poly((F(4, 9), F(-4, 3), 1)))  # the double root 2/3
@example(3 * Poly.linear_root(F(10**30 + 1, 7)) * Poly.linear_root(-(10**30)))  # 31-digit roots
def test_rational_roots_match_sympy(p):
    roots, residual = rational_roots(p)
    expected = _to_sympy(p).ground_roots()
    assert roots == sorted((_to_fraction(r), m) for r, m in expected.items())
    product = residual
    for root, m in roots:
        product = product * Poly.linear_root(root) ** m
    assert product == p
    assert not any(residual.evaluate(root) == 0 for root, _ in roots)


@st.composite
def integer_quadratics(draw):
    """(c, b, a), not all zero, up to 30 digits: drawn as is, or s (v1 x - u1)(v2 x - u2)
    with rational roots, double at times, or the linear s (v1 x - u1); s and v of either sign."""
    big = st.integers(-(10**30), 10**30) | st.integers(-9, 9)
    half = st.integers(-(10**15), 10**15) | st.integers(-9, 9)
    kind = draw(st.sampled_from(["raw", "split", "double", "linear"]))
    if kind == "raw":
        return draw(st.tuples(big, big, big).filter(any))
    s, u1, v1 = draw(st.integers(-9, 9).filter(bool)), draw(half), draw(half.filter(bool))
    if kind == "linear":
        return -s * u1, s * v1, 0
    u2, v2 = (u1, v1) if kind == "double" else (draw(half), draw(half.filter(bool)))
    return s * u1 * u2, -s * (u1 * v2 + u2 * v1), s * v1 * v2


@settings(max_examples=200, deadline=None)
@given(integer_quadratics())
@example((5, 0, 0))  # a nonzero constant: no root
@example((6, -5, 0))  # a = 0: the root 6/5
@example((-4, 0, -8))  # a < 0, no rational root
@example((9, -12, 4))  # the double root 3/2
@example((-6, 3, -6 * 10**29))  # a < 0 with 30 digits
@example((10**30 - 1, 0, -1))  # +-(10^30 - 1)^(1/2): irrational
@example((-(10**30), 0, 1))  # roots -+10^15
@example((10**30 - 1, 1, 10**30 - 1))  # sympy.roots raised ValueError on its discriminant
def test_quadratic_roots_match_sympy(cba):
    """The integer routine gives the rational roots of sympy's factorization over the
    integers with their multiplicities, ascending, each (u, v) in lowest terms with v > 0."""
    c, b, a = cba
    roots = _quadratic_roots(c, b, a)
    expected = sympy.Poly([a, b, c], X).ground_roots()
    assert [(sympy.Rational(u, v), m) for u, v, m in roots] == sorted(expected.items())
    assert all(v > 0 and gcd(u, v) == 1 for u, v, _ in roots)


@settings(max_examples=60, deadline=None)
@given(random_polys(), random_polys(), random_polys())
def test_poly_gcd_matches_sympy(common, a, b):
    a, b = common * a, common * b
    assert _to_sympy(poly_gcd(a, b)) == _to_sympy(a).gcd(_to_sympy(b))


#: Coefficients with small and with 30-digit denominators; an empty list is
#: the zero polynomial and a single entry a constant.
wide_rationals = st.one_of(rationals, st.fractions(max_denominator=10**30))
any_polys = st.lists(wide_rationals, max_size=7).map(Poly)


def _rational(x: int | F):
    return sympy.Rational(x.numerator, x.denominator)


@settings(max_examples=100, deadline=None)
@given(any_polys, any_polys, st.one_of(st.integers(-50, 50), wide_rationals))
@example(Poly(), Poly([1, 2]), F(0))
@example(Poly([F(-3, 7)]), Poly([F(1, 10**30), 0, F(5, 3)]), F(-1, 3))
def test_mul_matches_sympy(a, b, c):
    """The ring operations, with int or Fraction scalars on either side, the
    derivative and p(c + r)."""
    sa, sb, sc = _to_sympy(a), _to_sympy(b), _rational(c)
    assert _to_sympy(a * b) == sa * sb
    assert _to_sympy(a + b) == sa + sb
    assert _to_sympy(a - b) == sa - sb
    assert _to_sympy(-a) == -sa
    assert _to_sympy(a * c) == _to_sympy(c * a) == sa * sc
    assert _to_sympy(c - a) == sc - sa
    assert _to_sympy(a.derivative()) == sa.diff(X)
    assert _to_sympy(a.compose_linear(c)) == sa.shift(sc)


@settings(max_examples=100, deadline=None)
@given(any_polys, wide_rationals)
@example(Poly(), F(3, 2))
@example(Poly([F(5, 4)]), F(-1, 3))
@example(Poly([F(1, 3), 0, F(-2, 5)]), F(0))
@example(Poly([1, -1, 1, -1]), F(-(10**30) - 1, 10**30))
def test_evaluate_matches_sympy(p, x):
    expected = _to_sympy(p).eval(_rational(x))
    assert p.evaluate(x) == _to_fraction(expected)


@settings(max_examples=40, deadline=None)
@given(random_polys(), st.lists(rationals, min_size=2, max_size=6, unique=True), st.integers(1, 5))
def test_poly_gcd_with_a_zero_or_a_coprime_argument(p, roots, cut):
    for a, b in ((Poly(), p), (p, Poly())):
        assert _to_sympy(poly_gcd(a, b)) == _to_sympy(a).gcd(_to_sympy(b))
    cut = min(cut, len(roots) - 1)  # split distinct roots into two coprime products
    a, b = Poly.const(F(3, 5)), Poly.const(-7)
    for root in roots[:cut]:
        a = a * Poly.linear_root(root)
    for root in roots[cut:]:
        b = b * Poly.linear_root(root)
    assert poly_gcd(a, b) == Poly.const(1)
    assert _to_sympy(a).gcd(_to_sympy(b)) == 1


@settings(max_examples=60, deadline=None)
@given(random_polys(), random_polys())
def test_divmod_matches_sympy(a, b):
    quo, rem = divmod(a, b)
    assert (_to_sympy(quo), _to_sympy(rem)) == _to_sympy(a).div(_to_sympy(b))


@st.composite
def linear_factor_ratfuncs(draw):
    """num / (c (r - a)^m (r - b)^n), m + n <= 2: two poles, one (maybe double) or none."""
    den = Poly.const(draw(rationals.filter(bool)))
    for root in _up_to_two_roots(draw):
        den = den * Poly.linear_root(root)
    num = Poly(draw(st.lists(rationals, min_size=1, max_size=6).filter(any)))
    return RatFunc(num, den)


def _apart(expr):
    """sympy.apart over QQ as (polynomial part, [(root, order, coefficient)])."""
    poly_part, terms = sympy.Integer(0), []
    for term in sympy.Add.make_args(sympy.apart(expr, X)):
        num, den = term.as_numer_denom()
        if not den.has(X):
            poly_part += term
            continue
        den = sympy.Poly(den, X)
        ((root, order),) = sympy.roots(den).items()
        assert not num.has(X)
        terms.append((_to_fraction(root), int(order), _to_fraction(num / den.LC())))
    return sympy.Poly(poly_part, X, domain="QQ"), sorted(terms)


@settings(max_examples=20, deadline=None)
@given(linear_factor_ratfuncs())
def test_partial_fractions_match_sympy_apart(f):
    poly_part, terms = partial_fractions(f)
    expected_part, expected_terms = _apart(_to_sympy(f.num).as_expr() / _to_sympy(f.den).as_expr())
    assert _to_sympy(poly_part) == expected_part
    assert list(terms) == expected_terms


@st.composite
def weight_problems(draw):
    """(p, sigma), deg p <= 1, sigma of one of five shapes; "irreducible" is
    a ((r - b)^2 + c), which has rational roots only when -c is a square."""
    p = Poly(draw(st.lists(rationals, max_size=2)))
    a, b, c = draw(rationals.filter(bool)), draw(rationals), draw(rationals)
    shapes = {
        "constant": Poly.const(a),
        "linear": a * Poly.linear_root(b),
        "two roots": a * Poly.linear_root(b) * Poly.linear_root(c),
        "double root": a * Poly.linear_root(b) ** 2,
        "irreducible": a * (Poly.linear_root(b) ** 2 + c),
    }
    return p, shapes[draw(st.sampled_from(list(shapes)))]


@settings(max_examples=200, deadline=None)
@given(weight_problems())
@example((Poly((1, 2)), Poly((F(1, 4), -1, 1))))  # a double pole at 1/2
@example((Poly((0, 3)), Poly((-6, 1, 1))))  # poles at -3 and 2
@example((Poly((1, 2)), Poly.const(F(-3, 2))))  # a constant sigma: exp only
@example((Poly((-6, 2)), Poly((-15, 5))))  # p/sigma = 2/5: the root of sigma is a root of p
@example((Poly((-3, 1)), Poly((18, -12, 2))))  # a double root with P(a) = 0: no exp
@example((Poly(), Poly((1, 0, 1))))  # p = 0 over an irreducible sigma: w = 1
@example((Poly((1, 1)), Poly((6, -4, -2))))  # a negative lead, -2 (r - 1)(r + 3)
def test_weights_have_the_log_derivative_they_integrate(log_derivative_gap, problem):
    """w'/w = p/sigma, and UnsupportedDenominator exactly when the reduced
    denominator is a quadratic in which sympy finds no rational root.  w is in
    canonical form: prefactor 1, roots strictly ascending with nonzero mu, and
    an exp_arg that RatFunc's normalisation leaves as it is."""
    f = RatFunc(*problem)
    irrational = f.den.degree == 2 and not sympy.roots(_to_sympy(f.den), filter="Q")
    try:
        w = integrate_log_derivative(*problem)
    except UnsupportedDenominator:
        assert irrational
        return
    assert not irrational
    assert log_derivative_gap(w, *problem) == 0
    roots = [root for root, _ in w.factors]
    assert all(a < b for a, b in zip(roots, roots[1:])) and all(mu for _, mu in w.factors)
    assert w.prefactor == RatFunc(1)
    normalised = RatFunc(w.exp_arg.num, w.exp_arg.den)
    assert (normalised.num, normalised.den) == (w.exp_arg.num, w.exp_arg.den)


small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(small, min_size=2, max_size=2),
    st.lists(small, min_size=3, max_size=3),
    st.integers(0, 6),
)
@example([F(0), F(-2)], [F(1), F(0), F(0)], 6)  # Hermite
@example([F(1), F(0)], [F(0), F(1), F(0)], 2)  # gamma_0 = gamma_1 = gamma_2 = 0: degenerate
@example([F(0), F(-3)], [F(0), F(0), F(1)], 3)  # gamma_1 = gamma_3 = 3: degenerate at j = 1
def test_polynomial_solution_matches_sympy_solve(tau, sigma, n):
    """y = r^n + sum c_i r^i with sigma y'' + tau y' + gamma_n y = 0, as the
    linear system in c_0..c_{n-1} that sympy builds and solves."""
    t, s = (_to_sympy(Poly(cs)).as_expr() for cs in (tau, sigma))
    gamma = -n * sympy.Rational(str(tau[1])) - n * (n - 1) * sympy.Rational(str(sigma[2]))
    cs = sympy.symbols(f"c:{n}")
    y = X**n + sum(c * X**i for i, c in enumerate(cs))
    eqs = sympy.Poly(s * y.diff(X, 2) + t * y.diff(X) + gamma * y, X).all_coeffs()
    matrix, rhs = sympy.linear_eq_to_matrix(eqs, cs)
    rank = matrix.rank()
    consistent = matrix.row_join(rhs).rank() == rank
    try:
        found = polynomial_solution(Poly(tau), Poly(sigma), n)
    except DegenerateSpectrum:
        assert rank < n
        return
    assert rank == n and consistent
    values = list((matrix.T * matrix).inv() * matrix.T * rhs) if n else []
    assert found.poly == Poly([_to_fraction(v) for v in values] + [1])
    assert found.gamma_used == _to_fraction(gamma)


#: Small coefficients, and denominators up to 10^15.
spectrum_coeffs = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=7), st.fractions(max_denominator=10**15)
)


def _sympy_gamma_n(tau, sigma, n):
    """-n (tau' + (n-1) sigma''/2) for expressions tau and sigma in X."""
    return -n * (sympy.diff(tau, X) + (n - 1) * sympy.diff(sigma, X, 2) / 2)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(spectrum_coeffs, max_size=2),
    st.lists(spectrum_coeffs, max_size=2),
    st.lists(spectrum_coeffs, min_size=1, max_size=3),
    st.tuples(spectrum_coeffs, spectrum_coeffs),
    st.integers(0, 10**4),
)
@example([0, F(-1, 3)], [0, F(1, 3)], [1], (1, F(-2, 3)), 2)  # slope -2/3 + 2/3 = 0
@example([F(2, 7), F(-9, 4)], [], [F(1, 5), 0, F(3, 10)], (F(5, 6), F(-7, 9)), 6)
def test_gamma_n_and_eigenvalue_match_sympy(tau_const, tau_slope, sigma, gamma, n):
    """gamma_n by sympy's derivatives, and eigenvalue as the root in p of the
    expanded gap gamma_n(tau_c + p tau_s) - (gamma_c + p gamma_s)."""
    tau, sigma = Affine(Poly(tau_const), Poly(tau_slope)), Poly(sigma)
    tc, ts, s = (_to_sympy(q).as_expr() for q in (tau.const, tau.slope, sigma))
    assert gamma_n(tau.const, sigma, n) == _to_fraction(_sympy_gamma_n(tc, s, n))
    try:
        problem = validate(tau, sigma, gamma)
    except NotHypergeometricType:  # sigma = 0, or no parameter to quantize
        return
    p = sympy.Symbol("p")
    gc, gs = _rational(problem.gamma.const), _rational(problem.gamma.slope)
    gap = sympy.Poly(_sympy_gamma_n(tc + p * ts, s, n) - (gc + p * gs), p)
    if gap.degree() < 1:
        with pytest.raises(DegenerateParameterMap, match=f"^parameter coefficient vanishes at n = {n}$"):
            eigenvalue(problem, n)
        return
    (root,) = sympy.roots(gap)
    assert eigenvalue(problem, n) == _to_fraction(root)


ninths = st.fractions(min_value=-6, max_value=6, max_denominator=9)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(ninths, min_size=2, max_size=2),
    st.lists(ninths, min_size=3, max_size=3),
    st.integers(0, 8),
)
@example([F(0), F(-2)], [F(1), F(0), F(0)], 8)  # Hermite
@example([F(1, 9), F(-5, 7)], [F(2, 3), F(1, 8), F(-1, 6)], 7)  # denominators cleared by 504
@example([F(0), F(-3)], [F(0), F(0), F(1)], 3)  # the k = 0 factor vanishes: degenerate at j = 1
def test_rodrigues_is_the_scaled_recursion(tau, sigma, n):
    """Each Rodrigues step multiplies the leading coefficient by one factor
    tau' + (n-1+k) sigma''/2, so rodrigues is the monic recursion output times
    their product; the factors are the pivots over -(n-j), so a zero factor
    sinks the degree exactly when the recursion meets a zero pivot."""
    tau, sigma = Poly(tau), Poly(sigma)
    scale = prod(tau.coeff(1) + (n - 1 + k) * sigma.coeff(2) for k in range(n))
    try:
        monic = polynomial_solution(tau, sigma, n).poly
    except DegenerateSpectrum:
        assert scale == 0
        with pytest.raises(InconsistentGamma):
            rodrigues(tau, sigma, n)
        return
    assert rodrigues(tau, sigma, n) == monic * scale


def _sympy_rodrigues(tau: Poly, sigma: Poly, n: int):
    """(1/rho) d^n/dr^n [sigma^n rho] in sympy's field of rational functions,
    by the Leibniz rule: the sum of C(n, k) (sigma^n)^(n-k) rho^(k)/rho, where
    rho^(k)/rho = g_k has g_0 = 1 and g_(k+1) = g_k' + g_k (tau - sigma')/sigma
    from rho'/rho = (tau - sigma')/sigma."""
    field, x = sympy.polys.fields.field("x", sympy.QQ)
    t, s = (field(_to_sympy(p).as_expr()) for p in (tau, sigma))  # field symbol x is X
    log_derivative, g, power = (t - s.diff(x)) / s, field.one, s**n
    weights, powers = [], []
    for k in range(n + 1):
        weights.append(g)
        powers.append(power)
        g, power = g.diff(x) + g * log_derivative, power.diff(x)
    return sum((comb(n, k) * powers[n - k] * weights[k] for k in range(n + 1)), field.zero)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(small, min_size=2, max_size=2).map(Poly),
    st.lists(small, min_size=1, max_size=3).map(Poly).filter(lambda p: not p.is_zero),
    st.integers(0, 6),
)
@example(Poly([0, -2]), Poly.const(1), 6)  # Hermite
@example(Poly([F(1, 3), F(-5, 2)]), Poly([F(2, 3), F(1, 3), F(-1, 2)]), 6)  # denominators
@example(Poly([0, -1]), Poly([0, 0, 1]), 2)  # tau' + (n-1+k) sigma''/2 = 0 at k = 0: the degree drops
def test_rodrigues_matches_sympy_differentiation(tau, sigma, n):
    quotient = _sympy_rodrigues(tau, sigma, n)
    assert quotient.denom.is_ground  # the Rodrigues quotient is a polynomial
    expected = _from_sympy(quotient.as_expr())
    if expected.degree != n:
        with pytest.raises(InconsistentGamma):
            rodrigues(tau, sigma, n)
    else:
        assert rodrigues(tau, sigma, n) == expected


@st.composite
def nu_problems(draw):
    """(tauTilde, sigma, sigmaTilde) with sigma constant, linear, split, a
    square (the k^2 term of the discriminant vanishes) or r^2 + c with c up to
    30 digits.  sigmaTilde comes from a reduction (pi, k), from u(r; 0) = d
    sigma (the discriminant vanishes identically when sigma is a constant or a
    square), or at random."""
    a, b, c = draw(rationals.filter(bool)), draw(rationals), draw(rationals)
    squares = st.integers(0, 10**15).map(lambda m: -m * m)
    shapes = {
        "constant": Poly.const(a),
        "linear": a * Poly.linear_root(b),
        "two roots": a * Poly.linear_root(b) * Poly.linear_root(c),
        "square": a * Poly.linear_root(b) ** 2,
        "r^2 + c": Poly((draw(st.one_of(st.integers(-(10**30), 10**30), squares)), 0, 1)),
    }
    sigma = shapes[draw(st.sampled_from(list(shapes)))]
    tau_tilde = Poly(draw(st.lists(rationals, max_size=2)))
    half = (sigma.derivative() - tau_tilde) * F(1, 2)
    kind = draw(st.sampled_from(["reduction", "multiple of sigma", "random"]))
    if kind == "reduction":
        pi, k = Poly(draw(st.lists(rationals, max_size=2))), draw(rationals)
        sigma_tilde = half * half + k * sigma - (pi - half) * (pi - half)
    elif kind == "multiple of sigma":
        sigma_tilde = half * half - draw(rationals) * sigma
    else:
        sigma_tilde = Poly(draw(st.lists(rationals, max_size=3)))
    return NuProblem(tau_tilde, sigma, sigma_tilde)


def _from_sympy(p) -> Poly:
    return Poly([_to_fraction(c) for c in reversed(sympy.Poly(p, X).all_coeffs())])


def _nu_oracle(problem: NuProblem) -> set[tuple[F, Poly]]:
    """Every rational (k, pi) by sympy: the discriminant of u(r; k) in r, its
    rational roots in k, and a square-free decomposition of each radicand.
    The dummy e keeps u a quadratic in r when its r^2 coefficient vanishes
    identically, so the discriminant is b^2 - 4ac as ``nu_find_k`` reads it."""
    k, e = sympy.symbols("k e")
    tau_tilde, sigma, sigma_tilde = (
        _to_sympy(p).as_expr() for p in (problem.tau_tilde, problem.sigma, problem.sigma_tilde)
    )
    half = (sigma.diff(X) - tau_tilde) / 2
    u = sympy.expand(half**2 - sigma_tilde + k * sigma)
    disc = sympy.expand(sympy.discriminant(u + e * X**2, X).subs(e, 0))
    if disc == 0:
        if sympy.expand(u.subs(k, 0)) == 0:
            return {(F(0), _from_sympy(half))}
        return set()
    found = set()
    for root in sympy.roots(sympy.Poly(disc, k), filter="Q"):
        coeff, factors = sympy.Poly(u.subs(k, root), X).sqf_list()  # (0, []) for zero
        scale = sympy.sqrt(coeff)
        if not (scale.is_Rational and all(m % 2 == 0 for _, m in factors)):
            continue
        w = scale * prod((f.as_expr() ** (m // 2) for f, m in factors), start=sympy.Integer(1))
        found |= {(_to_fraction(root), _from_sympy(half + w)), (_to_fraction(root), _from_sympy(half - w))}
    return found


#: a 31-digit sigma constant for the irreducible @example
_C31 = 1234567890123456789012345678901


@settings(max_examples=150, deadline=None)
@given(nu_problems())
@example(NuProblem(Poly(), Poly((0, 0, 1)), Poly((0, 0, 1))))  # u vanishes identically at k = 0
@example(NuProblem(Poly(), Poly((0, 0, 1)), Poly((0, 0, 5))))  # a one-parameter family
@example(NuProblem(Poly(), Poly((0, 0, 1)), Poly((-1, 0, 3))))  # A = 0: k = 2
@example(NuProblem(Poly(), Poly((10**30 - 1, 0, 1)), Poly((2 * 10**30 - 2, 0, 2))))  # r^2 + c
@example(NuProblem(Poly(), Poly((-(10**30), 0, 1)), Poly((0, 2, 1))))  # roots -+10^15
@example(NuProblem(Poly((1,)), Poly((0, 1)), Poly((-1, 4, F(-1, 4)))))  # linear sigma: pi = 1 - r/2
@example(NuProblem(Poly(), Poly((1,)), Poly((3, 0, -1))))  # constant sigma: the oscillator
@example(NuProblem(Poly(), Poly((1, 0, 1)), Poly((-4, 12, 2))))  # disc(sigma) < 0, pi = 3 - r
@example(NuProblem(Poly(), Poly((_C31, 7, 1)), Poly((5 * _C31 + 12, 40, 2))))  # 31-digit, irreducible
@example(NuProblem(Poly(), Poly((F(3, 4), -3, 3)), Poly((F(-13, 4), -2, 8))))  # 3 (r - 1/2)^2
def test_nu_find_k_matches_sympy(log_derivative_gap, problem):
    """The same (k, pi) as the oracle, with lambdaBar = k + pi' and tau = tauTilde + 2 pi;
    phi is build_phi(pi, sigma) when sigma splits over Q or pi = 0, else None, and
    phi'/phi = pi/sigma as sympy's cancel gives it."""
    expected = _nu_oracle(problem)
    try:
        candidates = nu_find_k(problem)
    except NoRationalReduction:
        assert not expected
        return
    found = [(c.k, c.pi) for c in candidates]
    assert len(found) == len(expected) and set(found) == expected
    sigma = _to_sympy(problem.sigma)
    splits = sum(sympy.roots(sigma, filter="Q").values()) == sigma.degree()
    for c in candidates:
        assert c.lambda_bar == c.k + c.pi.coeff(1) and c.tau == problem.tau_tilde + 2 * c.pi
        assert c.phi == (build_phi(c.pi, problem.sigma) if splits or c.pi.is_zero else None)
        assert c.phi is None or log_derivative_gap(c.phi, c.pi, problem.sigma) == 0
