"""Hypothesis profiles: ``--hypothesis-profile=ci`` runs the same examples
every time; without it each run draws new ones.

The ``log_derivative_gap`` fixture is the tests' one oracle for weights: sympy
states w'/w = p/sigma independently of ``aimnu.algebra``.
"""

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)


@pytest.fixture(scope="session")
def log_derivative_gap():
    """gap(w, p, sigma): sympy's ``cancel`` of w'/w - p/sigma for a WeightExpr w,
    that is P'/P + sum mu/(x - a) + (N/D)' - p/sigma for w = P prod (x - a)^mu
    exp(N/D); it is 0 exactly when w'/w = p/sigma."""
    import sympy

    x = sympy.Symbol("x")

    def rational(f):
        return sympy.Rational(f.numerator, f.denominator)

    def expr(poly):
        return sum((rational(c) * x**i for i, c in enumerate(poly.coeffs)), start=sympy.Integer(0))

    def gap(w, p, sigma):
        prefactor = expr(w.prefactor.num) / expr(w.prefactor.den)
        poles = sum((rational(mu) / (x - rational(a)) for a, mu in w.factors), start=sympy.Integer(0))
        exp_arg = expr(w.exp_arg.num) / expr(w.exp_arg.den)
        return sympy.cancel(prefactor.diff(x) / prefactor + poles + exp_arg.diff(x) - expr(p) / expr(sigma))

    return gap
