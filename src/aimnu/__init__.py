"""aimnu: exact-arithmetic eigensolver for hypergeometric-type equations.

Combines the asymptotic-iteration recursion, its closed-form quantization
shortcut, and the Nikiforov--Uvarov reduction over an exact-rational
computer-algebra kernel, with a catalog of classical equations and
exactly solvable potentials.
"""

from .algebra import (
    NEG_INF,
    Affine,
    PartialFractionForm,
    Poly,
    RatFunc,
    WeightExpr,
    integrate_log_derivative,
    partial_fractions,
    poly_gcd,
)
from .aim import (
    AimProblem,
    EigenvalueEstimate,
    ParamRatFunc,
    iterate,
    solve_iterative,
)
from .catalog import CatalogEntry, catalog_get, catalog_list, expected_eigenvalue
from .eigenfunctions import (
    EigenPolynomial,
    PearsonWeight,
    hulthen_eigenfunction,
    ode_residual,
    pearson_weight,
    polynomial_solution,
    rodrigues,
    y_low_order,
)
from .hypergeometric import (
    HypergeometricProblem,
    eigenvalue,
    gamma_n,
    to_aim_form,
    validate,
)
from .nu import NuProblem, NuReduction, build_phi, nu_find_k, nu_solve
from .rationals import format_rational, parse_rational, rational_sqrt

__version__ = "0.1.0"

__all__ = [
    "NEG_INF",
    "Poly",
    "RatFunc",
    "Affine",
    "PartialFractionForm",
    "WeightExpr",
    "poly_gcd",
    "partial_fractions",
    "integrate_log_derivative",
    "AimProblem",
    "EigenvalueEstimate",
    "ParamRatFunc",
    "iterate",
    "solve_iterative",
    "HypergeometricProblem",
    "validate",
    "gamma_n",
    "eigenvalue",
    "to_aim_form",
    "NuProblem",
    "NuReduction",
    "nu_find_k",
    "build_phi",
    "nu_solve",
    "EigenPolynomial",
    "PearsonWeight",
    "polynomial_solution",
    "y_low_order",
    "pearson_weight",
    "rodrigues",
    "hulthen_eigenfunction",
    "ode_residual",
    "CatalogEntry",
    "catalog_get",
    "catalog_list",
    "expected_eigenvalue",
    "parse_rational",
    "format_rational",
    "rational_sqrt",
]
