"""aimnu: exact-arithmetic eigensolver for hypergeometric-type equations.

Combines the asymptotic-iteration recursion, its closed-form quantization
shortcut, and the Nikiforov--Uvarov reduction over an exact-rational
computer-algebra kernel, with a catalog of classical equations and
exactly solvable potentials.

Importing the package executes only the modules every command runs:
``errors``, ``rationals``, ``algebra`` and ``hypergeometric``.  ``aim``,
``catalog``, ``eigenfunctions``, ``nu`` and ``verify`` are registered in
``sys.modules`` through ``importlib.util.LazyLoader`` and each executes on
its first attribute access, so an error in one of them is raised there.
The public names resolve through ``_HOME`` (PEP 562 ``__getattr__``).
"""

import importlib.util
import sys

from . import algebra, errors, hypergeometric, rationals  # noqa: F401

__version__ = "0.1.0"

#: Each public name and the module it lives in.
_HOME = {
    name: module
    for module, names in {
        "algebra": "NEG_INF Poly Affine WeightExpr integrate_log_derivative",
        "aim": "EigenvalueEstimate solve_iterative",
        "hypergeometric": "HypergeometricProblem validate gamma_n eigenvalue",
        "nu": "NuProblem NuReduction nu_find_k build_phi nu_solve",
        "eigenfunctions": "EigenPolynomial PearsonWeight polynomial_solution y_low_order "
        "pearson_weight rodrigues ode_residual",
        "catalog": "CatalogEntry catalog_get catalog_list expected_eigenvalue",
        "rationals": "parse_rational",
    }.items()
    for name in names.split()
}
__all__ = list(_HOME)

for _name in ("aim", "catalog", "eigenfunctions", "nu", "verify"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)
