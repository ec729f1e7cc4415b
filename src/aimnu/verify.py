"""Self-verification suites.

Every suite re-derives its expected values through an independent route
(printed spectrum formulas, explicit low-order polynomials, Rodrigues
generation, exact residuals of the original equations) and compares with
the solver output by exact rational equality; the iterative route must
return every root in its bracket exactly and certified.  All random draws
are seeded, so repeated runs are reproducible bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import aim, catalog, eigenfunctions, hypergeometric, nu
from .algebra import Poly, RatFunc, _clear_denominators, _derivative, _dot
from .errors import AimnuError, NoRationalReduction

__all__ = ["CheckResult", "SUITES", "run_suites"]

F = Fraction


@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


def _result(suite: str, name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(suite, name, bool(ok), detail)


def _proportional(a: Poly, b: Poly) -> bool:
    if a.is_zero or b.is_zero:
        return a.is_zero and b.is_zero
    return a * b.leading == b * a.leading


def _random_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        v = F(rng.randint(-9, 9), rng.randint(1, 4))
        if v != 0 or not nonzero:
            return v


# ----------------------------------------------------------------------


def _spectrum_matches(name: str, params: dict | None, modes: int = 6) -> bool:
    """The closed form reproduces the catalog's printed spectrum for n < modes."""
    problem = catalog.catalog_get(name, params)
    return all(
        hypergeometric.eigenvalue(problem, n) == catalog.expected_eigenvalue(name, params, n)
        for n in range(modes)
    )


def suite_table1() -> list[CheckResult]:
    """Every classical catalog entry reproduces its spectrum exactly, n = 0..20."""
    out = []
    for entry in catalog.catalog_list():
        ok = _spectrum_matches(entry.name, None, 21)
        out.append(_result("table1", entry.name, ok))
    return out


def suite_gamma_sequence() -> list[CheckResult]:
    """gamma_n reproduces the first four closed forms for 100 random (tau, sigma)."""
    rng = random.Random(20240101)
    bad = 0
    for _ in range(100):
        tau = Poly([_random_fraction(rng), _random_fraction(rng)])
        sigma = Poly([_random_fraction(rng), _random_fraction(rng), _random_fraction(rng)])
        if sigma.is_zero:
            sigma = Poly.const(1)
        tp = tau.coeff(1)
        spp = 2 * sigma.coeff(2)
        expected = [F(0), -tp, -2 * tp - spp, -3 * tp - 3 * spp]
        for n in range(4):
            if hypergeometric.gamma_n(tau, sigma, n) != expected[n]:
                bad += 1
    return [_result("gamma", "low-order closed forms, 100 random cases", bad == 0, f"{bad} mismatches")]


def _morse_cases() -> list[tuple[Fraction, Fraction]]:
    rng = random.Random(20240102)
    cases = []
    while len(cases) < 5:
        alpha = F(rng.randint(1, 6), rng.randint(1, 3))
        beta = F(rng.randint(3, 12), rng.randint(1, 2))
        if (alpha, beta) not in cases:
            cases.append((alpha, beta))
    return cases


def suite_morse() -> list[CheckResult]:
    out = []
    ok = all(_spectrum_matches("morse", {"alpha": a, "beta": b}) for a, b in _morse_cases())
    out.append(_result("morse", "closed-form spectrum, 5 random (alpha, beta), n <= 5", ok))

    ok = True
    detail = ""
    for alpha, beta in _morse_cases():
        problem = catalog.catalog_get("morse", {"alpha": alpha, "beta": beta})
        certified, note = _iterative_matches(problem, (beta - 2 * alpha, beta))
        if not certified:
            ok, detail = False, f"alpha={alpha}, beta={beta}: {note}"
    out.append(_result("morse", "iterative roots exact and complete, n = 0, 1", ok, detail))
    return out


def _iterative_matches(problem, bracket: tuple[Fraction, Fraction]):
    """(ok, detail): the iterative route returns exactly the closed-form
    eigenvalues E_0..E_20 that lie inside the open bracket; an aimnu error
    of the iterative route fails this check alone."""
    try:
        estimates = aim.solve_iterative(problem, None, bracket)
    except AimnuError as exc:
        return False, f"raised {type(exc).__name__}: {exc}"
    closed = {hypergeometric.eigenvalue(problem, n) for n in range(21)}
    expected = sorted(v for v in closed if bracket[0] < v < bracket[1])
    ok = [e.value for e in estimates] == expected
    got = ", ".join(str(e.value) for e in estimates)
    return ok, f"got [{got}], expected [{', '.join(map(str, expected))}]"


def _hulthen_y_printed(n: int, q: Fraction, e: Fraction) -> Poly:
    """Printed low-order closed forms of the deformed Hulthen eigenfunctions."""
    if n == 0:
        return Poly.const(1)
    if n == 1:
        return Poly([-(2 * e + 1), (2 * e + 3) * q])
    return Poly(
        [
            2 * (2 * e * e + 3 * e) + 2,
            -8 * (e + 1) * (e + 2) * q,
            2 * (e + 2) * (2 * e + 5) * q * q,
        ]
    )


def suite_hulthen() -> list[CheckResult]:
    out = []
    ok = True
    rng = random.Random(20240103)
    for _ in range(5):
        q = F(rng.randint(1, 4), rng.randint(1, 3))
        params = {"q": q, "beta2": F(rng.randint(1, 30), rng.randint(1, 2))}
        if not _spectrum_matches("hulthen", params):
            ok = False
    out.append(_result("hulthen", "closed-form spectrum, 5 random (q, beta2)", ok))

    ok = True
    for q in (F(1), F(1, 2), F(3)):
        for e in (F(1, 3), F(2), F(-1, 5)):
            for n in range(3):
                if eigenfunctions.hulthen_eigenfunction(n, q, e) != _hulthen_y_printed(n, q, e):
                    ok = False
    out.append(_result("hulthen", "terminating-series forms match printed y0..y2", ok))

    ok = True
    q, beta2 = F(1), F(25)
    problem = catalog.catalog_get("hulthen", {"q": q, "beta2": beta2})
    sigma = problem.sigma
    for n in range(4):
        eps = hypergeometric.eigenvalue(problem, n)
        tau = problem.tau.substitute(eps)
        series = eigenfunctions.hulthen_eigenfunction(n, q, eps)
        solved = eigenfunctions.polynomial_solution(tau, sigma, n).poly
        if not _proportional(series, solved):
            ok = False
    out.append(_result("hulthen", "series route agrees with coefficient recursion, n <= 3", ok))
    return out


def suite_kratzer() -> list[CheckResult]:
    out = []
    rng = random.Random(20240104)
    ok_spec = True
    ok_res = True
    for _ in range(5):
        A = F(rng.randint(1, 9), rng.randint(1, 3))
        params = {"A": A, "Lambda": F(rng.randint(0, 5), rng.randint(1, 2))}
        problem = catalog.catalog_get("kratzer", params)
        for n in range(6):
            eps = hypergeometric.eigenvalue(problem, n)
            if eps != catalog.expected_eigenvalue("kratzer", params, n):
                ok_spec = False
            # residual of the original transformed equation, not of gamma_n
            tau = problem.tau.substitute(eps)
            gamma = problem.gamma.substitute(eps)
            y = eigenfunctions.polynomial_solution(tau, problem.sigma, n).poly
            if not eigenfunctions.ode_residual(tau, problem.sigma, gamma, y).is_zero:
                ok_res = False
    out.append(_result("kratzer", "derived spectrum A/(2(n+Lambda+1))", ok_spec))
    out.append(_result("kratzer", "exact residual of the transformed equation", ok_res))
    return out


_THREE_WAY_ENTRIES = (
    "hermite",
    "laguerre",
    "legendre",
    "chebyshev_a",
    "chebyshev_b",
    "gegenbauer",
    "hyperspherical",
    "bessel",
    "generalized_bessel",
)


def suite_eigenfunctions() -> list[CheckResult]:
    out = []
    for name in _THREE_WAY_ENTRIES:
        problem = catalog.catalog_get(name)
        tau = problem.tau.const  # parameter-free for all these entries
        sigma = problem.sigma
        ok = True
        detail = ""
        weight = eigenfunctions.pearson_weight(tau, sigma).weight
        pearson = RatFunc(tau - sigma.derivative(), sigma)
        if weight.log_derivative() != pearson:
            ok = False
            detail = "Pearson residual nonzero"
        for n in range(9):
            solved = eigenfunctions.polynomial_solution(tau, sigma, n).poly
            rod = eigenfunctions.rodrigues(tau, sigma, n)
            if not _proportional(solved, rod):
                ok = False
                detail = f"recursion vs Rodrigues differ at n={n}"
            if n <= 3:
                explicit = eigenfunctions.y_low_order(tau, sigma, n)
                if not _proportional(solved, explicit):
                    ok = False
                    detail = f"recursion vs explicit differ at n={n}"
        out.append(_result("eigenfunctions", f"three-way agreement: {name}", ok, detail))
    return out


def reduction_identity_holds(problem: nu.NuProblem, reduction: nu.NuReduction) -> bool:
    """The NU reduction psi = phi y with phi'/phi = pi/sigma, multiplied through.

    The original equation times sigma^2/phi equals the reduced one times sigma,

        sigma^2 y'' + sigma (2 pi + tauTilde) y'
            + (sigma pi' - pi sigma' + pi^2 + tauTilde pi + sigmaTilde) y
        == sigma (sigma y'' + tau y' + lambdaBar y),

    for every y exactly when it holds for y = 1, r and r^2, and those three
    are the two NU conditions: y = 1 reads sigma pi' - pi sigma' + pi^2
    + tauTilde pi + sigmaTilde == lambdaBar sigma, y = r then adds
    tau == tauTilde + 2 pi (as sigma != 0), and y = r^2 follows from the two.
    Both are checked on integers, times m^2 and m for m the lcm of all denominators.
    """
    polys = (problem.tau_tilde, problem.sigma, reduction.pi, problem.sigma_tilde, reduction.tau)
    lam, one = Poly.const(reduction.lambda_bar), Poly.const(1)  # the constant 1 clears to m
    Tt, S, P, St, T, L, (m,) = _clear_denominators(*polys, lam, one)
    potential = _dot([(S, _derivative(P)), (P, P), (Tt, P), ([m], St)])  # _dot strips: == compares polys
    return potential == _dot([(P, _derivative(S)), (L, S)]) and T == _dot([([1], Tt), ([2], P)])


def suite_nu() -> list[CheckResult]:
    rng = random.Random(20240105)
    ok = True
    recovered = 0
    attempts = 0
    reductions: list[tuple[nu.NuProblem, nu.NuReduction]] = []
    while recovered < 50 and attempts < 500:
        attempts += 1
        tau = Poly([_random_fraction(rng), _random_fraction(rng)])
        sigma = Poly([_random_fraction(rng), _random_fraction(rng), _random_fraction(rng)])
        pi = Poly([_random_fraction(rng), _random_fraction(rng)])
        k0 = _random_fraction(rng)
        if sigma.degree < 1 or (tau - sigma.derivative()).is_zero:
            continue
        tau_tilde = tau - 2 * pi
        half = (sigma.derivative() - tau_tilde) * F(1, 2)
        sigma_tilde = half * half + k0 * sigma - (pi - half) * (pi - half)
        problem = nu.NuProblem(tau_tilde, sigma, sigma_tilde)
        try:
            candidates = nu.nu_find_k(problem)
        except NoRationalReduction:
            continue  # degenerate draw (e.g. sigma a perfect square family)
        reductions.extend((problem, c) for c in candidates)
        if any(c.k == k0 and c.pi == pi for c in candidates):
            recovered += 1
        else:
            ok = False
    bad = sum(not reduction_identity_holds(p, c) for p, c in reductions)
    out = [
        _result(
            "nu",
            "reduction identity psi = phi y, every round-trip candidate",
            bad == 0 and bool(reductions),
            f"{bad} of {len(reductions)} candidates fail",
        ),
        _result(
            "nu", "round-trip recovery of (k, pi), 50 random constructions", ok and recovered == 50
        ),
    ]

    ok = True
    for n in range(6):
        def lambda_gap(E: Fraction, n: int = n) -> Fraction:
            problem = nu.NuProblem(Poly(), Poly.const(1), Poly([2 * E, 0, -1]))
            lam_n, reduction = nu.nu_solve(problem, n)
            return reduction.lambda_bar - lam_n

        g0, g1 = lambda_gap(F(0)), lambda_gap(F(1))
        energy = -g0 / (g1 - g0)  # gap is affine in E
        if energy != F(n) + F(1, 2) or lambda_gap(energy) != 0:
            ok = False
    out.append(_result("nu", "oscillator pipeline yields E = n + 1/2, n <= 5", ok))
    return out


def suite_delta() -> list[CheckResult]:
    out = []
    problem = catalog.catalog_get("hermite")
    # delta_1 is a quadratic polynomial in the trial constant; checking it
    # against 4k(k-1) at seven points proves the identity
    ok = all(
        aim.iterate(problem, kappa, 1)[1] == RatFunc(Poly.const(4 * kappa * (kappa - 1)))
        for kappa in (F(-2), F(-1), F(0), F(1, 2), F(1), F(3), F(7, 3))
    )
    out.append(_result("delta", "delta_1 = 4k(k-1) for the Hermite form", ok))

    ok = all(
        delta.evaluate(F(1)) == 0
        for n in range(5)
        for delta in aim.iterate(problem, F(n), 8)[n + 1 :]
    )
    out.append(_result("delta", "delta_k vanishes at integer modes for k >= n+1", ok))
    return out


def suite_aim_consistency() -> list[CheckResult]:
    cases = {
        "morse": (F(0), F(4)),
        "hulthen": (F(0), F(3)),
        "kratzer": (F(1, 5), F(1)),
        "hermite": (F(-1, 2), F(3, 2)),
    }
    out = []
    for name, bracket in cases.items():
        ok, detail = _iterative_matches(catalog.catalog_get(name), bracket)
        out.append(_result("aim", f"iterative agrees with closed form: {name}", ok, detail))
    return out


SUITES = {
    "table1": suite_table1,
    "gamma": suite_gamma_sequence,
    "morse": suite_morse,
    "hulthen": suite_hulthen,
    "kratzer": suite_kratzer,
    "eigenfunctions": suite_eigenfunctions,
    "nu": suite_nu,
    "delta": suite_delta,
    "aim": suite_aim_consistency,
}


def run_suites(substring: str | None = None) -> list[CheckResult]:
    """Run all suites whose key contains ``substring`` (all when None).

    A suite that raises an aimnu error reports it as one failed row; the
    other suites still run.
    """
    results: list[CheckResult] = []
    for key, fn in SUITES.items():
        if substring is None or substring in key:
            try:
                results.extend(fn())
            except AimnuError as exc:
                results.append(_result(key, f"raised {type(exc).__name__}: {exc}", False))
    return results
