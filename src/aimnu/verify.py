"""Self-verification suites.

Every row compares independent routes to one answer (printed spectra,
explicit low-order forms, Rodrigues generation, exact residuals of the
original equations) by exact rational equality.  ``_row`` builds each row
from cases ``(what, left, right, same)``: the two sides are zero-argument
callables, compared by ``operator.eq``, ``_proportional`` or, for the NU
round trip, ``operator.contains``; a residual's other side is ``Poly``, the
zero polynomial.  The first case that fails sets the detail to ``what``,
and an aimnu error from either side fails that row alone.  Records and
seeded draws are built once per suite, outside the sides.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice
from operator import contains, eq

from . import aim, catalog, eigenfunctions, hypergeometric, nu
from .algebra import Poly, _derivative, _dot, cleared
from .errors import AimnuError, NoRationalReduction

__all__ = ["CheckResult", "SUITES", "run_suites"]

F = Fraction


@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


def _row(suite: str, name: str, cases) -> CheckResult:
    """One row: it fails at the first case whose two sides are not ``same``, with
    that case's ``what`` as detail, or whose side raises an aimnu error."""
    for what, left, right, same in cases:
        try:
            if not same(left(), right()):
                return CheckResult(suite, name, False, what)
        except AimnuError as exc:
            return CheckResult(suite, name, False, f"raised {type(exc).__name__}: {exc}")
    return CheckResult(suite, name, True)


def _proportional(a: Poly, b: Poly) -> bool:
    if a.is_zero or b.is_zero:
        return a.is_zero and b.is_zero
    return a * b.leading == b * a.leading


def _random_fraction(rng: random.Random) -> Fraction:
    return F(rng.randint(-9, 9), rng.randint(1, 4))


def _spectrum(name: str, params: dict | None, modes: int = 6) -> list:
    """Cases: the closed form against the catalog's printed spectrum, n < modes."""
    problem = catalog.catalog_get(name, params)
    closed, printed = partial(hypergeometric.eigenvalue, problem), partial(catalog.expected_eigenvalue, name, params)
    return [(f"E_{n} differs from the printed one", partial(closed, n), partial(printed, n), eq) for n in range(modes)]


def _iterative(problem, bracket: tuple[Fraction, Fraction]) -> tuple:
    """Case: the iterative route returns exactly the closed-form eigenvalues
    E_0..E_20 that lie inside the open bracket."""
    lo, hi = bracket
    return (
        "iterative modes differ from the closed form",
        lambda: [e.value for e in aim.solve_iterative(problem, None, bracket)],
        lambda: sorted(v for v in {hypergeometric.eigenvalue(problem, n) for n in range(21)} if lo < v < hi),
        eq,
    )


def _recursion(tau: Poly, sigma: Poly, n: int) -> Poly:
    return eigenfunctions.polynomial_solution(tau, sigma, n).poly


def suite_table1() -> list[CheckResult]:
    """Every classical catalog entry reproduces its spectrum exactly, n = 0..20."""
    return [_row("table1", e.name, _spectrum(e.name, None, 21)) for e in catalog.catalog_list()]


def _gammas(tau: Poly, sigma: Poly) -> list[Fraction]:
    return [hypergeometric.gamma_n(tau, sigma, n) for n in range(4)]


def _gammas_printed(tau: Poly, sigma: Poly) -> list[Fraction]:
    tp, spp = tau.coeff(1), 2 * sigma.coeff(2)
    return [F(0), -tp, -2 * tp - spp, -3 * tp - 3 * spp]


def suite_gamma_sequence() -> list[CheckResult]:
    """gamma_n reproduces the first four closed forms for 100 random (tau, sigma)."""
    rng = random.Random(20240101)
    cases = []
    for i in range(100):
        tau = Poly([_random_fraction(rng), _random_fraction(rng)])
        sigma = Poly([_random_fraction(rng), _random_fraction(rng), _random_fraction(rng)])
        if sigma.is_zero:
            sigma = Poly.const(1)
        sides = partial(_gammas, tau, sigma), partial(_gammas_printed, tau, sigma)
        cases.append((f"case {i}: gamma_0..gamma_3 differ", *sides, eq))
    return [_row("gamma", "low-order closed forms, 100 random cases", cases)]


def suite_morse() -> list[CheckResult]:
    rng, draws = random.Random(20240102), []
    while len(draws) < 5:
        params = {"alpha": F(rng.randint(1, 6), rng.randint(1, 3)), "beta": F(rng.randint(3, 12), rng.randint(1, 2))}
        if params not in draws:
            draws.append(params)
    spectrum = [case for params in draws for case in _spectrum("morse", params)]
    iterative = [_iterative(catalog.catalog_get("morse", p), (p["beta"] - 2 * p["alpha"], p["beta"])) for p in draws]
    return [
        _row("morse", "closed-form spectrum, 5 random (alpha, beta), n <= 5", spectrum),
        _row("morse", "iterative roots exact and complete, n = 0, 1", iterative),
    ]


def _hulthen_y_printed(n: int, q: Fraction, e: Fraction) -> Poly:
    """(-1)^n times the printed low-order closed forms of the deformed Hulthen eigenfunctions."""
    if n == 0:
        return Poly.const(1)
    if n == 1:
        return Poly([2 * e + 1, -(2 * e + 3) * q])
    return Poly([2 * (2 * e * e + 3 * e) + 2, -8 * (e + 1) * (e + 2) * q, 2 * (e + 2) * (2 * e + 5) * q * q])


def suite_hulthen() -> list[CheckResult]:
    rng = random.Random(20240103)
    draws = [{"q": F(rng.randint(1, 4), rng.randint(1, 3)), "beta2": F(rng.randint(1, 30), rng.randint(1, 2))}
             for _ in range(5)]
    spectrum = [case for params in draws for case in _spectrum("hulthen", params)]

    printed = []
    for q in (F(1), F(1, 2), F(3)):
        problem = catalog.catalog_get("hulthen", {"q": q})
        for e in (F(1, 3), F(2), F(-1, 5)):  # tau at any epsilon, not only at a mode
            tau = problem.tau.substitute(e)
            printed += [(f"y_{n} differs", partial(eigenfunctions.rodrigues, tau, problem.sigma, n),
                         partial(_hulthen_y_printed, n, q, e), eq) for n in range(3)]

    problem = catalog.catalog_get("hulthen", {"q": F(1), "beta2": F(25)})
    taus = [problem.tau.substitute(hypergeometric.eigenvalue(problem, n)) for n in range(4)]
    recursion = [(f"differ at n={n}", partial(eigenfunctions.rodrigues, tau, problem.sigma, n),
                  partial(_recursion, tau, problem.sigma, n), _proportional) for n, tau in enumerate(taus)]
    return [
        _row("hulthen", "closed-form spectrum, 5 random (q, beta2)", spectrum),
        _row("hulthen", "Rodrigues matches the printed y0..y2 up to (-1)^n", printed),
        _row("hulthen", "Rodrigues agrees with coefficient recursion for n <= 3", recursion),
    ]


def _residual(problem, n: int) -> Poly:
    """sigma y'' + tau y' + gamma y at E_n for the recursion's y: the residual of
    the original transformed equation, not of gamma_n."""
    eps = hypergeometric.eigenvalue(problem, n)
    tau, gamma = problem.tau.substitute(eps), problem.gamma.substitute(eps)
    return eigenfunctions.ode_residual(tau, problem.sigma, gamma, _recursion(tau, problem.sigma, n))


def suite_kratzer() -> list[CheckResult]:
    rng = random.Random(20240104)
    draws = [{"A": F(rng.randint(1, 9), rng.randint(1, 3)), "Lambda": F(rng.randint(0, 5), rng.randint(1, 2))}
             for _ in range(5)]
    problems = [catalog.catalog_get("kratzer", p) for p in draws]
    residuals = [(f"nonzero at n={n}", partial(_residual, p, n), Poly, eq) for p in problems for n in range(6)]
    return [
        _row("kratzer", "derived spectrum A/(2(n+Lambda+1))", [c for p in draws for c in _spectrum("kratzer", p)]),
        _row("kratzer", "exact residual of the transformed equation", residuals),
    ]


_THREE_WAY_ENTRIES = ("hermite", "laguerre", "legendre", "chebyshev_a", "chebyshev_b", "gegenbauer",
                      "hyperspherical", "bessel", "generalized_bessel")


def _pearson_residual(tau: Poly, sigma: Poly) -> Poly | None:
    """D^2 (sigma w'/w - tau + sigma') for the Pearson weight w = prod (r - a)^mu exp(N/D),
    that is sigma (N'D - N D') + D^2 sum mu sigma/(r - a) - D^2 (tau - sigma'), on integers.
    With sigma = S/m and a = u/v, sigma/(r - a) = v Q/m for S = (v r - u) Q by synthetic
    division, which is exact only with integer Q, as v r - u is primitive.  None if it
    leaves a remainder or the prefactor is not 1."""
    w = eigenfunctions.pearson_weight(tau, sigma).weight
    if w.prefactor.num != w.prefactor.den:
        return None
    (T, S, N, D), _ = cleared(tau, sigma, w.exp_arg.num, w.exp_arg.den)
    scale = math.lcm(*(mu.denominator for _, mu in w.factors))  # clears every mu
    poles = [([scale], _derivative(S)), ([-scale], T)]
    for a, mu in w.factors:
        (u, v), q = a.as_integer_ratio(), [0] * len(S)
        for i in range(len(S) - 1, 0, -1):  # q[i - 1] = (S[i] + u q[i]) / v, from q[len(S) - 1] = 0
            q[i - 1], rest = divmod(S[i] + u * q[i], v)
            if rest:
                return None
        if S[0] + u * q[0]:
            return None
        poles.append(([mu.numerator * (scale // mu.denominator) * v], q))
    exp_prime = _dot([(_derivative(N), D), ([-c for c in N], _derivative(D))])  # (N/D)' D^2
    return Poly(_dot([(S, [scale * c for c in exp_prime]), (_dot([(D, D)]), _dot(poles))]))


def suite_eigenfunctions() -> list[CheckResult]:
    out = []
    for name in _THREE_WAY_ENTRIES:
        problem = catalog.catalog_get(name)
        tau, sigma = problem.tau.const, problem.sigma  # parameter-free for all these entries
        cases = [("Pearson residual nonzero", partial(_pearson_residual, tau, sigma), Poly, eq)]
        for n in range(9):
            recursion = partial(_recursion, tau, sigma, n)
            rodrigues = partial(eigenfunctions.rodrigues, tau, sigma, n)
            cases.append((f"recursion vs Rodrigues differ at n={n}", recursion, rodrigues, _proportional))
            if n <= 3:
                explicit = partial(eigenfunctions.y_low_order, tau, sigma, n)
                cases.append((f"recursion vs explicit differ at n={n}", recursion, explicit, _proportional))
        out.append(_row("eigenfunctions", f"three-way agreement: {name}", cases))
    return out


def _reduction_sides(problem: nu.NuProblem, reduction: nu.NuReduction) -> tuple:
    """The two sides of the NU reduction psi = phi y with phi'/phi = pi/sigma,
    multiplied through, as zero-argument callables: the original equation's
    y = 1 and y = r coefficients, and the reduced one's.

    The original equation times sigma^2/phi equals the reduced one times sigma,

        sigma^2 y'' + sigma (2 pi + tauTilde) y'
            + (sigma pi' - pi sigma' + pi^2 + tauTilde pi + sigmaTilde) y
        == sigma (sigma y'' + tau y' + lambdaBar y),

    for every y exactly when it holds for y = 1, r and r^2, and those three
    are the two NU conditions: y = 1 reads sigma pi' - pi sigma' + pi^2
    + tauTilde pi + sigmaTilde == lambdaBar sigma, y = r then adds
    tau == tauTilde + 2 pi (as sigma != 0), and y = r^2 follows from the two.
    Both are checked on integers, times m^2 and m for m the lcm of all denominators;
    ``_dot`` strips, so ``==`` compares polynomials.
    """
    polys = (problem.tau_tilde, problem.sigma, reduction.pi, problem.sigma_tilde, reduction.tau)
    (Tt, S, P, St, T, L), m = cleared(*polys, reduction.lambda_bar)
    return (
        lambda: (_dot([(S, _derivative(P)), (P, P), (Tt, P), ([m], St)]), _dot([([1], Tt), ([2], P)])),
        lambda: (_dot([(P, _derivative(S)), (L, S)]), T),
    )


def _oscillator(n: int) -> tuple[Fraction, Fraction]:
    """(E, lambdaBar - lambda_n at E) for psi'' + (2E - r^2) psi = 0, the gap affine in E."""

    def lambda_gap(E: Fraction) -> Fraction:
        lam_n, reduction = nu.nu_solve(nu.NuProblem(Poly(), Poly.const(1), Poly([2 * E, 0, -1])), n)
        return reduction.lambda_bar - lam_n

    g0, g1 = lambda_gap(F(0)), lambda_gap(F(1))
    energy = -g0 / (g1 - g0)
    return energy, lambda_gap(energy)


def suite_nu() -> list[CheckResult]:
    rng = random.Random(20240105)
    attempts = 0
    rounds: list[tuple] = []  # (problem, (k, pi), candidates) of each non-degenerate construction
    while len(rounds) < 50 and attempts < 500:
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
            rounds.append((problem, (k0, pi), nu.nu_find_k(problem)))
        except NoRationalReduction:
            continue  # degenerate draw (e.g. sigma a perfect square family)
    reductions = [(p, c) for p, _, candidates in rounds for c in candidates]
    identity = [("no candidates", lambda: bool(reductions), lambda: True, eq)]
    identity += [(f"candidate {i} fails", *_reduction_sides(p, c), eq) for i, (p, c) in enumerate(reductions)]
    recovery = [("fewer than 50 constructions", partial(len, rounds), lambda: 50, eq)]
    recovery += [
        (f"construction {i} not recovered", lambda cs=cs: [(c.k, c.pi) for c in cs], lambda pair=pair: pair, contains)
        for i, (_, pair, cs) in enumerate(rounds)
    ]
    oscillator = [(f"E_{n} != n + 1/2", partial(_oscillator, n), lambda n=n: (n + F(1, 2), 0), eq) for n in range(6)]
    return [
        _row("nu", "reduction identity psi = phi y, every round-trip candidate", identity),
        _row("nu", "round-trip recovery of (k, pi), 50 random constructions", recovery),
        _row("nu", "oscillator pipeline yields E = n + 1/2, n <= 5", oscillator),
    ]


def suite_delta() -> list[CheckResult]:
    problem = catalog.catalog_get("hermite")

    def level(r0: Fraction, k: int) -> Poly:
        return next(islice(aim.determinants(problem, r0), k, None))

    # the solver's route, delta_1(r0, E) as a polynomial in E; sigma = 1 and delta_1 has
    # degree <= 2 in r, so 4E(E - 1) at three points r0 proves the identity in r
    product = [("delta_1 differs from 4E(E - 1)", partial(level, r0, 1), partial(Poly, (0, -4, 4)), eq)
               for r0 in (F(1), F(-2), F(1, 3))]
    levels = list(islice(aim.determinants(problem, F(1)), 9))
    vanish = [(f"delta_{k}({n}) != 0", partial(delta.evaluate, F(n)), lambda: 0, eq)
              for n in range(5) for k, delta in enumerate(levels[n + 1 :], n + 1)]
    return [
        _row("delta", "delta_1 = 4k(k-1) for the Hermite form", product),
        _row("delta", "delta_k vanishes at integer modes for k >= n+1", vanish),
    ]


def suite_aim_consistency() -> list[CheckResult]:
    cases = {"morse": (F(0), F(4)), "hulthen": (F(0), F(3)), "kratzer": (F(1, 5), F(1)), "hermite": (F(-1, 2), F(3, 2))}
    return [
        _row("aim", f"iterative agrees with closed form: {name}", [_iterative(catalog.catalog_get(name), bracket)])
        for name, bracket in cases.items()
    ]


SUITES = {
    "table1": suite_table1, "gamma": suite_gamma_sequence, "morse": suite_morse, "hulthen": suite_hulthen,
    "kratzer": suite_kratzer, "eigenfunctions": suite_eigenfunctions, "nu": suite_nu, "delta": suite_delta,
    "aim": suite_aim_consistency,
}


def run_suites(substring: str | None = None) -> list[CheckResult]:
    """Run all suites whose key contains ``substring`` (all when None).

    A side that raises an aimnu error fails its own row; a suite that raises
    one while it builds its cases shows as one failed row, and the others run.
    """
    results: list[CheckResult] = []
    for key, fn in SUITES.items():
        if substring is None or substring in key:
            try:
                results.extend(fn())
            except AimnuError as exc:
                results.append(CheckResult(key, f"raised {type(exc).__name__}: {exc}", False))
    return results
