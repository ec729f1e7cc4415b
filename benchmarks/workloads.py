"""The benchmark's workloads: seeded inputs, operations and their checks.

Every workload turns ``--seed`` into a fixed list of operations.  An
operation calls the package (or runs its CLI) and a check compares the
output with a reference from ``reference.py`` or from the catalog's printed
spectrum formulas -- never with another output of the route under test.

Failures are counted, never filtered.  ``known_defects`` names the
operations that fail at the seed commit and why; the run reports
``correct`` as true while every failing operation is one of them.

The package is imported inside the build functions, so this module can be read
(for names and pass lengths) without the package on the path.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

F = Fraction
TOL = F(1, 10**8)

#: Added to every reference when the self-test asks for wrong references.
WRONG_SHIFT = F(1, 3)


@dataclass
class Verdict:
    """Outcome of one check; ``refs`` reference eigenvalues, of which
    ``recalled`` came back within tol and ``exact`` exactly."""

    ok: bool
    refs: int = 0
    recalled: int = 0
    exact: int = 0
    detail: str = ""


@dataclass
class Op:
    id: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]
    refs: int = 0
    #: In-process variant for the traced pass; ``call`` when None.
    call_in_process: Callable[[], object] | None = None
    #: ``call`` runs ``cli_child.py``, which times the calibration loop in
    #: the child, and returns (output, loops, seconds spent in the loops).
    child_probe: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Nominal seconds of one pass.  ``--seconds`` divided by this fixes the
    #: pass count, whatever the speed of the code, so every run of a
    #: workload has the same sample counts and its percentiles compare
    #: across commits.  The values give the pass counts in README.md at
    #: ``--seconds 15``.
    pass_s: float
    warmup: bool
    deadline_s: float
    known_defects: dict[str, str]
    build: Callable[[int, Path, bool], list[Op]]
    #: label -> op ids whose recall the report also totals on their own line
    subtotals: dict[str, tuple[str, ...]] = field(default_factory=dict)


# ----------------------------------------------------------------------
# shared checks
# ----------------------------------------------------------------------


def check_spectrum(refs: list[Fraction], estimates: list[tuple[Fraction, bool]]) -> Verdict:
    """Every reference has a converged estimate within TOL, and no converged
    estimate lies farther than TOL from every reference."""
    converged = [v for v, ok in estimates if ok]
    recalled = sum(any(abs(v - r) < TOL for v in converged) for r in refs)
    exact = sum(any(v == r for v in converged) for r in refs)
    spurious = [v for v in converged if not any(abs(v - r) < TOL for r in refs)]
    ok = recalled == len(refs) and not spurious
    detail = "" if ok else f"{recalled}/{len(refs)} roots found, {len(spurious)} spurious"
    return Verdict(ok, len(refs), recalled, exact, detail)


def closed_form_spectrum(name: str, params, lo: Fraction, hi: Fraction, n_scan: int = 200):
    """Catalog spectrum values strictly inside (lo, hi), for n < n_scan."""
    from aimnu import catalog

    values = (catalog.expected_eigenvalue(name, params, n) for n in range(n_scan))
    return sorted(v for v in values if lo < v < hi)


# ----------------------------------------------------------------------
# aim_brackets
# ----------------------------------------------------------------------

#: (op id, catalog entry, r0, bracket); the op ids double as labels.
AIM_FIXED = (
    ("hermite", "hermite", F(1), (F(-1, 2), F(21, 2))),
    ("legendre", "legendre", F(1, 3), (F(-1, 2), F(60))),
    ("kratzer", "kratzer", F(1), (F(1, 50), F(1))),
    ("morse", "morse", F(1), (F(0), F(4))),
    ("hulthen", "hulthen", F(1, 2), (F(0), F(3))),
)
AIM_MORSE_DRAWS = 5


def _morse_draws(rng: random.Random, count: int) -> list[tuple[Fraction, Fraction]]:
    """(alpha, beta) pairs drawn the way the package's morse suite draws them."""
    cases: list[tuple[Fraction, Fraction]] = []
    while len(cases) < count:
        alpha = F(rng.randint(1, 6), rng.randint(1, 3))
        beta = F(rng.randint(3, 12), rng.randint(1, 2))
        if (alpha, beta) not in cases:
            cases.append((alpha, beta))
    return cases


def _aim_op(op_id, name, params, r0, bracket, wrong: bool) -> Op:
    from aimnu import aim, catalog, hypergeometric

    problem = hypergeometric.to_aim_form(catalog.catalog_get(name, params))
    refs = closed_form_spectrum(name, params, *bracket)
    if wrong:
        refs = [v + WRONG_SHIFT for v in refs]

    def call():
        return aim.solve_iterative(problem, r0, bracket)

    def check(estimates) -> Verdict:
        return check_spectrum(refs, [(e.value, e.converged) for e in estimates])

    return Op(op_id, call, check, refs=len(refs))


def build_aim_brackets(seed: int, root: Path, wrong: bool) -> list[Op]:
    ops = [_aim_op(i, name, None, r0, b, wrong) for i, name, r0, b in AIM_FIXED]
    for alpha, beta in _morse_draws(random.Random(seed), AIM_MORSE_DRAWS):
        params = {"alpha": alpha, "beta": beta}
        ops.append(
            _aim_op(f"morse-a{alpha}-b{beta}", "morse", params, F(1), (beta - 2 * alpha, beta), wrong)
        )
    return ops


# ----------------------------------------------------------------------
# eigen_generators
# ----------------------------------------------------------------------

THREE_WAY_ENTRIES = (
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
EIGEN_DEGREES = range(9)
#: Higher degrees on entries whose cost grows smoothly with n; the Bessel
#: entries grow by 10x per degree past n = 8 and would swamp the pass.
EIGEN_TAIL = (("hermite", (9, 10, 11)), ("legendre", (9, 10, 11)), ("gegenbauer", (9, 10, 11)))


def _eigen_op(name: str, n: int, tau, sigma, gamma_ref: Fraction) -> Op:
    from aimnu import eigenfunctions

    T, S = tau.coeffs, sigma.coeffs

    def call():
        sol = eigenfunctions.polynomial_solution(tau, sigma, n)
        rod = eigenfunctions.rodrigues(tau, sigma, n)
        low = eigenfunctions.y_low_order(tau, sigma, n) if n <= 3 else None
        return sol, rod, low

    def check(out) -> Verdict:
        sol, rod, low = out
        routes = {"recursion": sol.poly.coeffs, "rodrigues": rod.coeffs}
        if low is not None:
            routes["explicit"] = low.coeffs
        problems = []
        if sol.gamma_used != gamma_ref:
            problems.append(f"gamma {sol.gamma_used} != {gamma_ref}")
        for route, y in routes.items():
            if len(y) != n + 1:
                problems.append(f"{route} has degree {len(y) - 1}")
            elif ref.residual(T, S, gamma_ref, y):
                problems.append(f"{route} residual nonzero")
        ys = list(routes.items())
        for i, (ra, a) in enumerate(ys):
            for rb, b in ys[i + 1 :]:
                if not ref.proportional(a, b):
                    problems.append(f"{ra} and {rb} not proportional")
        ok = not problems
        exact = int(sol.gamma_used == gamma_ref)
        return Verdict(ok, 1, int(ok), exact, "; ".join(problems))

    return Op(f"{name}-n{n}", call, check, refs=1)


def _pearson_op(name: str, tau, sigma, wrong: bool) -> Op:
    from aimnu import eigenfunctions

    num = ref.add(tau.coeffs, ref.scale(ref.deriv(sigma.coeffs), -1))
    if wrong:
        num = ref.add(num, (WRONG_SHIFT,))

    def call():
        return eigenfunctions.pearson_weight(tau, sigma)

    def check(out) -> Verdict:
        ok = ref.log_derivative_matches(out.weight, num, sigma.coeffs)
        return Verdict(ok, detail="" if ok else "rho'/rho != (tau - sigma')/sigma")

    return Op(f"pearson-{name}", call, check)


def build_eigen_generators(seed: int, root: Path, wrong: bool) -> list[Op]:
    from aimnu import catalog

    tail = dict(EIGEN_TAIL)
    ops = []
    for name in THREE_WAY_ENTRIES:
        problem = catalog.catalog_get(name)
        tau, sigma, g = problem.tau.const, problem.sigma, problem.gamma
        ops.append(_pearson_op(name, tau, sigma, wrong))
        for n in (*EIGEN_DEGREES, *tail.get(name, ())):
            gamma_ref = g.const + g.slope * catalog.expected_eigenvalue(name, None, n)
            if wrong:
                gamma_ref += WRONG_SHIFT
            ops.append(_eigen_op(name, n, tau, sigma, gamma_ref))
    random.Random(seed).shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# nu_reduction
# ----------------------------------------------------------------------

NU_DIGITS = range(1, 14)
NU_PER_RUNG = 3
NU_FACTORED = 3
NU_OSCILLATOR_MODES = range(6)
#: The 25-digit input from the ROADMAP baseline: sigma = r^2 + 10^24 + 39.
NU_ROADMAP_SIGMA = (F(10**24 + 39), F(0), F(1))


def _ladder_constant(rng: random.Random, digits: int) -> int:
    """A d-digit prime in a 1 % window above 3 * 10^(d-1).

    Trial division costs about sqrt(c), and a c with many divisors adds the
    quadratic candidate dedup on top; a prime in a narrow window keeps the
    cost of a rung the same for every seed.  eigen_generators covers the
    dedup through many small calls.
    """
    base = 3 * 10 ** (digits - 1)
    return ref.next_prime(base + rng.randrange(max(1, base // 100)))


def _check_reductions(case, expected: set, constructed, candidates) -> Verdict:
    """The candidates are exactly ``expected`` and include ``constructed``;
    each satisfies lambdaBar = k + pi', tau = tauTilde + 2 pi and phi'/phi = pi/sigma."""
    problems = []
    found = {(c.k, c.pi.coeffs) for c in candidates}
    hit = int(constructed in found)
    if not hit:
        problems.append("constructed (k, pi) not recovered")
    if found != expected:
        problems.append(f"{len(found)} candidates, expected {len(expected)}")
    for c in candidates:
        pi = c.pi.coeffs
        if c.lambda_bar != c.k + (pi[1] if len(pi) > 1 else 0):
            problems.append(f"lambdaBar {c.lambda_bar} != k + pi'")
        if c.tau.coeffs != ref.add(case.tau_tilde, ref.scale(pi, 2)):
            problems.append("tau != tauTilde + 2 pi")
        if c.phi is not None and not ref.log_derivative_matches(c.phi, pi, case.sigma):
            problems.append("phi'/phi != pi/sigma")
    return Verdict(not problems, 1, hit, hit, "; ".join(problems))


def _nu_find_op(op_id: str, case, shift: Fraction) -> Op:
    """nu_find_k on the case; references from the construction and ``reference.nu_reductions``."""
    from aimnu import nu
    from aimnu.algebra import Poly

    problem = nu.NuProblem(Poly(case.tau_tilde), Poly(case.sigma), Poly(case.sigma_tilde))
    expected = {(k + shift, pi) for k, pi in ref.nu_reductions(case.tau_tilde, case.sigma, case.sigma_tilde)}
    constructed = (case.k0 + shift, case.pi)

    def call():
        return nu.nu_find_k(problem)

    def check(candidates) -> Verdict:
        return _check_reductions(case, expected, constructed, candidates)

    return Op(op_id, call, check, refs=1)


def _ladder_case(rng: random.Random, digits: int):
    """A construction on sigma = r^2 + s r + c with exactly two reductions, both with pi != 0.

    Each such reduction sends sigma through ``rational_roots`` once, so a
    rung costs the same for every seed: two trial divisions up to sqrt(c).
    """
    while True:
        sigma = (F(_ladder_constant(rng, digits)), F(rng.randint(-9, 9)), F(1))
        case = ref.nu_construction(rng, sigma)
        pairs = ref.nu_reductions(case.tau_tilde, case.sigma, case.sigma_tilde)
        if len(pairs) == 2 and all(pi for _, pi in pairs):
            return case


def _oscillator_op(n: int, wrong: bool) -> Op:
    """E from the NU pipeline for psi'' + (2E - r^2) psi = 0; reference n + 1/2."""
    from aimnu import nu
    from aimnu.algebra import Poly

    expected = F(n) + F(1, 2) + (WRONG_SHIFT if wrong else 0)

    def gap(energy: Fraction) -> Fraction:
        lam_n, reduction = nu.nu_solve(nu.NuProblem(Poly(), Poly.const(1), Poly([2 * energy, 0, -1])), n)
        return reduction.lambda_bar - lam_n

    def call():
        g0, g1 = gap(F(0)), gap(F(1))
        energy = -g0 / (g1 - g0)  # the gap is affine in E
        return energy, gap(energy)

    def check(out) -> Verdict:
        energy, residual = out
        ok = energy == expected and residual == 0
        hit = int(energy == expected)
        return Verdict(ok, 1, hit, hit, "" if ok else f"E = {energy}, gap {residual}")

    return Op(f"oscillator-n{n}", call, check, refs=1)


def build_nu_reduction(seed: int, root: Path, wrong: bool) -> list[Op]:
    rng = random.Random(seed)
    shift = WRONG_SHIFT if wrong else F(0)
    ops = []
    for digits in NU_DIGITS:
        for j in range(NU_PER_RUNG):
            ops.append(_nu_find_op(f"ladder-d{digits}-{j}", _ladder_case(rng, digits), shift))
    for j in range(NU_FACTORED):
        a, b = ref.random_fraction(rng), ref.random_fraction(rng)
        while b == a:
            b = ref.random_fraction(rng)
        lead = ref.random_fraction(rng, nonzero=True)
        sigma = ref.scale(ref.mul((-a, F(1)), (-b, F(1))), lead)
        ops.append(_nu_find_op(f"factored-{j}", ref.nu_construction(rng, sigma), shift))
    # u(r; k) = (1 + k) r^2 + k c is a perfect square only at k = 0, where
    # w = r gives pi = 2r and pi = 0.
    roadmap = ref.NuCase((), NU_ROADMAP_SIGMA, (), F(0), (F(0), F(2)))
    ops.append(_nu_find_op("roadmap-25-digit", roadmap, shift))
    ops.extend(_oscillator_op(n, wrong) for n in NU_OSCILLATOR_MODES)
    return ops


# ----------------------------------------------------------------------
# cli_processes
# ----------------------------------------------------------------------

VERIFY_MIN_CHECKS = 43
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"
#: Rounds of the three short commands before each long one.  A short
#: command lasts about a tenth of a second, mostly process start, whose
#: cost moves by a third in bursts of a second or so that the calibration
#: loop does not see; many tries, spread over the pass, steady its median.
CLI_SHORT_ROUNDS = 3


def _cli_process(root: Path, args: list[str]) -> tuple[tuple[int, str], list, float]:
    """One whole ``python -m aimnu`` process, run through ``cli_child.py``.

    Returns (exit code, stdout), the child's calibration loops and the
    seconds it spent in them.  The deadline's exception interrupts
    ``subprocess.run``, which kills the child and waits for it before
    re-raising.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(CLI_CHILD), *args], cwd=root, env=env, capture_output=True, text=True
    )
    host = {"loops": [], "spent": 0.0}
    for line in proc.stderr.splitlines():
        if line.startswith("host "):
            host = json.loads(line[5:])
    return (proc.returncode, proc.stdout), host["loops"], host["spent"]


def _cli_in_process(args: list[str]) -> tuple[int, str]:
    """The same command through ``aimnu.cli.main(args, standalone_mode=False)``."""
    import click

    from aimnu import cli

    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except click.ClickException as exc:
            code = exc.exit_code
    return code, out.getvalue()


def _check_verify(out, min_checks: int) -> Verdict:
    code, stdout = out
    lines = stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    passed, _, rest = last.partition("/")
    total = rest.split(" ")[0]
    ok = (
        code == 0
        and rest.endswith(" checks passed")
        and passed.isdigit()
        and passed == total
        and int(total) >= min_checks
        and not any("  FAIL" in line for line in lines)
    )
    return Verdict(ok, detail="" if ok else f"exit {code}, last line {last!r}")


def _check_cli_spectrum(out, refs) -> Verdict:
    code, stdout = out
    rows = json.loads(stdout)["rows"]
    verdict = check_spectrum(refs, [(F(r["value"]), r["converged"]) for r in rows])
    if code != 0:
        verdict.ok = False
        verdict.detail = f"exit {code}; {verdict.detail}"
    return verdict


def _check_solve(out, refs) -> Verdict:
    code, stdout = out
    values = [F(r["eigenvalue"]) for r in json.loads(stdout)["rows"]]
    exact = sum(v == r for v, r in zip(values, refs))
    recalled = sum(abs(v - r) < TOL for v, r in zip(values, refs))
    ok = code == 0 and len(values) == len(refs) and exact == len(refs)
    return Verdict(ok, len(refs), recalled, exact, "" if ok else f"exit {code}, rows {values}")


def _check_cli_nu(out, case, n: int, wrong: bool) -> Verdict:
    code, stdout = out
    k0 = case.k0 + (WRONG_SHIFT if wrong else 0)
    hits = [
        c
        for c in json.loads(stdout)["candidates"]
        if F(c["k"]) == k0 and tuple(F(x) for x in c["pi"]) == case.pi
    ]
    ok = code == 0 and len(hits) == 1
    if ok:
        c = hits[0]
        ok = F(c["lambdaBar"]) == case.lambda_bar and F(c[f"lambdaBar_{n}"]) == case.lambda_n(n)
    hit = int(ok)
    return Verdict(ok, 1, hit, hit, "" if ok else f"exit {code}, constructed (k, pi) not reported right")


def _check_samples(out, expected_lines: list[str]) -> Verdict:
    code, stdout = out
    ok = code == 0 and stdout.splitlines() == expected_lines
    return Verdict(ok, detail="" if ok else f"exit {code}, samples differ")


def build_cli_processes(seed: int, root: Path, wrong: bool) -> list[Op]:
    from aimnu import catalog

    shift = WRONG_SHIFT if wrong else 0
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    rng = random.Random(seed)
    sigma = (ref.random_fraction(rng), ref.random_fraction(rng), ref.random_fraction(rng, nonzero=True))
    case = ref.nu_construction(rng, sigma)
    nu_file = out_dir / f"cli-nu-seed{seed}.json"
    nu_file.write_text(
        json.dumps({
            "tauTilde": [str(c) for c in case.tau_tilde],
            "sigma": [str(c) for c in case.sigma],
            "sigmaTilde": [str(c) for c in case.sigma_tilde],
        })
    )

    kratzer_refs = [v + shift for v in closed_form_spectrum("kratzer", None, F(1, 50), F(1))]
    morse_refs = [catalog.expected_eigenvalue("morse", {"beta": F(7, 2)}, n) + shift for n in range(4)]
    legendre3 = ref.add(ref.monic_legendre(3), (shift,))
    grid = [F(-1) + F(2) * F(i, 20) for i in range(21)]
    sample_lines = ["r,y"] + [f"{ref.decimal12(x)},{ref.decimal12(ref.evaluate(legendre3, x))}" for x in grid]
    min_checks = VERIFY_MIN_CHECKS if not wrong else 10**6

    commands = [
        ("verify", ["verify"], lambda out: _check_verify(out, min_checks), 0),
        (
            "aim-kratzer",
            ["aim", "kratzer", "--bracket", "1/50:1", "--format", "json"],
            lambda out: _check_cli_spectrum(out, kratzer_refs),
            len(kratzer_refs),
        ),
        ("nu", ["nu", str(nu_file), "--n", "2", "--format", "json"], lambda out: _check_cli_nu(out, case, 2, wrong), 1),
        (
            "eigenfunction-legendre",
            ["eigenfunction", "legendre", "--n", "3", "--samples", "-1:1:21", "--format", "csv"],
            lambda out: _check_samples(out, sample_lines),
            0,
        ),
        (
            "solve-morse",
            ["solve", "morse", "--param", "beta=7/2", "--n", "3", "--format", "json"],
            lambda out: _check_solve(out, morse_refs),
            len(morse_refs),
        ),
    ]
    ops = [
        Op(
            op_id,
            lambda args=args: _cli_process(root, args),
            check,
            refs=refs,
            call_in_process=lambda args=args: _cli_in_process(args),
            child_probe=True,
        )
        for op_id, args, check, refs in commands
    ]
    verify, aim_kratzer, *short = ops
    return [*short * CLI_SHORT_ROUNDS, verify, *short * CLI_SHORT_ROUNDS, aim_kratzer]


# ----------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="aim_brackets",
            why=(
                "solve_iterative on five fixed brackets and seeded morse brackets: nearly all "
                "time is the aim determinant recursion on Poly multiply/add, and legendre and "
                "kratzer lose roots today."
            ),
            pass_s=7.5,
            warmup=True,
            deadline_s=60.0,
            known_defects={
                "legendre": "misses E=0: the grid scan never checks the end sub-intervals",
                "kratzer": "finds 8 of 24 roots: pairs of roots between grid points give no sign change",
            },
            build=build_aim_brackets,
            subtotals={"five fixed brackets": tuple(op_id for op_id, *_ in AIM_FIXED)},
        ),
        Workload(
            name="eigen_generators",
            why=(
                "the three eigenfunction routes and the Pearson weight on nine catalog entries: "
                "rodrigues -> WeightExpr -> rational_roots and RatFunc gcd dominate; aim is never entered."
            ),
            pass_s=3.75,
            warmup=True,
            deadline_s=30.0,
            known_defects={},
            build=build_eigen_generators,
        ),
        Workload(
            name="nu_reduction",
            why=(
                "nu_find_k on a digit ladder up to 13 digits, the 25-digit ROADMAP input and the "
                "oscillator: rational_roots trial division on one large integer per call."
            ),
            pass_s=3.75,
            warmup=True,
            deadline_s=2.0,
            known_defects={
                "roadmap-25-digit": "hangs: rational_roots trial-divides up to sqrt(10^24)",
            },
            build=build_nu_reduction,
        ),
        Workload(
            name="cli_processes",
            why=(
                "whole python -m aimnu processes run one after another: the only workload that "
                "pays interpreter start, imports, click parsing and output formatting."
            ),
            pass_s=7.5,
            warmup=False,
            deadline_s=60.0,
            known_defects={
                "aim-kratzer": "exits 0 and flags every row converged with 16 of 24 roots missing",
            },
            build=build_cli_processes,
        ),
    )
}
