"""Built-in library of classical equations and solvable potentials.

Each entry stores the (tau, sigma, gamma-map) data in the sign convention
of the first-order reduction lambda0 = -tau/sigma, s0 = -gamma/sigma.  Where
a source row's printed signs are inconsistent with its own spectrum column
under that convention, the entry stores the normalized signs and says so in
its provenance note; the spectrum column is always the contract that the
verification suite checks.

All spectra here are exact rationals for rational parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .algebra import Affine, Poly
from .errors import BadParameter, DegenerateParameterMap, UnknownEntry
from .hypergeometric import HypergeometricProblem, validate

__all__ = [
    "ParamSpec",
    "CatalogEntry",
    "catalog_get",
    "expected_eigenvalue",
    "catalog_list",
    "CATALOG",
]

F = Fraction


@dataclass(frozen=True)
class ParamSpec:
    """A parameter with its default and the one value it may not take, if any."""

    name: str
    default: Fraction
    excluded: Fraction | None = None

    def __str__(self) -> str:
        return f"{self.name}={self.default}"

    @property
    def constraint_text(self) -> str:
        return "" if self.excluded is None else f"{self.name} != {self.excluded}"


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    parameters: tuple[ParamSpec, ...]
    builder: Callable[[Mapping[str, Fraction]], HypergeometricProblem]
    expected: Callable[[Mapping[str, Fraction], int], Fraction]
    provenance: str


def _entries() -> list[CatalogEntry]:
    entries: list[CatalogEntry] = []

    def add(name, parameters, builder, expected, provenance):
        entries.append(CatalogEntry(name, tuple(parameters), builder, expected, provenance))

    # ---- classical equations -------------------------------------------

    add(
        "cauchy_euler",
        [ParamSpec("alpha", F(1, 2)), ParamSpec("a", F(2)), ParamSpec("b", F(3))],
        lambda p: validate(
            Poly([p["alpha"] * p["b"], -p["alpha"]]),
            Poly.linear_root(p["a"]) ** 2,
            (0, -1),
            "beta",
        ),
        lambda p, n: F(n) * (n - 1 - p["alpha"]),
        "Euler-type equation with shifted regular singular point; the two "
        "constants a, b are kept independent and only the spectrum relation "
        "beta = n(n-1-alpha) is asserted.",
    )
    add(
        "hermite",
        [],
        lambda p: validate(Poly([0, -2]), Poly.const(1), (0, 2), "k"),
        lambda p, n: F(n),
        "Hermite equation y'' - 2ry' + 2ky = 0; spectrum k = n.",
    )
    add(
        "hermite_b",
        [ParamSpec("a", F(3)), ParamSpec("b", F(1))],
        lambda p: validate(Poly([-p["b"], -p["a"]]), Poly.const(1), (0, -1), "c"),
        lambda p, n: -F(n) * p["a"],
        "Hermite-type equation with general linear coefficient -(ar+b); "
        "spectrum c = -na, independent of b.",
    )
    add(
        "laguerre",
        [],
        lambda p: validate(Poly([1, -1]), Poly.variable(), (0, -1), "a"),
        lambda p, n: -F(n),
        "Laguerre equation ry'' + (1-r)y' - ay = 0; spectrum a = -n.",
    )
    add(
        "confluent",
        [ParamSpec("b", F(2)), ParamSpec("c", F(3, 2))],
        lambda p: validate(Poly([p["c"], -p["b"]]), Poly.variable(), (0, -1), "a"),
        lambda p, n: -F(n) * p["b"],
        "Confluent hypergeometric-type equation; spectrum a = -nb.",
    )
    add(
        "hypergeometric",
        [ParamSpec("b", F(3)), ParamSpec("c", F(1, 2))],
        lambda p: validate(
            Affine(Poly([p["c"], -(p["b"] + 1)]), Poly([0, -1])),
            Poly([0, 1, -1]),
            (0, -p["b"]),
            "a",
        ),
        lambda p, n: -F(n),
        "Gauss hypergeometric equation, quantized in the first upper "
        "parameter with b, c held fixed; terminating branch a = -n.",
    )
    add(
        "legendre",
        [],
        lambda p: validate(Poly([0, 2]), Poly([-1, 0, 1]), (0, -1), "lam"),
        lambda p, n: F(n) * (n + 1),
        "Legendre equation written as (r^2-1)y'' + 2ry' - lam*y = 0; the "
        "quantized parameter is lam = m(m+1), so lam_n = n(n+1) encodes m = n.",
    )
    add(
        "jacobi",
        [ParamSpec("alpha", F(1)), ParamSpec("beta", F(2))],
        lambda p: validate(
            Poly([-(p["alpha"] + p["beta"]), -(p["alpha"] + p["beta"] + 2)]),
            Poly([1, 0, -1]),
            (0, 1),
            "gamma",
        ),
        lambda p, n: F(n) * (n + p["alpha"] + p["beta"] + 1),
        "Jacobi-type row taken with the printed constant term beta+alpha in "
        "tau (classical convention has beta-alpha); the constant term drops "
        "out of the spectrum, which is gamma = n(n+alpha+beta+1) either way.",
    )
    add(
        "chebyshev_a",
        [],
        lambda p: validate(Poly([0, -1]), Poly([1, 0, -1]), (0, 1), "m"),
        lambda p, n: F(n * n),
        "Chebyshev equation of the first kind; spectrum m = n^2.",
    )
    add(
        "chebyshev_b",
        [],
        lambda p: validate(Poly([0, -3]), Poly([1, 0, -1]), (0, 1), "m"),
        lambda p, n: F(n) * (n + 2),
        "Chebyshev equation of the second kind; spectrum m = n(n+2).",
    )
    add(
        "gegenbauer",
        [ParamSpec("k", F(3, 2))],
        lambda p: validate(
            Poly([0, -(1 + 2 * p["k"])]),
            Poly([1, 0, -1]),
            (0, 1),
            "lam",
        ),
        lambda p, n: F(n) * (n + 2 * p["k"]),
        "Gegenbauer (ultraspherical) equation; spectrum lam = n(n+2k).",
    )
    add(
        "hyperspherical",
        [ParamSpec("k", F(1))],
        lambda p: validate(
            Poly([0, -2 * (1 + p["k"])]),
            Poly([1, 0, -1]),
            (0, 1),
            "lam",
        ),
        lambda p, n: F(n) * (n + 1 + 2 * p["k"]),
        "Hyperspherical harmonics equation; spectrum lam = n(n+1+2k).",
    )
    add(
        "bessel",
        [],
        lambda p: validate(Poly([2, 2]), Poly([0, 0, 1]), (0, -1), "gamma"),
        lambda p, n: F(n) * (n + 1),
        "Bessel-polynomial equation r^2 y'' + 2(r+1)y' - gamma*y = 0; "
        "spectrum gamma = n(n+1); weight exp(-2/r).",
    )
    add(
        "generalized_bessel",
        [ParamSpec("a", F(3)), ParamSpec("b", F(2))],
        lambda p: validate(
            Poly([p["b"], p["a"]]),
            Poly([0, 0, 1]),
            (0, -1),
            "gamma",
        ),
        lambda p, n: F(n) * (n + p["a"] - 1),
        "Generalized Bessel-polynomial equation; spectrum gamma = n(n+a-1).",
    )

    # ---- solvable potentials -------------------------------------------

    add(
        "morse",
        [
            ParamSpec("alpha", F(1), F(0)),
            ParamSpec("beta", F(5, 2), F(0)),
        ],
        lambda p: validate(
            Affine(Poly([p["alpha"], -2 * p["beta"]]), Poly.const(2)),
            Poly([0, p["alpha"]]),
            ((2 * p["beta"] ** 2 - p["alpha"] * p["beta"]) / p["alpha"], -2 * p["beta"] / p["alpha"]),
            "epsilon",
        ),
        lambda p, n: p["beta"] - (F(n) + F(1, 2)) * p["alpha"],
        "Transformed Morse-oscillator radial equation; reduced energy "
        "spectrum epsilon_n = beta - (n + 1/2) alpha.",
    )
    add(
        "hulthen",
        [
            ParamSpec("q", F(1), F(0)),
            ParamSpec("beta2", F(4)),
        ],
        lambda p: validate(
            Affine(Poly([1, -3 * p["q"]]), Poly([2, -2 * p["q"]])),
            Poly([0, 1, -p["q"]]),
            (p["beta2"] - p["q"], -2 * p["q"]),
            "epsilon",
        ),
        lambda p, n: (p["beta2"] - p["q"] * (n + 1) ** 2) / (2 * p["q"] * (n + 1)),
        "Deformed Hulthen potential in transformed coordinates.  sigma is "
        "stored as r(1-qr): the sign printed alongside the source row is "
        "normalized so the first-order reduction reproduces the equation "
        "and the spectrum epsilon_n = (beta2 - q(n+1)^2)/(2q(n+1)).",
    )
    add(
        "kratzer",
        [
            ParamSpec("A", F(1)),
            ParamSpec("Lambda", F(0), F(-1)),
        ],
        lambda p: validate(
            Affine(Poly([2 * (p["Lambda"] + 1)]), Poly([0, -2])),
            Poly.variable(),
            (p["A"], -2 * (p["Lambda"] + 1)),
            "epsilon",
        ),
        lambda p, n: p["A"] / (2 * (n + p["Lambda"] + 1)),
        "Kratzer potential in transformed coordinates.  The spectrum "
        "epsilon_n = A/(2(n + Lambda + 1)) is derived from the closed-form "
        "quantization constant and verified by the exact residual of the "
        "transformed equation; the commonly reprinted Hulthen-shaped formula "
        "for this case is a known misprint and is not used.",
    )

    return entries


CATALOG: dict[str, CatalogEntry] = {e.name: e for e in _entries()}


def _resolve_params(entry: CatalogEntry, params: Mapping | None) -> dict[str, Fraction]:
    values = {spec.name: spec.default for spec in entry.parameters}
    for key, raw in (params or {}).items():
        if key not in values:
            raise BadParameter(f"{entry.name} has no parameter {key!r}")
        if not isinstance(raw, (int, Fraction)):
            raise BadParameter(f"{entry.name}: parameter {key} is {raw!r}, not an int or a Fraction")
        values[key] = Fraction(raw)
    for spec in entry.parameters:
        if values[spec.name] == spec.excluded:
            raise BadParameter(
                f"{entry.name}: parameter {spec.name} violates {spec.constraint_text}"
            )
    return values


def catalog_get(name: str, params: Mapping | None = None) -> HypergeometricProblem:
    """Instantiate a catalog entry with the given (or default) parameters."""
    entry = CATALOG.get(name)
    if entry is None:
        raise UnknownEntry(name)
    return entry.builder(_resolve_params(entry, params))


def expected_eigenvalue(name: str, params: Mapping | None, n: int) -> Fraction:
    """The entry's published spectrum formula, evaluated exactly.

    Raises DegenerateParameterMap at a pole of the formula, as
    ``hypergeometric.eigenvalue`` does for that mode."""
    entry = CATALOG.get(name)
    if entry is None:
        raise UnknownEntry(name)
    if n < 0:
        raise BadParameter("n must be non-negative")
    try:
        return entry.expected(_resolve_params(entry, params), n)
    except ZeroDivisionError:
        raise DegenerateParameterMap(f"{name}: the spectrum formula has a pole at n = {n}") from None


def catalog_list(substring: str | None = None) -> list[CatalogEntry]:
    """All entries in stable order, optionally filtered by name substring."""
    return [
        e
        for e in CATALOG.values()
        if substring is None or substring in e.name
    ]
