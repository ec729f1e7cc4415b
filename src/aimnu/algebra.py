"""Exact-rational univariate algebra in the variable r.

Provides immutable polynomials, normalized rational functions, partial
fraction decompositions over rational roots, and weight expressions of the
form  P(r) * prod_i (r - c_i)^{mu_i} * exp(N(r)/D(r)),  which hold every
weight that integrating a rational log-derivative with rational poles
gives: the Pearson weights and the Nikiforov--Uvarov factors phi
(including exp(-2/r) for the Bessel-type equations).

All arithmetic is exact; no floating-point value is ever produced.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DivisionByZero,
    EvaluationPole,
    InvalidInput,
    NotPolynomial,
    UnsupportedDenominator,
)

__all__ = [
    "NEG_INF",
    "Poly",
    "RatFunc",
    "PartialFractionForm",
    "WeightExpr",
    "poly_gcd",
    "partial_fractions",
    "rational_roots",
    "integrate_log_derivative",
]

#: Degree of the zero polynomial.  A true minus-infinity sentinel so that
#: degree arithmetic never silently treats 0 as a constant of degree 0.
NEG_INF = float("-inf")

_FractionLike = Fraction | int


def _as_fraction(x: _FractionLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Poly:
    """Dense univariate polynomial with Fraction coefficients.

    Coefficients are stored lowest degree first; the zero polynomial is the
    empty tuple.  Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[_FractionLike] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c: _FractionLike) -> "Poly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "Poly":
        """The polynomial r."""
        return cls((0, 1))

    @classmethod
    def linear_root(cls, root: _FractionLike) -> "Poly":
        """The monic linear factor (r - root)."""
        return cls((-_as_fraction(root), 1))

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise InvalidInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly | _FractionLike") -> "Poly":
        other = _coerce_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.coeff(i) + other.coeff(i) for i in range(n))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other: "Poly | _FractionLike") -> "Poly":
        return self + (-_coerce_poly(other))

    def __rsub__(self, other: "Poly | _FractionLike") -> "Poly":
        return _coerce_poly(other) + (-self)

    def __mul__(self, other: "Poly | _FractionLike") -> "Poly":
        if isinstance(other, (Fraction, int)):
            return Poly(c * other for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise InvalidInput("negative polynomial power")
        result = Poly.const(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        other = _coerce_poly(other)
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        dn = len(other.coeffs)
        if len(rem) < dn:
            return Poly(), self
        quo = [Fraction(0)] * (len(rem) - dn + 1)
        lead = other.coeffs[-1]
        for i in range(len(rem) - dn, -1, -1):
            c = rem[i + dn - 1] / lead
            if c == 0:
                continue
            quo[i] = c
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= c * b
        return Poly(quo), Poly(rem[: dn - 1])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        if isinstance(other, (Fraction, int)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- calculus -----------------------------------------------------

    def derivative(self) -> "Poly":
        return Poly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def integral(self) -> "Poly":
        """Formal antiderivative with zero constant term."""
        return Poly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def evaluate(self, x: _FractionLike) -> Fraction:
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- normal forms -------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        return Poly(c / lead for c in self.coeffs)

    # -- display ------------------------------------------------------

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                var = "r" if i == 1 else f"r^{i}"
                term = f"{'-' if c < 0 else ''}{mag}{var}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


def _coerce_poly(x: "Poly | _FractionLike") -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly.const(_as_fraction(x))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; InvalidInput if both arguments are zero."""
    if a.is_zero and b.is_zero:
        raise InvalidInput("gcd of two zero polynomials")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


class RatFunc:
    """Normalized rational function num/den: gcd-reduced, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly | _FractionLike, den: Poly | _FractionLike = 1):
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if den.is_zero:
            raise DivisionByZero("zero denominator in rational function")
        if num.is_zero:
            num, den = Poly(), Poly.const(1)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.leading
            num = num * (1 / lead)
            den = den * (1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RatFunc is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_poly(self) -> bool:
        return self.den == Poly.const(1)

    def as_poly(self) -> Poly:
        if not self.is_poly:
            raise NotPolynomial(f"{self} is not a polynomial")
        return self.num

    def __add__(self, other: "RatFunc | Poly | _FractionLike") -> "RatFunc":
        other = _coerce_ratfunc(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc | Poly | _FractionLike") -> "RatFunc":
        return self + (-_coerce_ratfunc(other))

    def __rsub__(self, other: "RatFunc | Poly | _FractionLike") -> "RatFunc":
        return _coerce_ratfunc(other) + (-self)

    def __mul__(self, other: "RatFunc | Poly | _FractionLike") -> "RatFunc":
        other = _coerce_ratfunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatFunc | Poly | _FractionLike") -> "RatFunc":
        other = _coerce_ratfunc(other)
        if other.is_zero:
            raise DivisionByZero("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: "RatFunc | Poly | _FractionLike") -> "RatFunc":
        return _coerce_ratfunc(other) / self

    def __eq__(self, other) -> bool:
        if isinstance(other, (Fraction, int, Poly)):
            other = _coerce_ratfunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def derivative(self) -> "RatFunc":
        """Exact derivative via the quotient rule."""
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def evaluate(self, x: _FractionLike) -> Fraction:
        d = self.den.evaluate(x)
        if d == 0:
            raise EvaluationPole(f"pole at r = {x}")
        return self.num.evaluate(x) / d

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.is_poly:
            return str(self.num)
        return f"({self.num})/({self.den})"


def _coerce_ratfunc(x: "RatFunc | Poly | _FractionLike") -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    return RatFunc(_coerce_poly(x))


# ----------------------------------------------------------------------
# Rational root extraction and partial fractions
# ----------------------------------------------------------------------


def _integer_coeffs(p: Poly) -> list[int]:
    """Clear denominators and content; return primitive integer coefficients."""
    lcm = 1
    for c in p.coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in p.coeffs]
    content = 0
    for v in ints:
        content = math.gcd(content, abs(v))
    return [v // content for v in ints] if content > 1 else ints


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(p: Poly) -> tuple[list[tuple[Fraction, int]], Poly]:
    """All rational roots of p with multiplicities, plus the root-free cofactor.

    Returns (roots, residual) with p = lc * prod (r - c)^m * residual/lc
    exactly; residual has no rational roots.
    """
    if p.is_zero:
        raise InvalidInput("rational_roots of the zero polynomial")
    roots: list[tuple[Fraction, int]] = []
    work = p
    # strip powers of r first
    mult = 0
    while not work.is_zero and work.coeff(0) == 0 and work.degree >= 1:
        work = work // Poly.variable()
        mult += 1
    if mult:
        roots.append((Fraction(0), mult))
    if work.degree >= 1:
        ints = _integer_coeffs(work)
        candidates: list[Fraction] = []
        for pnum in _divisors(ints[0]):
            for qden in _divisors(ints[-1]):
                for sign in (1, -1):
                    c = Fraction(sign * pnum, qden)
                    if c not in candidates:
                        candidates.append(c)
        for c in candidates:
            m = 0
            while work.degree >= 1 and work.evaluate(c) == 0:
                work = work // Poly.linear_root(c)
                m += 1
            if m:
                roots.append((c, m))
            if work.degree < 1:
                break
    roots.sort(key=lambda rm: rm[0])
    return roots, work


class PartialFractionForm:
    """Exact decomposition polyPart + sum coeff / (r - root)^order."""

    __slots__ = ("poly_part", "terms")

    def __init__(
        self,
        poly_part: Poly,
        terms: Sequence[tuple[Fraction, int, Fraction]],
    ):
        object.__setattr__(self, "poly_part", poly_part)
        object.__setattr__(
            self, "terms", tuple(sorted(terms, key=lambda t: (t[0], t[1])))
        )

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("PartialFractionForm is immutable")

    def reassemble(self) -> RatFunc:
        total = RatFunc(self.poly_part)
        for root, order, coeff in self.terms:
            total = total + RatFunc(Poly.const(coeff), Poly.linear_root(root) ** order)
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialFractionForm):
            return NotImplemented
        return self.poly_part == other.poly_part and self.terms == other.terms

    def __repr__(self) -> str:
        return f"PartialFractionForm({self.poly_part!r}, {list(self.terms)!r})"


def partial_fractions(f: RatFunc) -> PartialFractionForm:
    """Decompose f over its rational linear factors.

    Raises UnsupportedDenominator when the denominator has an irreducible
    factor without rational roots; nothing is ever approximated.
    """
    poly_part, rem = divmod(f.num, f.den)
    if rem.is_zero:
        return PartialFractionForm(poly_part, ())
    roots, residual = rational_roots(f.den)
    if residual.degree > 0:
        raise UnsupportedDenominator(
            f"denominator factor without rational roots: {residual}"
        )
    terms: list[tuple[Fraction, int, Fraction]] = []
    for root, m in roots:
        cofactor = f.den // (Poly.linear_root(root) ** m)
        g = RatFunc(rem, cofactor)
        fact = 1
        for i in range(m):
            if i > 0:
                g = g.derivative()
                fact *= i
            coeff = g.evaluate(root) / fact
            if coeff != 0:
                terms.append((root, m - i, coeff))
    return PartialFractionForm(poly_part, terms)


# ----------------------------------------------------------------------
# Weight expressions
# ----------------------------------------------------------------------


class WeightExpr:
    """P(r) * prod_i (r - c_i)^{mu_i} * exp(g(r)) with P, g rational functions.

    The prefactor is never zero.  Normalization pulls every rational linear
    factor of the prefactor into the factor list, so that equal values built
    along different routes compare equal.
    """

    __slots__ = ("prefactor", "factors", "exp_arg")

    def __init__(
        self,
        prefactor: RatFunc | Poly | _FractionLike = 1,
        factors: Iterable[tuple[Fraction, Fraction]] = (),
        exp_arg: RatFunc | Poly | _FractionLike = 0,
    ):
        prefactor = _coerce_ratfunc(prefactor)
        if prefactor.is_zero:
            raise InvalidInput("a weight expression is never zero")
        exp_arg = _coerce_ratfunc(exp_arg)
        merged: dict[Fraction, Fraction] = {}
        for root, mu in factors:
            root, mu = _as_fraction(root), _as_fraction(mu)
            merged[root] = merged.get(root, Fraction(0)) + mu
        num_roots, num_res = rational_roots(prefactor.num)
        den_roots, den_res = rational_roots(prefactor.den)
        for root, m in num_roots:
            merged[root] = merged.get(root, Fraction(0)) + m
        for root, m in den_roots:
            merged[root] = merged.get(root, Fraction(0)) - m
        prefactor = RatFunc(num_res, den_res)
        object.__setattr__(self, "prefactor", prefactor)
        object.__setattr__(
            self,
            "factors",
            tuple(sorted((r, m) for r, m in merged.items() if m != 0)),
        )
        object.__setattr__(self, "exp_arg", exp_arg)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("WeightExpr is immutable")

    def log_derivative(self) -> RatFunc:
        """(w'/w) as an exact rational function."""
        total = self.prefactor.derivative() / self.prefactor
        for root, mu in self.factors:
            total = total + RatFunc(Poly.const(mu), Poly.linear_root(root))
        return total + self.exp_arg.derivative()

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightExpr):
            return NotImplemented
        return (
            self.prefactor == other.prefactor
            and self.factors == other.factors
            and self.exp_arg == other.exp_arg
        )

    def __hash__(self) -> int:
        return hash((self.prefactor, self.factors, self.exp_arg))

    def __repr__(self) -> str:
        return f"WeightExpr({self.prefactor!r}, {list(self.factors)!r}, {self.exp_arg!r})"

    def __str__(self) -> str:
        parts = []
        if not (self.prefactor == RatFunc(1)) or not self.factors:
            parts.append(f"({self.prefactor})")
        for root, mu in self.factors:
            parts.append(f"(r - {root})^{mu}" if root != 0 else f"r^{mu}")
        if not self.exp_arg.is_zero:
            parts.append(f"exp({self.exp_arg})")
        return " * ".join(parts) if parts else "1"


def integrate_log_derivative(f: RatFunc) -> WeightExpr:
    """Return w with w'/w = f, as a WeightExpr (integration constant = 1).

    The polynomial part integrates into the exponential argument, simple
    poles become power factors, and higher-order poles integrate back into
    rational exponential arguments.  Raises UnsupportedDenominator when the
    denominator of f has no rational-root factorization.
    """
    pf = partial_fractions(f)
    exp_arg = RatFunc(pf.poly_part.integral())
    factors: list[tuple[Fraction, Fraction]] = []
    for root, order, coeff in pf.terms:
        if order == 1:
            factors.append((root, coeff))
        else:
            exp_arg = exp_arg + RatFunc(
                Poly.const(-coeff / (order - 1)),
                Poly.linear_root(root) ** (order - 1),
            )
    return WeightExpr(1, factors, exp_arg)
