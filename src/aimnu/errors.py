"""Exception hierarchy shared by all aimnu modules."""


class AimnuError(Exception):
    """Base class for every error raised by this package."""


class InvalidRational(AimnuError, ValueError):
    """A rational was constructed or parsed with a zero/invalid denominator."""


class DivisionByZero(AimnuError, ZeroDivisionError):
    """Division of polynomials or rational functions by zero."""


class InvalidInput(AimnuError, ValueError):
    """An operation received arguments outside its domain (e.g. gcd(0, 0))."""


class UnsupportedDenominator(AimnuError, ValueError):
    """A denominator does not factor into rational linear factors."""


class EvaluationPole(AimnuError, ArithmeticError):
    """A rational function was evaluated at a pole."""


class NoRootInBracket(AimnuError, RuntimeError):
    """The iterative solver found no root of delta_k inside the bracket."""


class NotHypergeometricType(AimnuError, ValueError):
    """Degree bounds deg(tau) <= 1, deg(sigma) <= 2 are violated."""


class DegenerateParameterMap(AimnuError, ValueError):
    """The linear equation for the physical parameter has no unique solution."""


class NoRationalReduction(AimnuError, ValueError):
    """No rational k makes the radicand a perfect square."""


class AmbiguousBranch(AimnuError, ValueError):
    """More than one (k, pi) candidate satisfies the default branch rule."""


class DegenerateSpectrum(AimnuError, ValueError):
    """Two mode indices share the same quantization constant."""


class InconsistentGamma(AimnuError, RuntimeError):
    """No degree-n polynomial solution exists; internal contradiction."""


class OutOfRange(AimnuError, ValueError):
    """A mode index is outside the supported range."""


class PochhammerPole(AimnuError, ValueError):
    """A rising-factorial denominator vanishes."""


class UnknownEntry(AimnuError, KeyError):
    """Catalog lookup with an unknown name."""


class BadParameter(AimnuError, ValueError):
    """A catalog parameter violates its constraints."""
