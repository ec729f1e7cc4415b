"""Exception hierarchy shared by all aimnu modules.

Two groups, told apart by class, set the command-line exit code:
``InputError`` and its subclasses (``InvalidRational``, ``BadParameter``,
``UnknownEntry``, ``NotHypergeometricType``, ``OutOfRange``) reject what a
user passed in and exit 2; every other ``AimnuError`` is a computation that
failed on valid input and exits 1.
"""


class AimnuError(Exception):
    """Base class for every error raised by this package."""


class InputError(AimnuError):
    """Input read from outside (command line, problem file) is invalid."""


class InvalidRational(InputError, ValueError):
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
    """The iterative solver found no mode inside the bracket, or a level
    that vanishes for every trial value."""


class IncompleteSpectrum(AimnuError, RuntimeError):
    """The iterative solver cannot list every mode inside the bracket."""


class NotHypergeometricType(InputError, ValueError):
    """deg(tau) > 1, deg(sigma) > 2, sigma = 0, or no parameter to quantize."""


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


class OutOfRange(InputError, ValueError):
    """A mode index is outside the supported range."""


class PochhammerPole(AimnuError, ValueError):
    """A rising-factorial denominator vanishes."""


class UnknownEntry(InputError, KeyError):
    """Catalog lookup with an unknown name."""


class BadParameter(InputError, ValueError):
    """A catalog parameter violates its constraints."""
