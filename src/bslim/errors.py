"""Exception hierarchy shared by all modules.

Every domain failure raises a subclass of :class:`BslError`, so callers
(and the CLI) can map error categories to stable messages.
"""


class BslError(Exception):
    """Base class for all library errors."""


class RDigitBudgetExceeded(BslError):
    """A digit beyond the available (or allowed) range was requested.

    ``index`` is the 1-based index of the first missing digit.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"first missing digit index {index}")


class SizeLimitExceeded(BslError):
    """A size argument (a digit count, a relator index) is over its fixed limit."""


class NonInvertibleDenominator(BslError):
    """Rational parameter whose denominator is not a unit modulo m."""


class UnsupportedSpecKind(BslError):
    """The operation is undefined for this kind of parameter description."""


class NoUnitRealization(BslError):
    """No unit realizes the requested digit prefix (first digit shares a
    factor with the modulus)."""


class PinchDomainViolation(BslError):
    """Stable-letter conjugation applied to an element outside the
    relevant associated subgroup."""


class ZeroElement(BslError):
    """Operation undefined for the zero element."""


class ParseError(BslError):
    """Malformed textual input.  ``offset`` is a byte offset into the text."""

    def __init__(self, message: str, offset: int = 0):
        self.offset = offset
        super().__init__(f"{message} (offset {offset})")


class ShapeMismatch(BslError):
    """Reduced forms do not have the shape required by the solver."""


class WitnessCheckFailed(BslError):
    """A computed witness failed its verification by the word problem."""


class PreconditionViolated(BslError):
    """Arguments violate a documented precondition."""


class GcdMismatch(BslError):
    """Parameters do not have the gcd required by the operation."""


class SameGroup(BslError):
    """The two parameters describe the same marked group (no digit
    difference was found)."""


class UndecidableSpec(BslError):
    """Full digit comparison is not decidable for this description."""


class OracleInconsistent(BslError):
    """A word-problem oracle gave answers inconsistent with any group."""


class InvalidAutSpec(BslError):
    """Automorphism/endomorphism parameters violate their invariants."""
