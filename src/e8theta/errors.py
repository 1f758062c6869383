"""Exception types shared across the package."""


class NotInvertibleError(ArithmeticError):
    """Raised when an element has no inverse in its ring."""


class ExponentLatticeError(ValueError):
    """Raised when a series is displayed in whole powers of q but holds fractional exponents."""


class BeyondTruncationError(ValueError):
    """Raised when a coefficient past the validity order of a series is requested."""


class FixtureFormatError(ValueError):
    """Raised on malformed fixture files; the message names the offending field."""
