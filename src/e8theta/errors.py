"""Exception types shared across the package."""


class NotInvertibleError(ArithmeticError):
    """Raised when an element has no inverse in its ring."""


class ExponentLatticeError(ValueError):
    """Raised when a series is displayed in whole powers of q but holds fractional exponents."""


class BeyondTruncationError(ValueError):
    """Raised when a coefficient past the validity order of a series is requested."""


class FixtureFormatError(ValueError):
    """Raised on malformed fixture data; the message names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"field {field!r}: {message}")
        self.field = field
        self.message = message
