"""Exception hierarchy shared by all modules."""


class NonArchError(Exception):
    """Base class for all library errors."""


class DivisionByZero(NonArchError, ZeroDivisionError):
    pass


class PrecisionExhausted(NonArchError):
    """Every stored digit cancelled; the value cannot be told apart from
    elements of higher valuation.  ``guaranteed_ord`` is a certified lower
    bound on the valuation of the true result."""

    def __init__(self, message: str = "all stored digits cancelled", guaranteed_ord=None):
        super().__init__(message)
        self.guaranteed_ord = guaranteed_ord


class NotIntegral(NonArchError):
    pass


class DyadicField(NonArchError):
    pass


class InsufficientPrecision(NonArchError):
    pass


class TooLarge(NonArchError):
    pass


class LevelTooLow(NonArchError):
    pass


class DimensionMismatch(NonArchError):
    pass


class NotSymmetric(NonArchError):
    pass


class InvalidParam(NonArchError):
    pass


class EqualParams(NonArchError):
    pass
