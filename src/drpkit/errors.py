"""Exception types shared across the toolkit."""


class DrpkitError(Exception):
    """Base class for toolkit errors."""


class SingularSystemError(DrpkitError):
    """The normal-equation system is numerically singular.

    Carries the condition-number estimate that triggered the rejection.
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class TruncationMismatchError(DrpkitError):
    """A coefficient table contains derivative signatures outside the expected truncation."""


class BlowUpError(DrpkitError):
    """A simulated field stopped being finite.

    Carries the step count at which the non-finite value was detected.
    """

    def __init__(self, message, step_count=None):
        super().__init__(message)
        self.step_count = step_count


class NormGuardError(DrpkitError):
    """The L2 norm of a simulated field exceeded the configured growth guard."""

    def __init__(self, message, step_count=None):
        super().__init__(message)
        self.step_count = step_count


class LostFrontError(DrpkitError):
    """Front tracking found no bracketing level crossing in a snapshot."""


class ConfigError(DrpkitError):
    """Invalid or inconsistent run configuration."""


class NonFiniteResultError(DrpkitError):
    """A result holds NaN or an infinity, which no artifact may contain."""


class PowerOverflowError(DrpkitError, OverflowError):
    """A power of a named quantity overflows a float.

    Carries the quantity's name, so that a front end can say which of its
    inputs set the quantity.
    """

    def __init__(self, quantity: str, value: float, exponent: int):
        super().__init__(f"{quantity}**{exponent} overflows a float at {quantity} = {value!r}")
        self.quantity = quantity


class CoefficientUnderflowError(DrpkitError, ValueError):
    """A table coefficient underflows to zero; carries the quantity that scales it."""

    def __init__(self, term: str, quantity: str, value: float):
        super().__init__(f"the {term} coefficient underflows to zero at {quantity} = {value!r}")
        self.quantity = quantity
