"""Exception taxonomy shared by all modules.

Errors fall into three families that the CLI maps onto exit codes:
input/validation problems, numeric failures, and verification failures.
"""

__all__ = [
    "FFCalcError", "ValidationError", "DomainError", "OrderError", "CapabilityError",
    "NumericError", "EstimationError", "DegenerateDenominatorError", "HukuharaNonexistenceError",
    "CaseInapplicableError", "IntegrityError", "DivergenceError", "ConditioningError",
]


class FFCalcError(Exception):
    """Base class for every library error."""


class ValidationError(FFCalcError, ValueError):
    """Malformed input data: shape, ordering or range violations."""


class DomainError(ValidationError):
    """Query point outside the domain of a curve, table or grid."""


class OrderError(ValidationError):
    """Mass order alpha outside the supported range [1, n]."""


class CapabilityError(ValidationError):
    """Operation requires a capability the object lacks (e.g. refinement)."""


class NumericError(FFCalcError):
    """Base class for runtime numeric failures."""


class EstimationError(NumericError):
    """An estimate could not be bracketed or converged."""


class DegenerateDenominatorError(NumericError):
    """Difference-quotient denominator vanished (flat staircase segment)."""


class HukuharaNonexistenceError(NumericError):
    """A Hukuhara difference does not exist.

    ``failing_r`` is the smallest membership level at which the difference
    stops being a valid fuzzy number.
    """

    def __init__(self, message, failing_r=None):
        super().__init__(message)
        self.failing_r = failing_r


class CaseInapplicableError(NumericError):
    """The requested differentiability case fails at this point."""

    def __init__(self, message, case=None, failing_r=None):
        super().__init__(message)
        self.case = case
        self.failing_r = failing_r


class IntegrityError(NumericError):
    """Internal consistency violated (e.g. negative staircase increment)."""


class DivergenceError(NumericError):
    """Integration produced a non-finite state.

    ``last_valid`` is the last coordinate at which the state was finite.
    """

    def __init__(self, message, last_valid=None):
        super().__init__(message)
        self.last_valid = last_valid


class ConditioningError(NumericError):
    """A required linear system is singular or near-singular."""
