"""Exception and warning types shared across the package."""


class QbanditError(Exception):
    """Base class for package-specific errors."""


class DimensionError(QbanditError):
    """Operator and state shapes do not line up."""


class InvalidOperator(QbanditError):
    """Operator payload fails its structural checks (e.g. not unitary)."""


class DegenerateInstance(QbanditError):
    """A suboptimal arm ties the optimum, so gap-based quantities diverge."""


class NoGoodStates(QbanditError):
    """The reward table marks no reachable state, so amplification is undefined."""


class InsufficientBudget(QbanditError):
    """Round budget too small to pull every arm once."""


class InstanceFormatError(QbanditError):
    """Instance file is malformed or fails schema validation."""


class InvariantViolation(QbanditError):
    """An internal cross-check failed; indicates a bug, not a user error."""


class RenormalizationWarning(UserWarning):
    """A probability vector was slightly off normalization and got rescaled."""
