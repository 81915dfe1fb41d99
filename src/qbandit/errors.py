"""Exception and warning types shared across the package.

Each error type has one CLI exit code: InstanceFormatError 1, like any
ValueError, DegenerateInstance 2 and InvariantViolation 3.
"""


class QbanditError(Exception):
    """Base class for package-specific errors."""


class DegenerateInstance(QbanditError):
    """The instance leaves nothing well defined to compute: a suboptimal arm
    ties the optimum or trails it by a gap whose 1/gap^2 overflows, no reward
    is reachable (p = 0), or the round budget is below the arm count."""


class InstanceFormatError(QbanditError):
    """Instance file is malformed or fails schema validation."""


class InvariantViolation(QbanditError):
    """An internal cross-check failed; indicates a bug, not a user error."""


class RenormalizationWarning(UserWarning):
    """A probability vector was slightly off normalization and got rescaled."""
