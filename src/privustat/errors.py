"""Exception types shared across the package."""


class PrivustatError(Exception):
    """Base class for all package-specific errors."""


class CombinatorialOverflow(PrivustatError):
    """Requested an enumeration larger than the configured cap."""


class NonPositiveScale(PrivustatError):
    """Noise scale must be finite and strictly positive."""


class BudgetExhausted(PrivustatError):
    """A spend would push the privacy ledger past its total."""


class LedgerMismatch(PrivustatError):
    """A privacy ledger's total differs from the epsilon its run was given."""


class InsufficientData(PrivustatError):
    """Not enough data points for the requested operation."""


class AuditFailure(PrivustatError):
    """A verification audit found a violating instance."""


class PreconditionWarning(UserWarning):
    """A stated sample-size or parameter precondition does not hold; proceeding anyway."""
