"""Exception types shared across the package, and its one warning rule."""

import sys
import warnings


class PrivustatError(Exception):
    """Base class for all package-specific errors."""


class CombinatorialOverflow(PrivustatError):
    """Requested an enumeration larger than the configured cap."""


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


def warn_precondition(message: str) -> None:
    """Issue a ``PreconditionWarning`` at the first frame outside the package:
    the line that called into privustat, however many of its functions lie
    in between (what ``skip_file_prefixes`` does from Python 3.12)."""
    package = __name__.partition(".")[0]
    level, frame = 2, sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == package:
        level, frame = level + 1, frame.f_back
    warnings.warn(message, PreconditionWarning, stacklevel=level)
