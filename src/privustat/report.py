"""Result container shared by all estimators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class EstimateReport:
    """Outcome of one private estimation run.

    ``estimate`` is None when the run returned bottom (refused to release);
    ``bottom_reason`` then says why.  ``radius`` is a calibrated confidence
    radius where the method provides one, else None.  ``noise_scale`` is the
    scale actually used in the final release.  The epsilon a run spent is
    recorded only in the ``PrivacyBudget`` it was given.
    """

    estimate: Optional[float]
    radius: Optional[float] = None
    noise_scale: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)
    bottom_reason: Optional[str] = None

    @property
    def is_bottom(self) -> bool:
        return self.estimate is None
