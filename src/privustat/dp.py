"""Noise mechanisms and the privacy-budget ledger.

Pure epsilon-DP only.  Two samplers: Laplace (global-sensitivity mechanism)
and the heavy-tailed law with density proportional to 1/(1+z^4) used by the
smooth-sensitivity mechanism, whose CDF ``quartic_cdf`` computes in closed
form as the audit's reference.  This is the only module that draws release
noise or debits a ledger: every release goes through
``global_sensitivity_release`` or ``smooth_sensitivity_release``, which debit
the ledger before they draw, and each draws from the same vector sampler that
``harness.audits.noise_gof`` checks.  The ledger is advisory: it records and
enforces totals under sequential and parallel composition but does not itself
certify that a mechanism was calibrated correctly.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExhausted, NonPositiveScale
from .rng import as_generator

# integral of 1/(1+z^4) over the real line; normalizes the quartic density
QUARTIC_NORMALIZER = math.pi / math.sqrt(2.0)

# sup_z sqrt(2) (1+z^2) / (1+z^4): rejection envelope vs the standard Cauchy
_ENVELOPE = (2.0 + math.sqrt(2.0)) / 2.0

# points per block of the quartic acceptance ratio and of quartic_cdf: 256 KB
# of float64, so each block's passes stay in L2
_RATIO_BLOCK = 2**15

SMOOTH_RELEASE_FACTOR = 10.0

# |z| from which quartic_cdf sums the tail series instead of the closed form
_CDF_SERIES_FROM = 32.0

# rng.random() returns multiples of 2^-53 in [0, 1).  The Laplace sampler reads
# the draw 0.0 as the middle of its cell, so the inverse CDF never hits log(0).
_ZERO_DRAW = 2.0**-54


# ---------------------------------------------------------------------------
# budget ledger
# ---------------------------------------------------------------------------

_SLACK = 1e-9


@dataclass
class PrivacyBudget:
    """Append-only epsilon ledger with sequential and parallel accounting.

    Sequential spends add.  A ``parallel`` block runs branch ledgers over
    disjoint data; on exit the parent is debited by the *maximum* branch
    total.
    """

    epsilon_total: float
    entries: list = field(default_factory=list)

    def __post_init__(self):
        if self.epsilon_total <= 0:
            raise ValueError("total budget must be positive")

    @property
    def spent(self) -> float:
        return float(sum(eps for _, eps in self.entries))

    @property
    def remaining(self) -> float:
        return self.epsilon_total - self.spent

    def spend(self, label: str, eps: float) -> None:
        if not math.isfinite(eps):
            raise ValueError(f"cannot spend non-finite budget {eps} on {label!r}")
        if eps < 0:
            raise ValueError("cannot spend negative budget")
        if self.spent + eps > self.epsilon_total + _SLACK:
            raise BudgetExhausted(
                f"spend {eps} on {label!r} exceeds remaining {self.remaining:.6g}"
            )
        self.entries.append((label, float(eps)))

    @contextmanager
    def parallel(self, label: str):
        """Context manager for branches over disjoint data (max-composition)."""
        branches = _ParallelBranches(self.remaining)
        try:
            yield branches
        finally:  # a branch that released and then raised still spent its budget
            self.spend(label, branches.max_spent())

    def summary(self) -> str:
        lines = [f"privacy ledger: spent {self.spent:.6g} of {self.epsilon_total:.6g}"]
        for label, eps in self.entries:
            lines.append(f"  {eps:.6g}  {label}")
        return "\n".join(lines)


class _ParallelBranches:
    def __init__(self, cap: float):
        self._cap = cap
        self._branches: list[PrivacyBudget] = []

    def branch(self) -> PrivacyBudget:
        b = PrivacyBudget(self._cap if self._cap > 0 else _SLACK)
        self._branches.append(b)
        return b

    def max_spent(self) -> float:
        return max((b.spent for b in self._branches), default=0.0)


def scratch_budget() -> PrivacyBudget:
    """Ledger with effectively no cap, for callers that only want the record."""
    return PrivacyBudget(1e30)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def laplace_draws(scale: float, size: int, rng) -> np.ndarray:
    """``size`` draws with density exp(-|z|/b) / (2b), via the inverse CDF."""
    if scale <= 0:
        raise NonPositiveScale("Laplace scale must be > 0")
    u = np.maximum(as_generator(rng).random(size), _ZERO_DRAW) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def quartic_draws(size: int, seed) -> np.ndarray:
    """Rejection sampler from a standard Cauchy proposal.

    The acceptance ratio sqrt(2)(1+z^2) / ((1+z^4) * envelope) is exact, so the
    output law matches ``quartic_cdf`` to sampling error only.
    Mean acceptance rate is 1/envelope (about 0.586).

    z^4 is formed as (z^2)^2, because ``z**4`` goes through libm ``pow`` at
    several times the cost.  The ratio may then differ in its last bit, which
    moves an acceptance only if a uniform draw lands on that bit (odds 2^-53
    per proposal).  The ratio is built in place over cache-sized blocks, so no
    proposal-sized temporary sits beside the proposals (peak RSS).
    """
    rng = as_generator(seed)
    out = np.empty(size)
    have = 0
    while have < size:
        want = size - have
        batch = max(64, int(want / 0.5))
        z = rng.standard_cauchy(batch)
        u = rng.random(batch)
        keep = np.empty(batch, dtype=bool)
        for start in range(0, batch, _RATIO_BLOCK):
            block = slice(start, start + _RATIO_BLOCK)
            den = z[block] * z[block]
            ratio = den + 1.0
            ratio *= math.sqrt(2.0)
            np.square(den, out=den)
            den += 1.0
            den *= _ENVELOPE
            ratio /= den
            np.less_equal(u[block], ratio, out=keep[block])
        accepted = z[keep]
        take = min(accepted.size, want)
        out[have : have + take] = accepted[:take]
        have += take
    return out


def quartic_cdf(z) -> np.ndarray:
    """CDF of the quartic-tail law, from the antiderivative of 1/(1+t^4).

    With Q = QUARTIC_NORMALIZER and x = |z|, P(Z < -x) is 1/2 - [ln((x^2 +
    sqrt2 x + 1)/(x^2 - sqrt2 x + 1))/(4 sqrt2) + atan2(sqrt2 x, 1 - x^2)/(2 sqrt2)]/Q.
    Its terms cancel to a tail near 1/(3 Q x^3) that loses its digits (and,
    past x ~ 1e4, monotonicity), so from x = 32 on the tail is the series
    (1/3 - x^-4/7 + x^-8/11) / (Q x^3).  The upper half is 1 minus the tail,
    so +-inf give exactly 1 and 0.  Points go in cache-sized blocks, so no
    temporary is the size of z (peak RSS).
    """
    z = np.asarray(z, dtype=float)
    cdf = np.empty(z.shape)
    flat_z, flat_cdf = z.reshape(-1), cdf.reshape(-1)
    r2 = math.sqrt(2.0)
    for start in range(0, flat_z.size, _RATIO_BLOCK):
        block = slice(start, start + _RATIO_BLOCK)
        x = np.abs(flat_z[block])
        b = np.minimum(x, _CDF_SERIES_FROM)
        bb = b * b
        log_term = np.log((bb + r2 * b + 1.0) / (bb - r2 * b + 1.0)) / (4.0 * r2)
        atan_term = np.arctan2(r2 * b, 1.0 - bb) / (2.0 * r2)
        body = 0.5 - (log_term + atan_term) / QUARTIC_NORMALIZER
        r = 1.0 / np.maximum(x, _CDF_SERIES_FROM)
        u = (r * r) ** 2
        tail = (1.0 / 3.0 + u * (u / 11.0 - 1.0 / 7.0)) * (r * r * r) / QUARTIC_NORMALIZER
        lower = np.where(x < _CDF_SERIES_FROM, body, tail)
        flat_cdf[block] = np.where(flat_z[block] < 0, lower, 1.0 - lower)
    return cdf


# ---------------------------------------------------------------------------
# release mechanisms
# ---------------------------------------------------------------------------

def global_sensitivity_release(
    value: float,
    gs: float,
    eps: float,
    budget: PrivacyBudget,
    seed,
    label: str = "laplace release",
) -> float:
    """value + Laplace(gs/eps); a zero-sensitivity function is released exactly."""
    if gs < 0:
        raise ValueError("global sensitivity must be >= 0")
    if eps <= 0:
        raise ValueError("epsilon must be > 0")
    budget.spend(label, eps)
    if gs == 0:
        return float(value)
    return float(value) + float(laplace_draws(gs / eps, 1, seed)[0])

def smooth_sensitivity_release(
    value: float,
    ss: float,
    eps: float,
    budget: PrivacyBudget,
    seed,
    label: str = "smooth release",
) -> float:
    """value + (SMOOTH_RELEASE_FACTOR * ss / eps) * Z with Z quartic-tail noise.

    ``ss`` must be an eps-smooth upper bound on the local sensitivity at this
    dataset.
    """
    if ss < 0:
        raise ValueError("smooth sensitivity bound must be >= 0")
    if eps <= 0:
        raise ValueError("epsilon must be > 0")
    budget.spend(label, eps)
    if ss == 0:
        return float(value)
    return float(value) + (SMOOTH_RELEASE_FACTOR * ss / eps) * float(quartic_draws(1, seed)[0])
