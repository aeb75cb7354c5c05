"""Noise mechanisms and the privacy-budget ledger.

Pure epsilon-DP only.  Two samplers: Laplace (global-sensitivity mechanism)
and the heavy-tailed law with density proportional to 1/(1+z^4) used by the
smooth-sensitivity mechanism.  The ledger is advisory: it records and enforces
totals under sequential and parallel composition but does not itself certify
that a mechanism was calibrated correctly.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .errors import BudgetExhausted, NonPositiveScale
from .rng import as_generator

# integral of 1/(1+z^4) over the real line; normalizes the quartic density
QUARTIC_NORMALIZER = math.pi / math.sqrt(2.0)

# sup_z sqrt(2) (1+z^2) / (1+z^4): rejection envelope vs the standard Cauchy
_ENVELOPE = (2.0 + math.sqrt(2.0)) / 2.0

# proposals per block of the quartic acceptance ratio: 256 KB of float64,
# so the ratio's passes stay in L2
_RATIO_BLOCK = 2**15

SMOOTH_RELEASE_FACTOR = 10.0

# rng.random() returns multiples of 2^-53 in [0, 1).  The Laplace samplers read
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
        return self.spent_since(0)

    def spent_since(self, mark: int) -> float:
        """Total of the entries after the first ``mark`` (a past ``len(entries)``)."""
        return float(sum(eps for _, eps in self.entries[mark:]))

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


def scratch_budget(eps: float = math.inf) -> PrivacyBudget:
    """Ledger with effectively no cap, for callers that only want the record."""
    return PrivacyBudget(eps if math.isfinite(eps) else 1e30)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseSample:
    value: float
    scale: float
    law: str  # "laplace" | "quartic_tail"


def laplace(scale: float, seed) -> NoiseSample:
    """One draw with density exp(-|z|/b) / (2b), via the inverse CDF."""
    if scale <= 0:
        raise NonPositiveScale("Laplace scale must be > 0")
    rng = as_generator(seed)
    u = max(rng.random(), _ZERO_DRAW) - 0.5
    value = -scale * math.copysign(1.0, u) * math.log1p(-2.0 * abs(u))
    return NoiseSample(value, scale, "laplace")


def laplace_draws(scale: float, size: int, rng) -> np.ndarray:
    if scale <= 0:
        raise NonPositiveScale("Laplace scale must be > 0")
    u = np.maximum(as_generator(rng).random(size), _ZERO_DRAW) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def quartic_noise(seed) -> NoiseSample:
    """One draw from the density sqrt(2)/pi / (1 + z^4)."""
    return NoiseSample(float(quartic_draws(1, seed)[0]), 1.0, "quartic_tail")


def quartic_draws(size: int, seed) -> np.ndarray:
    """Rejection sampler from a standard Cauchy proposal.

    The acceptance ratio sqrt(2)(1+z^2) / ((1+z^4) * envelope) is exact, so the
    output law matches the quadrature CDF oracle to sampling error only.
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


def quartic_density(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return (1.0 / QUARTIC_NORMALIZER) / (1.0 + z**4)


def quartic_cdf(z, grid_size: int = 200_001) -> np.ndarray:
    """CDF of the quartic-tail law by quadrature (no closed form used).

    Integrates the density under the substitution z = tan(u), which maps the
    real line to a finite interval; a cumulative trapezoid on the u-grid is
    then accurate to ~1e-10 and is interpolated at the query points.
    """
    z = np.asarray(z, dtype=float)
    u_grid = np.linspace(-math.pi / 2, math.pi / 2, grid_size)
    t = np.tan(u_grid[1:-1])
    integrand = np.empty_like(u_grid)
    # integrand g(u) = f(tan u) * sec^2 u -> 0 at the endpoints
    integrand[0] = integrand[-1] = 0.0
    integrand[1:-1] = quartic_density(t) * (1.0 + t * t)
    cum = integrate.cumulative_trapezoid(integrand, u_grid, initial=0.0)
    cum /= cum[-1]
    return np.interp(np.arctan(z), u_grid, cum)


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
    return float(value) + laplace(gs / eps, seed).value

def smooth_sensitivity_release(
    value: float,
    ss: float,
    eps: float,
    budget: PrivacyBudget,
    seed,
    label: str = "smooth release",
    scale_factor: float = SMOOTH_RELEASE_FACTOR,
) -> float:
    """value + (scale_factor * ss / eps) * Z with Z quartic-tail noise.

    ``ss`` must be an eps-smooth upper bound on the local sensitivity at this
    dataset; the default factor is the one the mechanism's privacy argument
    requires.
    """
    if ss < 0:
        raise ValueError("smooth sensitivity bound must be >= 0")
    if eps <= 0:
        raise ValueError("epsilon must be > 0")
    budget.spend(label, eps)
    if ss == 0:
        return float(value)
    return float(value) + (scale_factor * ss / eps) * quartic_noise(seed).value
