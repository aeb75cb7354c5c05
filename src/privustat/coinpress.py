"""Iterative-refinement private mean estimation over U-statistic values.

One engine drives three estimators.  Each refinement step clips the kernel
values to the current interval widened by a uniform deviation bound, releases
the clipped mean with Laplace noise scaled to the family's dependence
fraction, and re-centers the interval.  The naive, all-tuples, and subsampled
estimators differ only in the subset family and the pair of tail bounds they
plug in.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dp import PrivacyBudget, laplace, scratch_budget
from .errors import PreconditionWarning
from .report import EstimateReport
from .rng import as_generator
from .ustat import (
    Dataset,
    Kernel,
    SubsetFamily,
    all_tuples,
    disjoint_chunks,
    kernel_values,
    subsample_family,
)

DEFAULT_CONFIDENCE = 0.01  # per-run failure budget before median-of-means boosting
HALVING_ROUNDS_SCALE = 1.0  # multiplier on ceil(log2(R / Q)) when choosing rounds


@dataclass(frozen=True)
class TailBounds:
    """Confidence bounds for individual kernel values and for their average.

    ``q(beta)`` bounds sup_S |h(X_S) - theta| and ``qavg(beta)`` bounds
    |mean_S h(X_S) - theta|, each failing with probability at most beta.
    Both must be positive and nonincreasing in beta.
    """

    q: Callable[[float], float]
    qavg: Callable[[float], float]


def chunk_tail_bounds(tau: float, m: int) -> TailBounds:
    """Bounds for m disjoint-chunk values of a sub-Gaussian kernel."""
    return TailBounds(
        q=lambda beta: math.sqrt(2.0 * tau * math.log(2.0 * m / beta)),
        qavg=lambda beta: math.sqrt(2.0 * tau * math.log(2.0 / beta) / m),
    )


def all_tuples_tail_bounds(tau: float, k: int, n: int) -> TailBounds:
    """Bounds for the complete family of a sub-Gaussian kernel."""
    return TailBounds(
        q=lambda beta: math.sqrt(2.0 * tau * k * math.log(2.0 * n / beta)),
        qavg=lambda beta: math.sqrt(2.0 * tau * k * math.log(2.0 / beta) / n),
    )


def subsampled_tail_bounds(tau: float, k: int, n: int, size: int) -> TailBounds:
    """Bounds for a with-replacement subsampled family of a sub-Gaussian kernel."""
    return TailBounds(
        q=lambda beta: math.sqrt(2.0 * tau * k * math.log(4.0 * n / beta)),
        qavg=lambda beta: 4.0 * math.sqrt(tau * k / min(size, n) * math.log(4.0 * n / beta)),
    )


@dataclass
class IntervalState:
    lo: float
    hi: float
    iteration: int = 0

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


def ustat_one_step(
    values: np.ndarray,
    family: SubsetFamily,
    interval: IntervalState,
    eps_step: float,
    beta: float,
    tb: TailBounds,
    seed,
) -> tuple[np.ndarray, IntervalState]:
    """One clip-release-recenter refinement.

    Clips each value to [lo - Q(beta), hi + Q(beta)], releases the mean with
    Laplace noise of scale Delta/eps_step where
    Delta = dep * (hi - lo + 2 Q(beta)), and returns the clipped values (a
    new array; ``values`` is left as it is) plus the interval of half-width
    Qavg(beta) + (Delta/eps_step) log(1/beta) around the release.  The
    returned interval is not intersected with the input one; ``ustat_mean``
    does that.
    """
    q = tb.q(beta)
    clipped = np.clip(values, interval.lo - q, interval.hi + q)
    return clipped, _release(clipped, family, interval, eps_step, beta, tb, seed)


def _release(
    clipped: np.ndarray,
    family: SubsetFamily,
    interval: IntervalState,
    eps_step: float,
    beta: float,
    tb: TailBounds,
    seed,
) -> IntervalState:
    """The release and new interval of ``ustat_one_step``, from its clipped values."""
    if eps_step <= 0:
        raise ValueError("step epsilon must be > 0")
    rng = as_generator(seed)
    q = tb.q(beta)
    dep = family.dependence_fraction()
    delta = dep * (interval.width + 2.0 * q)
    noise = laplace(delta / eps_step, rng).value if delta > 0 else 0.0
    release = float(clipped.mean()) + noise
    half = tb.qavg(beta) + (delta / eps_step) * math.log(1.0 / beta)
    return IntervalState(release - half, release + half, interval.iteration + 1)


def halving_rounds(r: float, q_gamma: float) -> int:
    """Number of interval-halving rounds: max(1, ceil(log2(R / Q(gamma))))."""
    if r <= 0:
        raise ValueError("range bound must be > 0")
    if q_gamma <= 0:
        raise ValueError("deviation bound must be > 0")
    return max(1, math.ceil(HALVING_ROUNDS_SCALE * math.log2(r / q_gamma)))


def check_preconditions(
    dep: float, eps: float, gamma: float, t: int, tb: TailBounds
) -> list[str]:
    """Sample-size conditions under which the halving argument is guaranteed."""
    problems = []
    q_gamma = tb.q(gamma)
    bound = q_gamma * eps / (10.0 * t * tb.q(gamma / t) * math.log(t / gamma)) if t / gamma > 1 else 0.0
    if bound <= 0 or dep > bound:
        problems.append(f"dependence fraction {dep:.4g} exceeds {bound:.4g}")
    if tb.qavg(gamma / t) >= q_gamma:
        problems.append("average-deviation bound not below the uniform bound")
    return problems


def ustat_mean(
    h: Kernel,
    data: Dataset,
    family: SubsetFamily,
    r: float,
    eps: float,
    gamma: float,
    tb: TailBounds,
    seed,
    budget: PrivacyBudget,
    label: str = "ustat_mean",
) -> EstimateReport:
    """Private mean of the kernel values over the family, assuming |theta| <= R.

    Runs t = max(1, ceil(log2(R/Q(gamma)))) halving steps at eps/(2t) each,
    then one release step at eps/2; total budget is exactly eps.  Interval
    widths never grow across the halving steps (each new interval is
    intersected with the previous one); the final release interval stands
    alone, and its midpoint, clamped to [-R, R], is the returned estimate (free
    post-processing that never moves it away from a theta in that range).
    Violated sample-size preconditions produce a warning, not an abort.
    """
    rng = as_generator(seed)
    mark = len(budget.entries)
    values = kernel_values(h, data, family)
    t = halving_rounds(r, tb.q(gamma))
    problems = check_preconditions(family.dependence_fraction(), eps, gamma, t, tb)
    if problems:
        warnings.warn(
            "halving guarantees not in force: " + "; ".join(problems),
            PreconditionWarning,
            stacklevel=2,
        )
    interval = IntervalState(-r, r)
    trace = [interval]
    beta = gamma / t
    q = tb.q(beta)
    # each step clips the previous step's output, so clipping in place gives
    # what ustat_one_step would, without a new (M,) array per step
    for _ in range(t):
        np.clip(values, interval.lo - q, interval.hi + q, out=values)
        raw = _release(values, family, interval, eps / (2.0 * t), beta, tb, rng)
        lo = max(interval.lo, raw.lo)
        hi = min(interval.hi, raw.hi)
        if lo > hi:  # disjoint: keep the previous endpoint nearest the release
            lo = hi = min(max(raw.midpoint, interval.lo), interval.hi)
        interval = IntervalState(lo, hi, raw.iteration)
        trace.append(interval)
        budget.spend(f"{label}: halving step", eps / (2.0 * t))
    q = tb.q(gamma)
    np.clip(values, interval.lo - q, interval.hi + q, out=values)
    final = _release(values, family, interval, eps / 2.0, gamma, tb, rng)
    trace.append(final)
    budget.spend(f"{label}: release step", eps / 2.0)
    dep = family.dependence_fraction()
    delta = dep * (interval.width + 2.0 * q)
    return EstimateReport(
        estimate=min(max(final.midpoint, -r), r),
        eps=budget.spent_since(mark),
        radius=0.5 * final.width,
        noise_scale=2.0 * delta / eps,
        diagnostics={"iterations": t + 1, "trace": trace, "dep": dep},
    )


# ---------------------------------------------------------------------------
# the three off-the-shelf estimators
# ---------------------------------------------------------------------------

def naive_estimator(
    h: Kernel,
    data: Dataset,
    r: float,
    tau: float,
    eps: float,
    seed,
    gamma: float = DEFAULT_CONFIDENCE,
    budget: Optional[PrivacyBudget] = None,
) -> EstimateReport:
    """Kernel on floor(n/k) disjoint consecutive chunks, then private mean.

    Remainder points are dropped.  For k = 1 this is plain private mean
    estimation on the raw data.
    """
    if data.n < h.degree:
        raise ValueError("need n >= k")
    family = disjoint_chunks(data.n, h.degree)
    m = family.size
    return ustat_mean(
        h, data, family, r, eps, gamma, chunk_tail_bounds(tau, m), seed,
        budget or scratch_budget(), label="naive",
    )


def all_tuples_estimator(
    h: Kernel,
    data: Dataset,
    r: float,
    tau: float,
    eps: float,
    seed,
    gamma: float = DEFAULT_CONFIDENCE,
    budget: Optional[PrivacyBudget] = None,
) -> EstimateReport:
    """Private mean over every k-subset (the complete U-statistic)."""
    family = all_tuples(data.n, h.degree)
    tb = all_tuples_tail_bounds(tau, h.degree, data.n)
    return ustat_mean(
        h, data, family, r, eps, gamma, tb, seed, budget or scratch_budget(), label="all_tuples"
    )


def subsampled_estimator(
    h: Kernel,
    data: Dataset,
    r: float,
    tau: float,
    eps: float,
    size: int,
    seed,
    gamma: float = DEFAULT_CONFIDENCE,
    budget: Optional[PrivacyBudget] = None,
) -> EstimateReport:
    """Private mean over ``size`` subsets sampled with replacement.

    The dependence fraction is computed from the realized counts.  Sampling
    the family is data-independent, so it costs no privacy.
    """
    n, k = data.n, h.degree
    if size < (n / k) * math.log(n):
        warnings.warn(
            "subsample size below (n/k) log n; dependence fraction may be large",
            PreconditionWarning,
            stacklevel=2,
        )
    rng = as_generator(seed)
    family = subsample_family(n, k, size, rng)
    tb = subsampled_tail_bounds(tau, k, n, size)
    return ustat_mean(
        h, data, family, r, eps, gamma, tb, rng, budget or scratch_budget(), label="subsampled"
    )
