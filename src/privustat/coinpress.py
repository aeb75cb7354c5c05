"""Iterative-refinement private mean estimation over U-statistic values.

One engine drives three estimators.  Each refinement step clips the kernel
values to the current interval widened by a uniform deviation bound, releases
the clipped mean through ``dp.global_sensitivity_release`` (Laplace noise
scaled to the family's dependence fraction; the ledger is debited before the
draw), and re-centers the interval.  The naive, all-tuples, and subsampled
estimators differ only in the subset family and the pair of tail bounds they
plug in.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dp import PrivacyBudget, global_sensitivity_release
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

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


def _release(
    clipped: np.ndarray,
    family: SubsetFamily,
    interval: IntervalState,
    eps_step: float,
    beta: float,
    tb: TailBounds,
    seed,
    budget: PrivacyBudget,
    label: str,
) -> tuple[IntervalState, float]:
    """One release of the clipped values' mean, the interval around it, and
    the scale of its noise.

    The values must already be clipped to [lo - Q(beta), hi + Q(beta)].  The
    mean is released with Laplace noise of scale Delta/eps_step where
    Delta = dep * (hi - lo + 2 Q(beta)); the returned interval has half-width
    Qavg(beta) + (Delta/eps_step) log(1/beta) around the release and is not
    intersected with the input one (``ustat_mean`` does that).
    """
    delta = family.dependence_fraction() * (interval.width + 2.0 * tb.q(beta))
    release = global_sensitivity_release(float(clipped.mean()), delta, eps_step, budget, seed, label)
    scale = delta / eps_step
    half = tb.qavg(beta) + scale * math.log(1.0 / beta)
    return IntervalState(release - half, release + half), scale


def halving_rounds(r: float, q_gamma: float) -> int:
    """Number of interval-halving rounds: max(1, ceil(log2(R / Q(gamma))))."""
    if r <= 0:
        raise ValueError("range bound must be > 0")
    if q_gamma <= 0:
        raise ValueError("deviation bound must be > 0")
    return max(1, math.ceil(math.log2(r / q_gamma)))


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


def _caller_stacklevel() -> int:
    """``warnings.warn`` stacklevel, counted from the calling function, of the
    first frame outside this module: the line that called the public
    estimator, however many of this module's functions lie in between (what
    ``skip_file_prefixes`` does from Python 3.12)."""
    level, frame = 1, sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        level, frame = level + 1, frame.f_back
    return level


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
    Violated sample-size preconditions produce a warning, not an abort;
    non-finite kernel values raise ``ValueError`` before any spend.
    """
    rng = as_generator(seed)
    values = kernel_values(h, data, family)
    if not (math.isfinite(values.min()) and math.isfinite(values.max())):
        raise ValueError("kernel values must be finite")
    t = halving_rounds(r, tb.q(gamma))
    dep = family.dependence_fraction()
    problems = check_preconditions(dep, eps, gamma, t, tb)
    if problems:
        warnings.warn(
            "halving guarantees not in force: " + "; ".join(problems),
            PreconditionWarning,
            stacklevel=_caller_stacklevel(),
        )
    interval = IntervalState(-r, r)
    trace = [interval]
    beta = gamma / t
    q = tb.q(beta)
    # each step clips the previous step's output, so the values are clipped
    # in place rather than copied into a new (M,) array per step
    for _ in range(t):
        np.clip(values, interval.lo - q, interval.hi + q, out=values)
        raw, _ = _release(
            values, family, interval, eps / (2.0 * t), beta, tb, rng, budget,
            f"{label}: halving step",
        )
        lo = max(interval.lo, raw.lo)
        hi = min(interval.hi, raw.hi)
        if lo > hi:  # disjoint: keep the previous endpoint nearest the release
            lo = hi = min(max(raw.midpoint, interval.lo), interval.hi)
        interval = IntervalState(lo, hi)
        trace.append(interval)
    q = tb.q(gamma)
    np.clip(values, interval.lo - q, interval.hi + q, out=values)
    final, scale = _release(
        values, family, interval, eps / 2.0, gamma, tb, rng, budget, f"{label}: release step"
    )
    trace.append(final)
    return EstimateReport(
        estimate=min(max(final.midpoint, -r), r),
        radius=0.5 * final.width,
        noise_scale=scale,
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
    budget: PrivacyBudget,
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
        h, data, family, r, eps, DEFAULT_CONFIDENCE, chunk_tail_bounds(tau, m), seed, budget,
        label="naive",
    )


def all_tuples_estimator(
    h: Kernel,
    data: Dataset,
    r: float,
    tau: float,
    eps: float,
    seed,
    budget: PrivacyBudget,
) -> EstimateReport:
    """Private mean over every k-subset (the complete U-statistic)."""
    family = all_tuples(data.n, h.degree)
    tb = all_tuples_tail_bounds(tau, h.degree, data.n)
    return ustat_mean(
        h, data, family, r, eps, DEFAULT_CONFIDENCE, tb, seed, budget, label="all_tuples"
    )


def subsampled_estimator(
    h: Kernel,
    data: Dataset,
    r: float,
    tau: float,
    eps: float,
    size: int,
    seed,
    budget: PrivacyBudget,
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
        h, data, family, r, eps, DEFAULT_CONFIDENCE, tb, rng, budget, label="subsampled"
    )
