"""Iterative-refinement private mean estimation over U-statistic values.

One engine drives three estimators.  Each refinement step clips the kernel
values to the current interval widened by a uniform deviation bound, releases
the clipped mean through ``dp.releases`` with ``dp.LAPLACE`` (Laplace noise
scaled to the family's dependence fraction; the ledger is debited before the
draw), and re-centers the interval.  The naive, all-tuples, and subsampled
estimators differ only in the subset family and the pair of tail bounds they
plug in.  Every uniform deviation bound is ``subgaussian_xi``; the complete
family's bounds are those of n chunk values with variance proxy k tau.

The engine runs many datasets of one size at once, as the rows of a (q, M)
array of kernel values: the q chunks of a boosted estimate make one pass,
with (q,) interval endpoints and one stacked release per step.  The
``*_estimates`` functions take the chunks as a (q, n) array; the estimators
of one dataset are their q = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dp import LAPLACE, PrivacyBudget, releases
from .errors import warn_precondition
from .report import EstimateReport
from .rng import as_generator
from .ustat import (
    Dataset,
    Kernel,
    SubsetFamily,
    all_tuples,
    chunk_kernel_values,
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


def subgaussian_xi(tau: float, n: int, alpha: float) -> float:
    """Concentration radius of n values sub-Gaussian with variance proxy tau:
    sqrt(2 tau log(2n/alpha)) bounds all n deviations except with probability alpha."""
    if tau < 0:
        raise ValueError(f"variance proxy must be >= 0, got {tau}")
    return math.sqrt(2.0 * tau * math.log(2.0 * n / alpha))


def chunk_tail_bounds(tau: float, m: int) -> TailBounds:
    """Bounds for m disjoint-chunk values of a sub-Gaussian kernel."""
    return TailBounds(
        q=lambda beta: subgaussian_xi(tau, m, beta),
        qavg=lambda beta: math.sqrt(2.0 * tau * math.log(2.0 / beta) / m),
    )


def subsampled_tail_bounds(tau: float, k: int, n: int, size: int) -> TailBounds:
    """Bounds for a with-replacement subsampled family of a sub-Gaussian kernel."""
    return TailBounds(
        q=lambda beta: subgaussian_xi(tau * k, 2 * n, beta),
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
    values: np.ndarray,
    deps: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    eps_step: float,
    beta: float,
    tb: TailBounds,
    rngs: list,
    budgets: list[PrivacyBudget],
    label: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One release of each row's mean of the (q, M) ``values``: the (lo, hi)
    endpoints of the interval around each release, and its noise scale.

    Row i must already be clipped to [lo[i] - Q(beta), hi[i] + Q(beta)].  Its
    mean is released with Laplace noise of scale Delta_i/eps_step, where
    Delta_i = deps[i] * (hi[i] - lo[i] + 2 Q(beta)), debited to budgets[i]
    and drawn from rngs[i]; the returned interval has half-width
    Qavg(beta) + (Delta_i/eps_step) log(1/beta) around the release and is
    not intersected with the input one (``_clip_and_release`` does that).
    """
    delta = deps * ((hi - lo) + 2.0 * tb.q(beta))
    means = np.add.reduce(values, axis=1) / values.shape[1]
    release, scale = releases(LAPLACE, means, delta, eps_step, budgets, rngs, label)
    half = tb.qavg(beta) + scale * math.log(1.0 / beta)
    return release - half, release + half, scale


def halving_rounds(r: float, q_gamma: float) -> int:
    """Number of interval-halving rounds: max(1, ceil(log2(R / Q(gamma))))."""
    if not 0 < r < math.inf:  # also rejects NaN
        raise ValueError(f"range bound must be finite and > 0, got {r}")
    if not 0 < q_gamma < math.inf:
        raise ValueError(f"deviation bound must be finite and > 0, got {q_gamma}")
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


def _clip_and_release(
    values: np.ndarray,
    deps: np.ndarray,
    r: float,
    eps: float,
    gamma: float,
    tb: TailBounds,
    rngs: list,
    budgets: list[PrivacyBudget],
    label: str,
) -> list[EstimateReport]:
    """The halving and release steps of ``ustat_means`` on every row of the
    (q, M) finite ``values`` at once; row i has dependence fraction deps[i],
    draws from rngs[i] and debits budgets[i].

    Interval endpoints are (q,) arrays, the values are clipped in place to
    per-row bounds, and each step releases the q row means together.  Row
    i's report equals that of a run on row i alone: the same arithmetic and
    the same draws from its generator.  Each distinct precondition warning
    is issued once.
    """
    t = halving_rounds(r, tb.q(gamma))
    problems = {}
    for dep in dict.fromkeys(deps.tolist()):
        found = check_preconditions(dep, eps, gamma, t, tb)
        if found:
            problems["halving guarantees not in force: " + "; ".join(found)] = None
    for message in problems:
        warn_precondition(message)
    lo, hi = np.full(len(values), -r), np.full(len(values), r)
    los, his = [lo.tolist()], [hi.tolist()]  # the trace, one list of rows per step
    beta = gamma / t
    q = tb.q(beta)
    # each step clips the previous step's output, so the values are clipped
    # in place rather than copied into a new (q, M) array per step
    for _ in range(t):
        np.clip(values, (lo - q)[:, None], (hi + q)[:, None], out=values)
        raw_lo, raw_hi, _ = _release(
            values, deps, lo, hi, eps / (2.0 * t), beta, tb, rngs, budgets,
            f"{label}: halving step",
        )
        new_lo, new_hi = np.maximum(lo, raw_lo), np.minimum(hi, raw_hi)
        disjoint = new_lo > new_hi
        if any(disjoint.tolist()):  # keep the previous endpoint nearest the release
            nearest = np.minimum(np.maximum(0.5 * (raw_lo + raw_hi), lo), hi)
            new_lo = np.where(disjoint, nearest, new_lo)
            new_hi = np.where(disjoint, nearest, new_hi)
        lo, hi = new_lo, new_hi
        los.append(lo.tolist())
        his.append(hi.tolist())
    q = tb.q(gamma)
    np.clip(values, (lo - q)[:, None], (hi + q)[:, None], out=values)
    lo, hi, scale = _release(
        values, deps, lo, hi, eps / 2.0, gamma, tb, rngs, budgets, f"{label}: release step"
    )
    los.append(lo.tolist())
    his.append(hi.tolist())
    estimate = np.minimum(np.maximum(0.5 * (lo + hi), -r), r)
    return [
        EstimateReport(
            estimate=est,
            radius=radius,
            noise_scale=sc,
            diagnostics={
                "iterations": t + 1,
                "trace": [IntervalState(a, b) for a, b in zip(row_lo, row_hi)],
                "dep": dep,
            },
        )
        for est, radius, sc, row_lo, row_hi, dep in zip(
            estimate.tolist(), (0.5 * (hi - lo)).tolist(), scale.tolist(),
            zip(*los), zip(*his), deps.tolist(),
        )
    ]


def _finite(values: np.ndarray) -> np.ndarray:
    if not (math.isfinite(values.min()) and math.isfinite(values.max())):
        raise ValueError("kernel values must be finite")
    return values


def ustat_means(
    h: Kernel,
    chunks: np.ndarray,
    family: SubsetFamily,
    r: float,
    eps: float,
    gamma: float,
    tb: TailBounds,
    seeds: list,
    budgets: list[PrivacyBudget],
    label: str,
) -> list[EstimateReport]:
    """Private mean of the kernel values over the family on each row of the
    (q, n) ``chunks``, assuming |theta| <= R; row i draws from seeds[i] and
    debits budgets[i].

    Runs t = max(1, ceil(log2(R/Q(gamma)))) halving steps at eps/(2t) each,
    then one release step at eps/2; total budget is exactly eps.  Interval
    widths never grow across the halving steps (each new interval is
    intersected with the previous one); the final release interval stands
    alone, and its midpoint, clamped to [-R, R], is the returned estimate (free
    post-processing that never moves it away from a theta in that range).
    Violated sample-size preconditions produce a warning, not an abort;
    non-finite kernel values, R or Q(gamma) raise ``ValueError`` before any
    spend.
    """
    rngs = [as_generator(seed) for seed in seeds]
    values = _finite(chunk_kernel_values(h, chunks, family))
    deps = np.full(len(chunks), family.dependence_fraction())
    return _clip_and_release(values, deps, r, eps, gamma, tb, rngs, budgets, label)


# ---------------------------------------------------------------------------
# the three off-the-shelf estimators
# ---------------------------------------------------------------------------

def naive_estimates(
    h: Kernel,
    chunks: np.ndarray,
    r: float,
    tau: float,
    eps: float,
    seeds: list,
    budgets: list[PrivacyBudget],
) -> list[EstimateReport]:
    """``naive_estimator`` on each row of a (q, n) array of chunks, chunk i
    drawing from seeds[i] and debiting budgets[i]."""
    n = chunks.shape[1]
    if n < h.degree:
        raise ValueError("need n >= k")
    family = disjoint_chunks(n, h.degree)
    tb = chunk_tail_bounds(tau, family.size)
    return ustat_means(
        h, chunks, family, r, eps, DEFAULT_CONFIDENCE, tb, seeds, budgets, "naive"
    )


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
    (report,) = naive_estimates(h, data.points[None], r, tau, eps, [seed], [budget])
    return report


def all_tuples_estimates(
    h: Kernel,
    chunks: np.ndarray,
    r: float,
    tau: float,
    eps: float,
    seeds: list,
    budgets: list[PrivacyBudget],
) -> list[EstimateReport]:
    """``all_tuples_estimator`` on each row of a (q, n) array of chunks."""
    n = chunks.shape[1]
    family = all_tuples(n, h.degree)
    tb = chunk_tail_bounds(tau * h.degree, n)  # n chunk values, variance proxy k tau
    return ustat_means(
        h, chunks, family, r, eps, DEFAULT_CONFIDENCE, tb, seeds, budgets, "all_tuples"
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
    (report,) = all_tuples_estimates(h, data.points[None], r, tau, eps, [seed], [budget])
    return report


def subsampled_estimates(
    h: Kernel,
    chunks: np.ndarray,
    r: float,
    tau: float,
    eps: float,
    size: int,
    seeds: list,
    budgets: list[PrivacyBudget],
) -> list[EstimateReport]:
    """``subsampled_estimator`` on each row of a (q, n) array of chunks.

    Chunk i draws its own family from seeds[i] before its noise, so the
    dependence fraction is per chunk.  The q families are evaluated as one
    family over the concatenated chunks.
    """
    (q, n), k = chunks.shape, h.degree
    rngs = [as_generator(seed) for seed in seeds]
    families = [subsample_family(n, k, size, rng) for rng in rngs]
    if size < (n / k) * math.log(n):
        warn_precondition("subsample size below (n/k) log n; dependence fraction may be large")
    rows = np.concatenate([f.subsets + i * n for i, f in enumerate(families)])
    joint = SubsetFamily(q * n, k, rows, kind="explicit")
    values = _finite(kernel_values(h, Dataset(chunks.reshape(-1)), joint).reshape(q, size))
    deps = np.array([f.dependence_fraction() for f in families])
    tb = subsampled_tail_bounds(tau, k, n, size)
    return _clip_and_release(
        values, deps, r, eps, DEFAULT_CONFIDENCE, tb, rngs, budgets, "subsampled"
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
    (report,) = subsampled_estimates(h, data.points[None], r, tau, eps, size, [seed], [budget])
    return report
