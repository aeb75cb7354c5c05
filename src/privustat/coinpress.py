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
array of kernel values: the chunks of boosted estimates make one pass,
with (q,) interval endpoints and one stacked release per step, each row
drawing from its own generator.  An equality kernel on the complete family
(``ustat.runs_on_counts``) gives a (q, 2) array instead: its two values 0
and 1, each weighted by the number of subsets taking it, from the value
counts.  The ``*_estimates`` functions take the chunks
as a (q, n) array and one seed or one generator per row; the estimators
of one dataset are their q = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dp import LAPLACE, PrivacyBudget, check_epsilon, releases
from .errors import warn_precondition
from .report import EstimateReport
from .rng import row_generators
from .ustat import (
    Dataset,
    Kernel,
    SubsetFamily,
    all_tuples,
    binomials,
    chunk_kernel_values,
    disjoint_chunks,
    kernel_values,
    runs_on_counts,
    subsample_family,
    value_counts,
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
    counts: np.ndarray | None,
    deps: np.ndarray,
    r: float,
    eps: float,
    gamma: float,
    tb: TailBounds,
    rngs: list[np.random.Generator],
    budgets: list[PrivacyBudget],
    label: str,
) -> list[EstimateReport]:
    """The t halving steps and the release step of ``ustat_means`` on every
    row of the (q, V) ``values`` at once; row i has dependence fraction
    deps[i], debits budgets[i] and draws every step's noise from rngs[i].
    With ``counts`` None each column is one subset's value (V = M);
    otherwise column j of row i is the value of counts[i, j] of the M
    subsets, and the mean weighs it so.

    One loop runs all t + 1 steps: the halving steps at (eps/(2t), gamma/t),
    then the release step at (eps/2, gamma).  Each clips row i in place to
    [lo[i] - Q(beta), hi[i] + Q(beta)] and releases its mean in one
    ``releases`` call, with Laplace noise of scale Delta_i/eps_step, where
    Delta_i = deps[i] * (hi[i] - lo[i] + 2 Q(beta)).  The new interval has
    half-width Qavg(beta) + (Delta_i/eps_step) log(1/beta) around the
    release.  A halving step clamps its ends into the last interval: that
    intersects the two, or, if they are disjoint, collapses it onto the
    endpoint nearest the release.  The release step's interval stands
    alone.  Row i's report equals that of a run on row i alone given the
    same noise: the same arithmetic, step by step.  Each distinct
    precondition warning is issued once, after epsilon is checked.
    """
    check_epsilon(eps)
    t = halving_rounds(r, tb.q(gamma))
    problems = {}
    for dep in dict.fromkeys(deps.tolist()):
        found = check_preconditions(dep, eps, gamma, t, tb)
        if found:
            problems["halving guarantees not in force: " + "; ".join(found)] = None
    for message in problems:
        warn_precondition(message)
    size = values.shape[1] if counts is None else int(counts[0].sum())
    lo, hi = np.full(len(values), -r), np.full(len(values), r)
    los, his = [lo.tolist()], [hi.tolist()]  # the trace, one list of rows per step
    # each step clips the previous step's output, so the values are clipped
    # in place rather than copied into a new (q, M) array per step
    for step in range(t + 1):
        halving = step < t
        eps_step, beta = (eps / (2.0 * t), gamma / t) if halving else (eps / 2.0, gamma)
        q = tb.q(beta)
        np.clip(values, (lo - q)[:, None], (hi + q)[:, None], out=values)
        # one subset per value sums as it is: a product with ones would cost a pass
        means = np.add.reduce(values if counts is None else values * counts, axis=1) / size
        release, scale = releases(
            LAPLACE, means, deps * ((hi - lo) + 2.0 * q), eps_step, budgets, rngs,
            f"{label}: {'halving' if halving else 'release'} step",
        )
        half = tb.qavg(beta) + scale * math.log(1.0 / beta)
        new_lo, new_hi = release - half, release + half
        if halving:
            # clamping both ends into the last interval intersects the two,
            # and collapses a disjoint one onto the endpoint nearest the release
            new_lo = np.minimum(np.maximum(new_lo, lo), hi)
            new_hi = np.minimum(np.maximum(new_hi, lo), hi)
        lo, hi = new_lo, new_hi
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


def check_data(points: np.ndarray) -> None:
    """Refuse non-finite data points, before any spend."""
    if not np.isfinite(points).all():
        raise ValueError("data points must be finite")


def ustat_means(
    h: Kernel,
    chunks: np.ndarray,
    family: SubsetFamily,
    r: float,
    eps: float,
    gamma: float,
    tb: TailBounds,
    seed,
    budgets: list[PrivacyBudget],
    label: str,
) -> list[EstimateReport]:
    """Private mean of the kernel values over the family on each row of the
    (q, n) ``chunks``, assuming |theta| <= R; row i debits budgets[i] and
    draws from its generator of ``seed`` (``rng.row_generators``).

    Runs t = max(1, ceil(log2(R/Q(gamma)))) halving steps at eps/(2t) each,
    then one release step at eps/2; total budget is exactly eps.  Interval
    widths never grow across the halving steps (each new interval is
    intersected with the previous one); the final release interval stands
    alone, and its midpoint, clamped to [-R, R], is the returned estimate (free
    post-processing that never moves it away from a theta in that range).
    Violated sample-size preconditions produce a warning, not an abort;
    non-finite data points, R or Q(gamma) raise ``ValueError`` before any
    spend.  A kernel value that overflows from finite data is clipped by the
    first step like any outlier.  An equality kernel on a complete family
    runs on the chunks' value counts, with no kernel call.
    """
    check_data(chunks)
    if runs_on_counts(h, family):
        # the kernel is 1 on the sum_j C(c_j, k) subsets inside a class, else 0
        ones = binomials(value_counts(h, chunks, family), family.k).sum(axis=1)
        values = np.tile([0.0, 1.0], (len(chunks), 1))
        counts = np.stack([family.size - ones, ones], axis=1)
    else:
        with np.errstate(over="ignore"):  # the first step clips an overflowing value
            values, counts = chunk_kernel_values(h, chunks, family), None
    deps = np.full(len(chunks), family.dependence_fraction())
    rngs = row_generators(seed, len(chunks))
    return _clip_and_release(values, counts, deps, r, eps, gamma, tb, rngs, budgets, label)


# ---------------------------------------------------------------------------
# the three off-the-shelf estimators
# ---------------------------------------------------------------------------

def naive_estimates(
    h: Kernel,
    chunks: np.ndarray,
    r: float,
    tau: float,
    eps: float,
    seed,
    budgets: list[PrivacyBudget],
) -> list[EstimateReport]:
    """``naive_estimator`` on each row of a (q, n) array of chunks, chunk i
    debiting budgets[i]."""
    n = chunks.shape[1]
    if n < h.degree:
        raise ValueError("need n >= k")
    family = disjoint_chunks(n, h.degree)
    tb = chunk_tail_bounds(tau, family.size)
    return ustat_means(
        h, chunks, family, r, eps, DEFAULT_CONFIDENCE, tb, seed, budgets, "naive"
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
    (report,) = naive_estimates(h, data.points[None], r, tau, eps, seed, [budget])
    return report


def all_tuples_estimates(
    h: Kernel,
    chunks: np.ndarray,
    r: float,
    tau: float,
    eps: float,
    seed,
    budgets: list[PrivacyBudget],
) -> list[EstimateReport]:
    """``all_tuples_estimator`` on each row of a (q, n) array of chunks."""
    n = chunks.shape[1]
    family = all_tuples(n, h.degree)
    tb = chunk_tail_bounds(tau * h.degree, n)  # n chunk values, variance proxy k tau
    return ustat_means(
        h, chunks, family, r, eps, DEFAULT_CONFIDENCE, tb, seed, budgets, "all_tuples"
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
    (report,) = all_tuples_estimates(h, data.points[None], r, tau, eps, seed, [budget])
    return report


def subsampled_estimates(
    h: Kernel,
    chunks: np.ndarray,
    r: float,
    tau: float,
    eps: float,
    size: int,
    seed,
    budgets: list[PrivacyBudget],
) -> list[EstimateReport]:
    """``subsampled_estimator`` on each row of a (q, n) array of chunks.

    Each row's generator of ``seed`` draws its family, in row order, and
    then its noise, so the dependence fraction is per chunk.  The q
    families are evaluated as one family over the concatenated chunks.
    """
    check_data(chunks)
    (q, n), k = chunks.shape, h.degree
    rngs = row_generators(seed, q)
    families = [subsample_family(n, k, size, rng) for rng in rngs]
    if size < (n / k) * math.log(n):
        warn_precondition("subsample size below (n/k) log n; dependence fraction may be large")
    rows = np.concatenate([f.subsets + i * n for i, f in enumerate(families)])
    joint = SubsetFamily(q * n, k, rows, kind="explicit")
    with np.errstate(over="ignore"):  # the first step clips an overflowing value
        values = kernel_values(h, Dataset(chunks.reshape(-1)), joint).reshape(q, size)
    deps = np.array([f.dependence_fraction() for f in families])
    tb = subsampled_tail_bounds(tau, k, n, size)
    return _clip_and_release(
        values, None, deps, r, eps, DEFAULT_CONFIDENCE, tb, rngs, budgets, "subsampled"
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
    (report,) = subsampled_estimates(h, data.points[None], r, tau, eps, size, seed, [budget])
    return report
