"""Private mean estimation by reweighting around local Hájek projections.

The local projection of index i is the average of the kernel over the subsets
containing i.  Indices whose projection strays far from the overall mean are
down-weighted with a linear ramp, every subset inherits the minimum weight of
its members, and the reweighted mean is released with heavy-tailed noise
scaled to a smooth upper bound on its local sensitivity.  The spread of the
projections enters that bound only through one integer (the smallest t such
that at most t indices deviate beyond a threshold growing linearly in t),
which moves by at most 1 under a one-point substitution; that is what makes
the bound smooth.

The state is computed for a stack of q summaries of one shape at once
(``SummaryRows``, ``hajek_rows``), as the chunks of a boosted estimate are:
the generic estimator (``private_means_local_hajek``) draws every chunk's
kernel values and projections from one stacked pass over the family, and
the count-based collision summaries stack the same way.  A single summary
is the one-row stack.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dp import SMOOTH_RELEASE_FACTOR, PrivacyBudget, smooth_sensitivity_releases
from .errors import PreconditionWarning
from .report import EstimateReport
from .rng import as_generator
from .ustat import (
    Bounded,
    Dataset,
    Kernel,
    SubsetFamily,
    all_tuples,
    clipped_kernel,
    kernel_values,
    kernel_values_and_projections,
)
from .coinpress import naive_estimator

# dead band of the deviations, relative to the largest magnitude in play
_DEAD_BAND = 32.0 * np.finfo(float).eps


@dataclass(frozen=True)
class HajekParams:
    """Knobs of the reweighting estimator.

    ``c_range`` is the additive range of the kernel; ``xi`` the concentration
    radius the projections are expected to respect.
    """

    eps: float
    c_range: float
    xi: float

    def __post_init__(self):
        if not self.eps > 0:  # also rejects NaN
            raise ValueError("epsilon must be > 0")
        if not (0.0 <= self.c_range < math.inf and 0.0 <= self.xi < math.inf):  # NaN too
            raise ValueError("range and concentration radius must be finite and >= 0")


@dataclass
class HajekState:
    """Intermediate quantities, exposed for white-box verification."""

    a_n: float
    projections: np.ndarray
    spread_level: int  # the integer L
    bad: np.ndarray
    weights: np.ndarray
    reweighted: float
    smooth_bound: float


def _spread_levels(devs: np.ndarray, xi: float, c_range: float, k: int, n: int) -> list[int]:
    """The spread level L of each row of a (q, n) array of deviations: the
    smallest t >= 1 such that at most t deviations exceed xi + 6kCt/n.

    Violation is strict (> the threshold); t = n always qualifies.  The
    thresholds grow with t, so only deviations over the t = 1 threshold can
    ever violate, and t = (their number) always qualifies.  Only the rows
    with two or more deviations over the t = 1 threshold are sorted, and only
    those deviations.
    """
    over = devs > xi + 6.0 * k * c_range * 1 / n
    levels = []
    for i, count in enumerate(over.sum(axis=1).tolist()):
        if count <= 1:
            levels.append(1)
            continue
        tail = np.sort(devs[i][over[i]])
        ts = np.arange(1, count + 1)
        thresholds = xi + 6.0 * k * c_range * ts / n
        exceed = count - np.searchsorted(tail, thresholds, side="right")
        levels.append(int(np.nonzero(exceed <= ts)[0][0] + 1))
    return levels


def compute_weights(
    signed_deviations: np.ndarray,
    xi: float,
    c_range: float,
    k: int,
    n: int,
    spread_level: int,
    eps: float,
) -> np.ndarray:
    """Linear ramp from 1 to 0 outside the interval of half-width xi + 6kCL/n.

    The ramp has slope eps*n/(6Ck) in the distance beyond the interval, so a
    deviation 6Ck/(n*eps) past the edge gets weight 0.  With a zero-range
    kernel the ramp degenerates to the indicator of the interval.
    """
    signed_deviations = np.asarray(signed_deviations, dtype=float)
    edge = xi + 6.0 * k * c_range * spread_level / n
    dist = np.maximum(0.0, np.abs(signed_deviations) - edge)
    if c_range == 0.0:
        return (dist == 0.0).astype(float)
    return np.maximum(0.0, 1.0 - (eps * n / (6.0 * c_range * k)) * dist)


def reweighted_mean(
    values: np.ndarray, family: SubsetFamily, weights: np.ndarray, a_n: float
) -> float:
    """Mean of h(X_S) * wt(S) + a_n * (1 - wt(S)), wt(S) = min weight in S."""
    smallest = Kernel(family.k, lambda t: t.min(axis=1), Bounded(1.0), name="min")
    wt_s = kernel_values(smallest, Dataset(np.asarray(weights, dtype=float)), family)
    return float(np.mean(values * wt_s + a_n * (1.0 - wt_s)))


def smooth_bound_g(
    xi: float,
    spread_level: int | np.ndarray,
    n: int,
    k: int,
    c_range: float,
    eps: float,
    all_tuples_family: bool,
) -> float | np.ndarray:
    """Local-sensitivity bound as a function of the spread level L.

    g(xi, L, n) = (k/n)(xi + kCL/n)(1 + eps L)
                + (k^2 C L^2 min(k, L) / n^2)(eps + k/n)
                + k^2 C / (n^2 eps).
    The complete family admits a tighter overcount correction and drops the
    min(k, L) factor.
    """
    L = np.asarray(spread_level, dtype=float)
    c = c_range
    first = (k / n) * (xi + k * c * L / n) * (1.0 + eps * L)
    overcount = 1.0 if all_tuples_family else np.minimum(float(k), L)
    second = (k**2 * c * L**2 * overcount / n**2) * (eps + k / n)
    third = k**2 * c / (n**2 * eps)
    out = first + second + third
    return float(out) if out.ndim == 0 else out


def smooth_sensitivity(
    xi: float,
    spread_level: int,
    n: int,
    k: int,
    c_range: float,
    eps: float,
    all_tuples_family: bool,
) -> float:
    """max over shifts l in 0..n of exp(-eps l) g(xi, L + l, n).

    A one-point substitution moves L by at most 1, so this is an eps-smooth
    upper bound on the local sensitivity of the reweighted mean.
    """
    # every term of g grows at most like L^3, so once L + l >= 6/eps each
    # further shift multiplies exp(-eps l) g by at most e^(-eps/2) < 1
    last = min(n, max(0, math.ceil(6.0 / eps - spread_level)) + 1)
    shifts = np.arange(0, last + 1)
    g = smooth_bound_g(xi, spread_level + shifts, n, k, c_range, eps, all_tuples_family)
    return float(np.max(np.exp(-eps * shifts) * g))


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------

@dataclass
class SummaryRows:
    """q summaries of one kernel/family shape, stacked as rows.

    ``a_n`` is (q,) and ``projections`` is (q, n); ``reweight(i, weights)``
    is row i's reweighted mean for its (n,) weight vector.
    """

    n: int
    k: int
    a_n: np.ndarray
    projections: np.ndarray
    reweight: Callable[[int, np.ndarray], float]
    all_tuples_family: bool


@dataclass
class UStatSummary:
    """What the release engine needs to know about one kernel/family pair.

    ``reweight`` maps a per-index weight vector to the reweighted mean; the
    generic implementation scans the family, and structured kernels
    (categorical collision, graph triangles) provide count-based equivalents.
    """

    n: int
    k: int
    a_n: float
    projections: np.ndarray
    reweight: Callable[[np.ndarray], float]
    all_tuples_family: bool

    def rows(self) -> SummaryRows:
        """This summary as the one row of a stack."""
        return SummaryRows(
            n=self.n,
            k=self.k,
            a_n=np.array([self.a_n], dtype=float),
            projections=np.asarray(self.projections, dtype=float).reshape(1, self.n),
            reweight=lambda i, weights: self.reweight(weights),
            all_tuples_family=self.all_tuples_family,
        )


def summary_from_values(
    values: np.ndarray, family: SubsetFamily, projections: np.ndarray
) -> UStatSummary:
    """The summary of a family's (M,) kernel values and their local projections."""
    a_n = float(values.mean())
    return UStatSummary(
        n=family.n,
        k=family.k,
        a_n=a_n,
        projections=projections,
        reweight=lambda w: reweighted_mean(values, family, w, a_n),
        all_tuples_family=family.kind == "all_tuples",
    )


@dataclass
class HajekRows:
    """The ``HajekState`` of every row of a ``SummaryRows``, stacked.

    ``bad`` holds flat indices into the (q, n) ``weights``: row i's bad
    indices, offset by i * n, in increasing order.
    """

    a_n: np.ndarray
    projections: np.ndarray
    spread_level: np.ndarray
    bad: np.ndarray
    weights: np.ndarray
    reweighted: np.ndarray
    smooth_bound: np.ndarray

    def row(self, i: int) -> HajekState:
        n = self.weights.shape[1]
        lo, hi = np.searchsorted(self.bad, [i * n, (i + 1) * n])
        return HajekState(
            a_n=float(self.a_n[i]),
            projections=self.projections[i],
            spread_level=int(self.spread_level[i]),
            bad=self.bad[lo:hi] - i * n,
            weights=self.weights[i],
            reweighted=float(self.reweighted[i]),
            smooth_bound=float(self.smooth_bound[i]),
        )


def hajek_rows(rows: SummaryRows, params: HajekParams) -> HajekRows:
    """All deterministic quantities of the estimator (everything but the
    noise) for every row of the stack.

    Each row's dead band, spread level, edge and bad indices are its own;
    only rows with bad indices are reweighted, and the smooth bound is
    evaluated once per distinct spread level.  The per-row scalars are
    Python floats, computed as for a single summary.
    """
    n, k, xi, c_range, eps = rows.n, rows.k, params.xi, params.c_range, params.eps
    proj, a_n = rows.projections, rows.a_n
    means = a_n.tolist()
    tops = proj.max(axis=1, initial=0.0).tolist()
    bottoms = proj.min(axis=1, initial=0.0).tolist()
    if not all(map(math.isfinite, means + tops + bottoms)):
        raise ValueError("kernel values must be finite")
    devs = proj - a_n[:, None]
    np.abs(devs, out=devs)
    # dead-band at the rounding floor so an identically-constant kernel does
    # not manufacture spurious outliers out of 1-ulp projection jitter
    tol = [
        _DEAD_BAND * max(1.0, abs(a), top, -bottom) for a, top, bottom in zip(means, tops, bottoms)
    ]
    devs[devs <= np.array(tol)[:, None]] = 0.0
    level = _spread_levels(devs, xi, c_range, k, n)
    edge = [xi + 6.0 * k * c_range * L / n for L in level]
    bad = np.flatnonzero(devs > np.array(edge)[:, None])
    # the ramp is exactly 1 inside the edge, so only the bad indices need it
    weights = np.ones(devs.shape)
    reweighted = a_n.copy()
    if bad.size:
        owner = bad // n
        weights.reshape(-1)[bad] = compute_weights(
            devs.reshape(-1)[bad], xi, c_range, k, n, np.array(level)[owner], eps
        )
        for i in sorted(set(owner.tolist())):
            reweighted[i] = rows.reweight(i, weights[i])
    bound = {
        L: smooth_sensitivity(xi, L, n, k, c_range, eps, rows.all_tuples_family) for L in set(level)
    }
    return HajekRows(
        a_n=a_n,
        projections=proj,
        spread_level=np.array(level),
        bad=bad,
        weights=weights,
        reweighted=reweighted,
        smooth_bound=np.array([bound[L] for L in level]),
    )


def hajek_state(summary: UStatSummary, params: HajekParams) -> HajekState:
    """All deterministic quantities of the estimator (everything but the noise)."""
    return hajek_rows(summary.rows(), params).row(0)


def release_rows(
    rows: SummaryRows,
    params: HajekParams,
    seeds: list,
    budgets: list[PrivacyBudget],
    label: str = "hajek",
) -> list[EstimateReport]:
    """The release of every row of the stack: row i draws from seeds[i] and
    debits budgets[i], exactly as a stack of that row alone.  A single
    release also carries its whole ``HajekState`` as ``diagnostics["state"]``."""
    states = hajek_rows(rows, params)
    values = smooth_sensitivity_releases(
        states.reweighted, states.smooth_bound, params.eps, budgets, seeds,
        label=f"{label}: smooth release",
    )
    scales = SMOOTH_RELEASE_FACTOR * states.smooth_bound / params.eps
    n_bad = np.bincount(states.bad // rows.n, minlength=len(values))
    reports = [
        EstimateReport(
            estimate=value,
            radius=None,
            noise_scale=scale,
            diagnostics={"L": level, "n_bad": count, "smooth_bound": bound},
        )
        for value, scale, level, count, bound in zip(
            values.tolist(), scales.tolist(), states.spread_level.tolist(), n_bad.tolist(),
            states.smooth_bound.tolist(),
        )
    ]
    if len(reports) == 1:
        reports[0].diagnostics["state"] = states.row(0)
    return reports


def release_from_summary(
    summary: UStatSummary,
    params: HajekParams,
    seed,
    budget: PrivacyBudget,
    label: str = "hajek",
) -> EstimateReport:
    (report,) = release_rows(summary.rows(), params, [seed], [budget], label)
    return report


def private_means_local_hajek(
    h: Kernel,
    chunks: np.ndarray,
    family: SubsetFamily,
    params: HajekParams,
    seeds: list,
    budgets: list[PrivacyBudget],
) -> list[EstimateReport]:
    """The reweighting estimator on each row of a (q, n) array of chunks:
    row i draws from seeds[i] and debits budgets[i].

    Every row returns bottom (estimate None) when the family fails the
    incidence regularity conditions; that check depends only on the family,
    never on the data, so it runs once, and refusing costs no privacy and
    spends nothing.  Otherwise one stacked pass gives every row's kernel
    values and projections, and only the rows with bad indices are
    reweighted.
    """
    check = family.check_regularity()
    if not check.ok:
        return [
            EstimateReport(
                estimate=None, bottom_reason=check.reason, diagnostics={"regularity": check.reason},
            )
            for _ in seeds
        ]
    values, projections = kernel_values_and_projections(h, chunks, family)
    a_n = np.array([row.mean() for row in values])
    rows = SummaryRows(
        n=family.n,
        k=family.k,
        a_n=a_n,
        projections=projections,
        reweight=lambda i, weights: reweighted_mean(values[i], family, weights, float(a_n[i])),
        all_tuples_family=family.kind == "all_tuples",
    )
    return release_rows(rows, params, seeds, budgets)


def private_mean_local_hajek(
    h: Kernel,
    data: Dataset,
    family: SubsetFamily,
    params: HajekParams,
    seed,
    budget: PrivacyBudget,
) -> EstimateReport:
    """Run the reweighting estimator on a kernel/dataset/family triple: the
    one-chunk stack of ``private_means_local_hajek``."""
    (report,) = private_means_local_hajek(h, data.points[None], family, params, [seed], [budget])
    return report


# ---------------------------------------------------------------------------
# parameter selection for the two kernel classes
# ---------------------------------------------------------------------------

# half-width of the pipeline's clipping band, in units of sqrt(k tau log(n/alpha))
PIPELINE_CLIP_FACTOR = 4.0


def subgaussian_xi(tau: float, n: int, alpha: float) -> float:
    """Concentration radius for sub-Gaussian kernels: sqrt(2 tau log(2n/alpha))."""
    return math.sqrt(2.0 * tau * math.log(2.0 * n / alpha))


def degenerate_xi(c_range: float, k: int, n: int, alpha: float) -> float:
    """Concentration radius for bounded degenerate kernels.

    C sqrt((k/n) log(2n/alpha)) + (8Ck/3n) log(2n/alpha); uses the fact that a
    range-C variable has standard deviation at most C/2.
    """
    if c_range < 0 or k < 1 or n < 1:
        raise ValueError("bad parameters")
    log_term = math.log(2.0 * n / alpha)
    return c_range * math.sqrt((k / n) * log_term) + (8.0 * c_range * k / (3.0 * n)) * log_term


def subgaussian_pipeline(
    h: Kernel,
    data: Dataset,
    r: float,
    tau: float,
    eps: float,
    alpha: float,
    seed,
    budget: PrivacyBudget,
) -> EstimateReport:
    """Two-stage estimator for unbounded sub-Gaussian kernels.

    Half the data buys a coarse private mean at eps/2; the kernel is clipped
    to a band of half-width PIPELINE_CLIP_FACTOR * sqrt(k tau log(n/alpha))
    around it, which makes the reweighting estimator applicable on the other
    half at eps/2.  Total budget: exactly eps.  Non-finite data points raise
    ``ValueError`` before any spend.
    """
    n, k = data.n, h.degree
    if eps < math.sqrt(k) / n:
        warnings.warn(
            "epsilon below sqrt(k)/n; the pipeline's guarantees assume more budget",
            PreconditionWarning,
            stacklevel=2,
        )
    rng = as_generator(seed)
    n_coarse = n // 2
    if n_coarse < k or (n - n_coarse) < k:
        raise ValueError("not enough data to split into two usable halves")
    if not np.isfinite(data.points).all():
        raise ValueError("data points must be finite")
    coarse_half = data.subset(np.arange(n_coarse))
    fine_half = data.subset(np.arange(n_coarse, n))
    coarse = naive_estimator(h, coarse_half, r, tau, eps / 2.0, rng, budget)
    half_width = PIPELINE_CLIP_FACTOR * math.sqrt(k * tau * math.log(n / alpha))
    clipped = clipped_kernel(h, coarse.estimate - half_width, coarse.estimate + half_width)
    params = HajekParams(
        eps=eps / 2.0,
        c_range=2.0 * half_width,
        xi=subgaussian_xi(tau, fine_half.n, alpha),
    )
    family = all_tuples(fine_half.n, k)
    report = private_mean_local_hajek(clipped, fine_half, family, params, rng, budget)
    report.diagnostics["coarse_estimate"] = coarse.estimate
    report.diagnostics["clip_halfwidth"] = half_width
    return report
