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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dp import SMOOTH_RELEASE_FACTOR, PrivacyBudget, smooth_sensitivity_release
from .errors import PreconditionWarning
from .report import EstimateReport
from .rng import as_generator
from .ustat import (
    Dataset,
    Kernel,
    SubsetFamily,
    all_tuples,
    clipped_kernel,
    kernel_values_and_projections,
)
from .coinpress import naive_estimator


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


def compute_L(deviations: np.ndarray, xi: float, c_range: float, k: int, n: int) -> int:
    """Smallest t >= 1 such that at most t deviations exceed xi + 6kCt/n.

    Violation is strict (> the threshold); t = n always qualifies.  The
    thresholds grow with t, so only deviations over the t = 1 threshold can
    ever violate, and t = (their number) always qualifies.
    """
    deviations = np.asarray(deviations, dtype=float)
    if deviations.size != n:
        raise ValueError("need one deviation per index")
    if c_range < 0:
        raise ValueError("range must be >= 0, or the thresholds would shrink with t")
    over = deviations[deviations > xi + 6.0 * k * c_range * 1 / n]
    if over.size <= 1:
        return 1
    ts = np.arange(1, over.size + 1)
    thresholds = xi + 6.0 * k * c_range * ts / n
    exceed = over.size - np.searchsorted(np.sort(over), thresholds, side="right")
    return int(np.nonzero(exceed <= ts)[0][0] + 1)


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
    weights = np.asarray(weights, dtype=float)
    wt_s = np.empty(family.size)
    for start, rows in family.blocks():
        wt_s[start : start + rows.shape[0]] = weights[rows].min(axis=1)
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


def hajek_state(summary: UStatSummary, params: HajekParams) -> HajekState:
    """All deterministic quantities of the estimator (everything but the noise)."""
    n, k = summary.n, summary.k
    proj, a_n = summary.projections, summary.a_n
    top, bottom = float(proj.max(initial=0.0)), float(proj.min(initial=0.0))
    if not (math.isfinite(a_n) and math.isfinite(top) and math.isfinite(bottom)):
        raise ValueError("kernel values must be finite")
    devs = proj - a_n
    np.abs(devs, out=devs)
    # dead-band at the rounding floor so an identically-constant kernel does
    # not manufacture spurious outliers out of 1-ulp projection jitter
    tol = 32.0 * np.finfo(float).eps * max(1.0, abs(a_n), top, -bottom)
    devs[devs <= tol] = 0.0
    level = compute_L(devs, params.xi, params.c_range, k, n)
    edge = params.xi + 6.0 * k * params.c_range * level / n
    bad = np.flatnonzero(devs > edge)
    # the ramp is exactly 1 inside the edge, so only the bad indices need it
    weights = np.ones(n)
    weights[bad] = compute_weights(devs[bad], params.xi, params.c_range, k, n, level, params.eps)
    reweighted = summary.reweight(weights) if bad.size else a_n
    bound = smooth_sensitivity(
        params.xi, level, n, k, params.c_range, params.eps, summary.all_tuples_family
    )
    return HajekState(
        a_n=a_n,
        projections=proj,
        spread_level=level,
        bad=bad,
        weights=weights,
        reweighted=reweighted,
        smooth_bound=bound,
    )


def release_from_summary(
    summary: UStatSummary,
    params: HajekParams,
    seed,
    budget: PrivacyBudget,
    label: str = "hajek",
) -> EstimateReport:
    state = hajek_state(summary, params)
    value = smooth_sensitivity_release(
        state.reweighted,
        state.smooth_bound,
        params.eps,
        budget,
        seed,
        label=f"{label}: smooth release",
    )
    return EstimateReport(
        estimate=value,
        radius=None,
        noise_scale=SMOOTH_RELEASE_FACTOR * state.smooth_bound / params.eps,
        diagnostics={
            "L": state.spread_level,
            "n_bad": int(state.bad.size),
            "smooth_bound": state.smooth_bound,
            "state": state,
        },
    )


def private_mean_local_hajek(
    h: Kernel,
    data: Dataset,
    family: SubsetFamily,
    params: HajekParams,
    seed,
    budget: PrivacyBudget,
) -> EstimateReport:
    """Run the reweighting estimator on a kernel/dataset/family triple.

    Returns bottom (estimate None) when the family fails the incidence
    regularity conditions; that check depends only on the family, never on
    the data, so refusing costs no privacy and spends nothing.
    """
    check = family.check_regularity()
    if not check.ok:
        return EstimateReport(
            estimate=None, bottom_reason=check.reason, diagnostics={"regularity": check.reason},
        )
    values, projections = kernel_values_and_projections(h, data, family)
    summary = summary_from_values(values, family, projections)
    return release_from_summary(summary, params, seed, budget)


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
