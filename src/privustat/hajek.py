"""Private mean estimation by reweighting around local Hájek projections.

The local projection of index i is the average of the kernel over the subsets
containing i.  Indices whose projection strays far from the overall mean are
down-weighted with a linear ramp, every subset inherits the minimum weight of
its members (one rule for every reweight, ``_reweighted_mean``), and the
reweighted mean is released with heavy-tailed noise scaled to a smooth upper
bound on its local sensitivity.  The spread of the projections enters that
bound only through one integer (the smallest t such that at most t indices
deviate beyond a threshold growing linearly in t), which moves by at most 1
under a one-point substitution; that is what makes the bound smooth.

The state is computed for a stack of q summaries of one shape at once
(``SummaryRows``, ``hajek_rows``), as the chunks of a boosted estimate are:
the generic estimator (``private_means_local_hajek``) draws every chunk's
kernel values and projections from one stacked pass over the family, the
count-based collision and triangle summaries stack the same way, and the
smoothness audit stacks one row per multiset.  There is no one-row path: a
single dataset is the one-row stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dp import QUARTIC, PrivacyBudget, releases
from .errors import warn_precondition
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
from .coinpress import naive_estimator, subgaussian_xi

# dead band of the deviations, relative to the largest magnitude in play
_DEAD_BAND = 32.0 * np.finfo(float).eps

# read-only 1.0 behind the weights of a stack with no bad index
_ONE = np.ones(1)
_ONE.flags.writeable = False


@dataclass(frozen=True)
class HajekParams:
    """Knobs of the reweighting estimator.

    ``c_range`` is the additive range of the kernel; ``xi`` the concentration
    radius the projections are expected to respect: one for every row of a
    stack, or a (q,) array with row i's radius.
    """

    eps: float
    c_range: float
    xi: float | np.ndarray

    def __post_init__(self):
        if not 0 < self.eps < math.inf:  # also rejects NaN
            raise ValueError("epsilon must be finite and > 0")
        xi = np.asarray(self.xi, dtype=float)
        if xi.ndim > 1:
            raise ValueError("concentration radius must be a number or one per row")
        # the negated comparisons also reject NaN
        if not (0.0 <= self.c_range < math.inf and np.all((xi >= 0.0) & (xi < math.inf))):
            raise ValueError("range and concentration radius must be finite and >= 0")


def _ramp_edge(xi, c_range: float, k: int, n: int, spread_level):
    """xi + 6kCL/n: the half-width of the interval the weight ramp starts
    outside, and so the threshold that L counts violations of.  Scalars or
    arrays, which broadcast."""
    return xi + 6.0 * k * c_range * spread_level / n


def _spread_levels(
    devs: np.ndarray, xi: list[float], floor: list[float], c_range: float, k: int, n: int
) -> tuple[list[int], np.ndarray]:
    """The spread level L of each row of a (q, n) array of deviations: the
    smallest t >= 1 such that at most t deviations exceed xi + 6kCt/n, with
    row i's radius xi[i].  Also returns the flat indices, in increasing
    order, of the candidates: the deviations over the t = 1 threshold and
    over the row's ``floor``, under which a deviation counts as zero.

    Violation is strict (> the threshold); t = n always qualifies.  The
    thresholds grow with t, so only the candidates can ever violate, and
    t = (their number) always qualifies.  Only the rows with two or more
    candidates are sorted, and only those candidates.
    """
    # every threshold is >= 0, so a deviation over max(threshold, floor)
    # is exactly one over the threshold that is not zeroed by the floor
    first = [max(_ramp_edge(x, c_range, k, n, 1), f) for x, f in zip(xi, floor)]
    over = np.flatnonzero(devs > np.array(first)[:, None])
    levels = [1] * len(xi)
    if over.size < 2:
        return levels, over
    values = devs.reshape(-1)[over]
    starts = np.searchsorted(over, n * np.arange(len(xi) + 1)).tolist()
    for i, (lo, hi) in enumerate(zip(starts, starts[1:])):
        if hi - lo <= 1:
            continue
        tail = np.sort(values[lo:hi])
        ts = np.arange(1, hi - lo + 1)
        thresholds = _ramp_edge(xi[i], c_range, k, n, ts)
        exceed = hi - lo - np.searchsorted(tail, thresholds, side="right")
        levels[i] = int(np.nonzero(exceed <= ts)[0][0] + 1)
    return levels, over


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
    dist = np.maximum(0.0, np.abs(signed_deviations) - _ramp_edge(xi, c_range, k, n, spread_level))
    if c_range == 0.0:
        return (dist == 0.0).astype(float)
    return np.maximum(0.0, 1.0 - (eps * n / (6.0 * c_range * k)) * dist)


def smooth_bound_g(
    xi: float,
    spread_level: int | np.ndarray,
    n: int,
    k: int,
    c_range: float,
    eps: float,
    all_tuples_family: bool,
) -> np.ndarray:
    """Local-sensitivity bound as a function of the spread level L, at every
    entry of the spread levels (and radii) given.

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
    return first + second + third


def smooth_sensitivity(
    xi: np.ndarray,
    spread_level: np.ndarray,
    n: int,
    k: int,
    c_range: float,
    eps: float,
    all_tuples_family: bool,
) -> np.ndarray:
    """max over shifts l in 0..n of exp(-eps l) g(xi, L + l, n) for each of
    equal-length arrays of (xi, L) keys (a lone key is a one-key array).

    A one-point substitution moves L by at most 1, so this is an eps-smooth
    upper bound on the local sensitivity of the reweighted mean.  Every
    key's shifts are one row of a padded array, masked past the key's own
    last shift; each entry is the one a lone key computes, and a maximum
    does not round, so every key's bound is the one it has alone.
    """
    xis = np.asarray(xi, dtype=float).reshape(-1, 1)
    levels = np.asarray(spread_level).reshape(-1, 1)
    # every term of g grows at most like L^3, so once L + l >= 6/eps each
    # further shift multiplies exp(-eps l) g by at most e^(-eps/2) < 1
    last = [min(n, max(0, math.ceil(6.0 / eps - L)) + 1) for L in levels[:, 0].tolist()]
    shifts = np.arange(0, max(last, default=0) + 1)
    g = smooth_bound_g(xis, levels + shifts, n, k, c_range, eps, all_tuples_family)
    terms = np.exp(-eps * shifts) * g
    terms[shifts > np.array(last)[:, None]] = -np.inf
    return terms.max(axis=1, initial=-np.inf)


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

    def take(self, live: list[int]) -> "SummaryRows":
        """The stack of rows ``live`` of this one, in that order."""
        return SummaryRows(
            n=self.n,
            k=self.k,
            a_n=self.a_n[live],
            projections=self.projections[live],
            reweight=lambda j, weights: self.reweight(live[j], weights),
            all_tuples_family=self.all_tuples_family,
        )


# rows of a stored family that one reweight relabels at a time
_RELABEL_ROWS = 1 << 15


def _reweighted_mean(
    h: Kernel, chunk: np.ndarray, family: SubsetFamily, weights: np.ndarray, a_n: float
) -> float:
    """The mean of h(X_S) wt(S) + a_n (1 - wt(S)) over the family on one
    chunk, by the rule the generic, collision and triangle reweights share:
    in ascending weight order (ties by index) a subset takes the weight of
    its earliest member, its smallest.  With the data relabelled in that
    order, S meets the |B| down-weighted indices when its smallest label r
    is below |B|, and adds (w_r - 1)(h(X_S) - a_n) / M; no other S adds.
    Those are a lexicographic prefix of the complete family, whose rows
    serve as labels, so its pass stops in the block that ends the prefix; a
    stored family's rows are relabelled and sorted a slice at a time.  h
    runs on those subsets only.
    """
    order = np.argsort(weights, kind="stable")
    cut = np.count_nonzero(weights < 1.0)
    data, lowered = chunk[order], weights[order[:cut]] - 1.0
    complete, total = family.kind == "all_tuples", 0.0
    if complete:
        blocks = (rows for _, rows in family.blocks())
    else:
        stored, step, label = family.subsets, _RELABEL_ROWS, np.argsort(order)
        blocks = (np.sort(label[stored[lo : lo + step]], axis=1) for lo in range(0, family.size, step))
    for rows in blocks:
        touched = rows[:, 0] < cut
        if touched.any():
            total += float(lowered[rows[touched, 0]] @ (h.evaluate(data[rows[touched]]) - a_n))
        if complete and rows[-1, 0] >= cut:
            break
    return a_n + total / family.size


def summary_from_values(
    h: Kernel, chunks: np.ndarray, family: SubsetFamily, values: np.ndarray, projections: np.ndarray
) -> SummaryRows:
    """The summaries of a (q, n) stack of chunks from their (q, M) kernel
    values, read for the means only (a reweight evaluates h again), and
    their (q, n) local projections."""
    a_n = np.array([row.mean() for row in values])
    return SummaryRows(
        n=family.n,
        k=family.k,
        a_n=a_n,
        projections=projections,
        reweight=lambda i, weights: _reweighted_mean(h, chunks[i], family, weights, float(a_n[i])),
        all_tuples_family=family.kind == "all_tuples",
    )


@dataclass
class HajekRows:
    """Every deterministic quantity of the estimator for each row of a
    ``SummaryRows``, stacked: (q,) means, spread levels L, reweighted means
    and smooth bounds, and (q, n) projections and weights.  Exposed for
    white-box verification; a single dataset is the one-row stack.

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


def hajek_rows(rows: SummaryRows, params: HajekParams) -> HajekRows:
    """All deterministic quantities of the estimator (everything but the
    noise) for every row of the stack.

    Each row's dead band, spread level, edge and bad indices are its own, and
    so is its radius when ``params.xi`` holds one per row.  Only rows with
    bad indices are reweighted, and the smooth bound is evaluated by one
    ``smooth_sensitivity`` call over the distinct (spread level, radius)
    keys.  The per-row scalars are Python floats, computed as for a single
    summary.
    """
    n, k, c_range, eps = rows.n, rows.k, params.c_range, params.eps
    proj, a_n = rows.projections, rows.a_n
    q = a_n.size
    xi = np.asarray(params.xi, dtype=float)
    if xi.ndim and xi.shape != (q,):
        raise ValueError(f"need one concentration radius per row, got {xi.size} for {q}")
    xis = xi.tolist() if xi.ndim else [float(xi)] * q
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
    level, over = _spread_levels(devs, xis, tol, c_range, k, n)
    # every edge is at least the t = 1 threshold, so the bad indices are
    # among the candidates
    edge = np.array([_ramp_edge(x, c_range, k, n, L) for x, L in zip(xis, level)])
    over_devs = devs.reshape(-1)[over]
    bad_at = over_devs > edge[over // n]
    bad = over[bad_at]
    reweighted = a_n.copy()
    if bad.size:
        # the ramp is exactly 1 inside the edge, so only the bad indices need it
        owner = bad // n
        weights = np.ones(devs.shape)
        weights.reshape(-1)[bad] = compute_weights(
            over_devs[bad_at], np.array(xis)[owner], c_range, k, n, np.array(level)[owner], eps
        )
        for i in sorted(set(owner.tolist())):
            reweighted[i] = rows.reweight(i, weights[i])
    else:
        weights = np.ndarray(devs.shape, buffer=_ONE, strides=(0, 0))
    keys = list(dict.fromkeys(zip(level, xis)))
    bounds = smooth_sensitivity(
        np.array([x for _, x in keys]), np.array([L for L, _ in keys], dtype=int),
        n, k, c_range, eps, rows.all_tuples_family,
    )
    bound = dict(zip(keys, bounds.tolist()))
    return HajekRows(
        a_n=a_n,
        projections=proj,
        spread_level=np.array(level),
        bad=bad,
        weights=weights,
        reweighted=reweighted,
        smooth_bound=np.array([bound[key] for key in zip(level, xis)]),
    )


def release_rows(
    rows: SummaryRows,
    params: HajekParams,
    seeds: list,
    budgets: list[PrivacyBudget],
    label: str = "hajek",
) -> list[EstimateReport]:
    """The release of every row of the stack: row i draws from seeds[i] and
    debits budgets[i], exactly as a stack of that row alone.  Each report
    carries the noise scale its value was drawn at and the row's L, number
    of bad indices and smooth bound."""
    states = hajek_rows(rows, params)
    values, scales = releases(
        QUARTIC, states.reweighted, states.smooth_bound, params.eps, budgets, seeds,
        f"{label}: smooth release",
    )
    n_bad = np.bincount(states.bad // rows.n, minlength=len(values))
    return [
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
    rows = summary_from_values(h, chunks, family, *kernel_values_and_projections(h, chunks, family))
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


def degenerate_xi(c_range: float, k: int, n: int, alpha: float) -> float:
    """Concentration radius for bounded degenerate kernels.

    C sqrt((k/n) log(2n/alpha)) + (8Ck/3n) log(2n/alpha); uses the fact that a
    range-C variable has standard deviation at most C/2.
    """
    if c_range < 0:
        raise ValueError(f"kernel range C must be >= 0, got {c_range}")
    if k < 1 or n < 1:
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
        warn_precondition("epsilon below sqrt(k)/n; the pipeline's guarantees assume more budget")
    rng = as_generator(seed)
    n_coarse = n // 2
    if n_coarse < k or (n - n_coarse) < k:
        raise ValueError("not enough data to split into two usable halves")
    if not np.isfinite(data.points).all():
        raise ValueError("data points must be finite")
    coarse_half, fine_half = Dataset(data.points[:n_coarse]), Dataset(data.points[n_coarse:])
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
