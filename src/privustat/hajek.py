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
mean and projections from one stacked pass over the family (``summary_rows``,
which on a complete family keeps no kernel value past its block), the
count-based collision and triangle summaries stack the same way, and the
smoothness audit stacks one row per multiset.  An equality kernel on a
complete family skips the pass: its rows come from value counts
(``count_rows``, which the collision summaries share), with exact integer
binomials up to the last division.  A column stands for its multiplicity of
indices: one, or the count of a value or category.
A stack's release draws each row's noise from its own generator
(``dp.releases``).  There is no one-row path: a single dataset is the one-row stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dp import QUARTIC, PrivacyBudget, check_epsilon, releases
from .errors import warn_precondition
from .report import EstimateReport
from .rng import as_generator
from .ustat import (
    Dataset,
    Kernel,
    SubsetFamily,
    all_tuples,
    binomials,
    clipped_kernel,
    means_and_projections,
    runs_on_counts,
    value_counts,
)
from .coinpress import check_data, naive_estimator, subgaussian_xi

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
        check_epsilon(self.eps)
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
    devs: np.ndarray, multiplicity: np.ndarray, xi: np.ndarray, floor: np.ndarray, c_range: float,
    k: int, n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The spread level L of each row of a (q, u) array of deviations, a
    column standing for its ``multiplicity`` of indices: the smallest t >= 1
    such that at most t indices exceed xi + 6kCt/n, with row i's radius
    xi[i].  Also returns the flat indices, in increasing order, and counts of
    the candidates: the columns over the t = 1 threshold and over the row's
    ``floor``, under which a deviation counts as zero.

    Violation is strict (> the threshold).  The thresholds never fall as t
    grows (C >= 0, and rounding is monotone), so only the candidates can
    ever violate, and exceed(t), their mass over threshold t, never grows:
    exceed(mass) <= L <= mass, the row's candidate mass (L = 1 below 2).
    One bisection over that bracket finds every row's L at once, fixing the
    bits of L - 1 from the highest; each step compares every candidate with
    its row's threshold, from ``_ramp_edge`` itself, and sums the
    multiplicities of those over it per row.  No column expands to indices.
    """
    # every threshold is >= 0, so a deviation over max(threshold, floor)
    # is exactly one over the threshold that is not zeroed by the floor
    over = np.flatnonzero(devs > np.maximum(_ramp_edge(xi, c_range, k, n, 1), floor)[:, None])
    counts = multiplicity.flat[over]
    q, owner, values = xi.size, over // devs.shape[1], devs.reshape(-1)[over]
    # bincount sums in float64 and casts int64 weights at every step, which
    # doubles its cost; the counts are far below 2**53, so exact either way
    weights = counts.astype(np.float64)

    def exceed(t: np.ndarray) -> np.ndarray:
        return np.bincount(owner, weights * (values > _ramp_edge(xi, c_range, k, n, t)[owner]), q)

    mass = np.bincount(owner, weights, q).astype(np.int64)
    # the largest t known to fail, exceed(t) > t: every t below exceed(mass)
    fails = np.maximum(exceed(mass), 1).astype(np.int64) - 1 if mass.max(initial=0) > 1 else 0 * mass
    for bit in reversed(range((int((mass - fails).max(initial=1)) - 1).bit_length())):  # L <= mass
        t = fails + (1 << bit)
        fails = np.where(exceed(t) > t, t, fails)
    return fails + 1, over, counts


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
    upper bound on the local sensitivity of the reweighted mean.  Every key
    scans the same shifts, 0..min(n, ceil(6/eps) + 1), whatever its L: each
    entry is the one a lone key computes, and a maximum does not round, so
    every key's bound is the one it has alone.
    """
    xis = np.asarray(xi, dtype=float).reshape(-1, 1)
    levels = np.asarray(spread_level).reshape(-1, 1)
    # every term of g grows at most like L^3, so once L + l >= 6/eps each
    # further shift multiplies exp(-eps l) g by at most e^(-eps/2) < 1: for
    # every L >= 0 the maximum lies at or before shift ceil(6/eps) + 1
    shifts = np.arange(0, min(n, math.ceil(6.0 / eps) + 1) + 1)
    g = smooth_bound_g(xis, levels + shifts, n, k, c_range, eps, all_tuples_family)
    return (np.exp(-eps * shifts) * g).max(axis=1)


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------

@dataclass
class SummaryRows:
    """q summaries of one kernel/family shape, stacked as rows.

    ``a_n`` is (q,); in the (q, u) ``projections``, column j of row i holds
    the projection of ``multiplicity[i, j]`` of the n indices (none: never
    in L, never bad).  ``reweight(i, weights)`` is row i's reweighted mean
    for its (u,) column weights.
    """

    n: int
    k: int
    a_n: np.ndarray
    projections: np.ndarray
    multiplicity: np.ndarray
    reweight: Callable[[int, np.ndarray], float]
    all_tuples_family: bool

    def take(self, live: list[int]) -> "SummaryRows":
        """The stack of rows ``live`` of this one, in that order."""
        return SummaryRows(
            n=self.n,
            k=self.k,
            a_n=self.a_n[live],
            projections=self.projections[live],
            # a broadcast of one multiplicity per index stays a broadcast
            multiplicity=(
                self.multiplicity[live] if self.multiplicity.strides[0]
                else np.broadcast_to(self.multiplicity[:1], (len(live), self.multiplicity.shape[1]))
            ),
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


def count_rows(counts: np.ndarray, n: int, k: int) -> SummaryRows:
    """The summaries of the equality kernel 1(x_1 = ... = x_k) over every
    k-subset of each row of a stack, from its (q, r) value counts: one
    column per value, its count the multiplicity.

    The counts are exact integers up to the last division.  A row's a_n is
    sum_j C(c_j, k) / C(n, k), and an index in a class of c values has the
    projection C(c - 1, k - 1) / C(n - 1, k - 1), finite for an empty
    column (which stands for no index, so is never in L and never bad).
    The reweight keeps the rule of every reweight (``_reweighted_mean``): in
    stable weight order a subset takes the weight of its earliest class.  So
    class j's own C(c_j, k) subsets (h = 1) take w_j, and so do the
    C(c_j + a, k) - C(a, k) - C(c_j, k) mixed ones (h = 0) drawn from it and
    the a values of the classes after it, with at least one from each.
    """
    same = binomials(counts, k)
    total = math.comb(n, k)
    a_n = same.sum(axis=1) / total

    def reweight(i: int, weights: np.ndarray) -> float:
        # an empty column holds no subset
        occupied = np.flatnonzero(counts[i])
        w, own = weights[occupied], same[i, occupied]
        result = float(np.sum(own * (w + a_n[i] * (1.0 - w))))
        order = np.argsort(w, kind="stable")
        c = counts[i, occupied][order]
        after = n - np.cumsum(c)
        mixed = binomials(c + after, k) - binomials(after, k) - own[order]
        result += a_n[i] * float(np.sum(mixed * (1.0 - w[order])))
        return result / total

    return SummaryRows(
        n=n, k=k, a_n=a_n, projections=binomials(counts - 1, k - 1) / math.comb(n - 1, k - 1),
        multiplicity=counts, reweight=reweight, all_tuples_family=True,
    )


def summary_rows(h: Kernel, chunks: np.ndarray, family: SubsetFamily) -> SummaryRows:
    """The summaries of a (q, n) stack of chunks.  An equality kernel on a
    complete family runs on the rows' value counts (``count_rows``), with no
    kernel call.  Otherwise one pass over the family gives their means and
    local projections, and a reweight evaluates h again on the subsets it
    needs."""
    if runs_on_counts(h, family):
        return count_rows(value_counts(h, chunks, family), family.n, family.k)
    a_n, projections = means_and_projections(h, chunks, family)
    return SummaryRows(
        n=family.n,
        k=family.k,
        a_n=a_n,
        projections=projections,
        multiplicity=np.broadcast_to(np.int64(1), projections.shape),  # a column per index
        reweight=lambda i, weights: _reweighted_mean(h, chunks[i], family, weights, float(a_n[i])),
        all_tuples_family=family.kind == "all_tuples",
    )


@dataclass
class HajekRows:
    """Every deterministic quantity of the estimator for each row of a
    ``SummaryRows``, stacked: (q,) means, spread levels L, bad index counts,
    reweighted means and smooth bounds, and (q, u) projections and weights,
    one per column.  Exposed for white-box verification.

    ``bad`` holds flat indices into the (q, u) ``weights``: row i's bad
    columns, offset by i * u, in increasing order; ``n_bad[i]`` sums their
    multiplicities.
    """

    a_n: np.ndarray
    projections: np.ndarray
    spread_level: np.ndarray
    bad: np.ndarray
    n_bad: np.ndarray
    weights: np.ndarray
    reweighted: np.ndarray
    smooth_bound: np.ndarray


def hajek_rows(rows: SummaryRows, params: HajekParams) -> HajekRows:
    """All deterministic quantities of the estimator (everything but the
    noise) for every row of the stack.

    Each row's dead band, spread level, edge and bad columns are its own, and
    so is its radius when ``params.xi`` holds one per row.  L weighs each
    candidate column by its multiplicity, and every pass is over the columns,
    none over the indices they stand for.  Only rows with bad columns are
    reweighted, and one ``smooth_sensitivity`` call takes every row's
    (radius, spread level) and scans the same shifts for each.  Every per-row
    quantity is computed as it is for a one-row stack.
    """
    n, k, c_range, eps = rows.n, rows.k, params.c_range, params.eps
    proj, a_n = rows.projections, rows.a_n
    q, u = proj.shape
    xi = np.asarray(params.xi, dtype=float)
    if xi.ndim and xi.shape != (q,):
        raise ValueError(f"need one concentration radius per row, got {xi.size} for {q}")
    radii = np.full(q, xi)
    tops, bottoms = proj.max(axis=1, initial=0.0), proj.min(axis=1, initial=0.0)
    if not np.isfinite([a_n, tops, bottoms]).all():
        raise ValueError("kernel values must be finite")
    devs = proj - a_n[:, None]
    np.abs(devs, out=devs)
    # dead-band at the rounding floor so an identically-constant kernel does
    # not manufacture spurious outliers out of 1-ulp projection jitter
    tol = _DEAD_BAND * np.maximum.reduce([np.abs(a_n), tops, -bottoms], initial=1.0)
    levels, over, counts = _spread_levels(devs, rows.multiplicity, radii, tol, c_range, k, n)
    # every edge is at least the t = 1 threshold, so the bad columns are
    # among the candidates; a column that stands for no index is never bad
    edge = _ramp_edge(radii, c_range, k, n, levels)
    over_devs = devs.reshape(-1)[over]
    bad_at = np.logical_and(over_devs > edge[over // u], counts)
    bad = over[bad_at]
    reweighted = a_n.copy()
    if bad.size:
        # the ramp is exactly 1 inside the edge, so only the bad columns need it
        owner = bad // u
        n_bad = np.bincount(owner, counts[bad_at], q).astype(np.int64)
        weights = np.ones(devs.shape)
        weights.reshape(-1)[bad] = compute_weights(
            over_devs[bad_at], radii[owner], c_range, k, n, levels[owner], eps
        )
        for i in sorted(set(owner.tolist())):
            reweighted[i] = rows.reweight(i, weights[i])
    else:
        weights = np.ndarray(devs.shape, buffer=_ONE, strides=(0, 0))
        n_bad = np.zeros(q, dtype=np.int64)
    bound = smooth_sensitivity(radii, levels, n, k, c_range, eps, rows.all_tuples_family)
    return HajekRows(
        a_n=a_n,
        projections=proj,
        spread_level=levels,
        bad=bad,
        n_bad=n_bad,
        weights=weights,
        reweighted=reweighted,
        smooth_bound=bound,
    )


def release_rows(
    rows: SummaryRows,
    params: HajekParams,
    seed,
    budgets: list[PrivacyBudget],
    label: str = "hajek",
) -> list[EstimateReport]:
    """The release of every row of the stack: row i debits budgets[i] and
    draws from its generator of ``seed``.  Each report carries the noise
    scale its value was drawn at and the row's L, number of bad indices and
    smooth bound."""
    states = hajek_rows(rows, params)
    values, scales = releases(
        QUARTIC, states.reweighted, states.smooth_bound, params.eps, budgets, seed,
        f"{label}: smooth release",
    )
    return [
        EstimateReport(
            estimate=value,
            radius=None,
            noise_scale=scale,
            diagnostics={"L": level, "n_bad": count, "smooth_bound": bound},
        )
        for value, scale, level, count, bound in zip(
            values.tolist(), scales.tolist(), states.spread_level.tolist(), states.n_bad.tolist(),
            states.smooth_bound.tolist(),
        )
    ]


def private_means_local_hajek(
    h: Kernel,
    chunks: np.ndarray,
    family: SubsetFamily,
    params: HajekParams,
    seed,
    budgets: list[PrivacyBudget],
) -> list[EstimateReport]:
    """The reweighting estimator on each row of a (q, n) array of chunks:
    row i debits budgets[i] and draws from its generator of ``seed``.

    Every row returns bottom (estimate None) when the family fails the
    incidence regularity conditions; that check depends only on the family,
    never on the data, so it runs once, and refusing costs no privacy and
    spends nothing.  Otherwise one stacked pass gives every row's mean and
    projections, and only the rows with bad indices are reweighted.
    """
    check = family.check_regularity()
    if not check.ok:
        return [
            EstimateReport(
                estimate=None, bottom_reason=check.reason, diagnostics={"regularity": check.reason},
            )
            for _ in budgets
        ]
    return release_rows(summary_rows(h, chunks, family), params, seed, budgets)


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
    (report,) = private_means_local_hajek(h, data.points[None], family, params, seed, [budget])
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
    check_data(data.points)
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
