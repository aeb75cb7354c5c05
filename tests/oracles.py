"""Oracles and fixtures that only the tests use: brute-force sensitivities,
a Monte Carlo θ, closed forms, explicit families, the one-chunk adapter,
the record and replay of a stack's noise by chunk, the kernel pass
that the equality kernels' count route is checked against (and the value
column of each entry), the per-chunk loop
form of ``median_of_means``, the per-trial loop form of the experiment
runner, the majority-vote form
of the boosted uniformity test, the two-release form of the triangle
density, the full-scan forms of the spread level and the Hájek state, the
expansion of a letter-level collision stack and its state to one column
per index, the copying clip step of ``ustat_means``, the per-row Floyd draw of
``subsample_family``, the index-then-gather form of the complete-family
engine (kernel values, stacked chunks, projections with scanned prefix runs),
the per-column bincount and exact fsum forms of the projections, the
reweighted mean in exact rationals over every subset (with the bound a float
reweight must meet) and in floats over every subset, the loop form of the
collision reweight, the dense adjacency, triangle values and enumerated
per-node triangle counts of a graph, the per-line file readers, the loop
forms of the audits, the quartic sampler and its CDF, the sorted-input
Laplace CDF, a constant kernel, and the U-statistic variance calculus
(conditional variances, Hoeffding components, exact variance)."""

import itertools
import math
import statistics
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

import numpy as np
import pytest

import privustat.hajek
from privustat import applications, coinpress, dp
from privustat.applications import GeometricGraph, boosted_uniformity_test, triangle_rows
from privustat.boosting import BoostPlan
from privustat.report import EstimateReport
from privustat.coinpress import IntervalState, TailBounds, halving_rounds
from privustat.dp import (
    _CDF_SERIES_FROM,
    _RATIO_BLOCK,
    LAPLACE,
    QUARTIC_NORMALIZER,
    PrivacyBudget,
    laplace_draws,
    quartic_cdf,
    releases,
    scratch_budget,
)
from privustat.errors import AuditFailure, PrivustatError
from privustat.hajek import (
    HajekParams,
    HajekRows,
    SummaryRows,
    compute_weights,
    hajek_rows,
    release_rows,
    smooth_bound_g,
    smooth_sensitivity,
    summary_rows,
)
from privustat.harness.audits import SmoothnessReport
from privustat.harness.experiments import ResultRow, build_kernel, check_trial_ledger, run_cell
from privustat.rng import as_generator, row_generators, stream
from privustat.ustat import (
    Bounded,
    Dataset,
    Kernel,
    SubsetFamily,
    all_tuples,
    collision_kernel,
    kernel_values,
    means_and_projections,
)


class EmptyIncidence(PrivustatError):
    """An index appears in no subset of the family."""


class DegeneracyMismatch(PrivustatError):
    """Degenerate variance formula requested but the first conditional variance is nonzero."""


class NegativeDeltaWarning(UserWarning):
    """A Hoeffding component variance computed from empirical inputs is negative."""


def brute_force_local_sensitivity(
    f: Callable[[np.ndarray], float], points: np.ndarray, alphabet: Iterable
) -> float:
    """max over one-point substitutions of |f(D) - f(D')| at this dataset."""
    points = np.asarray(points)
    base = float(f(points))
    worst = 0.0
    for i in range(points.shape[0]):
        original = points[i]
        for a in alphabet:
            if a == original:
                continue
            mutated = points.copy()
            mutated[i] = a
            worst = max(worst, abs(base - float(f(mutated))))
    return worst


def brute_force_global_sensitivity(
    f: Callable[[np.ndarray], float], n: int, alphabet
) -> float:
    """max local sensitivity over every dataset from a finite alphabet (tiny n only)."""
    import itertools

    alphabet = list(alphabet)
    worst = 0.0
    for combo in itertools.product(alphabet, repeat=n):
        arr = np.asarray(combo)
        worst = max(worst, brute_force_local_sensitivity(f, arr, alphabet))
    return worst


def rgg_triangle_theta(radius: float, draws: int, seed) -> float:
    """Monte Carlo oracle for the expected triangle indicator at a given radius."""
    rng = as_generator(seed)
    theta_hat = 0.0
    threshold = 1.0 - radius**2 / 2.0
    done = 0
    batch = 200_000
    while done < draws:
        take = min(batch, draws - done)
        pts = rng.standard_normal((take, 3, 3))
        pts /= np.linalg.norm(pts, axis=2, keepdims=True)
        d01 = np.einsum("ij,ij->i", pts[:, 0], pts[:, 1]) >= threshold
        d02 = np.einsum("ij,ij->i", pts[:, 0], pts[:, 2]) >= threshold
        d12 = np.einsum("ij,ij->i", pts[:, 1], pts[:, 2]) >= threshold
        theta_hat += float(np.sum(d01 & d02 & d12))
        done += take
    return theta_hat / draws


def dense_triangles_per_node(adjacency: np.ndarray) -> np.ndarray:
    """Triangles through each node from the dense float64 A @ A (exact below 2^53)."""
    a = np.asarray(adjacency, dtype=np.float64)
    return np.einsum("ij,ji->i", a @ a, a) / 2.0


def full_range_smooth_sensitivity(xi, spread_level, n, k, c_range, eps, all_tuples_family) -> float:
    """max over every shift l in 0..n of exp(-eps l) g(xi, L + l, n)."""
    shifts = np.arange(0, n + 1)
    g = smooth_bound_g(xi, spread_level + shifts, n, k, c_range, eps, all_tuples_family)
    return float(np.max(np.exp(-eps * shifts) * g))


def per_key_smooth_sensitivity(xi, spread_level, n, k, c_range, eps, all_tuples_family) -> float:
    """max over shifts l in 0..last of exp(-eps l) g(xi, L + l, n) for one
    key alone, with last = min(n, max(0, ceil(6/eps - L)) + 1)."""
    last = min(n, max(0, math.ceil(6.0 / eps - spread_level)) + 1)
    shifts = np.arange(0, last + 1)
    g = smooth_bound_g(xi, spread_level + shifts, n, k, c_range, eps, all_tuples_family)
    return float(np.max(np.exp(-eps * shifts) * g))


def full_scan_compute_L(deviations, xi: float, c_range: float, k: int, n: int) -> int:
    """The spread level L over all n deviations: one threshold per t = 1..n."""
    deviations = np.asarray(deviations, dtype=float)
    ts = np.arange(1, n + 1)
    thresholds = xi + 6.0 * k * c_range * ts / n
    exceed = n - np.searchsorted(np.sort(deviations), thresholds, side="right")
    return int(np.nonzero(exceed <= ts)[0][0] + 1)


def row_state(rows: SummaryRows, params: HajekParams) -> HajekRows:
    """The ``HajekRows`` of a one-row stack."""
    assert rows.a_n.shape == (1,), "row_state takes a one-row stack"
    return hajek_rows(rows, params)


def stack_row(states: HajekRows, i: int) -> HajekRows:
    """Row i of a stack's ``HajekRows``, as the ``HajekRows`` of a one-row
    stack: its bad columns lose their offset i * u."""
    u = states.weights.shape[1]
    lo, hi = np.searchsorted(states.bad, [i * u, (i + 1) * u])
    one = slice(i, i + 1)
    return HajekRows(
        a_n=states.a_n[one],
        projections=states.projections[one],
        spread_level=states.spread_level[one],
        bad=states.bad[lo:hi] - i * u,
        n_bad=states.n_bad[one],
        weights=states.weights[one],
        reweighted=states.reweighted[one],
        smooth_bound=states.smooth_bound[one],
    )


def full_scan_hajek_state(rows: SummaryRows, params: HajekParams) -> HajekRows:
    """``row_state`` with the full-scan spread level and the ramp over all n."""
    n, k = rows.n, rows.k
    a_n, projections = float(rows.a_n[0]), rows.projections[0]
    signed = projections - a_n
    tol = 32.0 * np.finfo(float).eps * max(
        1.0, abs(a_n), float(np.max(np.abs(projections), initial=0.0))
    )
    signed = np.where(np.abs(signed) <= tol, 0.0, signed)
    devs = np.abs(signed)
    level = full_scan_compute_L(devs, params.xi, params.c_range, k, n)
    edge = params.xi + 6.0 * k * params.c_range * level / n
    bad = np.nonzero(devs > edge)[0]
    weights = compute_weights(signed, params.xi, params.c_range, k, n, level, params.eps)
    return HajekRows(
        a_n=rows.a_n,
        projections=rows.projections,
        spread_level=np.array([level]),
        bad=bad,
        n_bad=np.array([bad.size]),
        weights=weights[None],
        reweighted=np.array([rows.reweight(0, weights) if bad.size else a_n]),
        smooth_bound=smooth_sensitivity(
            np.array([params.xi]), np.array([level]), n, k, params.c_range, params.eps,
            rows.all_tuples_family,
        ),
    )


def index_level_rows(rows: SummaryRows, labels: np.ndarray) -> SummaryRows:
    """A letter-level collision stack (one column per category, its count as
    the multiplicity) expanded through its (q, n) labels to one column per
    index, the form the per-index collision stack had: index j of row i gets
    the projection of category labels[i, j], and a reweight maps its (n,)
    index weights, constant within a category, to the (m,) category weights
    the letter-level reweight takes."""
    labels = np.asarray(labels)
    q, m = rows.projections.shape
    for i in range(q):
        assert np.array_equal(np.bincount(labels[i], minlength=m), rows.multiplicity[i])

    def reweight(i: int, weights: np.ndarray) -> float:
        w_cat = np.ones(m)
        w_cat[labels[i]] = weights
        return rows.reweight(i, w_cat)

    return SummaryRows(
        n=rows.n, k=rows.k, a_n=rows.a_n, projections=np.take_along_axis(rows.projections, labels, 1),
        multiplicity=np.broadcast_to(np.int64(1), labels.shape), reweight=reweight,
        all_tuples_family=rows.all_tuples_family,
    )


def index_level_state(states: HajekRows, labels: np.ndarray) -> HajekRows:
    """The ``HajekRows`` of a letter-level collision stack expanded through
    its (q, n) labels, as ``index_level_rows`` expands the stack: (q, n)
    projections and weights, and ``bad`` the flat (q, n) indices whose
    category column is bad.  L, ``n_bad``, the means and bounds stay."""
    labels = np.asarray(labels)
    q, m = states.projections.shape
    return replace(
        states,
        projections=np.take_along_axis(states.projections, labels, 1),
        bad=np.flatnonzero(np.isin(labels + m * np.arange(q)[:, None], states.bad)),
        weights=np.take_along_axis(states.weights, labels, 1),
    )


def loop_collision_reweight(x: np.ndarray, m: int, weights: np.ndarray) -> float:
    """Collision reweighted mean by a loop over the occupied categories, each
    against every later one (quadratic in their number)."""
    n = x.size
    counts = np.bincount(x, minlength=m)
    pairs_total = n * (n - 1) // 2
    same_pairs = counts * (counts - 1) // 2
    a_n = float(same_pairs.sum() / pairs_total)
    w_cat = np.ones(m)
    w_cat[x] = weights
    occupied = np.nonzero(counts)[0]
    wc = w_cat[occupied]
    sp = same_pairs[occupied]
    total = float(np.sum(sp * (wc + a_n * (1.0 - wc))))
    cnt = counts[occupied].astype(float)
    for idx in range(occupied.size - 1):
        w_pair = np.minimum(wc[idx], wc[idx + 1 :])
        total += float(np.sum(cnt[idx] * cnt[idx + 1 :] * a_n * (1.0 - w_pair)))
    return total / pairs_total


def dense_triangle_values(adjacency: np.ndarray) -> np.ndarray:
    """The triangle indicator of every node triple, in the complete family's
    lexicographic order."""
    a = np.asarray(adjacency, dtype=bool)
    rows = all_tuples(a.shape[0], 3).subsets
    return (a[rows[:, 0], rows[:, 1]] & a[rows[:, 0], rows[:, 2]] & a[rows[:, 1], rows[:, 2]]).astype(float)


def enumerated_later_triangles(adjacency: np.ndarray, low: np.ndarray) -> np.ndarray:
    """For each node of ``low``, in order, the triangles whose earliest
    member in the order (``low``, then every other node) is that node: a
    scan of every node triple."""
    position = np.full(adjacency.shape[0], low.size)
    position[low] = np.arange(low.size)
    first = position[all_tuples(adjacency.shape[0], 3).subsets].min(axis=1)
    return np.bincount(first[(dense_triangle_values(adjacency) == 1.0) & (first < low.size)], minlength=low.size)


# How far a float reweight may miss the exact one.  The library forms it as
# a_n + (1/M) times a sum of N terms (w - 1) d: one per subset that meets the
# down-weighted indices, with d = h(S) - a_n (generic path), or one per
# down-weighted node v, with d = t_v - a_n C(n - 1 - r, 2) (triangle path;
# t_v and the binomial are exact integers).  With u = eps / 2, w - 1, a_n C,
# d and the product each round at most once, so a term is off by at most
# 4u (1 - w) times the sum over its subsets of |h(S)| + |a_n|.  Summing N
# terms in any order adds at most (N - 1) u times the sum of their
# magnitudes (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
# ed., section 4.2); the division by M rounds once more, and the addition
# of a_n once relative to the result.  With T the sum over the subsets that
# meet the down-weighted indices of (1 - wt(S))(|h(S)| + |a_n|),
#     |got - exact| <= (N + 4) u T / M + u |exact| + O(u^2).
# The tests allow twice that, (N + 4) eps T / M + eps |exact|, which covers
# the second-order terms.  The bound is relative to the terms, not to the
# result, because the terms can cancel.
REWEIGHT_EPS = Fraction(float(np.finfo(float).eps))


class ExactReweight(NamedTuple):
    value: Fraction  # the reweighted mean
    magnitude: Fraction  # T / M, see REWEIGHT_EPS
    touched: int  # subsets that meet a down-weighted index

    def admits(self, got: float, terms: int) -> bool:
        """Whether a float reweight that sums ``terms`` terms is within the
        derived bound of this one."""
        bound = (terms + 4) * REWEIGHT_EPS * self.magnitude + REWEIGHT_EPS * abs(self.value)
        return abs(Fraction(got) - self.value) <= bound


def exact_reweighted_mean(
    values: np.ndarray, family: SubsetFamily, weights: np.ndarray, a_n: float
) -> ExactReweight:
    """(1/M) sum over every subset S of h(S) wt(S) + a_n (1 - wt(S)), with
    wt(S) the smallest weight in S, in exact rationals: the definition, with
    no rule for which subsets may be skipped.  The generic, collision and
    triangle reweights all take wt(S) as the weight of S's earliest member
    in ascending weight order, which is that smallest weight.  Subsets with
    equal (h, wt) are counted and summed once."""
    wt = np.concatenate([np.asarray(weights)[rows].min(axis=1) for _, rows in family.blocks()])
    # one complex key per subset: a 1-D unique sorts far faster than rows
    pairs, counts = np.unique(values + 1j * wt, return_counts=True)
    a = Fraction(a_n)
    value = magnitude = Fraction(0)
    touched = 0
    for pair, count in zip(pairs.tolist(), counts.tolist()):
        h, w = Fraction(pair.real), Fraction(pair.imag)
        value += count * (h * w + a * (1 - w))
        magnitude += count * (1 - w) * (abs(h) + abs(a))
        touched += count if w < 1 else 0
    return ExactReweight(value / family.size, magnitude / family.size, touched)


def ustat_one_step(
    values: np.ndarray,
    family: SubsetFamily,
    interval: IntervalState,
    eps_step: float,
    beta: float,
    tb: TailBounds,
    seed,
) -> tuple[np.ndarray, IntervalState]:
    """One clip-release-recenter refinement that copies its input.

    Clips each value to [lo - Q(beta), hi + Q(beta)] into a new array
    (``values`` is left as it is), releases its mean through ``releases``
    with Laplace noise of scale dep * (hi - lo + 2 Q(beta)) / eps_step on a
    scratch ledger, and returns the clipped values and the unintersected
    interval: half-width Qavg(beta) + scale log(1/beta) around the release.
    """
    q = tb.q(beta)
    clipped = np.clip(values, interval.lo - q, interval.hi + q)
    sensitivity = family.dependence_fraction() * (interval.width + 2.0 * q)
    (release,), (scale,) = releases(
        LAPLACE, [np.add.reduce(clipped) / clipped.size], [sensitivity], eps_step,
        [scratch_budget()], seed, "one step",
    )
    half = tb.qavg(beta) + scale * math.log(1.0 / beta)
    return clipped, IntervalState(float(release - half), float(release + half))


def copy_clipping_ustat_mean(h, data, family, r, eps, gamma, tb, seed) -> list:
    """The interval trace of ``ustat_means``' loop on one dataset, each step
    through the copying ``ustat_one_step``; its last interval is the release
    interval."""
    rng = as_generator(seed)
    values = kernel_values(h, data, family)
    t = halving_rounds(r, tb.q(gamma))
    interval = IntervalState(-r, r)
    trace = [interval]
    for _ in range(t):
        values, raw = ustat_one_step(values, family, interval, eps / (2.0 * t), gamma / t, tb, rng)
        lo, hi = max(interval.lo, raw.lo), min(interval.hi, raw.hi)
        if lo > hi:
            lo = hi = min(max(raw.midpoint, interval.lo), interval.hi)
        interval = IntervalState(lo, hi)
        trace.append(interval)
    values, final = ustat_one_step(values, family, interval, eps / 2.0, gamma, tb, rng)
    return trace + [final]


def each_chunk(estimator):
    """The chunk estimator that runs ``estimator(chunk, rng, budget)`` on
    each chunk in turn, each on its row's generator; a row of a dataset's
    chunk array is passed as a ``Dataset``."""

    def run(chunks, seed, budgets: list[PrivacyBudget]) -> list[EstimateReport]:
        if isinstance(chunks, np.ndarray):
            chunks = [Dataset(row) for row in chunks]
        rngs = row_generators(seed, len(budgets))
        return [estimator(c, rng, b) for c, rng, b in zip(chunks, rngs, budgets)]

    return run


def live_groups(seed, live: list[bool]) -> list[list[int]]:
    """The live rows of a release as ``dp.releases`` draws them: one group
    per distinct generator of ``seed``, in the order of its first live row,
    each group in row order."""
    rngs = row_generators(seed, len(live))
    groups: dict[int, list[int]] = {}
    for row, alive in enumerate(live):
        if alive:
            groups.setdefault(id(rngs[row]), []).append(row)
    return list(groups.values())


class StackNoise:
    """The noise of one stacked run, filed by chunk, to replay to the same
    chunks run one at a time.

    While ``recording``, every ``dp.releases`` call of the package (and of
    these oracles) draws as usual, from the law's own sampler, and files
    each live row's draw under that row's chunk; a row of scale zero files
    None.  ``generators`` keeps, for every recorded release, the Generator
    that each live row drew from, in row order.  While ``replaying``, the
    j-th release of chunk c adds the j-th draw filed under c in place of a
    draw of its own, and the block must use up every filed draw.  A chunk is known by its branch ledger, numbered in the
    order ``PrivacyBudget.parallel`` hands them out: chunk order, both in
    ``median_of_means`` and in the loops below.
    """

    def __init__(self):
        self.filed: dict[int, list] = {}
        self.generators: list = []

    @contextmanager
    def _routed(self, release):
        ledgers = []
        branch = dp._ParallelBranches.branch

        def numbered(branches):
            ledgers.append(branch(branches))
            return ledgers[-1]

        def chunk_of(budget) -> int:
            return next(c for c, ledger in enumerate(ledgers) if ledger is budget)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dp._ParallelBranches, "branch", numbered)
            for module in (coinpress, privustat.hajek, applications, sys.modules[__name__]):
                mp.setattr(module, "releases", lambda law, *args: release(chunk_of, law, *args))
            yield

    def recording(self):
        def release(chunk_of, law, values, sensitivities, eps, budgets, seed, label):
            drawn = []

            def draws(size, rng):
                drawn.append((rng, law.draws(size, rng)))
                return drawn[-1][1]

            out, scales = dp.releases(
                dp.NoiseLaw(draws, law.cdf, law.factor), values, sensitivities, eps, budgets, seed,
                label,
            )
            noise, rngs = [None] * len(budgets), [None] * len(budgets)
            for rows, (rng, z) in zip(live_groups(seed, scales.tolist()), drawn, strict=True):
                for row, value in zip(rows, z.tolist(), strict=True):
                    noise[row], rngs[row] = value, rng
            for budget, value in zip(budgets, noise):
                self.filed.setdefault(chunk_of(budget), []).append(value)
            self.generators.append([rng for rng in rngs if rng is not None])
            return out, scales

        return self._routed(release)

    @contextmanager
    def replaying(self):
        def release(chunk_of, law, values, sensitivities, eps, budgets, seed, label):
            wants = [self.filed[chunk_of(budget)].pop(0) for budget in budgets]
            groups = iter(live_groups(seed, [want is not None for want in wants]))

            def draws(size, rng):
                live = [wants[row] for row in next(groups)]
                assert size == len(live)
                return np.array(live)

            out, scales = dp.releases(
                dp.NoiseLaw(draws, law.cdf, law.factor), values, sensitivities, eps, budgets, seed,
                label,
            )
            assert [want is not None for want in wants] == [bool(scale) for scale in scales]
            return out, scales

        with self._routed(release):
            yield
        assert not any(self.filed.values()), "a chunk left stacked draws unused"


def dense_adjacency(graph: GeometricGraph) -> np.ndarray:
    """The dense int8 0/1 adjacency of a graph, from its CSR arrays."""
    adj = np.zeros((graph.n, graph.n), dtype=np.int8)
    adj[np.repeat(np.arange(graph.n), np.diff(graph.indptr)), graph.indices] = 1
    return adj


def packed_neighbour_bits(adjacency: np.ndarray, size: int) -> np.ndarray:
    """Each node's neighbours inside its chunk of ``size`` consecutive nodes,
    as uint64 words (bit j of word w for node 64 w + j of the chunk): the
    dense rows packed little-endian."""
    n = adjacency.shape[0]
    local = np.zeros((n, -(-size // 64) * 64), dtype=bool)
    for lo in range(0, n, size):
        local[lo : lo + size, :size] = adjacency[lo : lo + size, lo : lo + size] != 0
    return np.packbits(local, axis=1, bitorder="little").view("<u8")


def written_out_all_tuples_tail_bounds(tau: float, k: int, n: int) -> TailBounds:
    """The complete family's bounds as their own formulas, variance proxy
    tau k written into each."""
    return TailBounds(
        q=lambda beta: math.sqrt(2.0 * tau * k * math.log(2.0 * n / beta)),
        qavg=lambda beta: math.sqrt(2.0 * tau * k * math.log(2.0 / beta) / n),
    )


def written_out_subsampled_tail_bounds(tau: float, k: int, n: int, size: int) -> TailBounds:
    """The subsampled family's bounds with the uniform one written out."""
    return TailBounds(
        q=lambda beta: math.sqrt(2.0 * tau * k * math.log(4.0 * n / beta)),
        qavg=lambda beta: 4.0 * math.sqrt(tau * k / min(size, n) * math.log(4.0 * n / beta)),
    )


def induced_subgraph(graph: GeometricGraph, indices) -> GeometricGraph:
    """The subgraph on the nodes ``indices``, renumbered in their order."""
    idx = np.asarray(indices)
    return GeometricGraph(dense_adjacency(graph)[np.ix_(idx, idx)])


def loop_median_of_means(estimator, data, plan: BoostPlan, seed, budget: PrivacyBudget) -> EstimateReport:
    """``median_of_means`` as one call of ``estimator(chunk, rng, branch)``
    per chunk, in chunk order: chunk i is a copy of its points (a
    ``Dataset``, or an induced subgraph), runs on the seed's one generator
    after chunk i - 1 and gets its branch ledger just before it runs.
    Under ``StackNoise.replaying`` its releases add the stacked run's
    draws."""
    q, size = plan.chunks, plan.chunk_size

    def take(idx):
        return Dataset(data.points[idx]) if isinstance(data, Dataset) else induced_subgraph(data, idx)

    rng = as_generator(seed)
    with budget.parallel(f"median_of_means(q={q})") as branches:
        reports = [
            estimator(take(np.arange(ci * size, (ci + 1) * size)), rng, branches.branch())
            for ci in range(q)
        ]
    good = [r for r in reports if not r.is_bottom]
    if len(good) <= q // 2:
        return EstimateReport(
            estimate=None,
            bottom_reason=f"{q - len(good)} of {q} chunk runs returned bottom",
            diagnostics={"chunks": q, "chunk_size": size},
        )
    estimates = [r.estimate for r in good]
    radii = [r.radius for r in good if r.radius is not None]
    return EstimateReport(
        estimate=float(statistics.median(estimates)),
        radius=max(radii) if len(radii) == len(good) else None,
        noise_scale=None,
        diagnostics={
            "chunks": q,
            "chunk_size": size,
            "chunk_estimates": estimates,
            "bottoms": q - len(good),
        },
    )


def loop_run_experiment(spec) -> list:
    """``run_experiment`` as the per-trial loop: each trial derives
    ``stream(seed, cell, trial)``, computes the target and builds the
    law, samples its data, and makes its own one-dataset ``run_cell`` call
    (one ``boosted`` call) and ledger check; an error raised by either
    becomes its row's error, and a run that raised released nothing."""
    kernel = build_kernel(spec.kernel)
    rows = []
    for cell_index, cell in enumerate(spec.cells()):
        n, eps, alpha, subsample_size = cell
        for trial in range(spec.trials):
            rng = stream(spec.seed, cell_index, trial)
            theta = spec.dist.theta(spec.kernel)
            data = spec.dist.sampler()(rng, n)
            budget = scratch_budget()
            error, report = "", EstimateReport(None)
            try:
                (report,) = run_cell(spec, kernel, cell, [data], rng, [budget])
                check_trial_ledger(report, budget, eps)
                if report.is_bottom:
                    error = f"bottom: {report.bottom_reason}"
            except PrivustatError as exc:
                error = f"{type(exc).__name__}: {exc}"
            estimate = report.estimate
            rows.append(ResultRow(
                method=spec.method, kernel=spec.kernel, dist=spec.dist.name, n=n, eps=eps,
                alpha=alpha, subsample_size=subsample_size, trial=trial, theta=theta,
                estimate=estimate,
                abs_error=abs(estimate - theta) if estimate is not None else None,
                radius=report.radius, noise_scale=report.noise_scale,
                spread_level=report.diagnostics.get("L"), n_bad=report.diagnostics.get("n_bad"),
                error=error,
            ))
    return rows


def two_release_triangle_density(graph: GeometricGraph, eps, seed, budget: PrivacyBudget) -> EstimateReport:
    """``private_triangle_density`` as two single releases on one generator:
    the edge-density proxy, then (when it is >= 0) the smooth release of the
    triangle summary at the radius the proxy sizes (``triangle_xi`` is
    looked up at call time, so a test may patch it)."""
    n = graph.n
    rng = as_generator(seed)
    u_edges = csr_edge_density(graph)
    nu = float(releases(LAPLACE, [u_edges], [2.0 / n], eps, [budget], rng, "edge density proxy")[0][0])
    if nu < 0:
        return EstimateReport(
            estimate=None,
            bottom_reason=f"edge-density proxy {nu:.4g} < 0",
            diagnostics={"nu": nu, "edge_density": u_edges},
        )
    xi = applications.triangle_xi(nu, n)
    params = HajekParams(eps=eps, c_range=1.0, xi=xi)
    (report,) = release_rows(triangle_rows(graph, 1), params, rng, [budget], label="triangle density")
    report.diagnostics.update({"nu": nu, "xi": xi, "edge_density": u_edges})
    return report


def majority_vote(decisions) -> bool:
    """Median of 0/1 decisions: True iff a strict majority is True."""
    votes = [bool(d) for d in decisions]
    return sum(votes) * 2 > len(votes)


def majority_uniformity_test(data: Dataset, m, delta, eps, alpha, seed, budget: PrivacyBudget):
    """The boosted uniformity test as a majority vote of per-chunk tests.

    Each chunk runs the one-chunk test (``boosted_uniformity_test`` with
    ``alpha`` None) on its own branch ledger, in chunk order on the seed's
    one generator; under ``StackNoise.replaying`` it adds the stacked run's
    draw.  Returns (reject, median statistic, threshold, block debit).
    """
    plan = BoostPlan.for_dataset(data.n, 2, alpha)
    q, size = plan.chunks, plan.chunk_size
    rng = as_generator(seed)
    with budget.parallel(f"uniformity majority(q={q})") as branches:
        decisions = [
            boosted_uniformity_test(Dataset(data.points[c * size : (c + 1) * size]), m, delta,
                                    eps, None, rng, branches.branch())
            for c in range(q)
        ]
    statistic = float(np.median([d.statistic for d in decisions]))
    reject = majority_vote(d.reject for d in decisions)
    return reject, statistic, decisions[0].threshold, branches.max_spent()


def floyd_subsample_picks(n: int, k: int, size: int, seed) -> np.ndarray:
    """``subsample_family``'s sorted (size, k) rows, Floyd's sampler run one
    row at a time over a set, from the same k columns of integer draws."""
    rng = as_generator(seed)
    columns = [rng.integers(0, j + 1, size) for j in range(n - k, n)]
    picks = np.empty((size, k), dtype=np.int64)
    for row in range(size):
        chosen: set = set()
        for j, draws in zip(range(n - k, n), columns):
            t = int(draws[row])
            chosen.add(j if t in chosen else t)
        picks[row] = sorted(chosen)
    return picks


def explicit_family(n: int, k: int, subsets) -> SubsetFamily:
    """Wrap an explicit list of subsets."""
    return SubsetFamily(n, k, np.asarray(subsets, dtype=np.int64), kind="explicit")


def gather_chunk_kernel_values(h: Kernel, chunks: np.ndarray, family: SubsetFamily) -> np.ndarray:
    """``chunk_kernel_values`` by gathering each block of index rows from the
    (q, n) chunks: ``take`` through the transpose of a column-major block, so
    column c of the (q * m, k) tuples is chunks[:, rows[:, c]]."""
    q = chunks.shape[0]
    out = np.empty((q, family.size))
    for start, rows in family.blocks():
        m, k = rows.shape
        if rows.flags.c_contiguous:
            tuples = np.take(chunks, rows, axis=1).reshape(q * m, k)
        else:
            tuples = np.take(chunks, rows.T, axis=1).transpose(1, 0, 2).reshape(k, q * m).T
        out[:, start : start + m] = h.evaluate(tuples).reshape(q, m)
    return out


def scanned_prefix_runs(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(starts, heads) of the prefix runs of a block of lexicographic k-subsets,
    found by scanning its last column: a run ends at a row whose last index is
    n-1, or where the block ends."""
    last = rows[:, -1]
    first = np.empty(last.size, dtype=bool)
    first[0] = True
    np.equal(last[:-1], n - 1, out=first[1:])
    starts = np.flatnonzero(first)
    return starts, rows.T[:-1, starts]


def gather_means_and_projections(h: Kernel, data: Dataset, family: SubsetFamily):
    """``means_and_projections`` of one dataset from index blocks: gather the
    data through each block, then add the values to the projection sums, one
    sum per prefix run for the head columns of a complete family.  The mean
    is the total of the index sums over k * M."""
    n = family.n
    sums = np.zeros(n)
    for _, rows in family.blocks():
        block_values = h.evaluate(data.points[rows])
        if family.kind != "all_tuples":
            for column in rows.T:
                sums += np.bincount(column, weights=block_values, minlength=n)
            continue
        starts, heads = scanned_prefix_runs(rows, n)
        run_sums = np.add.reduceat(block_values, starts)
        for column in heads:
            sums += np.bincount(column, weights=run_sums, minlength=n)
        sums += np.bincount(rows[:, -1], weights=block_values, minlength=n)
    with np.errstate(invalid="ignore", divide="ignore"):
        return sums.sum() / (family.k * family.size), sums / family.counts


def without_counts(h: Kernel) -> Kernel:
    """h with its equality mark cleared: the same values, run through the
    kernel pass on every family."""
    return replace(h, equality=False)


def kernel_pass_rows(h: Kernel, chunks: np.ndarray, family: SubsetFamily) -> SummaryRows:
    """``summary_rows`` by the kernel pass whatever the kernel, the oracle of
    the count route: one column per index, the means and projections of
    ``means_and_projections`` and the library's generic reweight."""
    a_n, projections = means_and_projections(h, chunks, family)
    reweighted_mean = privustat.hajek._reweighted_mean
    return SummaryRows(
        n=family.n,
        k=family.k,
        a_n=a_n,
        projections=projections,
        multiplicity=np.broadcast_to(np.int64(1), projections.shape),
        reweight=lambda i, weights: reweighted_mean(h, chunks[i], family, weights, float(a_n[i])),
        all_tuples_family=family.kind == "all_tuples",
    )


def value_columns(chunks: np.ndarray) -> np.ndarray:
    """The column of each entry of a (q, n) stack in its letter-level rows
    (``ustat.value_counts``), as (q, n) codes: the entry's rank among the
    stack's r0 distinct values that are not NaN, with -0.0 equal to 0.0, and
    r0 + j for a row's j-th NaN, which equals nothing."""
    nans = np.isnan(chunks)
    distinct = np.unique(chunks[~nans])
    codes = np.searchsorted(distinct, chunks)
    for row, row_nans in zip(codes, nans):
        row[row_nans] = distinct.size + np.arange(np.count_nonzero(row_nans))
    return codes


def values_summary(
    h: Kernel, chunks: np.ndarray, family: SubsetFamily, values: np.ndarray, projections: np.ndarray
) -> SummaryRows:
    """The summaries of a (q, n) stack of chunks built from given (q, M)
    kernel values, read for the means only (``row.mean()``), and (q, n)
    projections, with the library's reweight: ``summary_rows`` with its
    pass replaced by the caller's arrays."""
    a_n = np.array([row.mean() for row in values])
    reweighted_mean = privustat.hajek._reweighted_mean
    return SummaryRows(
        n=family.n,
        k=family.k,
        a_n=a_n,
        projections=projections,
        multiplicity=np.broadcast_to(np.int64(1), projections.shape),
        reweight=lambda i, weights: reweighted_mean(h, chunks[i], family, weights, float(a_n[i])),
        all_tuples_family=family.kind == "all_tuples",
    )


def reweighted_mean(values: np.ndarray, family: SubsetFamily, weights: np.ndarray, a_n: float) -> float:
    """The mean of h(S) wt(S) + a_n (1 - wt(S)) over every subset in floats,
    each subset's weight wt(S), its smallest, gathered through the index
    rows: the full-pass form the library used before it reweighted only the
    subsets that meet a down-weighted index."""
    weights = np.asarray(weights, dtype=float)
    wt_s = np.empty(family.size)
    for start, rows in family.blocks():
        wt_s[start : start + rows.shape[0]] = weights[rows].min(axis=1)
    return float(np.mean(values * wt_s + a_n * (1.0 - wt_s)))


def bincount_projections(values: np.ndarray, family: SubsetFamily) -> np.ndarray:
    """Local projections of a family's (M,) kernel values, as one weighted
    bincount of all M values per column."""
    sums = np.zeros(family.n)
    for start, rows in family.blocks():
        block_values = values[start : start + rows.shape[0]]
        for column in rows.T:
            sums += np.bincount(column, weights=block_values, minlength=family.n)
    with np.errstate(invalid="ignore", divide="ignore"):
        return sums / family.counts


# Absolute tolerance of library projections against ``fsum_projections`` for
# kernels with values in [-4, 4]: 16 float64 rounding units at 4.  The
# library's sums round in some order, the oracle's not at all; at n = 40,
# k = 3 both summation orders stay within 6.7e-16.
PROJECTION_ATOL = 16 * 4.0 * np.finfo(float).eps


def fsum_projections(values: np.ndarray, family: SubsetFamily) -> np.ndarray:
    """Local projections with each index's sum taken exactly by ``math.fsum``."""
    terms: list[list[float]] = [[] for _ in range(family.n)]
    for start, rows in family.blocks():
        for row, value in zip(rows.tolist(), values[start : start + rows.shape[0]].tolist()):
            for i in row:
                terms[i].append(value)
    return np.array([math.fsum(t) / len(t) if t else math.nan for t in terms])


def local_projection(h: Kernel, data: Dataset, family: SubsetFamily, i: int) -> float:
    """Mean of h over the subsets containing index i."""
    if family.counts[i] == 0:
        raise EmptyIncidence(f"index {i} appears in no subset")
    mask = np.empty(family.size, dtype=bool)
    for start, rows in family.blocks():
        mask[start : start + rows.shape[0]] = (rows == i).any(axis=1)
    return float(kernel_values(h, data, family)[mask].mean())


def collision_variance_profile(p: np.ndarray) -> tuple[float, float]:
    """Exact (zeta_1, zeta_2) of the collision kernel under category law p."""
    p = np.asarray(p, dtype=float)
    s2 = float(np.sum(p**2))
    zeta1 = float(np.sum(p**3)) - s2**2
    zeta2 = s2 - s2**2
    return zeta1, zeta2


def collision_ustat_variance(p: np.ndarray, n: int) -> float:
    """Closed-form var(U_n) of the collision kernel on n samples."""
    zeta1, zeta2 = collision_variance_profile(p)
    return (2.0 / (n * (n - 1))) * (2.0 * (n - 2) * zeta1 + zeta2)


def smooth_sensitivity_closed_form_bound(
    xi: float,
    spread_level: int,
    n: int,
    k: int,
    c_range: float,
    eps: float,
    all_tuples_family: bool,
) -> float:
    """Closed-form upper bound on the maximized smooth sensitivity."""
    L, c = spread_level, c_range
    first = (k / n) * (xi + k * c * (1.0 / eps + L) / n) * (1.0 + eps * (1.0 + L))
    overcount = 1.0 if all_tuples_family else min(float(k), 2.0 / eps + L)
    second = (k**2 * c * (2.0 / eps + L) ** 2 * overcount / n**2) * (eps + k / n)
    third = k**2 * c / (n**2 * eps)
    return first + second + third


def csr_edge_density(graph: GeometricGraph) -> float:
    """Edge density from the number of stored CSR entries (each edge twice)."""
    n = graph.n
    return graph.indices.size / (n * (n - 1))


def dense_edge_density(adjacency: np.ndarray) -> float:
    """Edge density from the sum of the dense adjacency."""
    n = adjacency.shape[0]
    return float(adjacency.sum() / (n * (n - 1)))


def line_read_edge_list(path) -> np.ndarray:
    """Dense int8 adjacency of an edge-list file, read one line at a time."""
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                i_s, j_s = line.split()
                i, j = int(i_s), int(j_s)
            except ValueError:
                raise ValueError(
                    f"{path} line {lineno}: expected two node labels, got {line!r}"
                ) from None
            if i < 1 or j < 1:
                raise ValueError(f"{path} line {lineno}: node labels start at 1, got {line!r}")
            if i == j:
                raise ValueError(f"{path} line {lineno}: self-loops are not allowed")
            edges.append((i - 1, j - 1))
    if not edges:
        raise ValueError(f"no edges in {path}")
    i, j = np.array(edges, dtype=np.intp).T
    n = int(max(i.max(), j.max())) + 1
    adj = np.zeros((n, n), dtype=np.int8)
    adj[i, j] = adj[j, i] = 1
    return adj


def line_read_column(path, parse, valid, expected: str) -> np.ndarray:
    """One ``parse``d value per non-blank line, each passing ``valid``, read
    one line at a time; names the first bad line."""
    with open(path) as fh:
        lines = fh.readlines()
    try:
        arr = np.asarray([parse(line) for line in lines if not line.isspace()])
        if arr.size and valid(arr).all():
            return arr
    except ValueError:
        pass
    for lineno, line in enumerate(lines, 1):
        try:
            ok = line.isspace() or bool(valid(np.asarray(parse(line))))
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"{path} line {lineno}: expected {expected}, got {line.strip()!r}")
    raise ValueError(f"no data in {path}")


def nonzero_csr(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The int64 CSR ``indptr`` and ``indices`` of a dense adjacency, from
    ``np.nonzero``'s row-major scan: each row's neighbours in increasing
    order, each once."""
    rows, cols = np.nonzero(adjacency)
    counts = np.bincount(rows, minlength=adjacency.shape[0])
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64), cols.astype(np.int64)


def write_edge_list(graph: GeometricGraph, path) -> None:
    """One "i j" line (1-based) per edge i < j."""
    with open(path, "w") as fh:
        rows, cols = np.nonzero(np.triu(dense_adjacency(graph), k=1))
        for i, j in zip(rows.tolist(), cols.tolist()):
            fh.write(f"{i + 1} {j + 1}\n")


# ---------------------------------------------------------------------------
# loop forms of the audits, the quartic sampler and its CDF
# ---------------------------------------------------------------------------

def whole_batch_quartic_draws(size: int, seed) -> np.ndarray:
    """``dp.quartic_draws`` without the block cap: each pass draws all of its
    ``2 * want`` u's, then all of its v's, at once, and keeps v/u of the
    points in the region u^4 + v^4 <= u^2 of (0, 1] x [-2^-1/2, 2^-1/2)."""
    rng = as_generator(seed)
    out = np.empty(size)
    have = 0
    while have < size:
        want = size - have
        batch = max(64, int(want / 0.5))
        u = 1.0 - rng.random(batch)
        v = (2.0 * rng.random(batch) - 1.0) * math.sqrt(0.5)
        inside = (u * u) ** 2 + (v * v) ** 2 <= u * u
        accepted = v[inside] / u[inside]
        take = min(accepted.size, want)
        out[have : have + take] = accepted[:take]
        have += take
    return out


def pow_quartic_draws(size: int, seed) -> np.ndarray:
    """``dp.quartic_draws`` with the region's test written through ``**4``."""
    rng = as_generator(seed)
    out = np.empty(size)
    have = 0
    while have < size:
        want = size - have
        batch = max(64, min(_RATIO_BLOCK, int(want / 0.5)))
        u = 1.0 - rng.random(batch)
        v = (2.0 * rng.random(batch) - 1.0) * math.sqrt(0.5)
        inside = u**4 + v**4 <= u**2
        accepted = v[inside] / u[inside]
        take = min(accepted.size, want)
        out[have : have + take] = accepted[:take]
        have += take
    return out


def where_quartic_cdf(z) -> np.ndarray:
    """``dp.quartic_cdf`` with both branches evaluated on every point and
    chosen by ``np.where``, in one unblocked pass."""
    z = np.asarray(z, dtype=float)
    r2 = math.sqrt(2.0)
    x = np.abs(z)
    b = np.minimum(x, _CDF_SERIES_FROM)
    bb = b * b
    log_term = np.log((bb + r2 * b + 1.0) / (bb - r2 * b + 1.0)) / (4.0 * r2)
    atan_term = np.arctan2(r2 * b, 1.0 - bb) / (2.0 * r2)
    body = 0.5 - (log_term + atan_term) / QUARTIC_NORMALIZER
    r = 1.0 / np.maximum(x, _CDF_SERIES_FROM)
    u = (r * r) ** 2
    tail = (1.0 / 3.0 + u * (u / 11.0 - 1.0 / 7.0)) * (r * r * r) / QUARTIC_NORMALIZER
    lower = np.where(x < _CDF_SERIES_FROM, body, tail)
    return np.where(z < 0, lower, 1.0 - lower)


def sorted_laplace_cdf(z: np.ndarray) -> np.ndarray:
    """The standard Laplace CDF split at the first z >= 0 of sorted ``z``:
    the exact values of ``dp.LAPLACE.cdf``, on sorted input only."""
    neg = int(np.searchsorted(z, 0.0))
    return np.concatenate((0.5 * np.exp(z[:neg]), 1.0 - 0.5 * np.exp(-z[neg:])))


def fresh_array_ks_gap(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """Kolmogorov-Smirnov gap of sorted samples, one new array per step."""
    n = samples.size
    grid = np.arange(n, dtype=float)
    upper = np.max(np.abs(cdf_values - grid / n))
    lower = np.max(np.abs((grid + 1.0) / n - cdf_values))
    return float(max(upper, lower))


def reference_noise_gap(law: str, draws: int, seed) -> float:
    """``audits.noise_gof``'s KS gap through the pow sampler, ``np.where`` and
    the fresh-array gap."""
    rng = as_generator(seed)
    if law == "laplace":
        samples = np.sort(laplace_draws(draws, rng))
        cdf = np.where(samples < 0, 0.5 * np.exp(samples), 1.0 - 0.5 * np.exp(-samples))
    else:
        samples = np.sort(pow_quartic_draws(draws, rng))
        cdf = quartic_cdf(samples)
    return fresh_array_ks_gap(samples, cdf)


def halved_bound_rows(rows: SummaryRows, params: HajekParams) -> HajekRows:
    """``hajek_rows`` with every smooth bound halved: a fault the smoothness
    audits must catch.  Tests patch it in for ``hajek_rows`` in ``audits``
    and in this module; it calls the library's function by its module, so
    the patch does not reach it."""
    states = privustat.hajek.hajek_rows(rows, params)
    states.smooth_bound *= 0.5
    return states


def loop_smoothness_audit(
    n: int,
    eps: float,
    xi: float,
    c_range: float = 1.0,
    alphabet=(0, 1),
    kernel: Kernel = collision_kernel(),
) -> SmoothnessReport:
    """``audits.smoothness_audit`` as one Python iteration per neighbour pair."""
    family = all_tuples(n, kernel.degree)
    params = HajekParams(eps=eps, c_range=c_range, xi=xi)
    alphabet = tuple(alphabet)
    cache: dict = {}

    def analyze(config: tuple) -> tuple:
        if config not in cache:
            data = np.asarray(config, dtype=float)[None]
            try:
                state = hajek_rows(summary_rows(kernel, data, family), params)
            except ValueError:  # non-finite kernel values: nothing is released
                cache[config] = (math.nan, math.nan)
            else:
                cache[config] = (float(state.reweighted[0]), float(state.smooth_bound[0]))
        return cache[config]

    report = SmoothnessReport(
        datasets=len(alphabet) ** n, pairs_checked=0,
        worst_dominance_margin=math.inf, worst_smoothness_margin=math.inf,
    )
    grow = math.exp(eps)
    for config in itertools.product(alphabet, repeat=n):
        reweighted, bound = analyze(config)
        for i in range(n):
            for a in alphabet:
                if a == config[i]:
                    continue
                neighbor = config[:i] + (a,) + config[i + 1 :]
                nbr_reweighted, nbr_bound = analyze(neighbor)
                report.pairs_checked += 1
                dom = bound - abs(reweighted - nbr_reweighted)
                smooth = grow * bound - nbr_bound
                report.worst_dominance_margin = min(report.worst_dominance_margin, dom)
                report.worst_smoothness_margin = min(report.worst_smoothness_margin, smooth)
                if not dom >= 0:  # NaN fails too
                    report.violations.append(
                        ("dominance", config, neighbor, abs(reweighted - nbr_reweighted), bound)
                    )
                if not smooth >= 0:
                    report.violations.append(
                        ("smoothness", config, neighbor, nbr_bound, grow * bound)
                    )
    if report.violations:
        kind, d, d2, got, allowed = report.violations[0]
        raise AuditFailure(
            f"{kind} violated for {d} -> {d2}: {got:.6g} vs allowed {allowed:.6g} "
            f"({len(report.violations)} violations total)"
        )
    return report


# ---------------------------------------------------------------------------
# a constant kernel and the variance calculus
# ---------------------------------------------------------------------------

def constant_kernel(value: float, degree: int = 1) -> Kernel:
    return Kernel(degree, lambda t: np.full(t.shape[0], float(value)), Bounded(0.0), name=f"const({value})")


def evaluate_one(h: Kernel, *args) -> float:
    """h at one tuple of arguments."""
    return float(h.evaluate(np.asarray(args).reshape(1, -1))[0])


@dataclass(frozen=True)
class VarianceProfile:
    """Conditional variances (index c = 1..k) of a degree-k kernel."""

    zetas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "zetas", np.asarray(self.zetas, dtype=float))
        if self.zetas.ndim != 1 or self.zetas.size < 1:
            raise ValueError("need at least one conditional variance")
        if not np.all(np.isfinite(self.zetas)):
            raise ValueError("conditional variances must be finite")

    @property
    def k(self) -> int:
        return int(self.zetas.size)

    def deltas(self) -> np.ndarray:
        return hoeffding_deltas(self.zetas)

    def chain_violation(self) -> float:
        """Largest violation of zeta_c / c <= zeta_d / d (0 when the chain holds)."""
        ratios = self.zetas / np.arange(1, self.k + 1)
        worst = 0.0
        for c in range(self.k - 1):
            worst = max(worst, float(np.max(ratios[c] - ratios[c + 1 :], initial=0.0)))
        return worst


def hoeffding_deltas(zetas) -> np.ndarray:
    """Component variances of the orthogonal decomposition, from the zetas.

    delta_c^2 = sum_{i<=c} (-1)^(c-i) C(c,i) zeta_i.  Warns (diagnostic only)
    if an empirical profile yields a materially negative component.
    """
    zetas = np.asarray(zetas, dtype=float)
    k = zetas.size
    deltas = np.empty(k)
    for c in range(1, k + 1):
        deltas[c - 1] = sum(
            (-1) ** (c - i) * math.comb(c, i) * zetas[i - 1] for i in range(1, c + 1)
        )
    scale = max(1.0, float(np.max(np.abs(zetas), initial=0.0)))
    if np.any(deltas < -1e-9 * scale):
        warnings.warn(
            "negative Hoeffding component variance from empirical inputs",
            NegativeDeltaWarning,
            stacklevel=2,
        )
    return deltas


def zetas_from_deltas(deltas) -> np.ndarray:
    """Inverse transform: zeta_c = sum_{i<=c} C(c,i) delta_i^2."""
    deltas = np.asarray(deltas, dtype=float)
    k = deltas.size
    return np.array(
        [sum(math.comb(c, i) * deltas[i - 1] for i in range(1, c + 1)) for c in range(1, k + 1)]
    )


def variance_of_ustat(profile: VarianceProfile, n: int, k: int) -> float:
    """Exact variance of the complete U-statistic from its conditional variances.

    var(U_n) = C(n,k)^{-1} sum_c C(k,c) C(n-k,k-c) zeta_c.  Coefficients are
    computed as exact rationals before the float combination.
    """
    if profile.k != k:
        raise ValueError("profile length must equal the kernel degree")
    if n < k:
        raise ValueError("need n >= k")
    all_tuples(n, k)  # raises past the enumeration cap
    total = math.comb(n, k)
    out = 0.0
    for c in range(1, k + 1):
        weight = Fraction(math.comb(k, c) * math.comb(n - k, k - c), total)
        out += float(weight) * float(profile.zetas[c - 1])
    return out


def variance_leading_term(
    profile: VarianceProfile, n: int, k: int, degenerate: bool, tol: float = 1e-9
) -> float:
    """First-order variance: k^2 zeta_1 / n, or the zeta_2 term when zeta_1 = 0."""
    if k > n / 2:
        raise ValueError("leading-term approximation needs k <= n/2")
    z1 = float(profile.zetas[0])
    if degenerate:
        if z1 > tol:
            raise DegeneracyMismatch(f"zeta_1 = {z1} is not 0")
        if profile.k < 2:
            raise ValueError("degenerate leading term needs k >= 2")
        return k**2 * (k - 1) ** 2 * float(profile.zetas[1]) / (2 * n * (n - 1))
    return k**2 * z1 / n


class ZetaEstimate(NamedTuple):
    value: float
    stderr: float
    trials: int


def empirical_zetas(
    h: Kernel,
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    c: int,
    trials: int,
    seed,
) -> ZetaEstimate:
    """Monte Carlo estimate of the c-th conditional variance.

    Uses the covariance characterization: draw 2k-c i.i.d. points, evaluate the
    kernel on two subsets sharing exactly c points, and average the product of
    the two values minus the squared mean estimate.  The standard error comes
    from the first-order influence function of that plug-in.
    """
    k = h.degree
    if not 1 <= c <= k:
        raise ValueError("need 1 <= c <= k (the c = 0 covariance is undefined)")
    rng = as_generator(seed)
    pts = sampler(rng, trials * (2 * k - c)).reshape(trials, 2 * k - c)
    first = h.evaluate(pts[:, :k])
    second = h.evaluate(pts[:, k - c :])
    prods = first * second
    theta_hat = 0.5 * (first.mean() + second.mean())
    value = float(prods.mean() - theta_hat**2)
    influence = (prods - prods.mean()) - 2.0 * theta_hat * (0.5 * (first + second) - theta_hat)
    stderr = float(influence.std(ddof=1) / math.sqrt(trials))
    return ZetaEstimate(value, stderr, trials)
