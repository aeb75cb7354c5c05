"""Oracles and fixtures that only the tests use: brute-force sensitivities,
a Monte Carlo θ, closed forms, explicit families, the per-chunk loop form
of ``median_of_means``, the majority-vote form of the boosted uniformity
test, the full-scan forms of the spread level and the Hájek state, the
copying clip step of ``ustat_mean``, the per-row Floyd draw of
``subsample_family``, the index-then-gather form of the complete-family
engine (kernel values, stacked chunks, projections with scanned prefix runs,
the reweighted mean), the per-column bincount and exact fsum forms of the
projections, the loop form of the collision reweight, the per-line
file readers, the loop forms of the audits and the quartic sampler, a
constant kernel, and the U-statistic variance calculus (conditional
variances, Hoeffding components, exact variance)."""

import itertools
import math
import statistics
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

import numpy as np

import privustat.hajek
from privustat.applications import GeometricGraph, uniformity_test
from privustat.boosting import BoostPlan
from privustat.report import EstimateReport
from privustat.coinpress import IntervalState, TailBounds, _release, halving_rounds
from privustat.dp import _ENVELOPE, _RATIO_BLOCK, PrivacyBudget, laplace_draws, quartic_cdf, scratch_budget
from privustat.errors import AuditFailure, PrivustatError
from privustat.hajek import (
    HajekParams,
    HajekState,
    UStatSummary,
    compute_weights,
    hajek_state,
    smooth_bound_g,
    smooth_sensitivity,
    summary_from_values,
)
from privustat.harness.audits import SmoothnessReport
from privustat.rng import as_generator, child_seeds
from privustat.ustat import (
    DEFAULT_ENUMERATION_CAP,
    Bounded,
    Dataset,
    Kernel,
    SubsetFamily,
    _check_enumeration_cap,
    all_tuples,
    collision_kernel,
    kernel_values,
    kernel_values_and_projections,
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


def full_scan_compute_L(deviations, xi: float, c_range: float, k: int, n: int) -> int:
    """The spread level L over all n deviations: one threshold per t = 1..n."""
    deviations = np.asarray(deviations, dtype=float)
    ts = np.arange(1, n + 1)
    thresholds = xi + 6.0 * k * c_range * ts / n
    exceed = n - np.searchsorted(np.sort(deviations), thresholds, side="right")
    return int(np.nonzero(exceed <= ts)[0][0] + 1)


def full_scan_hajek_state(summary: UStatSummary, params: HajekParams) -> HajekState:
    """``hajek_state`` with the full-scan spread level and the ramp over all n."""
    n, k = summary.n, summary.k
    signed = summary.projections - summary.a_n
    tol = 32.0 * np.finfo(float).eps * max(
        1.0, abs(summary.a_n), float(np.max(np.abs(summary.projections), initial=0.0))
    )
    signed = np.where(np.abs(signed) <= tol, 0.0, signed)
    devs = np.abs(signed)
    level = full_scan_compute_L(devs, params.xi, params.c_range, k, n)
    edge = params.xi + 6.0 * k * params.c_range * level / n
    bad = np.nonzero(devs > edge)[0]
    weights = compute_weights(signed, params.xi, params.c_range, k, n, level, params.eps)
    return HajekState(
        a_n=summary.a_n,
        projections=summary.projections,
        spread_level=level,
        bad=bad,
        weights=weights,
        reweighted=summary.reweight(weights) if bad.size else summary.a_n,
        smooth_bound=smooth_sensitivity(
            params.xi, level, n, k, params.c_range, params.eps, summary.all_tuples_family
        ),
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


def loop_triangle_reweight(adjacency: np.ndarray, weights: np.ndarray, a_n: float) -> float:
    """Triangle reweighted mean by dense per-node, per-pair and per-triple loops."""
    a = np.asarray(adjacency, dtype=np.float64)
    n = a.shape[0]
    low = np.nonzero(weights < 1.0)[0]
    if low.size == 0:
        return a_n
    rest = np.setdiff1d(np.arange(n), low)
    ar = a[np.ix_(rest, rest)]
    corr = 0.0
    for b in low:
        row = a[b, rest]
        pairs = rest.size * (rest.size - 1) // 2
        corr += (weights[b] - 1.0) * (float(row @ ar @ row) / 2.0 - a_n * pairs)
    for x in range(low.size):
        for y in range(x + 1, low.size):
            b1, b2 = low[x], low[y]
            tri = float(a[b1, b2] * np.sum(a[b1, rest] * a[b2, rest]))
            corr += (min(weights[b1], weights[b2]) - 1.0) * (tri - a_n * rest.size)
    for x in range(low.size):
        for y in range(x + 1, low.size):
            for z in range(y + 1, low.size):
                b1, b2, b3 = low[x], low[y], low[z]
                h = float(a[b1, b2] * a[b1, b3] * a[b2, b3])
                corr += (min(weights[b1], weights[b2], weights[b3]) - 1.0) * (h - a_n)
    return a_n + corr / math.comb(n, 3)


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
    (``values`` is left as it is) and releases its mean through the library's
    row release ``_release``, as a single row, on a scratch ledger; returns
    the clipped values and the unintersected interval.
    """
    q = tb.q(beta)
    clipped = np.clip(values, interval.lo - q, interval.hi + q)
    lo, hi, _ = _release(
        clipped[None], np.array([family.dependence_fraction()]), np.array([interval.lo]),
        np.array([interval.hi]), eps_step, beta, tb, [seed], [scratch_budget()], "one step",
    )
    return clipped, IntervalState(float(lo[0]), float(hi[0]))


def copy_clipping_ustat_mean(h, data, family, r, eps, gamma, tb, seed) -> list:
    """The interval trace of ``ustat_mean``'s loop, each step through the
    copying ``ustat_one_step``; its last interval is the release interval."""
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


def loop_median_of_means(estimator, data, plan: BoostPlan, seed, budget: PrivacyBudget) -> EstimateReport:
    """``median_of_means`` as one call of ``estimator(chunk, seed, branch)``
    per chunk, in chunk order: chunk i is a copy of its points (a
    ``Dataset``, or an induced subgraph), runs on child seed i and gets its
    branch ledger just before it runs."""
    q, size = plan.chunks, plan.chunk_size
    take = data.subset if isinstance(data, Dataset) else data.induced
    rngs = child_seeds(seed, q)
    with budget.parallel(f"median_of_means(q={q})") as branches:
        reports = [
            estimator(take(np.arange(ci * size, (ci + 1) * size)), rngs[ci], branches.branch())
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


def majority_vote(decisions) -> bool:
    """Median of 0/1 decisions: True iff a strict majority is True."""
    votes = [bool(d) for d in decisions]
    return sum(votes) * 2 > len(votes)


def majority_uniformity_test(data: Dataset, m, delta, eps, alpha, seed, budget: PrivacyBudget):
    """The boosted uniformity test as a majority vote of per-chunk tests.

    Each chunk runs ``uniformity_test`` on its own child seed and branch
    ledger.  Returns (reject, median statistic, threshold, block debit).
    """
    plan = BoostPlan.for_dataset(data.n, 2, alpha)
    q, size = plan.chunks, plan.chunk_size
    rngs = child_seeds(seed, q)
    with budget.parallel(f"uniformity majority(q={q})") as branches:
        decisions = [
            uniformity_test(data.subset(np.arange(c * size, (c + 1) * size)), m, delta, eps,
                            rngs[c], branches.branch())
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


def gather_values_and_projections(h: Kernel, data: Dataset, family: SubsetFamily):
    """``kernel_values_and_projections`` from index blocks: gather the data
    through each block, then add the values to the projection sums, one sum
    per prefix run for the head columns of a complete family."""
    n = family.n
    values = np.empty(family.size)
    sums = np.zeros(n)
    for start, rows in family.blocks():
        block_values = values[start : start + rows.shape[0]]
        block_values[:] = h.evaluate(data.points[rows])
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
        return values, sums / family.counts


def gather_reweighted_mean(values: np.ndarray, family: SubsetFamily, weights: np.ndarray, a_n: float) -> float:
    """``reweighted_mean`` with each subset's weight gathered through the index rows."""
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


def write_edge_list(graph: GeometricGraph, path) -> None:
    """One "i j" line (1-based) per edge i < j."""
    with open(path, "w") as fh:
        rows, cols = np.nonzero(np.triu(graph.adjacency.toarray(), k=1))
        for i, j in zip(rows.tolist(), cols.tolist()):
            fh.write(f"{i + 1} {j + 1}\n")


# ---------------------------------------------------------------------------
# loop forms of the audits and the quartic sampler
# ---------------------------------------------------------------------------

def whole_batch_quartic_draws(size: int, seed) -> np.ndarray:
    """``dp.quartic_draws`` without the block cap: each pass draws all of its
    ``2 * want`` proposals, then all of its uniforms, at once."""
    rng = as_generator(seed)
    out = np.empty(size)
    have = 0
    while have < size:
        want = size - have
        batch = max(64, int(want / 0.5))
        z = rng.standard_cauchy(batch)
        u = rng.random(batch)
        den = z * z
        ratio = (den + 1.0) * math.sqrt(2.0) / ((den * den + 1.0) * _ENVELOPE)
        accepted = z[u <= ratio]
        take = min(accepted.size, want)
        out[have : have + take] = accepted[:take]
        have += take
    return out


def pow_quartic_draws(size: int, seed) -> np.ndarray:
    """``dp.quartic_draws`` with the acceptance ratio written through ``z**4``."""
    rng = as_generator(seed)
    out = np.empty(size)
    have = 0
    while have < size:
        want = size - have
        batch = max(64, min(_RATIO_BLOCK, int(want / 0.5)))
        z = rng.standard_cauchy(batch)
        u = rng.random(batch)
        ratio = math.sqrt(2.0) * (1.0 + z * z) / ((1.0 + z**4) * _ENVELOPE)
        accepted = z[u <= ratio]
        take = min(accepted.size, want)
        out[have : have + take] = accepted[:take]
        have += take
    return out


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
        samples = np.sort(laplace_draws(1.0, draws, rng))
        cdf = np.where(samples < 0, 0.5 * np.exp(samples), 1.0 - 0.5 * np.exp(-samples))
    else:
        samples = np.sort(pow_quartic_draws(draws, rng))
        cdf = quartic_cdf(samples)
    return fresh_array_ks_gap(samples, cdf)


def halved_bound_state(summary: UStatSummary, params: HajekParams) -> HajekState:
    """``hajek_state`` with its smooth bound halved: a fault the smoothness
    audits must catch.  Tests patch it in for ``hajek_state`` in ``audits``
    and in this module; it calls the library's function by its module, so
    the patch does not reach it."""
    state = privustat.hajek.hajek_state(summary, params)
    state.smooth_bound *= 0.5
    return state


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
            (values,), (proj,) = kernel_values_and_projections(
                kernel, np.asarray(config, dtype=float)[None], family
            )
            try:
                state = hajek_state(summary_from_values(values, family, proj), params)
            except ValueError:  # non-finite kernel values: nothing is released
                cache[config] = (math.nan, math.nan)
            else:
                cache[config] = (state.reweighted, state.smooth_bound)
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
    _check_enumeration_cap(n, k, DEFAULT_ENUMERATION_CAP)
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
