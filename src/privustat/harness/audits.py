"""Verification oracles: adversarial fixtures, exhaustive smoothness, noise GOF.

These are the checks that justify trusting the mechanisms: a deterministic
dataset pair whose U-statistic gap is combinatorially certified, an exhaustive
neighbor enumeration that validates the smooth sensitivity bound on every
multiset of a finite alphabet (one stacked run of the Hájek engine, under a
cap on the kernel evaluations of a kernel pass, or on the entries of the stack
when it runs on value counts), and goodness-of-fit of both noise samplers
against their analytic CDFs.  The audits take no fault-injection option.
Tests show that an audit is not vacuous by injecting the fault themselves and
watching it fail: they patch ``hajek_rows`` here to halve the smooth bound,
and put a law in ``dp.LAWS`` whose sampler draws at the wrong scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ..dp import _RATIO_BLOCK, LAWS, check_epsilon
from ..errors import AuditFailure, warn_precondition
from ..hajek import HajekParams, hajek_rows, summary_rows
from ..ustat import Dataset, Kernel, all_tuples, collision_kernel, equality_kernel, runs_on_counts


# ---------------------------------------------------------------------------
# adversarial fixture
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdversarialFixture:
    """Deterministic dataset pair with concentrated projections but a large gap.

    ``base`` has ``ones`` leading entries equal to 1 and distinct values
    elsewhere; ``shifted`` additionally sets the next ceil(1/eps) entries to 1.
    With the all-equal kernel the two U-statistics differ by at least
    (k / 3 n eps) * xi while every projection stays within xi of the
    U-statistic.
    """

    n: int
    k: int
    eps: float
    ones: int
    flips: int
    base: Dataset
    shifted: Dataset
    xi: float
    gap: float
    gap_lower_bound: float


def adversarial_fixture(n: int, k: int, eps: float) -> AdversarialFixture:
    if k < 2:
        raise ValueError("fixture needs k >= 2")
    check_epsilon(eps)
    flips = math.ceil(1.0 / eps)
    ones = math.ceil(k + k ** (1.0 / (2 * k - 2)) * n ** (1.0 - 1.0 / (2 * k - 2)) - 1.0 / eps)
    if ones < 2 * k / eps:
        warn_precondition(f"leading block {ones} below 2k/eps = {2 * k / eps:.3g}; "
                          "gap bound may not hold")
    if ones + flips > n:
        raise ValueError("fixture parameters exceed the dataset size")
    base_vals = np.arange(2, n + 2, dtype=float)
    base_vals[:ones] = 1.0
    shifted_vals = base_vals.copy()
    shifted_vals[ones : ones + flips] = 1.0
    xi = math.comb(ones + flips - 1, k - 1) / math.comb(n - 1, k - 1)
    gap = (math.comb(ones + flips, k) - math.comb(ones, k)) / math.comb(n, k)
    return AdversarialFixture(
        n=n,
        k=k,
        eps=eps,
        ones=ones,
        flips=flips,
        base=Dataset(base_vals),
        shifted=Dataset(shifted_vals),
        xi=xi,
        gap=gap,
        gap_lower_bound=(k / (3.0 * n * eps)) * xi,
    )


def fixture_projection_margins(fix: AdversarialFixture) -> dict:
    """Direct evaluation of the gap and the projection concentration claims
    from the datasets' value counts (``summary_rows``), the largest deviation
    over the values present: an empty column's projection stands for no index."""
    pair = np.stack([fix.base.points, fix.shifted.points])
    rows = summary_rows(equality_kernel(fix.k), pair, all_tuples(fix.n, fix.k))
    out = {}
    for row, name in enumerate(("base", "shifted")):
        u = float(rows.a_n[row])
        present = rows.multiplicity[row] > 0
        out[name] = {
            "ustat": u,
            "max_abs_projection_deviation": float(np.max(np.abs(rows.projections[row, present] - u))),
        }
    out["direct_gap"] = out["shifted"]["ustat"] - out["base"]["ustat"]
    return out


# ---------------------------------------------------------------------------
# exhaustive smoothness audit
# ---------------------------------------------------------------------------

# most kernel evaluations (multisets x C(n, k)) of a kernel pass over the
# smoothness audit's stack, which keeps none past its block: binary data at
# k = 2 fit up to n = 322
AUDIT_VALUE_CAP = 2**24
# most entries (multisets x n) of the stack the count route builds: binary
# data fit up to n = 2047, 0.6 s and 259 MB peak RSS on a 2-core host
AUDIT_STACK_CAP = 2**22


@dataclass
class SmoothnessReport:
    datasets: int  # multisets, one row each of the engine's stack
    pairs_checked: int  # ordered multiset pairs one substitution apart
    worst_dominance_margin: float  # min over D of S(D) - max_nbr |A~ (D) - A~(D')|
    worst_smoothness_margin: float  # min over pairs of e^eps S(D) - S(D')
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def smoothness_audit(
    n: int,
    eps: float,
    xi: float,
    c_range: float = 1.0,
    alphabet=(0, 1),
    kernel: Kernel = collision_kernel(),
) -> SmoothnessReport:
    """Check the smooth bound against every adjacent dataset pair.

    Asserts (i) the bound dominates the realized change of the reweighted
    mean to every neighbor, (ii) the bound moves by at most e^eps between
    neighbors (Nissim, Raskhodnikova & Smith, STOC 2007).  The release runs
    on the complete family of ``kernel.degree``-subsets.  Raises AuditFailure
    on any violation; a NaN reweighted mean or bound counts as one, and so
    does a dataset whose a_n or projections are not finite (its release
    refuses).

    The audit runs over multisets, not sequences.  On the complete family a
    symmetric kernel's values are permuted with the data and each index's
    projection moves with its index, so a_n, L, the weights, the reweighted
    mean and the bound depend on a dataset only through its multiset of
    values.  A substitution at one position moves one count of that multiset
    from one letter to another, so every pair of neighbouring sequences has
    the reweighted means and bounds of a pair of multisets one substitution
    apart, and every such pair arises.  The audit therefore stacks the
    C(n + r - 1, r - 1) multisets over the r letters (each as its sorted
    dataset), summarises the stack in one ``summary_rows`` call (from value
    counts for the equality kernels, the default collision kernel among
    them; one kernel pass for any other) and runs one ``hajek_rows`` call
    over it, and checks every ordered pair of them one substitution apart,
    in place of the r^n sequences.  Violations name the two sorted datasets,
    in (dataset, letter moved out, letter moved in, check) order.  An audit
    whose kernel pass would evaluate more than ``AUDIT_VALUE_CAP`` kernel
    values, or whose count route would stack more than ``AUDIT_STACK_CAP``
    entries, raises ``ValueError`` before its stack is built.
    """
    alphabet, family = tuple(alphabet), all_tuples(n, kernel.degree)
    size = math.comb(n + len(alphabet) - 1, len(alphabet) - 1)
    counted = runs_on_counts(kernel, family)
    work = size * (n if counted else math.comb(n, kernel.degree))
    cap, unit = (AUDIT_STACK_CAP, "stack entries") if counted else (AUDIT_VALUE_CAP, "kernel values")
    if work > cap:
        raise ValueError(f"exhaustive audit would take {work} {unit}, over the cap of {cap}")
    params = HajekParams(eps=eps, c_range=c_range, xi=xi)
    letters = np.asarray(alphabet, dtype=float)

    multisets = list(itertools.combinations_with_replacement(range(len(alphabet)), n))
    datasets = letters[np.array(multisets)]
    rows = summary_rows(kernel, datasets, family)
    # a multiset with a non-finite a_n or projection releases nothing: the
    # engine refuses it, so it gets a NaN reweighted mean and bound
    finite = np.isfinite(rows.a_n) & np.isfinite(rows.projections).all(axis=1)
    live = np.flatnonzero(finite).tolist()
    states = hajek_rows(rows.take(live), params)
    reweighted = np.full(len(multisets), math.nan)
    bound = np.full(len(multisets), math.nan)
    reweighted[live] = states.reweighted
    bound[live] = states.smooth_bound

    # (D, D') index pairs of every substitution that changes a value
    index = {multiset: c for c, multiset in enumerate(multisets)}
    pairs = []
    for c, multiset in enumerate(multisets):
        for out in sorted(set(multiset)):
            rest = list(multiset)
            rest.remove(out)
            pairs += [(c, index[tuple(sorted(rest + [into]))])
                      for into in range(len(alphabet)) if letters[out] != letters[into]]
    source, target = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    checks = (  # (check, realized, allowed): margin is allowed - realized
        ("dominance", np.abs(reweighted[source] - reweighted[target]), bound[source]),
        ("smoothness", bound[target], math.exp(eps) * bound[source]),
    )
    margins = np.stack([allowed - got for _, got, allowed in checks], axis=1)
    worst = np.min(margins, axis=0, initial=math.inf)
    violations = []
    # a NaN margin (NaN reweighted mean or bound) is a violation too
    for p, j in zip(*np.nonzero(~(margins >= 0))):
        kind, got, allowed = checks[j]
        d, d2 = (tuple(alphabet[a] for a in multisets[c]) for c in (source[p], target[p]))
        violations.append((kind, d, d2, float(got[p]), float(allowed[p])))
    report = SmoothnessReport(
        datasets=len(multisets), pairs_checked=len(pairs),
        worst_dominance_margin=float(worst[0]), worst_smoothness_margin=float(worst[1]),
        violations=violations,
    )
    if report.violations:
        kind, d, d2, got, allowed = report.violations[0]
        raise AuditFailure(
            f"{kind} violated for {d} -> {d2}: {got:.6g} vs allowed {allowed:.6g} "
            f"({len(report.violations)} violations total)"
        )
    return report


# ---------------------------------------------------------------------------
# noise goodness of fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GofReport:
    law: str
    draws: int
    ks_gap: float
    threshold: float

    @property
    def ok(self) -> bool:
        return self.ks_gap <= self.threshold


# sizes of the KS gap's blocks of sorted samples, coarse to fine
_KS_BLOCKS = (2048, 128, 8)

# added to every block's bound on its largest gap.  The bound assumes the
# CDF is nondecreasing; the CDF of each law in dp.LAWS is, up to a few ulps
# of 1 (the rounding of one log, atan2 or exp, and the hand-over to the tail
# series at |z| = 32), and the bound's own i/n arithmetic rounds by ulps too.
# 2^-30 covers both about a million times over and is a thousandth of the
# 1/n step of 10^6 draws, so it costs the search next to nothing.
_KS_SLACK = 2.0**-30


def _nondecreasing(cdf: np.ndarray) -> np.ndarray:
    """``cdf``, the CDF at sorted points, refused where it decreases past the slack."""
    if np.any(cdf[1:] < cdf[:-1] - _KS_SLACK):
        raise ValueError("the KS gap needs a nondecreasing CDF; this one decreases "
                         f"by more than {_KS_SLACK:.3g} between sorted samples")
    return cdf


def _point_gap(cdf: np.ndarray, grid: np.ndarray, n: int) -> np.float64:
    """Largest of |F - i/n| and |(i + 1)/n - F| over the samples at indices
    ``grid`` (float, overwritten) with CDF values ``cdf``."""
    buf = np.divide(grid, n)  # empirical CDF just below each sample
    np.subtract(cdf, buf, out=buf)
    below = np.max(np.abs(buf, out=buf))
    grid += 1.0
    np.divide(grid, n, out=buf)  # ... and at it
    np.subtract(buf, cdf, out=buf)
    return np.maximum(below, np.max(np.abs(buf, out=buf)))


def _ks_gap(samples: np.ndarray, cdf_of_block) -> float:
    """Kolmogorov-Smirnov gap of sorted ``samples`` against a nondecreasing CDF.

    ``cdf_of_block(points)`` returns the CDF at sorted samples.  The gap is
    the largest of |F(x_i) - i/n| and |(i + 1)/n - F(x_i)| over the n
    samples, found by an exact branch-and-bound that evaluates F only where
    the largest can lie.  Knots at every ``_KS_BLOCKS[0]``-th sample and the
    last one cut the samples into blocks.  On a block of samples s..e with
    next knot t (e + 1, or e at the end), F(x_s) <= F(x_i) <= F(x_t) bounds
    every gap by max(F(x_t) - s/n, (e + 1)/n - F(x_s)).  A block whose bound
    plus ``_KS_SLACK`` reaches the best exact gap seen so far survives and
    is cut at finer knots, and the points of the last survivors are
    evaluated with ``_point_gap``'s arithmetic, so the result is the float a
    scan of every point gives.  Every block of b points has a bound of at
    least b/2n, so refining stops before a level that could prune none.  The
    survivors' points go to the CDF in sorted chunks of at most
    ``_RATIO_BLOCK``, slices where the survivors are contiguous: when every
    block survives, the search is the blocked scan of every point.  The
    block tables hold at most one entry per ``_KS_BLOCKS[-1]`` samples, so
    no temporary is the size of ``samples`` (peak RSS).  A NaN sample sorts
    last and makes the gap NaN, as in the scan.  CDF values that decrease by
    more than ``_KS_SLACK`` between the points evaluated raise
    ``ValueError``.
    """
    n = samples.size
    size, *finer = _KS_BLOCKS
    knots = np.minimum(np.arange(0, n + size, size), n - 1)
    cdf = _nondecreasing(cdf_of_block(samples[knots]))
    best = _point_gap(cdf, knots.astype(float), n)
    # each block: its first sample, and F there and at its next knot
    starts, lo, hi = knots[:-1], cdf[:-1], cdf[1:]
    while True:
        if np.isnan(best):
            return float(best)
        bound = np.maximum(hi - starts / n, np.minimum(starts + size, n) / n - lo)
        live = ~(bound + _KS_SLACK < best)
        starts, lo, hi = starts[live], lo[live], hi[live]
        if not finer or finer[0] >= 2 * n * best:
            break
        sub = finer.pop(0)
        knots = np.minimum(starts[:, None] + np.arange(sub, size, sub), n - 1).reshape(-1)
        inner = cdf_of_block(samples[knots])
        best = np.maximum(best, _point_gap(inner, knots.astype(float), n))
        cdf = np.column_stack((lo, inner.reshape(starts.size, -1), hi))
        _nondecreasing(cdf.reshape(-1))
        starts = (starts[:, None] + np.arange(0, size, sub)).reshape(-1)
        live = starts < n
        starts, lo, hi = starts[live], cdf[:, :-1].reshape(-1)[live], cdf[:, 1:].reshape(-1)[live]
        size = sub
    for c in range(0, starts.size, _RATIO_BLOCK // size):
        first = starts[c : c + _RATIO_BLOCK // size]
        # one contiguous run is sliced: a gather would make the case where
        # every block survives 1.7x slower than the blocked scan
        if first[-1] - first[0] == (first.size - 1) * size:
            stop = min(first[-1] + size, n)
            points, grid = samples[first[0] : stop], np.arange(first[0], stop, dtype=float)
        else:
            index = (first[:, None] + np.arange(size)).reshape(-1)
            index = index[index < n]
            points, grid = samples[index], index.astype(float)
        best = np.maximum(best, _point_gap(_nondecreasing(cdf_of_block(points)), grid, n))
    return float(best)


def noise_gof(law: str, draws: int, seed) -> GofReport:
    """Kolmogorov-Smirnov check of the unit-scale bulk sampler of
    ``dp.LAWS[law]`` against the law's CDF; an unknown law raises ValueError.

    Laplace is compared to its analytic CDF, the quartic-tail law to the
    closed form ``quartic_cdf``, which shares no math with the sampler.  The
    pass threshold 1.5 * 1.63/sqrt(draws) sits far above the expected gap of
    a correct sampler and far below that of a mis-scaled one; a NaN draw
    gives a NaN gap, which fails.  The draws are sorted once, and
    ``_ks_gap`` evaluates the reference CDF only at block ends and near
    where the gap is largest, about 1% of 10^6 draws, yet returns the gap
    of every draw exactly.  Besides the draws the audit holds only
    block-sized temporaries, as the samplers do.
    """
    if draws < 10**5:
        raise ValueError("goodness-of-fit needs at least 1e5 draws")
    if law not in LAWS:
        raise ValueError(f"unknown law {law!r}")
    samples = LAWS[law].draws(draws, seed)
    samples.sort()
    gap = _ks_gap(samples, LAWS[law].cdf)
    threshold = 1.5 * 1.63 / math.sqrt(draws)
    return GofReport(law=law, draws=draws, ks_gap=gap, threshold=threshold)
