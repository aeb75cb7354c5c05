"""Verification oracles: adversarial fixtures, exhaustive smoothness, noise GOF.

These are the checks that justify trusting the mechanisms: a deterministic
dataset pair whose U-statistic gap is combinatorially certified, an exhaustive
neighbor enumeration that validates the smooth sensitivity bound on every
multiset of a finite alphabet (one stacked run of the Hájek engine, under a
cap on the kernel values it holds), and goodness-of-fit of both noise
samplers against their analytic CDFs.  The audits take no fault-injection
option.  Tests show that an audit is not vacuous by injecting the fault
themselves and watching it fail: they patch ``hajek_rows`` here to halve
the smooth bound, and hand the KS gap draws at the wrong scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ..dp import _RATIO_BLOCK, laplace_draws, quartic_cdf, quartic_draws
from ..errors import AuditFailure, warn_precondition
from ..hajek import HajekParams, hajek_rows, summary_from_values
from ..rng import as_generator
from ..ustat import (
    Dataset,
    Kernel,
    all_tuples,
    collision_kernel,
    equality_kernel,
    kernel_values_and_projections,
)


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
    if eps <= 0:
        raise ValueError("eps must be > 0")
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
    """Direct evaluation of the gap and the projection concentration claims."""
    h = equality_kernel(fix.k)
    family = all_tuples(fix.n, fix.k)
    out = {}
    values, proj = kernel_values_and_projections(
        h, np.stack([fix.base.points, fix.shifted.points]), family
    )
    for row, name in enumerate(("base", "shifted")):
        u = float(values[row].mean())
        out[name] = {
            "ustat": u,
            "max_abs_projection_deviation": float(np.max(np.abs(proj[row] - u))),
        }
    out["direct_gap"] = out["shifted"]["ustat"] - out["base"]["ustat"]
    return out


# ---------------------------------------------------------------------------
# exhaustive smoothness audit
# ---------------------------------------------------------------------------

# most kernel values (multisets x C(n, k)) the smoothness audit may hold:
# 128 MiB of float64, enough for binary data at k = 2 up to n = 322
AUDIT_VALUE_CAP = 2**24


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
    dataset), runs one kernel pass and one ``hajek_rows`` call over the
    stack, and checks every ordered pair of them one substitution apart, in
    place of the r^n sequences.  Violations name the two sorted datasets, in
    (dataset, letter moved out, letter moved in, check) order.  An audit
    whose stack would hold more than ``AUDIT_VALUE_CAP`` kernel values
    raises ``ValueError`` before the kernel pass.
    """
    alphabet = tuple(alphabet)
    held = math.comb(n + len(alphabet) - 1, len(alphabet) - 1) * math.comb(n, kernel.degree)
    if held > AUDIT_VALUE_CAP:
        raise ValueError(
            f"exhaustive audit would hold {held} kernel values, over the cap of {AUDIT_VALUE_CAP}"
        )
    family = all_tuples(n, kernel.degree)
    params = HajekParams(eps=eps, c_range=c_range, xi=xi)
    letters = np.asarray(alphabet, dtype=float)

    multisets = list(itertools.combinations_with_replacement(range(len(alphabet)), n))
    datasets = letters[np.array(multisets)]
    values, proj = kernel_values_and_projections(kernel, datasets, family)
    rows = summary_from_values(kernel, datasets, family, values, proj)
    # a multiset with a non-finite a_n or projection releases nothing: the
    # engine refuses it, so it gets a NaN reweighted mean and bound
    live = np.flatnonzero(np.isfinite(rows.a_n) & np.isfinite(proj).all(axis=1)).tolist()
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


def _ks_gap(samples: np.ndarray, cdf_of_block) -> float:
    """Kolmogorov-Smirnov gap of sorted ``samples`` against a CDF.

    ``cdf_of_block(block)`` returns the CDF at a block of consecutive sorted
    samples.  Blocks of ``_RATIO_BLOCK`` points are compared with the
    empirical CDF just below and at each sample, so no temporary is the size
    of ``samples`` (peak RSS).
    """
    n = samples.size
    gaps = []
    for start in range(0, n, _RATIO_BLOCK):
        stop = min(start + _RATIO_BLOCK, n)
        cdf = cdf_of_block(samples[start:stop])
        grid = np.arange(start, stop, dtype=float)
        buf = np.divide(grid, n)  # empirical CDF just below each sample
        np.subtract(cdf, buf, out=buf)
        gaps.append(np.max(np.abs(buf, out=buf)))
        grid += 1.0
        np.divide(grid, n, out=buf)  # ... and at it
        np.subtract(buf, cdf, out=buf)
        gaps.append(np.max(np.abs(buf, out=buf)))
    return float(np.max(gaps))


def _laplace_cdf(z: np.ndarray) -> np.ndarray:
    """Standard Laplace CDF at sorted ``z``: one exp per point, not two."""
    neg = int(np.searchsorted(z, 0.0))
    return np.concatenate((0.5 * np.exp(z[:neg]), 1.0 - 0.5 * np.exp(-z[neg:])))


def noise_gof(law: str, draws: int, seed) -> GofReport:
    """Kolmogorov-Smirnov check of a unit-scale sampler against its reference CDF.

    Laplace is compared to its analytic CDF, the quartic-tail law to the
    closed form ``quartic_cdf``, which shares no math with the sampler.  The
    pass threshold 1.5 * 1.63/sqrt(draws) sits far above the expected gap of
    a correct sampler and far below that of a mis-scaled one.  The draws are
    sorted once and then compared block by block: besides them the audit
    holds only block-sized temporaries, as the samplers do.
    """
    if draws < 10**5:
        raise ValueError("goodness-of-fit needs at least 1e5 draws")
    rng = as_generator(seed)
    if law == "laplace":
        samples = laplace_draws(1.0, draws, rng)
        cdf = _laplace_cdf
    elif law == "quartic":
        samples = quartic_draws(draws, rng)
        cdf = quartic_cdf
    else:
        raise ValueError(f"unknown law {law!r}")
    samples.sort()
    gap = _ks_gap(samples, cdf)
    threshold = 1.5 * 1.63 / math.sqrt(draws)
    return GofReport(law=law, draws=draws, ks_gap=gap, threshold=threshold)
