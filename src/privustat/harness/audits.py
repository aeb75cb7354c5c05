"""Verification oracles: adversarial fixtures, exhaustive smoothness, noise GOF.

These are the checks that justify trusting the mechanisms: a deterministic
dataset pair whose U-statistic gap is combinatorially certified, an exhaustive
neighbor enumeration that validates the smooth sensitivity bound at desk
scale, and goodness-of-fit of both noise samplers against their analytic
CDFs.  Each audit has a fault-injection mode so tests can confirm the audit
itself is not vacuous.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..dp import _RATIO_BLOCK, laplace_draws, quartic_cdf, quartic_draws
from ..errors import AuditFailure, PreconditionWarning
from ..hajek import HajekParams, hajek_state, summary_from_values
from ..rng import as_generator
from ..ustat import (
    _BLOCK_ROWS,
    Dataset,
    Kernel,
    all_tuples,
    collision_kernel,
    equality_kernel,
    kernel_values_and_projections,
    projections_from_values,
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
        warnings.warn(
            f"leading block {ones} below 2k/eps = {2 * k / eps:.3g}; gap bound may not hold",
            PreconditionWarning,
            stacklevel=2,
        )
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
    for name, d in (("base", fix.base), ("shifted", fix.shifted)):
        values, proj = kernel_values_and_projections(h, d, family)
        u = float(values.mean())
        out[name] = {
            "ustat": u,
            "max_abs_projection_deviation": float(np.max(np.abs(proj - u))),
        }
    out["direct_gap"] = out["shifted"]["ustat"] - out["base"]["ustat"]
    return out


# ---------------------------------------------------------------------------
# exhaustive smoothness audit
# ---------------------------------------------------------------------------

@dataclass
class SmoothnessReport:
    n: int
    k: int
    eps: float
    xi: float
    c_range: float
    datasets: int
    pairs_checked: int
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
    k: int = 2,
    alphabet=(0, 1),
    kernel: Optional[Kernel] = None,
    fault_scale: float = 1.0,
) -> SmoothnessReport:
    """Check the smooth bound against every adjacent dataset pair.

    Enumerates all |alphabet|^n datasets, computes the reweighted mean and the
    smooth bound for each, and asserts (i) the bound dominates the realized
    change of the reweighted mean to every neighbor, (ii) the bound moves by
    at most e^eps between neighbors.  ``fault_scale`` scales the bound before
    checking; anything below 1 is a deliberate fault.  Raises AuditFailure on
    any violation; a NaN reweighted mean or bound counts as one, and so does
    a dataset whose kernel values are not finite (its release refuses).
    """
    if n > 12:
        raise ValueError("exhaustive audit is limited to small n")
    if not 0.0 <= fault_scale < math.inf:  # also rejects NaN
        raise ValueError("fault scale must be finite and >= 0")
    if kernel is None:
        kernel = collision_kernel() if k == 2 else equality_kernel(k)
    family = all_tuples(n, k)
    params = HajekParams(eps=eps, c_range=c_range, xi=xi)
    alphabet = tuple(alphabet)
    r = len(alphabet)

    # dataset c is the c-th config in itertools.product order, so its
    # position i holds alphabet[c // r^(n-1-i) % r]
    configs = list(itertools.product(alphabet, repeat=n))
    points = np.asarray(configs, dtype=float)
    reweighted = np.empty(len(configs))
    bound = np.empty(len(configs))
    # at n <= 12 the family is one stored block; the kernel runs once per
    # chunk of datasets, on at most _BLOCK_ROWS rows
    rows = family.subsets
    per_chunk = max(1, _BLOCK_ROWS // family.size)
    for lo in range(0, len(configs), per_chunk):
        chunk = points[lo : lo + per_chunk]
        values = kernel.evaluate(chunk[:, rows].reshape(-1, k)).reshape(len(chunk), -1)
        for c, dataset_values in enumerate(values, start=lo):
            try:
                proj = projections_from_values(dataset_values, family)
                state = hajek_state(summary_from_values(dataset_values, family, proj), params)
            except ValueError:  # non-finite kernel values: nothing is released
                reweighted[c] = bound[c] = math.nan
                continue
            reweighted[c] = state.reweighted
            bound[c] = fault_scale * state.smooth_bound
    grown = math.exp(eps) * bound

    codes = np.arange(len(configs))
    symbols = np.arange(r)
    symbol_values = np.asarray(alphabet)
    pairs, worst = 0, [math.inf, math.inf]
    found = []  # ((dataset, position, symbol, check), violation)
    for i in range(n):
        # (dataset, symbol) arrays of every substitution at position i
        place = r ** (n - 1 - i)
        digit = (codes // place % r)[:, None]
        neighbor = codes[:, None] + (symbols - digit) * place
        differ = symbol_values[digit] != symbol_values[symbols]
        pairs += int(differ.sum())
        checks = (  # (check, realized, allowed): margin is allowed - realized
            ("dominance", np.abs(reweighted[:, None] - reweighted[neighbor]), bound[:, None]),
            ("smoothness", bound[neighbor], grown[:, None]),
        )
        for j, (kind, got, allowed) in enumerate(checks):
            margin = allowed - got
            worst[j] = min(worst[j], float(np.min(margin[differ], initial=math.inf)))
            # a NaN margin (NaN reweighted mean or bound) is a violation too
            for c, a in zip(*np.nonzero(differ & ~(margin >= 0))):
                d, d2 = configs[c], configs[neighbor[c, a]]
                found.append(((c, i, a, j), (kind, d, d2, float(got[c, a]), float(allowed[c, 0]))))
    found.sort(key=lambda f: f[0])
    report = SmoothnessReport(
        n=n, k=k, eps=eps, xi=xi, c_range=c_range,
        datasets=len(configs), pairs_checked=pairs,
        worst_dominance_margin=worst[0], worst_smoothness_margin=worst[1],
        violations=[v for _, v in found],
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


def noise_gof(law: str, draws: int, seed, scale: float = 1.0) -> GofReport:
    """Kolmogorov-Smirnov check of a sampler against its reference CDF.

    Laplace is compared to its analytic CDF, the quartic-tail law to the
    closed form ``quartic_cdf``, which shares no math with the sampler.  The
    pass threshold 1.5 * 1.63/sqrt(draws) sits far above the expected gap of
    a correct sampler and far below that of a mis-scaled one.  The draws are
    sorted once and then compared block by block: besides them the audit
    holds only block-sized temporaries, as the samplers do.
    """
    if draws < 10**5:
        raise ValueError("goodness-of-fit needs at least 1e5 draws")
    if not 0 < scale < math.inf:  # also rejects NaN
        raise ValueError(f"goodness-of-fit scale must be finite and > 0, got {scale}")
    rng = as_generator(seed)
    if law == "laplace":
        samples = laplace_draws(scale, draws, rng)
        cdf = _laplace_cdf
    elif law == "quartic":
        samples = quartic_draws(draws, rng)
        samples *= scale
        cdf = quartic_cdf
    else:
        raise ValueError(f"unknown law {law!r}")
    samples.sort()
    gap = _ks_gap(samples, lambda block: cdf(block / scale))
    threshold = 1.5 * 1.63 / math.sqrt(draws)
    return GofReport(law=law, draws=draws, ks_gap=gap, threshold=threshold)
