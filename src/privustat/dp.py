"""Noise mechanisms and the privacy-budget ledger.

Pure epsilon-DP only.  Each noise law is one ``NoiseLaw`` record in
``LAWS``: its unit-scale sampler, its CDF and its release factor.
``releases`` is the only release: every caller passes it a law, and it
draws a stack's noise with that law's one sampler, the one that
``harness.audits.noise_gof`` audits against its CDF.  This is the only
module that draws release noise or debits a ledger.  The ledger is
advisory: it records and enforces totals under sequential and parallel
composition but does not itself certify that a mechanism was calibrated
correctly.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BudgetExhausted
from .rng import as_generator, row_generators

_SQRT2 = math.sqrt(2.0)

# integral of 1/(1+z^4) over the real line; normalizes the quartic density
QUARTIC_NORMALIZER = math.pi / _SQRT2

# points per block of both samplers and of quartic_cdf, and the most points
# the KS gap in harness.audits.noise_gof scans at once: 256 KB of float64, so
# each block's passes stay in L2
_RATIO_BLOCK = 2**15

# proposals in the smallest pass of the quartic sampler (every single draw's)
_QUARTIC_PASS = 64

# |z| from which quartic_cdf sums the tail series instead of the closed form
_CDF_SERIES_FROM = 32.0

# rng.random() returns multiples of 2^-53 in [0, 1).  The Laplace sampler reads
# the draw 0.0 as the middle of its cell, so the inverse CDF never hits log(0).
_ZERO_DRAW = 2.0**-54


# ---------------------------------------------------------------------------
# budget ledger
# ---------------------------------------------------------------------------

# The ledger counts in units of 2^-1074, the smallest positive double: every
# finite double is a whole number of units, so its running total is exact.
_UNIT_BITS = 1074

# A cap admits totals up to 2^-_SLACK_BITS of itself beyond it.  Splitting eps
# into double-precision parts (eps/(2t) per halving step) can round their sum
# a few ulps above eps, so a hard cap would refuse the last part of a release
# that spends exactly eps.
_SLACK_BITS = 40


def _units(x: float) -> int:
    """The finite double x as an exact whole number of units."""
    num, den = x.as_integer_ratio()
    return num << (_UNIT_BITS + 1 - den.bit_length())


def _double(units: int, up: bool) -> float:
    """A whole number of units as the nearest double above (``up``) or below it."""
    # keep the top 53 bits: the shift floors, and rounding up adds one
    shift = max(units.bit_length() - 53, 0)
    top = units >> shift
    if up and top << shift != units:
        top += 1
    return math.ldexp(top, shift - _UNIT_BITS)


@dataclass
class PrivacyBudget:
    """Append-only epsilon ledger with sequential and parallel accounting.

    Sequential spends add.  A ``parallel`` block runs branch ledgers over
    disjoint data; on exit the parent is debited by the *maximum* branch
    total.  The total of the recorded spends is kept exactly and compared
    with the cap exactly; ``spent`` rounds it up, so the ledger never reads
    less than was spent.  ``_cap`` is the exact cap in units, given only to
    branch ledgers; other ledgers derive it from ``epsilon_total``.
    """

    epsilon_total: float
    entries: list = field(default_factory=list, init=False)
    _cap: Optional[int] = field(default=None, repr=False)
    _total: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        if self._cap is None:
            if not 0 < self.epsilon_total < math.inf:  # also rejects NaN
                raise ValueError("total budget must be positive and finite")
            cap = _units(float(self.epsilon_total))
            self._cap = cap + (cap >> _SLACK_BITS)

    @property
    def spent(self) -> float:
        return _double(self._total, up=True)

    @property
    def remaining(self) -> float:
        return _double(_units(float(self.epsilon_total)) - self._total, up=False)

    def spend(self, label: str, eps: float) -> None:
        if not math.isfinite(eps):
            raise ValueError(f"cannot spend non-finite budget {eps} on {label!r}")
        if eps < 0:
            raise ValueError("cannot spend negative budget")
        units = _units(float(eps))
        if self._total + units > self._cap:
            raise BudgetExhausted(
                f"spend {eps} on {label!r} exceeds remaining {self.remaining:.6g}"
            )
        self.entries.append((label, float(eps)))
        self._total += units

    @contextmanager
    def parallel(self, label: str):
        """Context manager for branches over disjoint data (max-composition).

        Each branch may spend what the parent's cap still admits, rounded
        down to a double, so the largest branch total, rounded up, still
        fits the parent."""
        branches = _ParallelBranches(_double(self._cap - self._total, up=False))
        try:
            yield branches
        finally:  # a branch that released and then raised still spent its budget
            self.spend(label, branches.max_spent())

    def summary(self) -> str:
        lines = [f"privacy ledger: spent {self.spent:.6g} of {self.epsilon_total:.6g}"]
        for label, eps in self.entries:
            lines.append(f"  {eps:.6g}  {label}")
        return "\n".join(lines)


class _ParallelBranches:
    def __init__(self, cap: float):
        self._cap = cap
        self._branches: list[PrivacyBudget] = []

    def branch(self) -> PrivacyBudget:
        b = PrivacyBudget(self._cap, _cap=_units(self._cap))
        self._branches.append(b)
        return b

    def max_spent(self) -> float:
        return max((b.spent for b in self._branches), default=0.0)


def scratch_budget() -> PrivacyBudget:
    """Ledger with effectively no cap, for callers that only want the record."""
    return PrivacyBudget(1e30)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def laplace_draws(size: int, seed) -> np.ndarray:
    """``size`` draws with density exp(-|z|) / 2, via the inverse CDF.

    The uniforms are drawn and transformed one cache-sized block at a time,
    straight into the output.  ``rng.random`` fills in order, so the draws
    do not depend on the block size: they equal one unblocked pass.
    """
    rng = as_generator(seed)
    out = np.empty(size)
    for start in range(0, size, _RATIO_BLOCK):
        stop = min(size, start + _RATIO_BLOCK)
        out[start:stop] = _laplace_inverse_cdf(rng.random(stop - start))
    return out


def _laplace_inverse_cdf(u: np.ndarray) -> np.ndarray:
    """Unit-scale Laplace draws from uniforms ``u`` on [0, 1), which it
    overwrites; the uniform 0.0 is read as 2^-54.  In place, each step in
    the order of -sign(t) * log1p(-2 |t|) with t = max(u, 2^-54) - 0.5."""
    np.maximum(u, _ZERO_DRAW, out=u)
    u -= 0.5
    noise = np.sign(u)
    np.abs(u, out=u)
    u *= -2.0
    np.log1p(u, out=u)
    np.negative(noise, out=noise)
    noise *= u
    return noise


def _laplace_cdf(z) -> np.ndarray:
    """Standard Laplace CDF at ``z``, in any order: 0.5 exp(-|z|), taken
    from 1 where z >= 0.  One exp per point, computed in place in the
    output."""
    z = np.asarray(z, dtype=float)
    cdf = np.abs(z, out=np.empty(z.shape))
    np.negative(cdf, out=cdf)
    np.exp(cdf, out=cdf)
    cdf *= 0.5
    np.subtract(1.0, cdf, out=cdf, where=z >= 0)
    return cdf


def quartic_draws(size: int, seed) -> np.ndarray:
    """Ratio-of-uniforms sampler (Kinderman & Monahan, ACM TOMS 1977).

    A point (u, v) uniform on the region u^4 + v^4 <= u^2, that is
    0 < u <= sqrt(f(v/u)) for f(z) = 1/(1+z^4), gives z = v/u with density
    proportional to f.  The region lies in the rectangle (0, 1] x
    [-2^-1/2, 2^-1/2): sup sqrt(f) = 1, and sup |z| sqrt(f(z)) = 2^-1/2 at
    |z| = 1.  So each proposal takes two uniforms, u = 1 - random() on
    (0, 1], which keeps z finite, and v = (random() - 1/2) sqrt(2), and is
    kept when it lies in the region: a polynomial test, with no envelope
    density and no transcendental.  Mean acceptance rate is the region's
    share of the rectangle, pi/4 (about 0.785).

    Each pass draws ``2 * want`` u's (at least 64, at most one cache-sized
    block of ``_RATIO_BLOCK``), then as many v's, and writes the ratios of
    its accepted points straight into the output, so a bulk draw holds no
    proposal-sized temporary beside it (peak RSS) and wastes only the last
    pass's surplus.  A draw of at most 2^14 points, every release's among
    them, never reaches the cap, so its proposals and output are those of
    one unblocked batch per pass.

    u^4 and v^4 are formed as squares of squares, because ``**4`` goes
    through libm ``pow`` at several times the cost.  The sum may then differ
    in its last bit, which moves an acceptance only if a point lies within
    that bit of the region's edge (odds about 2^-52 per proposal).
    """
    rng = as_generator(seed)
    out = np.empty(size)
    have = 0
    while have < size:
        want = size - have
        batch = max(_QUARTIC_PASS, min(_RATIO_BLOCK, int(want / 0.5)))
        u, v = rng.random(batch), rng.random(batch)
        kept = np.flatnonzero(_quartic_accepts(u, v))[:want]
        np.divide(v[kept], u[kept], out=out[have : have + kept.size])
        have += kept.size
    return out


def _quartic_accepts(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Which points of the ratio-of-uniforms rectangle lie in the region
    u^4 + v^4 <= u^2.  Maps uniforms ``u``, ``v`` on [0, 1) in place to the
    rectangle's u = 1 - u on (0, 1] and v = (v - 1/2) sqrt(2) on
    [-2^-1/2, 2^-1/2); the accepted draws are then v/u."""
    np.subtract(1.0, u, out=u)
    v -= 0.5
    v *= _SQRT2
    u2 = u * u
    lhs = np.square(u2)
    v4 = v * v
    np.square(v4, out=v4)
    lhs += v4
    return lhs <= u2


def quartic_cdf(z) -> np.ndarray:
    """CDF of the quartic-tail law, from the antiderivative of 1/(1+t^4).

    With Q = QUARTIC_NORMALIZER and x = |z|, P(Z < -x) is 1/2 - [ln((x^2 +
    sqrt2 x + 1)/(x^2 - sqrt2 x + 1))/(4 sqrt2) + atan2(sqrt2 x, 1 - x^2)/(2 sqrt2)]/Q.
    Its terms cancel to a tail near 1/(3 Q x^3) that loses its digits (and,
    past x ~ 1e4, monotonicity), so from x = 32 on the tail is the series
    (1/3 - x^-4/7 + x^-8/11) / (Q x^3).  The upper half is 1 minus the tail,
    so +-inf give exactly 1 and 0.  Points go in cache-sized blocks, each
    computed in place in the output with a few block-sized temporaries (peak
    RSS); the series runs only on the points that need it.
    """
    z = np.asarray(z, dtype=float)
    cdf = np.empty(z.shape)
    flat_z, flat_cdf = z.reshape(-1), cdf.reshape(-1)
    for start in range(0, flat_z.size, _RATIO_BLOCK):
        block = slice(start, start + _RATIO_BLOCK)
        zb, lower = flat_z[block], flat_cdf[block]
        x = np.abs(zb)
        b = np.minimum(x, _CDF_SERIES_FROM)
        bb = b * b
        b *= _SQRT2
        np.add(bb, b, out=lower)
        lower += 1.0
        den = bb - b
        den += 1.0
        lower /= den
        np.log(lower, out=lower)
        lower /= 4.0 * _SQRT2
        np.subtract(1.0, bb, out=bb)
        np.arctan2(b, bb, out=b)
        b /= 2.0 * _SQRT2
        lower += b
        lower /= QUARTIC_NORMALIZER
        np.subtract(0.5, lower, out=lower)
        far = np.flatnonzero(~(x < _CDF_SERIES_FROM))  # NaN included
        if far.size:
            r = 1.0 / x[far]
            u = (r * r) ** 2
            lower[far] = (1.0 / 3.0 + u * (u / 11.0 - 1.0 / 7.0)) * (r * r * r) / QUARTIC_NORMALIZER
        np.subtract(1.0, lower, out=lower, where=~(zb < 0))
    return cdf


# ---------------------------------------------------------------------------
# noise laws and the release
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseLaw:
    """One noise law, as every release and audit reads it.

    ``draws(size, seed)`` is the unit-scale sampler that every release
    draws from and ``harness.audits.noise_gof`` checks against ``cdf``.  A
    release at sensitivity S and budget eps draws at scale factor * S / eps.
    """

    draws: Callable
    cdf: Callable
    factor: float


LAPLACE = NoiseLaw(laplace_draws, _laplace_cdf, 1.0)
QUARTIC = NoiseLaw(quartic_draws, quartic_cdf, 10.0)
LAWS = {"laplace": LAPLACE, "quartic": QUARTIC}


def check_epsilon(eps: float) -> None:
    """Refuse an epsilon that is not finite and > 0, before any warning or spend."""
    if not 0 < eps < math.inf:  # also rejects NaN
        raise ValueError("epsilon must be finite and > 0")


def releases(
    law: NoiseLaw,
    values,
    sensitivities,
    eps: float,
    budgets: list[PrivacyBudget],
    seed,
    label: str,
) -> tuple[np.ndarray, np.ndarray]:
    """values[i] + ``law`` noise of scale law.factor * sensitivities[i] / eps,
    debited to budgets[i], for q releases over disjoint data (a single
    release is the q = 1 case).  Returns the (q,) released values and the
    (q,) scales they were drawn at, so no caller restates the calibration.

    Each distinct generator g of ``seed`` (``rng.row_generators``) adds one
    call of the law's audited sampler, ``law.draws(len(rows), g)`` times
    their scales, to its rows with a nonzero scale, in row order; a single
    seed is the one-group case.  Those draws are i.i.d. draws of the law
    and independent of the data, so each row gets the noise of a release on
    its own data alone, and q releases over disjoint data compose in
    parallel.  A value whose scale is zero is released exactly and draws
    nothing.

    ``sensitivities[i]`` bounds the sensitivity at dataset i: globally for
    Laplace noise; for quartic noise, as an eps-smooth upper bound on the
    local sensitivity (Nissim, Raskhodnikova & Smith, STOC 2007).  Every
    input that would release a non-finite value, or lacks one ledger or
    generator per row, is refused before any ledger is debited, and every
    ledger is debited before any draw.  The checks and scales run on Python
    floats: a release holds one value per chunk, and for so few, list scans
    cost less than array operations.
    """
    check_epsilon(eps)
    out = np.array(values, dtype=float)
    for value in out.tolist():
        if not math.isfinite(value):
            raise ValueError(f"cannot release the non-finite value {value}")
    listed = np.asarray(sensitivities, dtype=float).tolist()
    for sensitivity in listed:
        if not 0 <= sensitivity < math.inf:  # also rejects NaN
            raise ValueError(f"sensitivity must be finite and >= 0, got {sensitivity}")
    scales = np.array([law.factor * sensitivity / eps for sensitivity in listed])
    for sensitivity, scale in zip(listed, scales.tolist()):
        if not scale < math.inf:  # an overflowing ratio
            raise ValueError(f"non-finite noise scale {law.factor} * {sensitivity} / {eps}")
    if len(budgets) != out.size:
        raise ValueError(f"need one ledger per release, got {len(budgets)} for {out.size}")
    generators = row_generators(seed, out.size)
    for budget in budgets:
        budget.spend(label, eps)
    groups: dict[np.random.Generator, list[int]] = {}  # live rows by generator, in row order
    for row in np.flatnonzero(scales).tolist():
        groups.setdefault(generators[row], []).append(row)
    for rng, rows in groups.items():
        rows = np.array(rows)
        out[rows] += law.draws(rows.size, rng) * scales[rows]
    return out, scales
