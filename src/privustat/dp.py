"""Noise mechanisms and the privacy-budget ledger.

Pure epsilon-DP only.  Two samplers: Laplace (global-sensitivity mechanism)
and the heavy-tailed law with density proportional to 1/(1+z^4) used by the
smooth-sensitivity mechanism, whose CDF ``quartic_cdf`` computes in closed
form as the audit's reference.  This is the only module that draws release
noise or debits a ledger: every release goes through
``global_sensitivity_releases`` or ``smooth_sensitivity_releases``.  They
release q values over disjoint data at once (a single release is the q = 1
case): they refuse every non-finite value or sensitivity, then debit every
ledger, then draw, value i from generator i with the draws of a single
release.  Those draws go through the inverse CDF and the acceptance step of
the vector samplers that ``harness.audits.noise_gof`` checks.  Bulk draws
stream over cache-sized blocks of ``_RATIO_BLOCK`` points, so nothing the
size of a draw is held beside the output.  Seeded single draws,
and so every release, equal those of unblocked samplers; a quartic draw of
more than 2^14 points takes its proposals block by block, so it differs from
an unblocked draw of the same seed but follows the same law.  The ledger is
advisory: it records and enforces totals under sequential and parallel
composition but does not itself certify that a mechanism was calibrated
correctly.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BudgetExhausted, NonPositiveScale
from .rng import as_generator

# integral of 1/(1+z^4) over the real line; normalizes the quartic density
QUARTIC_NORMALIZER = math.pi / math.sqrt(2.0)

# sup_z sqrt(2) (1+z^2) / (1+z^4): rejection envelope vs the standard Cauchy
_ENVELOPE = (2.0 + math.sqrt(2.0)) / 2.0

# points per block of both samplers, of quartic_cdf and of the KS gap in
# harness.audits.noise_gof: 256 KB of float64, so each block's passes stay in L2
_RATIO_BLOCK = 2**15

SMOOTH_RELEASE_FACTOR = 10.0

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
_UNIT = 2**_UNIT_BITS

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

def laplace_draws(scale: float, size: int, rng) -> np.ndarray:
    """``size`` draws with density exp(-|z|/b) / (2b), via the inverse CDF.

    The uniforms are drawn and transformed one cache-sized block at a time,
    straight into the output.  ``rng.random`` fills in order, so the draws
    do not depend on the block size: they equal one unblocked pass.
    """
    if not 0 < scale < math.inf:  # also rejects NaN
        raise NonPositiveScale(f"Laplace scale must be finite and > 0, got {scale}")
    gen = as_generator(rng)
    out = np.empty(size)
    for start in range(0, size, _RATIO_BLOCK):
        stop = min(size, start + _RATIO_BLOCK)
        out[start:stop] = _laplace_inverse_cdf(gen.random(stop - start), scale)
    return out


def _laplace_inverse_cdf(u: np.ndarray, scale) -> np.ndarray:
    """Laplace draws of scale ``scale`` (a scalar, or one per point) from
    uniforms ``u`` on [0, 1); the uniform 0.0 is read as 2^-54."""
    u = np.maximum(u, _ZERO_DRAW) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def _laplace_each(scales: np.ndarray, rngs) -> np.ndarray:
    """One Laplace draw of scale ``scales[i]`` from each generator ``rngs[i]``:
    the one uniform that ``laplace_draws(scales[i], 1, rngs[i])`` draws."""
    return _laplace_inverse_cdf(np.array([rng.random() for rng in rngs]), scales)


def quartic_draws(size: int, seed) -> np.ndarray:
    """Rejection sampler from a standard Cauchy proposal.

    The acceptance ratio sqrt(2)(1+z^2) / ((1+z^4) * envelope) is exact, so the
    output law matches ``quartic_cdf`` to sampling error only.
    Mean acceptance rate is 1/envelope (about 0.586).

    Each pass draws ``2 * want`` proposals (at least 64, at most one
    cache-sized block of ``_RATIO_BLOCK``), then as many uniforms, and writes
    its accepted proposals straight into the output, so a bulk draw holds no
    proposal-sized temporary beside it (peak RSS) and wastes only the last
    pass's surplus.  A draw of at most 2^14 points, every release's
    ``quartic_draws(1, seed)`` among them, never reaches the cap, so its
    proposals and output are those of one unblocked batch per pass.

    z^4 is formed as (z^2)^2, because ``z**4`` goes through libm ``pow`` at
    several times the cost.  The ratio may then differ in its last bit, which
    moves an acceptance only if a uniform draw lands on that bit (odds 2^-53
    per proposal).
    """
    rng = as_generator(seed)
    out = np.empty(size)
    have = 0
    while have < size:
        want = size - have
        batch = max(_QUARTIC_PASS, min(_RATIO_BLOCK, int(want / 0.5)))
        z = rng.standard_cauchy(batch)
        accepted = z[_quartic_accepts(z, rng.random(batch))]
        take = min(accepted.size, want)
        out[have : have + take] = accepted[:take]
        have += take
    return out


def _quartic_accepts(z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Which Cauchy proposals ``z`` the rejection step keeps, given their
    uniforms ``u``: u <= sqrt(2)(1+z^2) / ((1+z^4) * envelope)."""
    den = z * z
    ratio = den + 1.0
    ratio *= math.sqrt(2.0)
    np.square(den, out=den)
    den += 1.0
    den *= _ENVELOPE
    ratio /= den
    return u <= ratio


def _quartic_each(rngs) -> np.ndarray:
    """One quartic-tail draw from each generator, with the passes that
    ``quartic_draws(1, rng)`` makes: _QUARTIC_PASS proposals, then as many
    uniforms, until one is accepted.  The first pass of every generator is
    tested as one (q, _QUARTIC_PASS) batch."""
    out = np.empty(len(rngs))
    todo = np.arange(len(rngs))
    while todo.size:
        z = np.empty((todo.size, _QUARTIC_PASS))
        u = np.empty((todo.size, _QUARTIC_PASS))
        for row, i in enumerate(todo):
            z[row] = rngs[i].standard_cauchy(_QUARTIC_PASS)
            u[row] = rngs[i].random(_QUARTIC_PASS)
        keep = _quartic_accepts(z, u)
        hit = keep.any(axis=1)
        out[todo[hit]] = z[hit, keep[hit].argmax(axis=1)]
        todo = todo[~hit]
    return out


def quartic_cdf(z) -> np.ndarray:
    """CDF of the quartic-tail law, from the antiderivative of 1/(1+t^4).

    With Q = QUARTIC_NORMALIZER and x = |z|, P(Z < -x) is 1/2 - [ln((x^2 +
    sqrt2 x + 1)/(x^2 - sqrt2 x + 1))/(4 sqrt2) + atan2(sqrt2 x, 1 - x^2)/(2 sqrt2)]/Q.
    Its terms cancel to a tail near 1/(3 Q x^3) that loses its digits (and,
    past x ~ 1e4, monotonicity), so from x = 32 on the tail is the series
    (1/3 - x^-4/7 + x^-8/11) / (Q x^3).  The upper half is 1 minus the tail,
    so +-inf give exactly 1 and 0.  Points go in cache-sized blocks, so no
    temporary is the size of z (peak RSS).
    """
    z = np.asarray(z, dtype=float)
    cdf = np.empty(z.shape)
    flat_z, flat_cdf = z.reshape(-1), cdf.reshape(-1)
    r2 = math.sqrt(2.0)
    for start in range(0, flat_z.size, _RATIO_BLOCK):
        block = slice(start, start + _RATIO_BLOCK)
        x = np.abs(flat_z[block])
        b = np.minimum(x, _CDF_SERIES_FROM)
        bb = b * b
        log_term = np.log((bb + r2 * b + 1.0) / (bb - r2 * b + 1.0)) / (4.0 * r2)
        atan_term = np.arctan2(r2 * b, 1.0 - bb) / (2.0 * r2)
        body = 0.5 - (log_term + atan_term) / QUARTIC_NORMALIZER
        r = 1.0 / np.maximum(x, _CDF_SERIES_FROM)
        u = (r * r) ** 2
        tail = (1.0 / 3.0 + u * (u / 11.0 - 1.0 / 7.0)) * (r * r * r) / QUARTIC_NORMALIZER
        lower = np.where(x < _CDF_SERIES_FROM, body, tail)
        flat_cdf[block] = np.where(flat_z[block] < 0, lower, 1.0 - lower)
    return cdf


# ---------------------------------------------------------------------------
# release mechanisms
# ---------------------------------------------------------------------------

def _releases(values, sensitivities, eps: float, factor: float, budgets, seeds, label, draw):
    """values[i] + draw(scales, generators)[i] with scale_i = factor *
    sensitivities[i] / eps: the body of both releases.

    Every input that would release a non-finite value is refused before any
    ledger is debited, and every ledger is debited before any draw.  A value
    whose scale is zero is released exactly and draws nothing.  The checks
    and scales run on Python floats: a release holds one value per chunk,
    and for so few, list scans cost less than array operations.
    """
    out = np.array(values, dtype=float)
    for value in out.tolist():
        if not math.isfinite(value):
            raise ValueError(f"cannot release the non-finite value {value}")
    listed = np.asarray(sensitivities, dtype=float).tolist()
    for sensitivity in listed:
        if not 0 <= sensitivity < math.inf:  # also rejects NaN
            raise ValueError(f"sensitivity must be finite and >= 0, got {sensitivity}")
    if eps <= 0:
        raise ValueError("epsilon must be > 0")
    scales = [factor * sensitivity / eps for sensitivity in listed]
    for sensitivity, scale in zip(listed, scales):
        if not scale < math.inf:  # NaN eps, or an overflowing ratio
            raise ValueError(f"non-finite noise scale {factor} * {sensitivity} / {eps}")
    for budget in budgets:
        budget.spend(label, eps)
    live = [i for i, scale in enumerate(scales) if scale]
    if live:
        noise = draw(np.array([scales[i] for i in live]), [as_generator(seeds[i]) for i in live])
        if len(live) == out.size:
            out += noise
        else:
            out[live] += noise
    return out


def global_sensitivity_releases(
    values,
    gs,
    eps: float,
    budgets: list[PrivacyBudget],
    seeds: list,
    label: str = "laplace release",
) -> np.ndarray:
    """values[i] + Laplace(gs[i]/eps), debited to budgets[i] and drawn from
    seeds[i], for q releases over disjoint data.

    Every input is checked before any ledger is debited, and every ledger is
    debited before any draw.  A zero-sensitivity value is released exactly
    and draws nothing; the others draw what ``laplace_draws(gs[i]/eps, 1,
    seeds[i])`` draws.
    """
    return _releases(values, gs, eps, 1.0, budgets, seeds, label, _laplace_each)


def smooth_sensitivity_releases(
    values,
    ss,
    eps: float,
    budgets: list[PrivacyBudget],
    seeds: list,
    label: str = "smooth release",
) -> np.ndarray:
    """values[i] + (SMOOTH_RELEASE_FACTOR * ss[i] / eps) * Z_i with Z_i
    quartic-tail noise from seeds[i], debited to budgets[i].

    ``ss[i]`` must be an eps-smooth upper bound on the local sensitivity at
    dataset i.  Checks, debits and draws are ordered as in
    ``global_sensitivity_releases``; each nonzero-sensitivity value draws
    what ``quartic_draws(1, seeds[i])`` draws.
    """
    return _releases(
        values, ss, eps, SMOOTH_RELEASE_FACTOR, budgets, seeds, label,
        lambda scales, rngs: scales * _quartic_each(rngs),
    )


def global_sensitivity_release(
    value: float,
    gs: float,
    eps: float,
    budget: PrivacyBudget,
    seed,
    label: str = "laplace release",
) -> float:
    """value + Laplace(gs/eps); a zero-sensitivity function is released exactly."""
    return float(global_sensitivity_releases([value], [gs], eps, [budget], [seed], label)[0])

