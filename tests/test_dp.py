"""Noise samplers, release mechanisms, sensitivity oracles, budget ledger."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

import privustat as pv
from privustat import dp
from privustat.dp import scratch_budget
from privustat.errors import BudgetExhausted
from privustat.ustat import Dataset, all_tuples, evaluate_ustat

from oracles import (
    brute_force_global_sensitivity,
    brute_force_local_sensitivity,
    pow_quartic_draws,
    sorted_laplace_cdf,
    where_quartic_cdf,
    whole_batch_quartic_draws,
)

# a NaN or inf reaching a sampler shows as a RuntimeWarning: fail on it
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


# ---------------------------------------------------------------------------
# Laplace sampler
# ---------------------------------------------------------------------------

def test_laplace_draws_are_block_size_free():
    # blocks of _RATIO_BLOCK uniforms, drawn in order: a bulk draw is the
    # same generator's single draws in sequence, across a block boundary
    size = dp._RATIO_BLOCK + 3
    rng = np.random.default_rng(7)
    singles = [dp.laplace_draws(1, rng)[0] for _ in range(size)]
    assert np.array_equal(dp.laplace_draws(size, 7), singles)


def test_laplace_median_of_abs_is_log2():
    draws = 2.0 * dp.laplace_draws(10**6, np.random.default_rng(1))
    assert np.median(np.abs(draws)) / 2.0 == pytest.approx(math.log(2), abs=0.01)


def test_laplace_mean_near_zero():
    b = 3.0
    draws = b * dp.laplace_draws(10**6, np.random.default_rng(2))
    assert abs(draws.mean()) <= 3 * b * math.sqrt(2 / 10**6)


def test_laplace_fixed_seed_regression():
    assert dp.laplace_draws(1, 20240601)[0] == pytest.approx(0.8762112869339834, abs=1e-15)


class _CyclingGenerator(np.random.Generator):
    """A generator whose k-th call of ``random`` returns values[k mod len(values)]
    at every point.  Each pass of the quartic sampler draws its u's, then its
    v's, so consecutive values pair up as one (u, v) for the whole pass."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(0))
        self._values = itertools.cycle(values)

    def random(self, size=None):
        value = next(self._values)
        return value if size is None else np.full(size, value)


def test_laplace_zero_uniform_draw_is_finite():
    # the uniform 0.0 is the Laplace sampler's u = -0.5
    one = dp.laplace_draws(1, _CyclingGenerator([0.0]))[0]
    many = dp.laplace_draws(4, _CyclingGenerator([0.0]))
    assert math.isfinite(one)
    assert np.all(np.isfinite(many))
    assert np.all(many == one)  # one draw and a batch read the draw 0.0 the same way


def test_laplace_tail_bound():
    b = 1.0
    draws = np.abs(dp.laplace_draws(10**6, np.random.default_rng(3)))
    for beta in (0.1, 0.01):
        frac = float(np.mean(draws > b * math.log(1 / beta)))
        assert frac <= beta + 3 * math.sqrt(beta / 10**6)


def test_laplace_cdf_equals_the_sorted_form_bitwise_in_any_order():
    # one exp of -|z| per point, taken from 1 where z >= 0: the bits of the
    # split at the first z >= 0 on sorted input, point by point in any order
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                      1.0, -1.0, 745.2, -745.2, 800.0, -800.0])
    rng = np.random.default_rng(13)
    for z in (edges, 40.0 * dp.laplace_draws(10**5, 14)):
        ordered = np.sort(z)
        reference = sorted_laplace_cdf(ordered)
        assert np.array_equal(dp.LAPLACE.cdf(ordered).view(np.int64), reference.view(np.int64))
        shuffle = rng.permutation(z.size)
        assert np.array_equal(dp.LAPLACE.cdf(ordered[shuffle]).view(np.int64), reference[shuffle].view(np.int64))
        finite = dp.LAPLACE.cdf(z[np.isfinite(z)])
        assert np.all((finite >= 0.0) & (finite <= 1.0))


# ---------------------------------------------------------------------------
# quartic-tail sampler
# ---------------------------------------------------------------------------

def test_quartic_sign_symmetry():
    z = dp.quartic_draws(10**6, 4)
    assert float(np.mean(z > 0)) == pytest.approx(0.5, abs=0.002)


def test_quartic_normalizer_quadrature():
    val, _ = integrate.quad(lambda t: 1 / (1 + t**4), -np.inf, np.inf)
    assert abs(val - dp.QUARTIC_NORMALIZER) < 1e-9


def test_quartic_tail_probability_matches_quadrature():
    z = dp.quartic_draws(10**6, 5)
    tail, _ = integrate.quad(lambda t: 1 / (1 + t**4), 1, np.inf)
    expected = 2 * tail / dp.QUARTIC_NORMALIZER
    assert float(np.mean(np.abs(z) > 1)) == pytest.approx(expected, abs=0.003)


def test_quartic_cdf_matches_quad_at_grid():
    tails = [10.0, 31.9, 32.0, 100.0, 1e4]
    grid = np.concatenate([np.linspace(-5, 5, 21), tails, np.negative(tails)])
    ours = dp.quartic_cdf(grid)
    for z, c in zip(grid, ours):
        # the mass beyond |z|, integrated where it is small, is accurate for
        # both halves
        beyond, _ = integrate.quad(lambda t: 1 / (1 + t**4), abs(z), np.inf, epsabs=0, epsrel=1e-13)
        beyond /= dp.QUARTIC_NORMALIZER
        assert c == pytest.approx(beyond if z < 0 else 1 - beyond, abs=1e-12)


def extreme_cdf_grid() -> np.ndarray:
    half = np.logspace(-3, 300, 20001)
    return np.concatenate([-half[::-1], [0.0], half])


def test_quartic_cdf_is_monotone_out_to_the_extremes():
    grid = extreme_cdf_grid()
    assert np.all(np.diff(dp.quartic_cdf(grid)) >= 0)
    ends = dp.quartic_cdf([-np.inf, -1e300, 1e300, np.inf])
    assert ends.tolist() == [0.0, 0.0, 1.0, 1.0]


def test_quartic_cdf_equals_the_where_form_bitwise():
    # in place, the series only where |z| >= 32 and a masked sign: the same
    # expressions in the same order, so the same bits, NaN included
    near = np.nextafter(32.0, [0.0, 64.0])
    edges = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 32.0, -32.0], near, -near])
    draws = np.sort(dp.quartic_draws(10**6, 10))
    for z in (extreme_cdf_grid(), edges, draws):
        assert np.array_equal(dp.quartic_cdf(z).view(np.int64), where_quartic_cdf(z).view(np.int64))


def test_quartic_empirical_cdf_at_grid():
    z = dp.quartic_draws(10**6, 6)
    grid = np.linspace(-5, 5, 21)
    ref = dp.quartic_cdf(grid)
    for g, r in zip(grid, ref):
        assert float(np.mean(z <= g)) == pytest.approx(r, abs=0.003)


def test_quartic_fixed_seed_regression():
    assert dp.quartic_draws(1, 20240601)[0] == pytest.approx(-0.8563703275630332, abs=1e-15)


def test_quartic_tails_match_the_cdf():
    # the v-extent of the ratio-of-uniforms rectangle must reach the tails:
    # about 2400 draws beyond |z| = 5 and 300 beyond |z| = 10 in 10^6
    n = 10**6
    z = np.abs(dp.quartic_draws(n, 7))
    for t in (5.0, 10.0):
        p = 2.0 * float(dp.quartic_cdf(-t))
        count = int(np.count_nonzero(z > t))
        assert abs(count - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p)), (t, count, n * p)


TOP_DRAW = 1.0 - 2.0**-53  # the largest uniform rng.random() returns
EXTREME_UNIFORM_PAIRS = [  # (u draw, v draw)
    (0.0, 0.0),  # u = 1, v = -2^-1/2
    (0.0, TOP_DRAW),  # u = 1, v just below 2^-1/2
    (TOP_DRAW, 0.0),  # u = 2^-53, v = -2^-1/2: the largest |v/u| of the rectangle
    (TOP_DRAW, TOP_DRAW),  # u = 2^-53, v just below 2^-1/2
    (TOP_DRAW, 0.5 - 2.0**-53),  # u = 2^-53 and the smallest |v| > 0: inside
    (TOP_DRAW, 0.5),  # u = 2^-53, v = 0: inside
    (1.0 - math.sqrt(0.5), 0.0),  # the region's corners at z = -1 and 1
    (1.0 - math.sqrt(0.5), TOP_DRAW),
    (0.0, 0.5),  # u = 1, v = 0: inside
]


def test_quartic_draws_are_finite_at_the_extreme_uniforms():
    # u = 1 - random() lies in (0, 1], so no pass divides by zero (a
    # RuntimeWarning fails this module) and |z| <= 2^-1/2 * 2^53
    bound = 2.0**-0.5 * 2.0**53
    flat = [value for pair in EXTREME_UNIFORM_PAIRS for value in pair]
    starts = range(0, len(flat), 2)
    draws = [dp.quartic_draws(size, _CyclingGenerator(flat[s:] + flat[:s])) for s in starts for size in (1, 5)]
    for z in draws:
        assert np.all(np.isfinite(z)) and np.max(np.abs(z)) <= bound


def test_quartic_deterministic_given_seed():
    assert np.array_equal(dp.quartic_draws(100, 9), dp.quartic_draws(100, 9))


@pytest.mark.parametrize("size, seeds", [(1, 400), (3, 400), (64, 400), (5000, 100), (2**14, 20)])
def test_small_quartic_draws_equal_the_whole_batch_sampler(size, seeds):
    # up to 2^14 draws no pass reaches the block cap, so every release's
    # quartic_draws(1, seed) is the whole-batch sampler's draw
    for seed in range(seeds):
        assert np.array_equal(dp.quartic_draws(size, seed), whole_batch_quartic_draws(size, seed)), seed


@pytest.mark.parametrize(
    "size, seeds", [(1, 400), (3, 400), (64, 400), (5000, 100), (2**14 + 1, 10), (10**6, 3)]
)
def test_quartic_draws_equal_the_pow_sampler(size, seeds):
    # (z^2)^2 may differ from z**4 in the last bit; the draws may not.  From
    # 2^14 + 1 draws on, passes are capped at one block of proposals
    for seed in range(seeds):
        assert np.array_equal(dp.quartic_draws(size, seed), pow_quartic_draws(size, seed)), seed


# ---------------------------------------------------------------------------
# releases
# ---------------------------------------------------------------------------

def global_sensitivity_release(value, gs, eps, budget, seed, label="laplace release"):
    """One Laplace release: the q = 1 stack."""
    (released,), _ = dp.releases(dp.LAPLACE, [value], [gs], eps, [budget], seed, label)
    return released


def smooth_sensitivity_release(value, ss, eps, budget, seed, label="smooth release"):
    """One quartic-noise release at a smooth bound: the q = 1 stack."""
    (released,), _ = dp.releases(dp.QUARTIC, [value], [ss], eps, [budget], seed, label)
    return released


def test_zero_sensitivity_release_is_exact():
    assert global_sensitivity_release(1.25, 0.0, 1.0, scratch_budget(), 0) == 1.25
    assert smooth_sensitivity_release(1.25, 0.0, 1.0, scratch_budget(), 0) == 1.25


@pytest.mark.parametrize("law", dp.LAWS)
def test_releases_add_exactly_the_audited_samplers_draw(law):
    # noise_gof checks each law's sampler; a release adds one call of it,
    # one draw per row of nonzero scale in row order, at the scales it
    # returns, and nothing else.  A zero-scale row is released exactly.
    noise = dp.LAWS[law]
    rng = np.random.default_rng(12)
    for seed in range(200):
        q = (1, 2, 5, 19)[seed % 4]
        values, eps = rng.normal(0.0, 10.0, q), rng.uniform(0.05, 4.0)
        sens = rng.uniform(0.01, 5.0, q)
        if q > 1:
            sens[rng.integers(q)] = 0.0
        budgets = [scratch_budget() for _ in range(q)]
        released, scales = dp.releases(noise, values, sens, eps, budgets, seed, law)
        assert scales.tolist() == [noise.factor * s / eps for s in sens.tolist()], seed
        live = np.flatnonzero(scales)
        assert live.size == q - (q > 1)
        want = values.copy()
        want[live] = values[live] + scales[live] * noise.draws(live.size, seed)
        assert np.array_equal(released.view(np.int64), want.view(np.int64)), seed
        assert all(b.entries == [(law, eps)] for b in budgets)


def generator_state(rng):
    return rng.bit_generator.state


@pytest.mark.parametrize("law", dp.LAWS)
def test_a_single_generator_draws_as_one_call_of_the_sampler(law):
    # one Generator, passed once or as every row's entry, gives the live
    # rows one law.draws(len(live), g) call in row order
    noise = dp.LAWS[law]
    values, sens = np.arange(6.0), np.array([0.5, 0.0, 1.0, 2.0, 0.0, 0.25])
    live = np.flatnonzero(sens)
    scales = noise.factor * sens / 0.5
    want = values.copy()
    want[live] += noise.draws(live.size, np.random.default_rng(3)) * scales[live]
    for seed in (lambda g: g, lambda g: [g] * 6):
        rng = np.random.default_rng(3)
        got, _ = dp.releases(noise, values, sens, 0.5, [scratch_budget() for _ in range(6)],
                             seed(rng), law)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        reference = np.random.default_rng(3)
        noise.draws(live.size, reference)
        assert generator_state(rng) == generator_state(reference)


@pytest.mark.parametrize("law", dp.LAWS)
def test_rows_that_share_a_generator_draw_together_in_row_order(law):
    # interleaved groups: each distinct generator makes one sampler call
    # for its live rows in row order; a quartic call of three draws is not
    # three calls of one, so a split group would show
    noise = dp.LAWS[law]
    owners = [0, 1, 0, 2, 1, 0, 2]
    sens = np.array([1.0, 0.5, 2.0, 0.0, 0.25, 1.5, 3.0])
    values = np.linspace(-1.0, 1.0, 7)
    gens = [np.random.default_rng(10 + g) for g in range(3)]
    refs = [np.random.default_rng(10 + g) for g in range(3)]
    got, scales = dp.releases(
        noise, values, sens, 2.0, [scratch_budget() for _ in owners], [gens[o] for o in owners], law
    )
    want = values.copy()
    for g, ref in enumerate(refs):
        rows = [i for i, o in enumerate(owners) if o == g and sens[i]]
        want[rows] += noise.draws(len(rows), ref) * scales[rows]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert [generator_state(g) for g in gens] == [generator_state(r) for r in refs]


def test_a_zero_scale_row_draws_nothing_from_its_generator():
    gens = [np.random.default_rng(1), np.random.default_rng(2)]
    got, _ = dp.releases(dp.QUARTIC, [1.0, 2.0], [0.5, 0.0], 1.0, [scratch_budget()] * 2, gens, "q")
    assert got[1] == 2.0
    assert generator_state(gens[1]) == generator_state(np.random.default_rng(2))
    assert generator_state(gens[0]) != generator_state(np.random.default_rng(1))


def test_every_ledger_is_debited_before_the_first_draw():
    budgets = [pv.PrivacyBudget(1.0) for _ in range(4)]
    seen = []

    class Recording(np.random.Generator):
        def random(self, *args, **kwargs):
            seen.append([b.spent for b in budgets])
            return super().random(*args, **kwargs)

    gens = [Recording(np.random.PCG64(seed)) for seed in range(2)]
    dp.releases(dp.LAPLACE, np.zeros(4), np.ones(4), 0.5, budgets, [gens[0], gens[1]] * 2, "l")
    assert len(seen) == 2 and all(spent == [0.5] * 4 for spent in seen)


@pytest.mark.parametrize("seeds, error", [
    ([np.random.default_rng(0)] * 2, ValueError),  # two generators for three rows
    ([np.random.default_rng(0)] * 4, ValueError),
    ([0, 1, 2], TypeError),  # equal integer seeds would give rows equal draws
])
def test_a_generator_list_of_the_wrong_form_raises_before_any_spend(seeds, error):
    budgets = [pv.PrivacyBudget(1.0) for _ in range(3)]
    with pytest.raises(error):
        dp.releases(dp.LAPLACE, np.zeros(3), np.ones(3), 0.5, budgets, seeds, "l")
    assert all(b.entries == [] for b in budgets)


@pytest.mark.parametrize("ledgers", [2, 4])
def test_a_ledger_list_of_the_wrong_length_raises_before_any_spend(ledgers):
    # a row without a ledger would release unrecorded
    budgets = [pv.PrivacyBudget(1.0) for _ in range(ledgers)]
    with pytest.raises(ValueError, match="one ledger per release"):
        dp.releases(dp.LAPLACE, np.zeros(3), np.ones(3), 0.5, budgets, 0, "l")
    assert all(b.entries == [] for b in budgets)


BAD_RELEASE_INPUTS = [  # (value, sensitivity, eps)
    (math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), (-math.inf, 1.0, 1.0),
    (0.0, math.nan, 1.0), (0.0, math.inf, 1.0), (0.0, -1.0, 1.0),
    (0.0, 1.0, math.nan), (0.0, 1.0, math.inf),
    (0.0, 1e300, 1e-300),  # a noise scale that overflows
]


@pytest.mark.parametrize("release", [global_sensitivity_release, smooth_sensitivity_release])
@pytest.mark.parametrize("value, sens, eps", BAD_RELEASE_INPUTS)
def test_release_refuses_a_non_finite_result_before_spending(release, value, sens, eps):
    budget = pv.PrivacyBudget(1.0)
    budget.spend("earlier", 0.25)
    with pytest.raises(ValueError):
        release(value, sens, eps, budget, 0)
    assert budget.entries == [("earlier", 0.25)]


def test_laplace_release_debits_budget():
    budget = pv.PrivacyBudget(1.0)
    global_sensitivity_release(1.0, 2 / 100, 0.6, budget, 1)
    assert budget.spent == pytest.approx(0.6)
    with pytest.raises(BudgetExhausted):
        global_sensitivity_release(1.0, 2 / 100, 0.6, budget, 2)


def test_smooth_release_symmetry():
    vals = [smooth_sensitivity_release(5.0, 0.3, 1.0, scratch_budget(), s) for s in range(20_000)]
    signs = np.sign(np.asarray(vals) - 5.0)
    assert abs(signs.mean()) < 0.03


def test_smooth_release_fixed_seed_regression():
    got = smooth_sensitivity_release(2.0, 0.5, 1.0, scratch_budget(), 99)
    assert got == pytest.approx(3.764056260088143, abs=1e-15)


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

def test_ledger_sequential_totals():
    b = pv.PrivacyBudget(2.0)
    b.spend("a", 0.5)
    b.spend("b", 0.25)
    assert b.spent == pytest.approx(0.75)
    assert [label for label, _ in b.entries] == ["a", "b"]


def test_ledger_parallel_takes_max():
    b = pv.PrivacyBudget(1.0)
    with b.parallel("chunks") as branches:
        for eps in (0.3, 0.7, 0.5):
            branch = branches.branch()
            branch.spend("inner", eps)
    assert b.spent == pytest.approx(0.7)


def test_ledger_parallel_debits_parent_when_a_branch_raises():
    b = pv.PrivacyBudget(1.0)
    with pytest.raises(RuntimeError, match="after release"):
        with b.parallel("chunks") as branches:
            branches.branch().spend("inner", 0.3)
            branches.branch().spend("inner", 0.7)
            raise RuntimeError("failed after release")
    assert b.spent == pytest.approx(0.7)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_ledger_rejects_non_finite_spend(eps):
    b = pv.PrivacyBudget(1.0)
    b.spend("x", 0.1)
    with pytest.raises(ValueError, match="non-finite"):
        b.spend("bad", eps)
    assert b.entries == [("x", 0.1)]


def test_ledger_total_is_the_exact_sum_rounded_up():
    # ten spends of the double 0.1 sum exactly to 1 + 2^-54; a float sum
    # reads 0.9999999999999999, below what was spent
    b = pv.PrivacyBudget(1.0)
    for _ in range(10):
        b.spend("x", 0.1)
    exact = sum(Fraction(eps) for _, eps in b.entries)
    assert exact == 1 + Fraction(1, 2**54)
    assert Fraction(b.spent) >= exact
    assert Fraction(math.nextafter(b.spent, 0.0)) < exact  # the smallest double that is
    assert b.spent == 1.0000000000000002


def test_ledger_cap_admits_only_rounding_slack():
    # past the cap by the rounding of the ten spends, a further 5e-10 is refused
    b = pv.PrivacyBudget(1.0)
    for _ in range(10):
        b.spend("x", 0.1)
    with pytest.raises(BudgetExhausted):
        b.spend("y", 5e-10)
    assert len(b.entries) == 10
    tiny = pv.PrivacyBudget(1e-12)
    with pytest.raises(BudgetExhausted):
        tiny.spend("z", 2e-12)


def test_ledger_admits_eps_split_into_rounded_parts():
    # five halving steps at 1/10 each round above 1/2 in sum; the release
    # step's 1/2 must still fit a cap of exactly 1
    b = pv.PrivacyBudget(1.0)
    for _ in range(5):
        b.spend("halving", 1.0 / 10)
    b.spend("release", 0.5)
    assert sum(Fraction(eps) for _, eps in b.entries) > 1
    assert Fraction(b.spent) >= sum(Fraction(eps) for _, eps in b.entries)


def test_parallel_branches_fit_the_parent_exactly():
    b = pv.PrivacyBudget(1.0)
    b.spend("first", 0.3)
    with b.parallel("chunks") as branches:
        for _ in range(3):
            branch = branches.branch()
            with pytest.raises(BudgetExhausted):
                branch.spend("too much", 0.7 + 1e-9)
            branch.spend("inner", 0.35)
            branch.spend("inner", 0.35)
    assert Fraction(b.spent) >= Fraction(0.3) + 2 * Fraction(0.35)
    with b.parallel("empty") as branches:
        with pytest.raises(BudgetExhausted):
            branches.branch().spend("nothing left", 1e-9)
    assert b.entries[-1] == ("empty", 0.0)


@pytest.mark.parametrize("total", [0.0, -1.0, math.inf, math.nan])
def test_ledger_cap_must_be_positive_and_finite(total):
    with pytest.raises(ValueError, match="positive and finite"):
        pv.PrivacyBudget(total)


def test_ledger_is_append_only_record():
    b = pv.PrivacyBudget(1.0)
    b.spend("x", 0.1)
    b.spend("y", 0.2)
    assert len(b.entries) == 2
    assert "ledger" in b.summary()


# ---------------------------------------------------------------------------
# brute-force sensitivity
# ---------------------------------------------------------------------------

def test_mean_sensitivity():
    n = 8
    f = lambda pts: float(np.mean(pts))
    d = np.full(n, 0.5)
    assert brute_force_local_sensitivity(f, d, [0.0, 1.0]) == pytest.approx(0.5 / n)


def test_constant_function_sensitivity_is_zero():
    assert brute_force_local_sensitivity(lambda pts: 42.0, np.zeros(5), [0, 1]) == 0.0


def test_ustat_local_sensitivity_cross_check():
    # compare the oracle against an independent re-implementation
    h = pv.collision_kernel()
    fam = all_tuples(4, 2)
    f = lambda pts: evaluate_ustat(h, Dataset(pts), fam)
    d = np.array([0, 0, 1, 1])
    got = brute_force_local_sensitivity(f, d, [0, 1])

    def reference(points):
        def u(p):
            s = 0
            for i in range(4):
                for j in range(i + 1, 4):
                    s += int(p[i] == p[j])
            return s / 6
        base = u(points)
        worst = 0.0
        for i in range(4):
            for a in (0, 1):
                q = list(points)
                q[i] = a
                worst = max(worst, abs(base - u(q)))
        return worst

    assert got == pytest.approx(reference(d.tolist()))


def test_local_below_global_sensitivity_exhaustively():
    h = pv.collision_kernel()
    fam = all_tuples(5, 2)
    f = lambda pts: evaluate_ustat(h, Dataset(pts), fam)
    global_s = brute_force_global_sensitivity(f, 5, [0, 1])
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = rng.integers(0, 2, size=5)
        assert brute_force_local_sensitivity(f, d, [0, 1]) <= global_s + 1e-12


def test_laplace_release_satisfies_eps_dp_empirically():
    # adjacent mean queries on {0,1}^n differ by 1/n; compare the two release
    # distributions on a coarse grid: every bin ratio must respect e^eps up to
    # sampling error (checked via a one-sided tolerance on counts)
    n, eps, draws = 20, 1.0, 200_000
    d0 = np.zeros(n)
    d1 = np.zeros(n)
    d1[0] = 1.0
    gs = 1.0 / n
    rng = np.random.default_rng(12)
    rel0 = d0.mean() + (gs / eps) * dp.laplace_draws(draws, rng)
    rel1 = d1.mean() + (gs / eps) * dp.laplace_draws(draws, rng)
    edges = np.linspace(-0.3, 0.35, 14)
    c0, _ = np.histogram(rel0, bins=edges)
    c1, _ = np.histogram(rel1, bins=edges)
    for a, b in zip(c0, c1):
        if a + b < 500:
            continue  # too little mass for a meaningful ratio
        hi = math.exp(eps)
        se = 3 * math.sqrt(max(a, b))
        assert a <= hi * b + hi * se
        assert b <= hi * a + hi * se
