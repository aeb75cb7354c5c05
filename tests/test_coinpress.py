"""One-step refinement, the iteration driver, and the three estimators."""

import math
import warnings

import numpy as np
import pytest

import privustat as pv
from privustat import coinpress, dp
from privustat.boosting import boosted
from privustat.coinpress import (
    IntervalState,
    TailBounds,
    chunk_tail_bounds,
    halving_rounds,
    subgaussian_xi,
    subsampled_tail_bounds,
)
from privustat.dp import scratch_budget
from privustat.errors import BudgetExhausted, PreconditionWarning
from privustat.harness import audits
from privustat.ustat import Dataset, disjoint_chunks

from oracles import (
    VarianceProfile,
    constant_kernel,
    copy_clipping_ustat_mean,
    ustat_one_step,
    variance_of_ustat,
    without_counts,
    written_out_all_tuples_tail_bounds,
    written_out_subsampled_tail_bounds,
)

warnings.simplefilter("ignore", PreconditionWarning)


def flat_bounds(q0: float, qavg0: float) -> TailBounds:
    return TailBounds(q=lambda b: q0, qavg=lambda b: qavg0)


def ustat_mean(h, data, family, r, eps, gamma, tb, seed, budget, label="ustat_mean"):
    """``coinpress.ustat_means`` on the one-row stack of ``data``."""
    (report,) = coinpress.ustat_means(
        h, data.points[None], family, r, eps, gamma, tb, seed, [budget], label
    )
    return report


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------

def test_tail_bounds_nonincreasing_in_beta():
    for tb in (
        chunk_tail_bounds(0.5, 50),
        chunk_tail_bounds(0.5 * 2, 100),
        subsampled_tail_bounds(0.5, 2, 100, 400),
    ):
        betas = [0.2, 0.1, 0.01, 0.001]
        qs = [tb.q(b) for b in betas]
        qavgs = [tb.qavg(b) for b in betas]
        assert all(a <= b for a, b in zip(qs, qs[1:]))
        assert all(a <= b for a, b in zip(qavgs, qavgs[1:]))
        assert all(v > 0 for v in qs + qavgs)


def test_tail_bounds_equal_their_written_out_formulas_bitwise():
    # the complete family's bounds are chunk_tail_bounds at variance proxy
    # tau k, and the subsampled uniform bound is subgaussian_xi over 2n values
    rng = np.random.default_rng(29)
    for _ in range(5000):
        tau = float(10.0 ** rng.uniform(-4, 3))
        k, n = int(rng.integers(1, 7)), int(rng.integers(1, 10**6 + 1))
        size, beta = int(rng.integers(1, 10**7)), float(10.0 ** rng.uniform(-9, -0.3))
        for ours, written in (
            (chunk_tail_bounds(tau * k, n), written_out_all_tuples_tail_bounds(tau, k, n)),
            (subsampled_tail_bounds(tau, k, n, size),
             written_out_subsampled_tail_bounds(tau, k, n, size)),
        ):
            assert (ours.q(beta), ours.qavg(beta)) == (written.q(beta), written.qavg(beta))


def test_a_negative_variance_proxy_is_refused_by_every_uniform_bound():
    # the subsampled bound is that of values with variance proxy k tau
    for bound, proxy in (
        (lambda: subgaussian_xi(-1.0, 10, 0.01), "-1.0"),
        (lambda: chunk_tail_bounds(-1.0, 10).q(0.01), "-1.0"),
        (lambda: subsampled_tail_bounds(-1.0, 2, 10, 40).q(0.01), "-2.0"),
    ):
        with pytest.raises(ValueError, match=f"variance proxy must be >= 0, got {proxy}$"):
            bound()
    assert subgaussian_xi(0.0, 10, 0.01) == 0.0


def test_halving_rounds():
    assert halving_rounds(8.0, 1.0) == 3
    assert halving_rounds(1.0, 4.0) == 1  # floor at one round
    assert halving_rounds(1.5, 1.0) == 1
    for r, q_gamma in [(math.inf, 1.0), (math.nan, 1.0), (0.0, 1.0), (1.0, math.inf), (1.0, math.nan)]:
        with pytest.raises(ValueError, match="finite and > 0"):
            halving_rounds(r, q_gamma)


def test_non_finite_range_bound_raises_before_any_spend():
    budget = pv.PrivacyBudget(1.0)
    d = Dataset(np.random.default_rng(2).normal(0.0, 1.0, 40))
    with pytest.raises(ValueError, match="range bound"):
        coinpress.naive_estimator(pv.identity_kernel(), d, math.inf, 1.0, 1.0, 3, budget)
    assert budget.entries == []


# ---------------------------------------------------------------------------
# one step
# ---------------------------------------------------------------------------

def test_one_step_vanishing_noise_recovers_mean():
    rng = np.random.default_rng(0)
    values = rng.uniform(-0.5, 0.5, size=200)
    fam = pv.all_tuples(200, 1)
    interval = IntervalState(-1.0, 1.0)
    _, new = ustat_one_step(
        values, fam, interval, eps_step=10**6, beta=0.01, tb=flat_bounds(0.0, 0.1), seed=1
    )
    assert new.midpoint == pytest.approx(values.mean(), abs=1e-3)


def test_one_step_delta_plug_in():
    # dep = k/n = 0.2, width 2, Q = 1 -> Delta = 0.2 * (2 + 2) = 0.8; read the
    # noise scale back from the reported half-width
    fam = pv.all_tuples(10, 2)  # dep = 0.2
    values = np.zeros(fam.size)
    beta, eps_step, qavg = 0.05, 2.0, 0.3
    _, new = ustat_one_step(
        values, fam, IntervalState(-1.0, 1.0), eps_step, beta, flat_bounds(1.0, qavg), seed=3
    )
    half = 0.5 * new.width
    delta = (half - qavg) / math.log(1 / beta) * eps_step
    assert delta == pytest.approx(0.8, rel=1e-12)


def test_one_step_clipping_is_noop_inside():
    rng = np.random.default_rng(2)
    values = rng.uniform(-1, 1, size=50)
    fam = pv.all_tuples(50, 1)
    clipped, _ = ustat_one_step(
        values, fam, IntervalState(-1.0, 1.0), 1.0, 0.1, flat_bounds(0.5, 0.1), seed=4
    )
    assert np.array_equal(clipped, values)


def test_one_step_clips_outside_values():
    values = np.array([-5.0, 0.0, 5.0])
    fam = pv.all_tuples(3, 1)
    clipped, _ = ustat_one_step(
        values, fam, IntervalState(-1.0, 1.0), 1.0, 0.1, flat_bounds(0.5, 0.1), seed=5
    )
    assert clipped.tolist() == [-1.5, 0.0, 1.5]


def test_one_step_coverage():
    # theta in [lo, hi] on entry stays covered with frequency >= 1 - 3 beta
    theta, tau, n, beta = 0.3, 0.25, 60, 0.05
    tb = TailBounds(
        q=lambda b: math.sqrt(2 * tau * math.log(2 * n / b)),
        qavg=lambda b: math.sqrt(2 * tau * math.log(2 / b) / n),
    )
    fam = pv.all_tuples(n, 1)
    hits = 0
    trials = 10**4
    master = np.random.default_rng(123)
    for _ in range(trials):
        values = master.normal(theta, math.sqrt(tau), size=n)
        _, new = ustat_one_step(
            values, fam, IntervalState(-1.0, 1.0), 1.0, beta, tb, master
        )
        hits += int(new.lo <= theta <= new.hi)
    assert hits / trials >= 1 - 3 * beta


def test_one_step_width_identity():
    # reported width is exactly 2 (qavg + delta/eps log(1/beta)), which is
    # bounded by half the old width plus that same additive term
    fam = pv.all_tuples(10, 2)
    values = np.zeros(fam.size)
    beta, eps_step = 0.01, 0.7
    tb = flat_bounds(0.9, 0.2)
    interval = IntervalState(-2.0, 2.0)
    _, new = ustat_one_step(values, fam, interval, eps_step, beta, tb, seed=6)
    delta = fam.dependence_fraction() * (interval.width + 2 * tb.q(beta))
    additive = 2 * (tb.qavg(beta) + delta / eps_step * math.log(1 / beta))
    assert new.width == pytest.approx(additive, rel=1e-12)
    assert new.width <= 0.5 * interval.width + additive + 1e-12


# ---------------------------------------------------------------------------
# the iteration driver
# ---------------------------------------------------------------------------

def test_ustat_mean_constant_kernel_high_budget():
    d = Dataset(np.full(40, 0.62))
    fam = pv.all_tuples(40, 2)
    rep = ustat_mean(
        constant_kernel(0.62, 2), d, fam, r=1.0, eps=10**6, gamma=0.01,
        tb=flat_bounds(0.05, 0.01), seed=7, budget=scratch_budget(),
    )
    assert rep.estimate == pytest.approx(0.62, abs=1e-3)


def test_ustat_mean_clamps_its_estimate_to_r():
    # at eps = 0.2 most release midpoints land outside [-1, 1]
    d = Dataset(np.random.default_rng(31).normal(0.5, 1.0, 60))
    fam, tb = pv.all_tuples(60, 3), chunk_tail_bounds((1 / 3) * 3, 60)
    outside = 0
    for seed in range(10):
        rep = ustat_mean(
            pv.mean_kernel(3), d, fam, 1.0, 0.2, 0.01, tb, seed, scratch_budget()
        )
        midpoint = rep.diagnostics["trace"][-1].midpoint
        outside += abs(midpoint) > 1.0
        assert rep.estimate == min(max(midpoint, -1.0), 1.0)
    assert outside >= 5


def test_one_step_leaves_its_input_unchanged():
    values = np.linspace(-3.0, 3.0, 41)
    before = values.copy()
    fam = disjoint_chunks(41, 1)
    clipped, _ = ustat_one_step(
        values, fam, IntervalState(-1.0, 1.0), 1.0, 0.05, flat_bounds(0.5, 0.1), 3
    )
    assert np.array_equal(values, before)
    assert clipped is not values and clipped.min() == -1.5 and clipped.max() == 1.5


@pytest.mark.parametrize("case", ["mean3", "tight", "collision", "chunks", "subsampled", "disjoint"])
def test_ustat_mean_in_place_clip_equals_copy_clipping_reference(case):
    rng = np.random.default_rng(31)
    eps = 1.0
    if case == "disjoint":  # the mean is outside [-r, r], so a halving step misses
        h, d, r, tau = pv.mean_kernel(2, 0.01), Dataset(rng.normal(5.0, 1.0, 200)), 1.0, 0.01
        eps = 10.0
        fam = disjoint_chunks(200, 2)
        tb = chunk_tail_bounds(tau, fam.size)
    elif case == "tight":  # intervals shrink at the first step, so every later step clips
        h, d, r, eps = pv.mean_kernel(2), Dataset(rng.normal(0.5, 1.0, 200)), 4.0, 20.0
        fam, tb = pv.all_tuples(200, 2), flat_bounds(0.3, 0.02)
    elif case == "collision":
        h, d, r, tau = pv.collision_kernel(), Dataset(rng.integers(0, 8, 120)), 1.0, 0.25
        fam, tb = pv.all_tuples(120, 2), chunk_tail_bounds(tau * 2, 120)
    elif case == "chunks":
        h, d, r, tau = pv.mean_kernel(2), Dataset(rng.normal(0.5, 1.0, 301)), 8.0, 0.5
        fam = disjoint_chunks(301, 2)
        tb = chunk_tail_bounds(tau, fam.size)
    elif case == "subsampled":
        h, d, r, tau = pv.mean_kernel(3), Dataset(rng.normal(0.5, 1.0, 90)), 4.0, 1 / 3
        fam, tb = pv.subsample_family(90, 3, 2000, 5), subsampled_tail_bounds(tau, 3, 90, 2000)
    else:
        h, d, r, tau = pv.mean_kernel(3), Dataset(rng.normal(0.5, 1.0, 60)), 2.0, 1 / 3
        fam, tb = pv.all_tuples(60, 3), chunk_tail_bounds(tau * 3, 60)
    for seed in range(5):
        rep = ustat_mean(h, d, fam, r, eps, 0.01, tb, seed, scratch_budget())
        reference = copy_clipping_ustat_mean(h, d, fam, r, eps, 0.01, tb, seed)
        assert rep.diagnostics["trace"] == reference
        assert rep.estimate == min(max(reference[-1].midpoint, -r), r)
        assert rep.radius == 0.5 * reference[-1].width
        if case == "disjoint":
            assert any(iv.lo == iv.hi for iv in reference[1:-1])


def equality_stack(k: int, q: int, n: int, seed: int) -> np.ndarray:
    """(q, n) labels with signed zeros, for the equality kernels' count route."""
    rng = np.random.default_rng(seed)
    return rng.choice([0.0, -0.0, 1.0, 2.0, 3.0], (q, n), p=[0.3, 0.2, 0.3, 0.1, 0.1])


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("q", [1, 3])
def test_all_tuples_count_route_equals_the_kernel_pass(k, q):
    # at r = 1 and tau = 0.25 every step's clip band holds [0, 1], where
    # the kernel's two values lie, so the count route's weighted mean
    # W_1 / M is the kernel pass's sum of M values over M, bit for bit
    chunks = equality_stack(k, q, 40, 10 * k + q)
    for h in (pv.equality_kernel(k), pv.collision_kernel()) if k == 2 else (pv.equality_kernel(k),):
        for seed in range(3):
            got, want = (
                coinpress.all_tuples_estimates(kernel, chunks, 1.0, 0.25, 1.0, seed, [scratch_budget() for _ in range(q)])
                for kernel in (h, without_counts(h))
            )
            assert [(g.estimate, g.radius, g.noise_scale, g.diagnostics) for g in got] == [
                (w.estimate, w.radius, w.noise_scale, w.diagnostics) for w in want
            ]


def test_count_route_clips_like_the_kernel_pass_inside_the_unit_interval():
    # flat bounds of 0.05 put the later steps' clip bands inside (0, 1), so
    # the two sums round differently: M - W_1 copies of the low end added
    # pairwise against one product per value
    h, fam = pv.equality_kernel(2), pv.all_tuples(60, 2)
    chunks = equality_stack(2, 3, 60, 5)
    tb, moved = flat_bounds(0.05, 0.01), 0
    for seed in range(5):
        got, want = (
            coinpress.ustat_means(kernel, chunks, fam, 1.0, 20.0, 0.01, tb, seed,
                                  [scratch_budget() for _ in range(3)], "clip")
            for kernel in (h, without_counts(h))
        )
        for g, w in zip(got, want):
            lows = [iv.lo - 0.05 for iv in w.diagnostics["trace"][1:-1]]
            moved += any(0.0 < low < 1.0 for low in lows)
            assert g.estimate == pytest.approx(w.estimate, rel=1e-12, abs=1e-15)
            assert g.radius == pytest.approx(w.radius, rel=1e-12, abs=1e-15)
    assert moved > 0


def test_ustat_mean_budget_schedule():
    budget = pv.PrivacyBudget(1.0)
    d = Dataset(np.random.default_rng(1).normal(0, 1, 30))
    fam = pv.all_tuples(30, 2)
    tb = chunk_tail_bounds(0.5 * 2, 30)
    rep = ustat_mean(
        pv.mean_kernel(2, 0.5), d, fam, r=40.0, eps=1.0, gamma=0.01, tb=tb,
        seed=8, budget=budget,
    )
    t = rep.diagnostics["iterations"] - 1
    assert t == halving_rounds(40.0, tb.q(0.01))
    eps_schedule = [eps for _, eps in budget.entries]
    assert eps_schedule[:-1] == pytest.approx([1.0 / (2 * t)] * t)
    assert eps_schedule[-1] == pytest.approx(0.5)
    assert budget.spent == pytest.approx(1.0, abs=1e-9)


def test_ustat_mean_refuses_the_release_step_before_it_draws():
    # the ledger holds the halving steps but not the release step, which must
    # be refused before its Laplace draw: the generator has not advanced
    d = Dataset(np.random.default_rng(3).normal(0.5, 1.0, 60))
    fam, tb = pv.all_tuples(60, 2), chunk_tail_bounds(0.5 * 2, 60)
    t = halving_rounds(4.0, tb.q(0.01))
    rng, budget = np.random.default_rng(5), pv.PrivacyBudget(0.5)
    with pytest.raises(BudgetExhausted):
        ustat_mean(pv.mean_kernel(2, 0.5), d, fam, 4.0, 1.0, 0.01, tb, rng, budget, "short")
    assert [label for label, _ in budget.entries] == ["short: halving step"] * t
    halving_only = np.random.default_rng(5)
    for _ in range(t):
        dp.laplace_draws(1, halving_only)
    assert rng.bit_generator.state == halving_only.bit_generator.state


def test_ustat_mean_interval_widths_never_grow_before_release():
    rng = np.random.default_rng(9)
    d = Dataset(rng.normal(0.2, 1.0, 50))
    fam = pv.all_tuples(50, 2)
    rep = ustat_mean(
        pv.mean_kernel(2, 0.5), d, fam, r=50.0, eps=0.5, gamma=0.01,
        tb=chunk_tail_bounds(0.5 * 2, 50), seed=10, budget=scratch_budget(),
    )
    trace = rep.diagnostics["trace"]
    widths = [iv.width for iv in trace[:-1]]  # exclude the stand-alone release
    assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))
    assert all(iv.lo <= iv.hi for iv in trace)


def test_interval_nesting_coverage():
    # theta stays inside every intermediate interval at least 1 - 6 gamma of
    # the time when the tail bounds are honest and the preconditions hold
    theta, tau, n, gamma, eps = 0.5, 1.0, 300, 0.01, 1.0
    tb = chunk_tail_bounds(tau, n)
    fam = pv.all_tuples(n, 1)
    h = pv.identity_kernel()
    rng = np.random.default_rng(11)
    trials, hits = 10**4, 0
    for _ in range(trials):
        d = Dataset(rng.normal(theta, math.sqrt(tau), n))
        rep = ustat_mean(h, d, fam, r=4.0, eps=eps, gamma=gamma, tb=tb, seed=rng,
                         budget=scratch_budget())
        trace = rep.diagnostics["trace"]
        inside = all(iv.lo - 1e-12 <= theta <= iv.hi + 1e-12 for iv in trace[1:-1])
        final = trace[-1]
        inside = inside and (final.lo - 1e-12 <= theta <= final.hi + 1e-12)
        hits += int(inside)
    assert hits / trials >= 1 - 6 * gamma


def test_precondition_violation_warns_but_completes():
    d = Dataset(np.random.default_rng(2).normal(0, 1, 12))
    fam = pv.all_tuples(12, 2)
    with pytest.warns(PreconditionWarning):
        rep = ustat_mean(
            pv.mean_kernel(2, 0.5), d, fam, r=100.0, eps=0.05, gamma=0.01,
            tb=chunk_tail_bounds(0.5 * 2, 12), seed=12, budget=scratch_budget(),
        )
    assert rep.estimate is not None


def boosted_chunks(estimates):
    """``estimates(h, chunks, rng, budgets)`` on seven 12-point chunks
    under median-of-means at alpha = 0.5."""
    data = Dataset(np.random.default_rng(2).normal(0, 1, 84))
    return lambda h, d: boosted(
        lambda chunks, rngs, budgets: estimates(h, chunks, rngs, budgets),
        [data], h.degree, 0.5, 12, [scratch_budget()],
    )


@pytest.mark.parametrize("release, message", [
    (lambda h, d: ustat_mean(
        h, d, pv.all_tuples(12, 2), r=100.0, eps=0.05, gamma=0.01,
        tb=chunk_tail_bounds(0.5 * 2, 12), seed=12, budget=scratch_budget(),
    ), "halving"),
    (lambda h, d: coinpress.naive_estimator(h, d, 100.0, 0.5, 0.05, 12, scratch_budget()), "halving"),
    (lambda h, d: coinpress.all_tuples_estimator(h, d, 100.0, 0.5, 0.05, 12, scratch_budget()),
     "halving"),
    (lambda h, d: coinpress.subsampled_estimator(h, d, 100.0, 0.5, 0.05, 10, 12, scratch_budget()),
     "subsample size"),
    (boosted_chunks(lambda h, c, s, b: coinpress.naive_estimates(h, c, 100.0, 0.5, 0.05, s, b)),
     "halving"),
    (boosted_chunks(lambda h, c, s, b: coinpress.all_tuples_estimates(h, c, 100.0, 0.5, 0.05, s, b)),
     "halving"),
    (boosted_chunks(
        lambda h, c, s, b: coinpress.subsampled_estimates(h, c, 100.0, 0.5, 0.05, 10, s, b)
    ), "subsample size"),
    (lambda h, d: pv.subgaussian_pipeline(h, d, 100.0, 0.5, 0.01, 0.05, 12, scratch_budget()),
     "epsilon below"),
    # the coarse stage's halving warning, raised two package modules down
    (lambda h, d: pv.subgaussian_pipeline(
        h, Dataset(np.random.default_rng(2).normal(0, 1, 40)), 100.0, 0.5, 0.05, 0.05, 12,
        scratch_budget(),
    ), "halving"),
    (lambda h, d: audits.adversarial_fixture(60, 2, 0.1), "leading block"),
], ids=[
    "ustat_mean", "naive", "all_tuples", "subsampled", "boosted-naive", "boosted-all_tuples",
    "boosted-subsampled", "pipeline-eps", "pipeline-coarse", "fixture",
])
def test_precondition_warnings_name_the_calling_line(release, message):
    # every PreconditionWarning points at the line that called into the
    # package, however deep inside it the precondition was checked
    d = Dataset(np.random.default_rng(2).normal(0, 1, 12))
    with pytest.warns(PreconditionWarning, match=message) as record:
        release(pv.mean_kernel(2, 0.5), d)
    assert {w.filename for w in record} == {__file__}


# ---------------------------------------------------------------------------
# naive estimator
# ---------------------------------------------------------------------------

def test_naive_drops_remainder_points():
    # with k=2 and n=7 the 7th point is never touched: same seed, different
    # 7th point, identical output
    h = pv.mean_kernel(2, 0.5)
    base = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    other = base.copy()
    other[6] = -50.0
    a = coinpress.naive_estimator(h, Dataset(base), 10.0, 0.5, 1.0, 13, scratch_budget())
    b = coinpress.naive_estimator(h, Dataset(other), 10.0, 0.5, 1.0, 13, scratch_budget())
    assert a.estimate == b.estimate


def test_naive_k1_matches_direct_chunk_run():
    rng = np.random.default_rng(3)
    data = Dataset(rng.normal(1.0, 1.0, 64))
    h = pv.identity_kernel()
    a = coinpress.naive_estimator(h, data, 4.0, 1.0, 1.0, 14, scratch_budget())
    from privustat.ustat import disjoint_chunks

    fam = disjoint_chunks(64, 1)
    b = ustat_mean(
        h, data, fam, r=4.0, eps=1.0, gamma=0.01, tb=chunk_tail_bounds(1.0, 64), seed=14,
        budget=scratch_budget(), label="naive",
    )
    assert a.estimate == b.estimate


def test_gaussian_mean_beats_laplace_on_range():
    # with a loose a-priori range, the iterative estimator's 75th-percentile
    # error beats a single Laplace release scaled to that range
    theta, tau, n, eps, r = 1.0, 1.0, 500, 1.0, 100.0
    rng = np.random.default_rng(4)
    errs, lap_errs = [], []
    h = pv.identity_kernel()
    for _ in range(200):
        d = Dataset(rng.normal(theta, 1.0, n))
        rep = coinpress.naive_estimator(h, d, r, tau, eps, rng, scratch_budget())
        errs.append(abs(rep.estimate - theta))
        (lap,), _ = dp.releases(
            dp.LAPLACE, [float(d.points.mean())], [2 * r / n], eps, [scratch_budget()], rng, "laplace"
        )
        lap_errs.append(abs(lap - theta))
    assert np.quantile(errs, 0.75) < np.quantile(lap_errs, 0.75)
    assert np.quantile(errs, 0.75) < 0.5  # sane absolute accuracy


def test_naive_loses_to_reweighting_on_degenerate_kernel():
    # collision kernel under the uniform law: the chunked estimator throws
    # away the overlapping-pairs information and pays for it
    from privustat import applications as apps

    m, n, eps, trials = 100, 2000, 1.0, 100
    dist = apps.PerturbedUniform.uniform(m)
    theta = apps.collision_theta(dist)
    h = pv.collision_kernel()
    wins = 0
    for trial in range(trials):
        rng = np.random.default_rng((21, trial))
        data = apps.sample_multinomial(dist, n, rng)
        naive = coinpress.naive_estimator(h, data, 1.0, 0.25, eps, rng, scratch_budget())
        xi = apps.collision_xi(m, n)
        hj = apps.private_collision_density(data, m, eps, xi, rng, scratch_budget())
        wins += int(abs(naive.estimate - theta) > abs(hj.estimate - theta))
    assert wins >= 80


# ---------------------------------------------------------------------------
# all-tuples estimator
# ---------------------------------------------------------------------------

def test_all_tuples_nonprivate_error_tracks_ustat_variance():
    # at essentially infinite budget the error is the U-statistic's own noise
    theta, n, trials = 0.0, 40, 500
    h = pv.mean_kernel(2, 0.5)
    var_un = variance_of_ustat(VarianceProfile([0.25, 0.5]), n, 2)
    rng = np.random.default_rng(5)
    sq = []
    for _ in range(trials):
        d = Dataset(rng.normal(theta, 1.0, n))
        rep = coinpress.all_tuples_estimator(h, d, 2.0, 0.5, 10**6, rng, scratch_budget())
        sq.append((rep.estimate - theta) ** 2)
    rmse = math.sqrt(float(np.mean(sq)))
    assert rmse <= 2.0 * math.sqrt(var_un)
    assert rmse >= 0.5 * math.sqrt(var_un)


def test_all_tuples_dep_is_exact():
    fam = pv.all_tuples(25, 3)
    assert fam.dependence_fraction() == pytest.approx(3 / 25, rel=1e-15)


# ---------------------------------------------------------------------------
# subsampled estimator
# ---------------------------------------------------------------------------

def test_subsampled_large_m_approaches_all_tuples():
    theta, n, trials = 0.0, 24, 200
    h = pv.mean_kernel(2, 0.5)
    rng = np.random.default_rng(6)
    sq_all, sq_ss = [], []
    big = 4 * math.comb(n, 2)
    for _ in range(trials):
        d = Dataset(rng.normal(theta, 1.0, n))
        rep_a = coinpress.all_tuples_estimator(h, d, 2.0, 0.5, 10**6, rng, scratch_budget())
        rep_s = coinpress.subsampled_estimator(h, d, 2.0, 0.5, 10**6, big, rng, scratch_budget())
        sq_all.append((rep_a.estimate - theta) ** 2)
        sq_ss.append((rep_s.estimate - theta) ** 2)
    ratio = math.sqrt(np.mean(sq_ss) / np.mean(sq_all))
    assert ratio <= 1.2


def test_subsampled_extra_variance_term():
    # RMSE^2 at huge eps matches var(U_n) + zeta_k / M within 3 SEs
    n, size, trials = 20, 40, 4000
    h = pv.mean_kernel(2, 0.5)
    var_un = variance_of_ustat(VarianceProfile([0.25, 0.5]), n, 2)
    expected = var_un + 0.5 / size  # the with-replacement variance inflation
    rng = np.random.default_rng(7)
    sq = np.empty(trials)
    for i in range(trials):
        d = Dataset(rng.normal(0.0, 1.0, n))
        rep = coinpress.subsampled_estimator(h, d, 2.0, 0.5, 10**6, size, rng, scratch_budget())
        sq[i] = rep.estimate**2
    mse = float(sq.mean())
    se = float(sq.std(ddof=1) / math.sqrt(trials))
    assert abs(mse - expected) <= 3 * se


def test_subsampled_dependence_below_four_k_over_n():
    n, k = 100, 2
    size = int(5 * (n / k) * math.log(n))
    ok = sum(
        pv.subsample_family(n, k, size, seed=s).dependence_fraction() <= 4 * k / n
        for s in range(100)
    )
    assert ok >= 99


def test_subsampled_warns_below_recommended_size():
    d = Dataset(np.random.default_rng(8).normal(0, 1, 50))
    with pytest.warns(PreconditionWarning):
        coinpress.subsampled_estimator(
            pv.mean_kernel(2, 0.5), d, r=2.0, tau=0.5, eps=1.0, size=10, seed=15,
            budget=scratch_budget(),
        )


def test_one_step_uses_realized_dependence_of_subsampled_family():
    # a lopsided explicit family must scale its noise band by max_i M_i / M,
    # not by k/n
    from oracles import explicit_family

    fam = explicit_family(6, 2, [[0, 1], [0, 2], [0, 3], [0, 4], [4, 5], [3, 5]])
    assert fam.dependence_fraction() == pytest.approx(4 / 6)
    values = np.zeros(fam.size)
    beta, eps_step, qavg = 0.05, 1.0, 0.1
    _, new = ustat_one_step(
        values, fam, IntervalState(-1.0, 1.0), eps_step, beta, flat_bounds(1.0, qavg), seed=30
    )
    delta = (0.5 * new.width - qavg) / math.log(1 / beta) * eps_step
    assert delta == pytest.approx((4 / 6) * (2 + 2), rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 16, 127, 128, 129, 1000, 4097, 10**5 + 3, 2**20 + 5])
def test_stacked_row_means_equal_each_rows_mean(m):
    # the stacked engine releases np.add.reduce(values, axis=1) / M where a
    # single run released values.mean(); they must agree bit for bit
    rng = np.random.default_rng(m)
    for q in (1, 3, 19) if m < 10**6 else (1, 2):
        values = rng.normal(0.3, 2.0, (q, m)) ** 3
        got = np.add.reduce(values, axis=1) / m
        assert got.tolist() == [float(row.mean()) for row in values], q


def overflow_neighbours(n: int) -> tuple[Dataset, Dataset]:
    """n N(0, 1) draws with one record at 1.7e308, and the neighbour with a
    second such record, whose pair mean overflows to inf."""
    x = np.random.default_rng(0).normal(0.0, 1.0, n)
    x[0] = 1.7e308
    y = x.copy()
    y[1] = 1.7e308
    return Dataset(x), Dataset(y)


OVERFLOW_RUNS = {
    "naive": (200, lambda d, b: pv.naive_estimator(pv.mean_kernel(2), d, 1.0, 0.25, 1.0, 1, b)),
    "all": (200, lambda d, b: pv.all_tuples_estimator(pv.mean_kernel(2), d, 1.0, 0.25, 1.0, 1, b)),
    # 2000 draws from the 190 pairs of 20 points hold the overflowing one
    "subsampled": (20, lambda d, b: pv.subsampled_estimator(
        pv.mean_kernel(2), d, 1.0, 0.25, 1.0, 2000, 1, b)),
}


@pytest.mark.parametrize("name", sorted(OVERFLOW_RUNS))
def test_overflowing_kernel_values_are_clipped_on_both_neighbours(name):
    # finite data are the only input checked: a kernel value that overflows
    # is clipped by the first step like any outlier, so a dataset and its
    # neighbour both release, and neither exits where the other does not
    n, run = OVERFLOW_RUNS[name]
    for data in overflow_neighbours(n):
        budget = pv.PrivacyBudget(1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            report = run(data, budget)
        assert [str(w.message) for w in caught] == []
        assert math.isfinite(report.estimate) and math.isfinite(report.radius)
        assert budget.spent == pytest.approx(1.0, rel=0, abs=1e-12)
