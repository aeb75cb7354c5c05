"""Median-of-means wrapper behavior, coverage boosting, budget semantics, and
the stacked chunk runs against the per-chunk loop."""

import copy
import math
import warnings

import numpy as np
import pytest

import privustat as pv
from privustat import applications as apps
from privustat import coinpress, hajek
from privustat.boosting import BoostPlan, boosted, median_of_means
from privustat.dp import scratch_budget
from privustat.errors import InsufficientData, PreconditionWarning
from privustat.report import EstimateReport
from privustat.ustat import Dataset, clipped_kernel

from oracles import (
    StackNoise,
    each_chunk,
    loop_median_of_means,
    majority_vote,
    two_release_triangle_density,
)


def make_estimator(fn):
    def estimator(chunk, rng, budget):
        budget.spend("inner", 1.0)
        return fn(chunk, rng)

    return each_chunk(estimator)


def test_plan_chunk_count_is_odd_and_matches_log():
    # just below 1, 8 ln(1/alpha) is about 1.8e-15 and rounds up to one chunk
    for alpha, chunks in ((0.05, 25), (0.9999999999999999, 1)):
        plan = BoostPlan.for_dataset(10_000, 2, alpha)
        assert plan.chunks == chunks
        assert plan.chunks % 2 == 1
        assert plan.chunks >= 8 * math.log(1 / alpha)
        assert plan.chunks <= 8 * math.log(1 / alpha) + 2
        assert plan.chunk_size == 10_000 // plan.chunks


def test_plan_rejects_tiny_datasets():
    with pytest.raises(InsufficientData):
        BoostPlan.for_dataset(20, 2, 0.05)


def test_median_of_three():
    outs = iter([1.0, 2.0, 3.0])
    est = make_estimator(lambda chunk, rng: EstimateReport(next(outs)))
    plan = BoostPlan(alpha=0.5, chunks=3, chunk_size=4)
    rep = median_of_means(est, [Dataset(np.arange(12.0))], plan, 0, [scratch_budget()])[0]
    assert rep.estimate == 2.0


def test_constant_estimator_passes_through():
    est = make_estimator(lambda chunk, rng: EstimateReport(0.125))
    plan = BoostPlan.for_dataset(500, 1, 0.05)
    rep = median_of_means(est, [Dataset(np.arange(500.0))], plan, 1, [scratch_budget()])[0]
    assert rep.estimate == 0.125


def test_partition_is_disjoint_and_consecutive():
    seen = []
    est = make_estimator(
        lambda chunk, rng: EstimateReport(float(seen.append(chunk.points.tolist()) or 0))
    )
    plan = BoostPlan(alpha=0.5, chunks=3, chunk_size=3)
    median_of_means(est, [Dataset(np.arange(11.0))], plan, 2, [scratch_budget()])
    assert seen == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]  # remainder 9, 10 dropped


def test_deterministic_given_seed():
    est = make_estimator(
        lambda chunk, rng: EstimateReport(float(chunk.points.mean() + rng.normal()))
    )
    plan = BoostPlan(alpha=0.1, chunks=5, chunk_size=20)
    d = Dataset(np.arange(100.0))
    a = median_of_means(est, [d], plan, 7, [scratch_budget()])[0]
    b = median_of_means(est, [d], plan, 7, [scratch_budget()])[0]
    c = median_of_means(est, [d], plan, 8, [scratch_budget()])[0]
    assert a.estimate == b.estimate
    assert a.estimate != c.estimate


def test_budget_parallel_composition():
    budget = pv.PrivacyBudget(2.0)
    est = make_estimator(lambda chunk, rng: EstimateReport(0.0))
    plan = BoostPlan(alpha=0.1, chunks=5, chunk_size=10)
    median_of_means(est, [Dataset(np.arange(50.0))], plan, 3, [budget])
    assert budget.spent == pytest.approx(1.0)  # max over branches, not 5x


def test_coverage_boost():
    # a base estimator correct within r only 75% of the time yields a median
    # correct within r at least 1 - alpha of the time
    alpha, radius = 0.05, 1.0
    plan = BoostPlan.for_dataset(2500, 1, alpha)

    def est(chunks, rngs, budgets):
        # per chunk: with probability 0.75 uniform on [-radius, radius]
        # (``uniform``'s one double), else -50 or 50 (``choice``'s integer)
        reports = []
        for rng, budget in zip(rngs, budgets):
            budget.spend("inner", 1.0)
            if rng.random() < 0.75:
                value = -radius + 2.0 * radius * rng.random()
            else:
                value = (-50.0, 50.0)[rng.integers(0, 2)]
            reports.append(EstimateReport(value))
        return reports

    d = Dataset(np.zeros(2500))
    hits = 0
    trials = 10**4
    master = np.random.SeedSequence(99).spawn(trials)
    for ss in master:
        rep = median_of_means(est, [d], plan, ss, [scratch_budget()])[0]
        hits += int(abs(rep.estimate) <= radius)
    assert hits / trials >= 1 - alpha


def test_bottom_majority_propagates():
    est = make_estimator(lambda chunk, rng: EstimateReport(None, bottom_reason="x"))
    plan = BoostPlan(alpha=0.5, chunks=3, chunk_size=2)
    rep = median_of_means(est, [Dataset(np.arange(6.0))], plan, 4, [scratch_budget()])[0]
    assert rep.is_bottom


def test_insufficient_data_raises():
    est = make_estimator(lambda chunk, rng: EstimateReport(0.0))
    plan = BoostPlan(alpha=0.5, chunks=3, chunk_size=10)
    with pytest.raises(InsufficientData):
        median_of_means(est, [Dataset(np.arange(10.0))], plan, 5, [scratch_budget()])


def test_majority_vote():
    assert majority_vote([True, True, False])
    assert not majority_vote([True, False, False])


def test_boosted_without_alpha_runs_the_estimator_once_on_all_data():
    seen = []
    est = make_estimator(
        lambda chunk, rng: EstimateReport(float(seen.append(chunk.n) or 0.5))
    )
    budget = pv.PrivacyBudget(2.0)
    rep = boosted(est, [Dataset(np.arange(40.0))], 2, None, 0, [budget])[0]
    assert rep.estimate == 0.5 and seen == [40]
    assert [label for label, _ in budget.entries] == ["inner"]


def test_boosted_with_alpha_is_median_of_means_at_the_plan():
    est = make_estimator(
        lambda chunk, rng: EstimateReport(float(chunk.points.mean() + rng.normal()))
    )
    d = Dataset(np.arange(500.0))
    plan = BoostPlan.for_dataset(500, 2, 0.1)
    budget = pv.PrivacyBudget(2.0)
    rep = boosted(est, [d], 2, 0.1, 9, [budget])[0]
    assert rep.estimate == median_of_means(est, [d], plan, 9, [scratch_budget()])[0].estimate
    assert [label for label, _ in budget.entries] == [f"median_of_means(q={plan.chunks})"]


# ---------------------------------------------------------------------------
# stacked chunk runs against the per-chunk loop
# ---------------------------------------------------------------------------

def _recording_stacked(estimator, branches, reports):
    def run(chunks, rng, budgets):
        branches.extend(budgets)
        out = estimator(chunks, rng, budgets)
        reports.extend(out)
        return out

    return run


def _recording_chunk(estimator, branches, reports):
    def run(chunk, rng, budget):
        branches.append(budget)
        reports.append(estimator(chunk, rng, budget))
        return reports[-1]

    return run


def assert_one_generator(noise: StackNoise):
    """Every live row of every release of the stacked run, one dataset's
    chunks, drew from one and the same Generator."""
    rows = [g for release in noise.generators for g in release]
    assert all(g is rows[0] for g in rows)
    assert all(isinstance(g, np.random.Generator) for g in rows)


def assert_stacked_equals_loop(stacked, per_chunk, data, plan, seed):
    """The stacked block and the per-chunk loop, each chunk's releases
    adding the stack's draws for it, agree bit for bit: the wrapped report,
    every branch ledger and the parent ledger.  Every release of the stack
    draws from one generator.  Returns the stacked path's chunk reports."""
    got_branches, got_reports, want_branches, want_reports = [], [], [], []
    got_budget, want_budget = pv.PrivacyBudget(10.0), pv.PrivacyBudget(10.0)
    noise = StackNoise()
    # a Generator seed is advanced by the run, so each run gets a copy
    with noise.recording():
        (got,) = median_of_means(
            _recording_stacked(stacked, got_branches, got_reports), [data], plan,
            copy.deepcopy(seed), [got_budget],
        )
    assert_one_generator(noise)
    with noise.replaying():
        want = loop_median_of_means(
            _recording_chunk(per_chunk, want_branches, want_reports), data, plan,
            copy.deepcopy(seed), want_budget,
        )
    assert (got.estimate, got.radius, got.noise_scale, got.bottom_reason) == (
        want.estimate, want.radius, want.noise_scale, want.bottom_reason
    )
    assert got.diagnostics == want.diagnostics  # chunk estimates and bottoms among them
    assert [b.entries for b in got_branches] == [b.entries for b in want_branches]
    assert got_budget.entries == want_budget.entries
    assert [(r.estimate, r.radius, r.noise_scale) for r in got_reports] == [
        (r.estimate, r.radius, r.noise_scale) for r in want_reports
    ]
    return got_reports


def _gauss(n, seed):
    return Dataset(np.random.default_rng(seed).normal(0.5, 1.0, n))


def _labels(n, m, seed):
    return Dataset(np.random.default_rng(seed).integers(0, m, n))


# the generic Hájek path: a clipped pair mean on the complete family
CLIPPED_PAIR_MEAN = clipped_kernel(pv.mean_kernel(2), 0.0, 1.0)


def _hajek_stacked(params):
    return lambda c, r, b: hajek.private_means_local_hajek(
        CLIPPED_PAIR_MEAN, c, pv.all_tuples(c.shape[1], 2), params, r, b)


def _hajek_chunk(params):
    return lambda d, r, b: pv.private_mean_local_hajek(
        CLIPPED_PAIR_MEAN, d, pv.all_tuples(d.n, 2), params, r, b)


STACKED_CASES = {
    "naive": (
        lambda c, r, b: coinpress.naive_estimates(pv.mean_kernel(2, 0.5), c, 2.0, 0.5, 1.0, r, b),
        lambda d, r, b: coinpress.naive_estimator(pv.mean_kernel(2, 0.5), d, 2.0, 0.5, 1.0, r, b),
        _gauss,
    ),
    "all": (
        lambda c, r, b: coinpress.all_tuples_estimates(pv.collision_kernel(), c, 1.0, 0.25, 0.5, r, b),
        lambda d, r, b: coinpress.all_tuples_estimator(pv.collision_kernel(), d, 1.0, 0.25, 0.5, r, b),
        lambda n, seed: _labels(n, 20, seed),
    ),
    "subsampled": (
        lambda c, r, b: coinpress.subsampled_estimates(
            pv.mean_kernel(2, 0.5), c, 2.0, 0.5, 1.0, 3 * c.shape[1], r, b),
        lambda d, r, b: coinpress.subsampled_estimator(
            pv.mean_kernel(2, 0.5), d, 2.0, 0.5, 1.0, 3 * d.n, r, b),
        _gauss,
    ),
    "collision": (
        lambda c, r, b: apps.private_collision_densities(
            c, 20, 1.0, apps.collision_xi(20, c.shape[1]), r, b),
        lambda d, r, b: apps.private_collision_density(d, 20, 1.0, apps.collision_xi(20, d.n), r, b),
        lambda n, seed: _labels(n, 20, seed),
    ),
    "hajek": (
        _hajek_stacked(pv.HajekParams(eps=1.0, c_range=1.0, xi=0.3)),
        _hajek_chunk(pv.HajekParams(eps=1.0, c_range=1.0, xi=0.3)),
        _gauss,
    ),
}


@pytest.mark.filterwarnings("ignore::privustat.errors.PreconditionWarning")
@pytest.mark.parametrize("name", sorted(STACKED_CASES))
@pytest.mark.parametrize("n, alpha", [(200, 0.3), (500, 0.1), (1000, 0.05)])
def test_stacked_chunks_equal_the_per_chunk_loop(name, n, alpha):
    stacked, per_chunk, make = STACKED_CASES[name]
    plan = BoostPlan.for_dataset(n, 2, alpha)
    for seed in (0, 7, 19):
        data = make(n, seed)
        assert_stacked_equals_loop(stacked, per_chunk, data, plan, seed)
        assert_stacked_equals_loop(stacked, per_chunk, data, plan, np.random.SeedSequence(seed))


@pytest.mark.filterwarnings("ignore::privustat.errors.PreconditionWarning")
def test_stacked_chunks_equal_the_loop_when_an_interval_goes_disjoint():
    # with tau far below the data's spread and a mean outside [-r, r], the
    # release interval misses the previous one in the first 7 chunks only
    x = np.random.default_rng(3).normal(0.0, 1.0, 1000)
    x[:364] += 5.0
    h = pv.mean_kernel(2, 0.01)
    plan = BoostPlan.for_dataset(1000, 2, 0.1)
    reports = assert_stacked_equals_loop(
        lambda c, r, b: coinpress.naive_estimates(h, c, 1.0, 0.01, 10.0, r, b),
        lambda d, r, b: coinpress.naive_estimator(h, d, 1.0, 0.01, 10.0, r, b),
        Dataset(x), plan, 4,
    )
    disjoint = [any(iv.lo == iv.hi for iv in r.diagnostics["trace"][1:-1]) for r in reports]
    assert any(disjoint) and not all(disjoint)


def test_stacked_collision_rows_with_spread_levels_and_bad_indices():
    # six chunks of one heavy label with three rare ones (L = 3, three bad
    # indices reweighted), five uniform chunks (L = 1, none bad)
    rng = np.random.default_rng(5)
    plan = BoostPlan.for_dataset(4000, 2, 0.3)
    size = plan.chunk_size
    x = rng.integers(0, 20, 4000)
    for c in range(6):
        chunk = np.zeros(size, dtype=np.int64)
        chunk[rng.choice(size, 3, replace=False)] = rng.integers(1, 20, 3)
        x[c * size : (c + 1) * size] = chunk
    for seed in range(4):
        reports = assert_stacked_equals_loop(*STACKED_CASES["collision"][:2], Dataset(x), plan, seed)
        assert [r.diagnostics["L"] for r in reports] == [3] * 6 + [1] * (plan.chunks - 6)
        assert [r.diagnostics["n_bad"] for r in reports] == [3] * 6 + [0] * (plan.chunks - 6)


def test_stacked_hajek_rows_with_spread_levels_and_bad_indices():
    # six chunks of points near 0.5 with three at 5.0, whose clipped pair
    # means sit near 1 (L = 3, three bad indices reweighted), five chunks
    # with none (L = 1, none bad)
    rng = np.random.default_rng(6)
    plan = BoostPlan.for_dataset(2200, 2, 0.3)
    size = plan.chunk_size
    x = rng.normal(0.5, 0.01, 2200)
    for c in range(6):
        x[c * size + rng.choice(size, 3, replace=False)] = 5.0
    params = pv.HajekParams(eps=1.0, c_range=1.0, xi=0.0)
    for seed in range(3):
        reports = assert_stacked_equals_loop(
            _hajek_stacked(params), _hajek_chunk(params), Dataset(x), plan, seed
        )
        assert [r.diagnostics["L"] for r in reports] == [3] * 6 + [1] * (plan.chunks - 6)
        assert [r.diagnostics["n_bad"] for r in reports] == [3] * 6 + [0] * (plan.chunks - 6)


def test_stacked_hajek_refuses_an_irregular_family_for_every_chunk_and_spends_nothing():
    # a disjoint-chunk family fails the pair condition, whatever the data
    family = pv.SubsetFamily(8, 2, np.array([[0, 1], [2, 3], [4, 5], [6, 7], [0, 1]]), kind="explicit")
    budgets = [pv.PrivacyBudget(1.0) for _ in range(3)]
    reports = hajek.private_means_local_hajek(
        CLIPPED_PAIR_MEAN, np.zeros((3, 8)), family, pv.HajekParams(1.0, 1.0, 0.0), 0, budgets
    )
    assert all(r.is_bottom for r in reports)
    assert len({r.bottom_reason for r in reports}) == 1
    assert all(b.entries == [] for b in budgets)


def test_stacked_majority_bottom_block_equals_the_loop():
    def refuse_small(chunk, rng, budget):
        budget.spend("inner", 0.5)
        if chunk.points.mean() < 300:
            return EstimateReport(None, bottom_reason="small")
        return EstimateReport(float(chunk.points.mean() + rng.normal()))

    plan = BoostPlan.for_dataset(500, 2, 0.1)
    for data in (Dataset(np.arange(500.0)), Dataset(np.arange(500.0)[::-1].copy())):
        assert_stacked_equals_loop(each_chunk(refuse_small), refuse_small, data, plan, 11)
    (rep,) = median_of_means(
        each_chunk(refuse_small), [Dataset(np.arange(500.0))], plan, 11, [scratch_budget()]
    )
    assert rep.is_bottom


BAD_CHUNK_CASES = {
    "naive": lambda c, r, b: coinpress.naive_estimates(pv.mean_kernel(2), c, 2.0, 0.5, 1.0, r, b),
    "all": lambda c, r, b: coinpress.all_tuples_estimates(pv.mean_kernel(2), c, 2.0, 0.5, 1.0, r, b),
    "subsampled": lambda c, r, b: coinpress.subsampled_estimates(
        pv.mean_kernel(2), c, 2.0, 0.5, 1.0, 200, r, b),
    "collision": STACKED_CASES["collision"][0],
    "hajek": STACKED_CASES["hajek"][0],
}


@pytest.mark.filterwarnings("ignore::privustat.errors.PreconditionWarning")
@pytest.mark.parametrize("name", sorted(BAD_CHUNK_CASES))
def test_a_bad_chunk_raises_before_any_branch_is_debited(name):
    # the bad value sits in the fourth chunk; the per-chunk loop had spent
    # the first three chunks' budget before it reached it
    plan = BoostPlan.for_dataset(500, 2, 0.1)
    if name == "collision":
        x = _labels(500, 20, 2).points.copy()
        x[3 * plan.chunk_size + 1] = 20  # label out of range
    else:
        x = _gauss(500, 2).points
        x[3 * plan.chunk_size + 1] = np.nan
    branches = []
    budget = pv.PrivacyBudget(10.0)
    with pytest.raises(ValueError):
        median_of_means(
            _recording_stacked(BAD_CHUNK_CASES[name], branches, []), [Dataset(x)], plan, 1, [budget]
        )
    assert len(branches) == plan.chunks
    assert all(b.entries == [] for b in branches)
    assert budget.spent == 0.0


SEEDS = {
    "int": lambda: 41,
    "SeedSequence": lambda: np.random.SeedSequence(41),
    "Generator": lambda: np.random.default_rng(41),
}


@pytest.mark.parametrize("kind", sorted(SEEDS))
def test_the_estimator_gets_the_seeds_one_generator(kind):
    # median_of_means hands every chunk row as_generator(seed) and makes no
    # stream of its own: a Generator seed is passed through, so a second
    # median_of_means on it continues the same stream
    ours, reference = SEEDS[kind](), np.random.default_rng(SEEDS[kind]())
    for _ in range(2):
        got = []

        def estimator(chunks, rngs, budgets):
            got.append(rngs)
            return [EstimateReport(float(rng.random())) for rng in rngs]

        (rep,) = median_of_means(
            estimator, [Dataset(np.zeros(5))], BoostPlan(0.5, 5, 1), ours, [scratch_budget()]
        )
        if kind != "Generator":  # a new generator from the same seed
            reference = np.random.default_rng(SEEDS[kind]())
        assert rep.diagnostics["chunk_estimates"] == reference.random(5).tolist()
        (rngs,) = got
        assert len(rngs) == 5 and all(g is rngs[0] for g in rngs)
        assert (rngs[0] is ours) == (kind == "Generator")


def test_each_dataset_chunks_share_its_own_generator():
    # one generator per dataset: the rows of dataset t all hold generator t
    gens = [np.random.default_rng(s) for s in (1, 2, 3)]
    got = []

    def estimator(chunks, rngs, budgets):
        got.append((chunks.shape, rngs))
        return [EstimateReport(0.0) for _ in budgets]

    datasets = [Dataset(np.arange(12.0) + 100 * t) for t in range(3)]
    reports = median_of_means(estimator, datasets, BoostPlan(0.5, 3, 4), gens, [scratch_budget()] * 3)
    ((shape, rngs),) = got
    assert shape == (9, 4) and len(reports) == 3
    assert [[rngs[3 * t + c] is gens[t] for c in range(3)] for t in range(3)] == [[True] * 3] * 3
    with pytest.raises(ValueError, match="one generator per row"):
        median_of_means(estimator, datasets, BoostPlan(0.5, 3, 4), gens[:2], [scratch_budget()] * 3)


@pytest.mark.filterwarnings("ignore::privustat.errors.PreconditionWarning")
@pytest.mark.parametrize("name", sorted(STACKED_CASES))
@pytest.mark.parametrize("alpha", [None, 0.1])
def test_stacked_datasets_equal_one_call_per_dataset(name, alpha):
    # T datasets in one boosted call, each on its own generator and ledger,
    # give each dataset the reports, ledger entries and generator state of
    # its own call, bit for bit
    stacked, _, make = STACKED_CASES[name]
    datasets = [make(500, seed) for seed in (3, 4, 5)]
    got_rngs = [np.random.default_rng(seed) for seed in (7, 8, 9)]
    want_rngs = [np.random.default_rng(seed) for seed in (7, 8, 9)]
    got_budgets = [pv.PrivacyBudget(10.0) for _ in datasets]
    want_budgets = [pv.PrivacyBudget(10.0) for _ in datasets]
    got = boosted(stacked, datasets, 2, alpha, got_rngs, got_budgets)
    want = [
        boosted(stacked, [data], 2, alpha, rng, [budget])[0]
        for data, rng, budget in zip(datasets, want_rngs, want_budgets)
    ]
    assert [(r.estimate, r.radius, r.noise_scale, r.bottom_reason) for r in got] == [
        (r.estimate, r.radius, r.noise_scale, r.bottom_reason) for r in want
    ]
    assert [r.diagnostics.get("chunk_estimates") for r in got] == [
        r.diagnostics.get("chunk_estimates") for r in want
    ]
    assert [b.entries for b in got_budgets] == [b.entries for b in want_budgets]
    assert [g.random() for g in got_rngs] == [g.random() for g in want_rngs]


def test_stacked_warnings_appear_once_at_the_calling_line():
    # every chunk violates the same halving precondition: one warning
    plan = BoostPlan.for_dataset(500, 2, 0.1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        median_of_means(
            lambda c, r, b: coinpress.naive_estimates(pv.mean_kernel(2, 0.5), c, 100.0, 0.5, 0.05, r, b),
            [_gauss(500, 1)], plan, 3, [scratch_budget()],
        )
    messages = [str(w.message) for w in caught if issubclass(w.category, PreconditionWarning)]
    assert len(messages) == 1 and messages[0].startswith("halving guarantees not in force")
    assert {w.filename for w in caught} == {__file__}


# ---------------------------------------------------------------------------
# triangle density: every chunk in one block-diagonal run
# ---------------------------------------------------------------------------

TRIANGLE_CHUNK_RUNS = {
    "one-chunk call": lambda c, r, b: pv.private_triangle_density(c, 1.0, r, b),
    "two releases": lambda c, r, b: two_release_triangle_density(c, 1.0, r, b),
}


def assert_boosted_triangles_equal_the_loop(graph, alpha, seed, per_chunk):
    """``boosted_triangle_density`` against the per-chunk loop over induced
    chunks: the wrapped report, every chunk report (bottoms among them),
    every branch ledger and the parent ledger, bit for bit.  Returns the
    stacked chunk reports."""
    plan = BoostPlan.for_dataset(graph.n, 3, alpha)
    got_branches, got_reports, want_branches, want_reports = [], [], [], []
    got_budget, want_budget = pv.PrivacyBudget(10.0), pv.PrivacyBudget(10.0)
    stacked = apps.private_triangle_densities
    noise = StackNoise()

    def recording(chunks, eps, rng, budgets):
        return _recording_stacked(
            lambda c, r, b: stacked(c, eps, r, b), got_branches, got_reports
        )(chunks, rng, budgets)

    with pytest.MonkeyPatch.context() as mp, noise.recording():
        mp.setattr(apps, "private_triangle_densities", recording)
        got = apps.boosted_triangle_density(graph, 1.0, alpha, seed, got_budget)
    assert_one_generator(noise)
    with noise.replaying():
        want = loop_median_of_means(
            _recording_chunk(per_chunk, want_branches, want_reports), graph, plan, seed, want_budget
        )
    assert (got.estimate, got.bottom_reason, got.diagnostics) == (
        want.estimate, want.bottom_reason, want.diagnostics
    )
    assert len(got_reports) == len(want_reports) == plan.chunks
    for g, w in zip(got_reports, want_reports):
        assert (g.estimate, g.radius, g.noise_scale, g.bottom_reason) == (
            w.estimate, w.radius, w.noise_scale, w.bottom_reason
        )
        for key in ("nu", "xi", "edge_density", "L", "n_bad", "smooth_bound"):
            assert g.diagnostics.get(key) == w.diagnostics.get(key), key
    assert [b.entries for b in got_branches] == [b.entries for b in want_branches]
    assert [b.spent for b in got_branches] == [b.spent for b in want_branches]
    assert (got_budget.entries, got_budget.spent) == (want_budget.entries, want_budget.spent)
    return got_reports


@pytest.mark.parametrize("per_chunk", sorted(TRIANGLE_CHUNK_RUNS))
@pytest.mark.parametrize("alpha, q", [(0.9, 1), (0.7, 3), (0.1, 19)])
def test_boosted_triangles_equal_the_per_chunk_loop(alpha, q, per_chunk):
    # an RGG's node order is random, so edges cross every chunk boundary;
    # 601 nodes leave nodes past the last chunk at q = 3 and q = 19
    graph = apps.sample_rgg(601, 0.6, seed=40)
    assert BoostPlan.for_dataset(graph.n, 3, alpha).chunks == q
    bottoms = 0
    for seed in range(3):
        reports = assert_boosted_triangles_equal_the_loop(
            graph, alpha, seed, TRIANGLE_CHUNK_RUNS[per_chunk]
        )
        bottoms += sum(r.is_bottom for r in reports)
    assert bottoms > 0 or q < 19


def hub_graph(seed) -> apps.GeometricGraph:
    """Three chunks of 201 nodes and two nodes past them.  Chunk 0 is
    random, chunk 1 has no edges (its proxy is pure Laplace noise, negative
    half the time), chunk 2 is sparse random edges plus a hub joined to every
    other node of it, and sparse random edges cross every chunk boundary and
    reach the last two nodes."""
    rng = np.random.default_rng(seed)
    size, n = 201, 605
    upper = rng.random((n, n)) < 0.005
    for c, p in enumerate((0.05, 0.0, 0.127)):
        block = slice(c * size, (c + 1) * size)
        upper[block, block] = rng.random((size, size)) < p
    upper[2 * size, 2 * size + 1 : 3 * size] = True
    upper = np.triu(upper, 1)
    return apps.GeometricGraph((upper | upper.T).astype(np.int8))


@pytest.mark.parametrize("per_chunk", sorted(TRIANGLE_CHUNK_RUNS))
def test_boosted_triangles_with_a_bad_node_and_a_negative_proxy_equal_the_loop(
    per_chunk, monkeypatch
):
    # a radius this small lets chunk 2's hub pass its edge, so that chunk is
    # reweighted on its own block; both paths look triangle_xi up per call
    monkeypatch.setattr(apps, "triangle_xi", lambda nu, n: nu / 100)
    graph = hub_graph(41)
    reweighted = bottoms = 0
    for seed in range(6):
        reports = assert_boosted_triangles_equal_the_loop(
            graph, 0.7, seed, TRIANGLE_CHUNK_RUNS[per_chunk]
        )
        reweighted += reports[2].diagnostics["n_bad"] > 0
        bottoms += reports[1].is_bottom
    assert reweighted == 6 and 0 < bottoms < 6
