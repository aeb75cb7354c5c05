"""Median-of-means wrapper behavior, coverage boosting, budget semantics."""

import math

import numpy as np
import pytest

import privustat as pv
from privustat.boosting import BoostPlan, boosted, median_of_means
from privustat.dp import scratch_budget
from privustat.errors import InsufficientData
from privustat.report import EstimateReport
from privustat.ustat import Dataset

from oracles import majority_vote


def make_estimator(fn):
    def estimator(chunk, rng, budget):
        budget.spend("inner", 1.0)
        return fn(chunk, rng)

    return estimator


def test_plan_chunk_count_is_odd_and_matches_log():
    plan = BoostPlan.for_dataset(10_000, 2, 0.05)
    assert plan.chunks % 2 == 1
    assert plan.chunks >= 8 * math.log(1 / 0.05)
    assert plan.chunks <= 8 * math.log(1 / 0.05) + 2
    assert plan.chunk_size == 10_000 // plan.chunks


def test_plan_rejects_tiny_datasets():
    with pytest.raises(InsufficientData):
        BoostPlan.for_dataset(20, 2, 0.05)


def test_median_of_three():
    outs = iter([1.0, 2.0, 3.0])
    est = make_estimator(lambda chunk, rng: EstimateReport(next(outs)))
    plan = BoostPlan(alpha=0.5, chunks=3, chunk_size=4)
    rep = median_of_means(est, Dataset(np.arange(12.0)), plan, seed=0, budget=scratch_budget())
    assert rep.estimate == 2.0


def test_constant_estimator_passes_through():
    est = make_estimator(lambda chunk, rng: EstimateReport(0.125))
    plan = BoostPlan.for_dataset(500, 1, 0.05)
    rep = median_of_means(est, Dataset(np.arange(500.0)), plan, seed=1, budget=scratch_budget())
    assert rep.estimate == 0.125


def test_partition_is_disjoint_and_consecutive():
    seen = []
    est = make_estimator(
        lambda chunk, rng: EstimateReport(float(seen.append(chunk.points.tolist()) or 0))
    )
    plan = BoostPlan(alpha=0.5, chunks=3, chunk_size=3)
    median_of_means(est, Dataset(np.arange(11.0)), plan, seed=2, budget=scratch_budget())
    assert seen == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]  # remainder 9, 10 dropped


def test_deterministic_given_seed():
    est = make_estimator(
        lambda chunk, rng: EstimateReport(float(chunk.points.mean() + rng.normal()))
    )
    plan = BoostPlan(alpha=0.1, chunks=5, chunk_size=20)
    d = Dataset(np.arange(100.0))
    a = median_of_means(est, d, plan, seed=7, budget=scratch_budget())
    b = median_of_means(est, d, plan, seed=7, budget=scratch_budget())
    c = median_of_means(est, d, plan, seed=8, budget=scratch_budget())
    assert a.estimate == b.estimate
    assert a.estimate != c.estimate


def test_budget_parallel_composition():
    budget = pv.PrivacyBudget(2.0)
    est = make_estimator(lambda chunk, rng: EstimateReport(0.0))
    plan = BoostPlan(alpha=0.1, chunks=5, chunk_size=10)
    median_of_means(est, Dataset(np.arange(50.0)), plan, seed=3, budget=budget)
    assert budget.spent == pytest.approx(1.0)  # max over branches, not 5x


def test_coverage_boost():
    # a base estimator correct within r only 75% of the time yields a median
    # correct within r at least 1 - alpha of the time
    alpha, radius = 0.05, 1.0
    plan = BoostPlan.for_dataset(2500, 1, alpha)

    def base(chunk, rng):
        if rng.random() < 0.75:
            return EstimateReport(float(rng.uniform(-radius, radius)))
        return EstimateReport(float(rng.choice([-50.0, 50.0])))

    est = make_estimator(base)
    d = Dataset(np.zeros(2500))
    hits = 0
    trials = 10**4
    master = np.random.SeedSequence(99).spawn(trials)
    for ss in master:
        rep = median_of_means(est, d, plan, seed=ss, budget=scratch_budget())
        hits += int(abs(rep.estimate) <= radius)
    assert hits / trials >= 1 - alpha


def test_bottom_majority_propagates():
    est = make_estimator(lambda chunk, rng: EstimateReport(None, bottom_reason="x"))
    plan = BoostPlan(alpha=0.5, chunks=3, chunk_size=2)
    rep = median_of_means(est, Dataset(np.arange(6.0)), plan, seed=4, budget=scratch_budget())
    assert rep.is_bottom


def test_insufficient_data_raises():
    est = make_estimator(lambda chunk, rng: EstimateReport(0.0))
    plan = BoostPlan(alpha=0.5, chunks=3, chunk_size=10)
    with pytest.raises(InsufficientData):
        median_of_means(est, Dataset(np.arange(10.0)), plan, seed=5, budget=scratch_budget())


def test_majority_vote():
    assert majority_vote([True, True, False])
    assert not majority_vote([True, False, False])


def test_boosted_without_alpha_runs_the_estimator_once_on_all_data():
    seen = []
    est = make_estimator(
        lambda chunk, rng: EstimateReport(float(seen.append(chunk.n) or 0.5))
    )
    budget = pv.PrivacyBudget(2.0)
    rep = boosted(est, Dataset(np.arange(40.0)), 2, None, seed=0, budget=budget)
    assert rep.estimate == 0.5 and seen == [40]
    assert [label for label, _ in budget.entries] == ["inner"]


def test_boosted_with_alpha_is_median_of_means_at_the_plan():
    est = make_estimator(
        lambda chunk, rng: EstimateReport(float(chunk.points.mean() + rng.normal()))
    )
    d = Dataset(np.arange(500.0))
    plan = BoostPlan.for_dataset(500, 2, 0.1)
    budget = pv.PrivacyBudget(2.0)
    rep = boosted(est, d, 2, 0.1, seed=9, budget=budget)
    assert rep.estimate == median_of_means(est, d, plan, seed=9, budget=scratch_budget()).estimate
    assert [label for label, _ in budget.entries] == [f"median_of_means(q={plan.chunks})"]
