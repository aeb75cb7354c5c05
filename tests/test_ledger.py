"""Every estimator debits the ledger it is given exactly its declared eps.

The ledger is the only record of a call's eps: reports do not carry one.
"""

import numpy as np
import pytest

import privustat as pv
from privustat import applications as apps
from privustat.boosting import BoostPlan, median_of_means
from privustat.dp import PrivacyBudget
from privustat.report import EstimateReport
from privustat.ustat import Dataset

from oracles import each_chunk, explicit_family

EPS = 0.7


def _labels(n, seed):
    return apps.sample_multinomial(apps.PerturbedUniform.uniform(10), n, seed)


def _reals(n, seed):
    return Dataset(np.random.default_rng(seed).normal(0.5, 1.0, n))


CASES = {
    "naive": lambda b: pv.naive_estimator(
        pv.identity_kernel(), _reals(200, 1), 4.0, 1.0, EPS, 2, budget=b),
    "all": lambda b: pv.all_tuples_estimator(
        pv.collision_kernel(), _labels(80, 3), 1.0, 0.25, EPS, 4, budget=b),
    "subsampled": lambda b: pv.subsampled_estimator(
        pv.collision_kernel(), _labels(80, 5), 1.0, 0.25, EPS, 400, 6, budget=b),
    "hajek": lambda b: pv.private_mean_local_hajek(
        pv.collision_kernel(), _labels(80, 7), pv.all_tuples(80, 2),
        pv.HajekParams(eps=EPS, c_range=1.0, xi=0.1), 8, b),
    "pipeline": lambda b: pv.subgaussian_pipeline(
        pv.mean_kernel(2, 0.5), _reals(240, 9), 4.0, 0.5, EPS, 0.05, 10, budget=b),
    "uniformity": lambda b: apps.boosted_uniformity_test(
        _labels(300, 11), 10, 0.5, EPS, None, 12, b).report,
    "triangle": lambda b: pv.private_triangle_density(apps.sample_rgg(60, 0.8, 13), EPS, 14, b),
    "boosted_uniformity": lambda b: apps.boosted_uniformity_test(
        _labels(2000, 15), 10, 0.5, EPS, 0.1, 16, b).report,
    "boosted_triangle": lambda b: apps.boosted_triangle_density(
        apps.sample_rgg(150, 0.8, 17), EPS, 0.5, 18, b),
}


@pytest.mark.filterwarnings("ignore::privustat.errors.PreconditionWarning")
@pytest.mark.parametrize("name", sorted(CASES))
def test_reported_eps_is_the_ledger_debit(name):
    budget = PrivacyBudget(10.0)
    report = CASES[name](budget)
    assert not report.is_bottom
    declared = 2 * EPS if "triangle" in name else EPS
    assert budget.spent == pytest.approx(declared, rel=0, abs=1e-12)


def test_irregular_family_bottom_reports_zero():
    budget = PrivacyBudget(10.0)
    family = explicit_family(4, 2, [[0, 1], [0, 2]])  # index 3 in no subset
    report = pv.private_mean_local_hajek(
        pv.collision_kernel(), Dataset(np.array([0, 1, 0, 1])), family,
        pv.HajekParams(eps=EPS, c_range=1.0, xi=0.1), 0, budget,
    )
    assert report.is_bottom
    assert budget.spent == 0.0


def test_negative_proxy_bottom_reports_the_proxy_eps():
    empty = apps.GeometricGraph(np.zeros((12, 12), dtype=np.int8))
    for seed in range(40):  # the proxy is pure Laplace noise: bottom half the time
        budget = PrivacyBudget(10.0)
        report = pv.private_triangle_density(empty, EPS, seed, budget)
        if report.is_bottom:
            break
    assert report.is_bottom
    assert budget.spent == pytest.approx(EPS, rel=0, abs=1e-12)


def test_median_of_means_majority_bottom_reports_the_block_debit():
    def bottom_after_spending(chunk, rng, branch):
        branch.spend("chunk release", EPS)
        return EstimateReport(None, bottom_reason="refused")

    budget = PrivacyBudget(10.0)
    plan = BoostPlan(alpha=0.5, chunks=3, chunk_size=4)
    report = median_of_means(
        each_chunk(bottom_after_spending), Dataset(np.arange(12.0)), plan, 1, budget
    )
    assert report.is_bottom
    assert budget.spent == pytest.approx(EPS, rel=0, abs=1e-12)


NAN_CASES = {
    "naive": lambda d, b: pv.naive_estimator(pv.mean_kernel(2), d, 4.0, 1.0, 1.0, 1, b),
    "all": lambda d, b: pv.all_tuples_estimator(pv.mean_kernel(2), d, 4.0, 1.0, 1.0, 1, b),
    "pipeline": lambda d, b: pv.subgaussian_pipeline(
        pv.mean_kernel(2, 0.5), d, 4.0, 0.5, 1.0, 0.05, 1, b),
}


@pytest.mark.filterwarnings("ignore::privustat.errors.PreconditionWarning")
@pytest.mark.parametrize("name", sorted(NAN_CASES))
def test_non_finite_data_raises_before_any_spend(name):
    for bad in (np.nan, np.inf):
        x = np.random.default_rng(2).normal(0.0, 1.0, 40)
        x[30] = bad
        budget = PrivacyBudget(10.0)
        with pytest.raises(ValueError, match="finite"):
            NAN_CASES[name](Dataset(x), budget)
        assert budget.entries == []
