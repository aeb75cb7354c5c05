"""Spread level, weight ramp, reweighted mean, smooth bound, full estimator."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privustat as pv
from privustat import dp, hajek, ustat
from privustat.dp import scratch_budget
from privustat.coinpress import subgaussian_xi
from privustat.hajek import (
    HajekParams,
    SummaryRows,
    summary_from_values,
)
from privustat.ustat import (
    Dataset,
    all_tuples,
    clipped_kernel,
    kernel_values,
    kernel_values_and_projections,
    subsample_family,
)
from privustat import applications as apps

from oracles import (
    bincount_projections,
    brute_force_local_sensitivity,
    constant_kernel,
    dense_adjacency,
    dense_triangle_values,
    enumerated_later_triangles,
    exact_reweighted_mean,
    explicit_family,
    full_range_smooth_sensitivity,
    full_scan_compute_L,
    full_scan_hajek_state,
    per_key_smooth_sensitivity,
    reweighted_mean,
    row_state,
    smooth_sensitivity_closed_form_bound,
    stack_row,
)


def summarize(h, data, fam, vals):
    """The one-row stack of a dataset from its (M,) kernel values on a family."""
    return summary_from_values(h, data.points[None], fam, vals[None], bincount_projections(vals, fam)[None])


def one_key_bound(xi, spread_level, n, k, c_range, eps, complete) -> float:
    """The smooth bound of one (xi, L) key: the one-key ``smooth_sensitivity`` call."""
    (bound,) = pv.smooth_sensitivity(
        np.array([xi]), np.array([spread_level]), n, k, c_range, eps, complete
    ).tolist()
    return bound


def spread_level(devs, xi, c_range, k, n):
    """The spread level L of one row of deviations, with no dead band."""
    levels, _ = hajek._spread_levels(np.asarray(devs, dtype=float).reshape(1, n), [xi], [0.0], c_range, k, n)
    return levels[0]


# ---------------------------------------------------------------------------
# spread level L
# ---------------------------------------------------------------------------

def test_L_is_one_when_all_within_radius():
    devs = np.array([0.1, 0.2, 0.05, 0.0])
    assert spread_level(devs, xi=0.25, c_range=1.0, k=1, n=4) == 1


def test_L_single_outlier():
    # 6kC/n = 1 with k=1, C=2/3, n=4: threshold at t=1 is 1, one violator
    devs = np.array([0.0, 0.0, 0.0, 10.0])
    assert spread_level(devs, xi=0.0, c_range=4.0 / 6.0, k=1, n=4) == 1


def test_L_four_equal_outliers():
    # thresholds t, violators 4 at t=1..3, 4 <= 4 at t=4
    devs = np.array([5.0, 5.0, 5.0, 5.0])
    assert spread_level(devs, xi=0.0, c_range=4.0 / 6.0, k=1, n=4) == 4


def test_L_strict_violation_boundary():
    # a deviation exactly at the threshold is not a violator
    devs = np.array([1.0, 0.0, 0.0, 0.0])
    assert spread_level(devs, xi=0.0, c_range=4.0 / 6.0, k=1, n=4) == 1


def test_L_neighboring_datasets_move_by_at_most_one():
    # the cornerstone of smoothness, checked over random deviation vectors
    rng = np.random.default_rng(0)
    n, k, c = 12, 2, 1.0
    fam = all_tuples(n, k)
    h = pv.collision_kernel()
    params = dict(xi=0.05, c_range=c, k=k, n=n)
    for _ in range(200):
        x = rng.integers(0, 3, size=n)
        y = x.copy()
        y[rng.integers(0, n)] = rng.integers(0, 3)
        levels = []
        for pts in (x, y):
            vals = kernel_values(h, Dataset(pts), fam)
            proj = kernel_values_and_projections(h, pts[None], fam)[1][0]
            devs = np.abs(proj - vals.mean())
            levels.append(spread_level(devs, params["xi"], c, k, n))
        assert abs(levels[0] - levels[1]) <= 1


@pytest.mark.parametrize("devs, xi, c_range, k, expect", [
    ([0.0], 0.0, 1.0, 1, 1),  # n = 1
    ([50.0], 0.0, 1.0, 1, 1),  # n = 1, its deviation over every threshold
    ([0.5, 1.0, 0.0, 0.0], 0.0, 4.0 / 6.0, 1, 1),  # nothing over the t = 1 threshold
    ([0.0, 0.0, 10.0, 0.0], 0.0, 4.0 / 6.0, 1, 1),  # one over
    ([0.0, 10.0, 10.0, 0.0], 0.0, 4.0 / 6.0, 1, 2),  # two over
    ([0.0, 2.0, 1.5, 0.0], 0.0, 4.0 / 6.0, 1, 2),  # two over, one tied at t = 2
    ([10.0] * 6, 0.0, 1.0, 1, 6),  # every deviation over: L = n
    ([0.6, 0.7, 0.8, 0.1], 0.5, 0.0, 2, 3),  # C = 0: constant thresholds
    ([0.5, 0.5, 0.6, 0.1], 0.5, 0.0, 2, 1),  # C = 0, ties at the threshold
], ids=["n1", "n1-over", "over0", "over1", "over2", "over2-tie", "all-over", "C0", "C0-ties"])
def test_L_tail_cases_equal_the_full_scan(devs, xi, c_range, k, expect):
    n = len(devs)
    assert spread_level(np.array(devs), xi, c_range, k, n) == expect
    assert full_scan_compute_L(np.array(devs), xi, c_range, k, n) == expect


@pytest.mark.parametrize("c_range", [0.0, 0.01, 0.3, 2.0])
def test_L_equals_the_full_scan_with_ties_at_thresholds(c_range):
    rng = np.random.default_rng(21)
    for _ in range(2000):
        n, k = int(rng.integers(1, 60)), int(rng.integers(1, 4))
        xi = float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
        devs = np.abs(rng.standard_normal(n)) * rng.uniform(0.0, 3.0)
        # put some deviations exactly on a threshold xi + 6kCt/n
        ts = rng.integers(1, n + 1, n)
        tie = rng.random(n) < 0.4
        devs[tie] = (xi + 6.0 * k * c_range * ts / n)[tie]
        assert spread_level(devs, xi, c_range, k, n) == full_scan_compute_L(devs, xi, c_range, k, n)


def test_L_rejects_a_negative_range():
    # the thresholds would shrink with t
    with pytest.raises(ValueError, match="range"):
        HajekParams(eps=1.0, c_range=-1.0, xi=0.0)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weight_inside_interval_is_one():
    w = pv.compute_weights(np.array([0.3, -0.3]), 0.5, 1.0, 2, 10, 1, 1.0)
    assert w.tolist() == [1.0, 1.0]


def test_weight_ramp_endpoint_and_midpoint():
    xi, c, k, n, L, eps = 0.2, 1.0, 2, 50, 1, 0.7
    edge = xi + 6 * k * c * L / n
    full_drop = 6 * c * k / (n * eps)
    w_zero = pv.compute_weights(np.array([edge + full_drop]), xi, c, k, n, L, eps)
    w_half = pv.compute_weights(np.array([-(edge + 0.5 * full_drop)]), xi, c, k, n, L, eps)
    assert w_zero[0] == pytest.approx(0.0, abs=1e-12)
    assert w_half[0] == pytest.approx(0.5, rel=1e-12)


def test_weight_zero_range_kernel_indicator():
    w = pv.compute_weights(np.array([0.0, 0.2, -0.4]), 0.3, 0.0, 2, 10, 1, 1.0)
    assert w.tolist() == [1.0, 1.0, 0.0]


def test_weights_clamped_to_unit_interval():
    w = pv.compute_weights(np.linspace(-5, 5, 101), 0.1, 0.5, 2, 20, 1, 2.0)
    assert np.all(w >= 0.0) and np.all(w <= 1.0)


# ---------------------------------------------------------------------------
# reweighted mean
# ---------------------------------------------------------------------------

def library_reweight(h, points, fam, weights):
    """(kernel values, a_n, reweighted mean) of one dataset through the
    library's summary."""
    data = Dataset(np.asarray(points))
    vals = kernel_values(h, data, fam)
    rows = summarize(h, data, fam, vals)
    return vals, float(rows.a_n[0]), rows.reweight(0, np.asarray(weights, dtype=float))


def test_reweighted_mean_all_ones_is_plain_mean():
    fam = all_tuples(5, 2)
    _, a_n, out = library_reweight(pv.mean_kernel(2), np.arange(5.0) ** 2, fam, np.ones(5))
    assert out == a_n


def test_reweighted_mean_all_zeros_is_plain_mean():
    fam = all_tuples(5, 2)
    _, a_n, out = library_reweight(pv.mean_kernel(2), np.arange(5.0) ** 2, fam, np.zeros(5))
    assert out == pytest.approx(a_n, rel=1e-12)


def test_reweighted_mean_hand_example():
    # values h01=1, h02=0, h12=0 with weights (0, 1, 1): mean becomes 2/9
    fam = all_tuples(3, 2)
    vals, _, out = library_reweight(pv.collision_kernel(), [0, 0, 1], fam, [0.0, 1.0, 1.0])
    assert vals.tolist() == [1.0, 0.0, 0.0]
    assert out == pytest.approx(2 / 9, rel=1e-12)


def test_double_counting_on_reweighted_values():
    # sum_i M_i ghat(i) = k M A~_n, with ghat the projections of the g-values
    rng = np.random.default_rng(1)
    n, k = 9, 2
    fam = all_tuples(n, k)
    weights = rng.uniform(0, 1, n)
    vals, a_n, a_tilde = library_reweight(pv.mean_kernel(k), rng.uniform(0, 1, n), fam, weights)
    wt_s = weights[fam.subsets].min(axis=1)
    gvals = vals * wt_s + a_n * (1 - wt_s)
    ghat = bincount_projections(gvals, fam)
    assert float(np.sum(fam.counts * ghat)) == pytest.approx(k * fam.size * a_tilde, rel=1e-12)


def order_free_cases(n, k, rng):
    """(kernel, points) pairs whose kernel values do not depend on the order
    of the arguments: labels, and integer-valued points, whose sums are
    exact.  A reweight evaluates h on its own argument order, so on these
    the library and the oracles see the same h(S)."""
    labels = rng.integers(0, 3, n)
    yield (pv.collision_kernel() if k == 2 else pv.equality_kernel(k)), labels
    yield pv.mean_kernel(k), rng.integers(-4, 5, n).astype(float)
    yield clipped_kernel(pv.mean_kernel(k), -1.0, 2.0), rng.integers(-4, 5, n).astype(float)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("blocks", ["default", "small"])
def test_reweight_is_the_exact_mean_within_the_derived_bound(monkeypatch, k, blocks):
    # complete and stored families, every number of down-weighted indices
    # from 1 to n, weights with ties; small blocks end the complete family's
    # prefix inside a block and cut a stored family into slices
    if blocks == "small":
        monkeypatch.setattr(ustat, "_BLOCK_ROWS", 5)
        monkeypatch.setattr(hajek, "_RELABEL_ROWS", 7)
    rng = np.random.default_rng(k)
    n = {1: 20, 2: 20, 3: 14}[k]
    complete = all_tuples(n, k)
    for fam in (complete, subsample_family(n, k, 150, rng), explicit_family(n, k, complete.subsets[::-1])):
        for h, points in order_free_cases(n, k, rng):
            data = Dataset(points)
            vals = kernel_values(h, data, fam)
            rows = summarize(h, data, fam, vals)
            a_n = float(rows.a_n[0])
            for bad in range(1, n + 1):
                weights = np.ones(n)
                weights[rng.choice(n, bad, replace=False)] = rng.choice([0.0, 0.25, 0.5, rng.uniform()], bad)
                exact = exact_reweighted_mean(vals, fam, weights, a_n)
                assert exact.admits(rows.reweight(0, weights), exact.touched), (fam.kind, h.name, bad)
                # the oracle against the full-pass float form of the definition
                full_pass = reweighted_mean(vals, fam, weights, a_n)
                assert float(exact.value) == pytest.approx(full_pass, rel=1e-12, abs=1e-15)


def test_reweight_bound_holds_when_every_subset_is_a_term():
    # equality_kernel(3) at n = 60 with every index down-weighted: all
    # C(60, 3) subsets are summed, and their terms partly cancel
    rng = np.random.default_rng(60)
    n, h = 60, pv.equality_kernel(3)
    data, fam = Dataset(rng.integers(0, 3, n)), all_tuples(n, 3)
    vals = kernel_values(h, data, fam)
    rows = summarize(h, data, fam, vals)
    for _ in range(5):
        weights = rng.choice([0.0, 0.25, 0.5, rng.uniform()], n)
        exact = exact_reweighted_mean(vals, fam, weights, float(rows.a_n[0]))
        assert exact.touched == fam.size
        assert exact.admits(rows.reweight(0, weights), exact.touched)


def counting_kernel(k: int, calls: list) -> pv.Kernel:
    """A sum kernel that records how many subsets each call evaluates."""

    def fn(t):
        calls.append(t.shape[0])
        return t.sum(axis=1)

    return pv.Kernel(k, fn, pv.Bounded(1.0), name="count")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reweight_evaluates_only_the_subsets_that_meet_a_bad_index(monkeypatch, k):
    # the reweight's work follows the down-weighted indices B, not M: on the
    # complete family the C(n - 1 - r, k - 1) subsets whose earliest member
    # is B's r-th, on a stored family its rows that meet B
    monkeypatch.setattr(ustat, "_BLOCK_ROWS", 50)
    monkeypatch.setattr(hajek, "_RELABEL_ROWS", 64)
    n = 24
    rng = np.random.default_rng(k)
    data = Dataset(rng.integers(0, 5, n).astype(float))
    calls: list = []
    h = counting_kernel(k, calls)
    complete = all_tuples(n, k)
    for fam in (complete, subsample_family(n, k, 500, rng)):
        rows = summarize(h, data, fam, kernel_values(h, data, fam))
        for bad in (1, 3, n // 2, n):
            low = rng.choice(n, bad, replace=False)
            weights = np.ones(n)
            weights[low] = rng.choice([0.0, 0.5], bad)
            calls.clear()
            rows.reweight(0, weights)
            if fam is complete:
                assert sum(calls) == sum(math.comb(n - 1 - r, k - 1) for r in range(bad))
            else:
                assert sum(calls) == np.count_nonzero(np.isin(fam.subsets, low).any(axis=1))


def test_one_reweight_holds_less_than_one_value_per_subset():
    # collision at n = 2001 with one down-weighted index: M = 2,001,000
    # subsets, of which the reweight reads the 2000 that hold that index
    n, h = 2001, pv.collision_kernel()
    data, fam = Dataset(np.r_[1, np.zeros(n - 1, dtype=np.int64)]), all_tuples(n, 2)
    chunks = data.points[None]
    rows = summary_from_values(h, chunks, fam, *kernel_values_and_projections(h, chunks, fam))
    weights = np.ones(n)
    weights[0] = 0.0
    tracemalloc.start()
    try:
        rows.reweight(0, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * fam.size


# ---------------------------------------------------------------------------
# smooth bound
# ---------------------------------------------------------------------------

def test_smooth_bound_zero_for_constant_kernel():
    assert pv.smooth_bound_g(0.0, 1, 100, 2, 0.0, 1.0, True) == 0.0


def test_smooth_bound_plug_in_value():
    got = pv.smooth_bound_g(1.0, 1, 100, 2, 1.0, 1.0, True)
    expected = (2 / 100) * (1 + 2 / 100) * 2 + (4 / 10**4) * 1 * (1 + 2 / 100) + 4 / 10**4
    assert got == pytest.approx(expected, rel=1e-14)


def test_smooth_bound_monotone_in_L():
    grid = np.arange(1, 30)
    vals = pv.smooth_bound_g(0.3, grid, 60, 3, 1.0, 0.8, False)
    assert np.all(np.diff(vals) > 0)


def test_smooth_bound_min_factor_only_off_complete_family():
    # for L > k the incomplete-family form carries an extra factor
    complete = pv.smooth_bound_g(0.0, 5, 40, 2, 1.0, 1.0, True)
    incomplete = pv.smooth_bound_g(0.0, 5, 40, 2, 1.0, 1.0, False)
    assert incomplete > complete


def test_smooth_sensitivity_large_eps_is_g_at_L():
    for L in (1, 3, 7):
        s = one_key_bound(0.4, L, 50, 2, 1.0, 1000.0, True)
        assert s == pytest.approx(pv.smooth_bound_g(0.4, L, 50, 2, 1.0, 1000.0, True), rel=1e-12)


def test_smooth_sensitivity_can_exceed_g_at_small_eps():
    s = one_key_bound(0.0, 1, 6, 2, 1.0, 0.5, True)
    assert s > pv.smooth_bound_g(0.0, 1, 6, 2, 1.0, 0.5, True)


@pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 1.0, 2.0, 5.0])
def test_smooth_sensitivity_equals_full_range_max_bitwise(eps):
    # the evaluated prefix of shifts must always hold the maximum
    for n, L, k, xi, complete in itertools.product(
        [10, 300, 1000, 10**6], [1, 2, 5, 50, 300], [2, 3], [0.0, 0.05, 0.3], [True, False]
    ):
        if L > n:
            continue
        args = (xi, L, n, k, 1.0, eps, complete)
        assert one_key_bound(*args) == full_range_smooth_sensitivity(*args), args


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 500).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.floats(0.0, 3.0), st.integers(1, n)), max_size=20),
    )),
    st.integers(1, 4),
    st.sampled_from([0.01, 0.3, 1.0, 6.0, 50.0]),
    st.booleans(),
)
def test_smooth_sensitivity_of_many_keys_equals_each_key_alone_bitwise(case, k, eps, complete):
    n, keys = case
    xis = np.array([x for x, _ in keys], dtype=float)
    levels = np.array([L for _, L in keys], dtype=int)
    got = pv.smooth_sensitivity(xis, levels, n, k, 1.0, eps, complete)
    assert got.shape == (len(keys),)
    assert got.tolist() == [per_key_smooth_sensitivity(x, L, n, k, 1.0, eps, complete) for x, L in keys]
    for x, L in keys[:3]:
        alone = pv.smooth_sensitivity(np.array([x]), np.array([L]), n, k, 1.0, eps, complete)
        assert alone.tolist() == [per_key_smooth_sensitivity(x, L, n, k, 1.0, eps, complete)]


def test_stacked_smooth_bounds_equal_per_key_calls_bitwise():
    # a boosted triangle estimate gives every live chunk its own radius, so
    # each row is its own (L, xi) key
    rng = np.random.default_rng(5)
    q, n = 15, 200
    labels = np.where(rng.random((q, n)) < 0.3, 0, rng.integers(0, 40, (q, n)))
    rows = apps.collision_rows(labels, 40)
    xi = rng.uniform(0.0, 0.05, q)
    for eps in (0.1, 1.0):
        state = hajek.hajek_rows(rows, HajekParams(eps=eps, c_range=1.0, xi=xi))
        levels = state.spread_level.tolist()
        assert len(set(levels)) > 1
        want = [per_key_smooth_sensitivity(x, L, n, 2, 1.0, eps, True) for x, L in zip(xi.tolist(), levels)]
        assert state.smooth_bound.tolist() == want


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
def test_params_reject_non_positive_eps(eps):
    with pytest.raises(ValueError, match="epsilon"):
        HajekParams(eps=eps, c_range=1.0, xi=0.1)


@pytest.mark.parametrize("field", ["c_range", "xi"])
@pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf")])
def test_params_reject_negative_or_non_finite_range_and_radius(field, value):
    kwargs = {"eps": 1.0, "c_range": 1.0, "xi": 0.1, field: value}
    with pytest.raises(ValueError, match="finite and >= 0"):
        HajekParams(**kwargs)


@pytest.mark.parametrize("xi", [[0.1, float("nan")], [0.1, -0.1], [0.1, float("inf")], [[0.1]]])
def test_params_reject_bad_per_row_radii(xi):
    with pytest.raises(ValueError):
        HajekParams(eps=1.0, c_range=1.0, xi=np.array(xi))


def test_state_rejects_a_radius_count_other_than_the_row_count():
    rows = apps.collision_rows(np.zeros((3, 10), dtype=np.int64), 4)
    with pytest.raises(ValueError, match="one concentration radius per row"):
        hajek.hajek_rows(rows, HajekParams(1.0, 1.0, np.array([0.1, 0.2])))


def test_smooth_sensitivity_below_closed_form_bound():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(6, 200))
        k = int(rng.integers(1, 4))
        L = int(rng.integers(1, 6))
        xi = float(rng.uniform(0, 1))
        eps = float(rng.uniform(0.2, 3.0))
        for complete in (True, False):
            s = one_key_bound(xi, L, n, k, 1.0, eps, complete)
            bound = smooth_sensitivity_closed_form_bound(xi, L, n, k, 1.0, eps, complete)
            assert s <= bound * (1 + 1e-9)


# ---------------------------------------------------------------------------
# full estimator
# ---------------------------------------------------------------------------

def test_constant_kernel_released_exactly():
    fam = all_tuples(20, 2)
    h, data = constant_kernel(0.8, 2), Dataset(np.arange(20.0))
    params = HajekParams(eps=1.0, c_range=0.0, xi=0.0)
    rep = pv.private_mean_local_hajek(h, data, fam, params, seed=3, budget=scratch_budget())
    vals, proj = kernel_values_and_projections(h, data.points[None], fam)
    state = row_state(summary_from_values(h, data.points[None], fam, vals, proj), params)
    assert rep.estimate == state.reweighted[0]  # zero noise, bitwise
    assert rep.estimate == pytest.approx(0.8, abs=1e-14)
    assert rep.noise_scale == 0.0
    assert rep.diagnostics["L"] == 1
    assert rep.diagnostics["n_bad"] == 0


def hajek_release_and_statistic(case: str):
    """One seeded Hájek release of each kind, and the reweighted mean its
    noise was added to (the one-row ``HajekRows``)."""
    eps = 1.0
    if case == "collision":  # n = 2000, xi = 0, seed 3
        data = Dataset(np.random.default_rng(1).integers(0, 100, 2000))
        rep = apps.private_collision_density(data, 100, eps, 0.0, 3, scratch_budget())
        rows, xi = apps.collision_rows(data.points[None], 100), 0.0
    elif case == "triangle":
        g = apps.sample_rgg(200, 0.6, 4)
        rep = apps.private_triangle_density(g, eps, 5, scratch_budget())
        rows, xi = apps.triangle_rows(g, 1), rep.diagnostics["xi"]
    else:
        data = Dataset(np.random.default_rng(6).integers(0, 8, 60))
        fam, xi = all_tuples(60, 2), 0.05
        rep = pv.private_mean_local_hajek(
            pv.collision_kernel(), data, fam, HajekParams(eps, 1.0, xi), 7, scratch_budget()
        )
        vals, proj = kernel_values_and_projections(pv.collision_kernel(), data.points[None], fam)
        rows = summary_from_values(pv.collision_kernel(), data.points[None], fam, vals, proj)
    return rep, row_state(rows, HajekParams(eps, 1.0, xi)).reweighted[0]


@pytest.mark.parametrize("case", ["hajek", "collision", "triangle"])
def test_noise_scale_follows_the_drawn_noise_when_the_release_factor_changes(case, monkeypatch):
    # a caller that recomputed the scale from its own copy of the factor
    # would report the factor times the noise it drew once the factor is 1
    factor = dp.QUARTIC.factor
    rep, statistic = hajek_release_and_statistic(case)
    monkeypatch.setattr(hajek, "QUARTIC", dataclasses.replace(dp.QUARTIC, factor=1.0))
    patched, patched_statistic = hajek_release_and_statistic(case)
    assert patched_statistic == statistic and patched.noise_scale > 0.0
    assert patched.noise_scale == patched.diagnostics["smooth_bound"] / 1.0
    assert rep.noise_scale == factor * rep.diagnostics["smooth_bound"] / 1.0
    # the same seeded quartic draw z in both runs: estimate = statistic + scale * z
    z = (rep.estimate - statistic) / rep.noise_scale
    assert (patched.estimate - statistic) / patched.noise_scale == pytest.approx(z, rel=1e-9)


def test_irregular_family_returns_bottom():
    fam = explicit_family(4, 2, [[0, 1], [0, 1], [0, 2]])
    rep = pv.private_mean_local_hajek(
        pv.collision_kernel(), Dataset(np.array([0, 0, 1, 1])), fam,
        HajekParams(eps=1.0, c_range=1.0, xi=0.1), seed=4, budget=scratch_budget(),
    )
    assert rep.is_bottom
    assert "no subset" in rep.bottom_reason


def test_well_concentrated_white_box():
    # all deviations within xi: L=1, no bad indices, value = U_n + noise with
    # scale from g(xi, 1, n)
    rng = np.random.default_rng(5)
    data = Dataset(rng.integers(0, 30, size=150))
    fam = all_tuples(150, 2)
    params = HajekParams(eps=2.0, c_range=1.0, xi=0.5)
    vals = kernel_values(pv.collision_kernel(), data, fam)
    state = row_state(summarize(pv.collision_kernel(), data, fam, vals), params)
    assert state.spread_level[0] == 1
    assert state.bad.size == 0
    assert state.reweighted[0] == pytest.approx(float(vals.mean()))
    assert state.smooth_bound[0] == pytest.approx(
        pv.smooth_bound_g(0.5, 1, 150, 2, 1.0, 2.0, True)
    )
    h = pv.collision_kernel()
    rep = pv.private_mean_local_hajek(h, data, fam, params, 6, scratch_budget())
    assert rep.diagnostics["L"] == 1


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_state_depends_on_the_multiset_only(data):
    # smoothness_audit checks one sorted dataset per multiset: on the
    # complete family, permuting the data must permute the projections and
    # leave everything the release uses unchanged
    n = data.draw(st.integers(3, 9), label="n")
    name = data.draw(st.sampled_from(["collision", "equal3", "clipped mean2"]), label="kernel")
    r = data.draw(st.integers(1, 4), label="alphabet size")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if name == "clipped mean2":
        kernel = clipped_kernel(pv.mean_kernel(2), 0.0, 1.0)
        letters = rng.uniform(0.0, 1.5, size=r)
    else:
        kernel = pv.collision_kernel() if name == "collision" else pv.equality_kernel(3)
        letters = np.arange(r, dtype=float)
    params = HajekParams(
        eps=data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="eps"),
        c_range=1.0,
        xi=data.draw(st.sampled_from([0.0, 0.05, 0.2]), label="xi"),
    )
    x = letters[rng.integers(0, r, size=n)]
    perm = rng.permutation(n)
    fam = all_tuples(n, kernel.degree)
    (proj, state), (perm_proj, perm_state) = [
        (proj[0], row_state(summary_from_values(kernel, pts[None], fam, vals, proj), params))
        for pts in (x, x[perm])
        for vals, proj in [kernel_values_and_projections(kernel, pts[None], fam)]
    ]
    assert perm_state.spread_level[0] == state.spread_level[0]
    assert perm_state.bad.size == state.bad.size
    assert perm_state.smooth_bound[0] == state.smooth_bound[0]
    assert perm_state.a_n[0] == pytest.approx(state.a_n[0], rel=1e-12, abs=0)
    assert perm_state.reweighted[0] == pytest.approx(state.reweighted[0], rel=1e-12, abs=0)
    np.testing.assert_allclose(perm_proj, proj[perm], rtol=1e-12, atol=0)


def test_state_invariants_on_adversarial_data():
    # pile of duplicates forces outliers: |bad| <= L, good weights are 1,
    # every weight below 1 belongs to a bad index
    data = Dataset(np.array([7] * 6 + list(range(10, 24))))
    n = data.n
    fam = all_tuples(n, 2)
    params = HajekParams(eps=1.0, c_range=1.0, xi=0.01)
    vals = kernel_values(pv.collision_kernel(), data, fam)
    state = row_state(summarize(pv.collision_kernel(), data, fam, vals), params)
    assert state.bad.size <= state.spread_level[0]
    assert np.all(np.delete(state.weights[0], state.bad) == 1.0)
    low = np.nonzero(state.weights[0] < 1.0)[0]
    assert set(low.tolist()) <= set(state.bad.tolist())


def test_bad_empty_means_reweighted_equals_mean_bitwise():
    rng = np.random.default_rng(7)
    data = Dataset(rng.integers(0, 40, size=100))
    fam = all_tuples(100, 2)
    vals = kernel_values(pv.collision_kernel(), data, fam)
    state = row_state(summarize(pv.collision_kernel(), data, fam, vals), HajekParams(1.0, 1.0, 0.5))
    assert state.bad.size == 0
    assert state.reweighted[0] == float(vals.mean())


def test_budget_debit_is_eps():
    budget = pv.PrivacyBudget(5.0)
    data = Dataset(np.random.default_rng(10).integers(0, 10, size=40))
    fam = all_tuples(40, 2)
    pv.private_mean_local_hajek(
        pv.collision_kernel(), data, fam, HajekParams(1.5, 1.0, 0.2), seed=11, budget=budget
    )
    assert budget.spent == pytest.approx(1.5)


def assert_states_equal(got, want):
    for field in dataclasses.fields(hajek.HajekRows):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert np.asarray(a).dtype == np.asarray(b).dtype, field.name
        assert np.array_equal(a, b), field.name


def test_state_equals_the_full_scan_reference_on_random_cases():
    rng = np.random.default_rng(22)
    with_bad = 0
    for _ in range(300):
        n, m = int(rng.integers(2, 200)), int(rng.integers(1, 30))
        p = rng.dirichlet(np.full(m, rng.uniform(0.1, 3.0)))
        summary = apps.collision_rows(rng.choice(m, size=n, p=p)[None], m)
        params = HajekParams(eps=float(rng.uniform(0.05, 3.0)),
                             c_range=float(rng.choice([0.0, rng.uniform(0.0, 0.1), 1.0])),
                             xi=float(rng.choice([0.0, rng.uniform(0.0, 0.3)])))
        want = full_scan_hajek_state(summary, params)
        assert_states_equal(row_state(summary, params), want)
        with_bad += want.bad.size > 0
    assert with_bad > 50
    for _ in range(40):
        n, k = int(rng.integers(3, 25)), int(rng.integers(1, 4))
        fam = all_tuples(n, k)
        x = rng.standard_t(2, size=n)
        vals = kernel_values(pv.mean_kernel(k), Dataset(x), fam)
        summary = summarize(pv.mean_kernel(k), Dataset(x), fam, vals)
        params = HajekParams(eps=float(rng.uniform(0.1, 2.0)), c_range=float(rng.uniform(0.0, 3.0)),
                             xi=float(rng.uniform(0.0, 1.0)))
        assert_states_equal(row_state(summary, params), full_scan_hajek_state(summary, params))


def per_row_radius_stack():
    """Eight rows of collision labels: three skewed ones with bad indices and
    five near-uniform ones, with radii that repeat (same level, one bound)
    and differ (same level, two bounds)."""
    rng = np.random.default_rng(31)
    n, m = 400, 20
    x = rng.integers(0, m, (8, n))
    for i in (1, 4, 6):
        x[i] = 0
        x[i, rng.choice(n, 3, replace=False)] = rng.integers(1, m, 3)
    xi = np.array([0.0, 0.01, 0.3, 0.3, 0.01, 0.05, 0.02, 0.3])
    return x, m, xi


def test_per_row_radii_equal_one_row_states_with_scalar_radii():
    x, m, xi = per_row_radius_stack()
    states = hajek.hajek_rows(apps.collision_rows(x, m), HajekParams(0.7, 0.02, xi))
    assert states.bad.size > 0 and len(set(states.spread_level.tolist())) > 1
    for i, radius in enumerate(xi.tolist()):
        summary = apps.collision_rows(x[i][None], m)
        params = HajekParams(0.7, 0.02, radius)
        alone = row_state(summary, params)
        assert_states_equal(stack_row(states, i), alone)
        assert_states_equal(alone, full_scan_hajek_state(summary, params))


def test_scalar_radius_equals_the_same_radius_in_every_row():
    x, m, xi = per_row_radius_stack()
    rows = apps.collision_rows(x, m)
    for radius in (0.0, 0.01, 0.3):
        scalar = hajek.hajek_rows(rows, HajekParams(0.7, 0.02, radius))
        per_row = hajek.hajek_rows(rows, HajekParams(0.7, 0.02, np.full(len(xi), radius)))
        for field in dataclasses.fields(hajek.HajekRows):
            a, b = getattr(scalar, field.name), getattr(per_row, field.name)
            assert np.asarray(a).dtype == np.asarray(b).dtype, field.name
            assert np.array_equal(a, b), field.name


def test_weights_are_a_read_only_view_of_ones_when_nothing_is_bad():
    state = row_state(apps.collision_rows((np.arange(40) % 4)[None], 4), HajekParams(1.0, 1.0, 0.5))
    assert state.bad.size == 0 and np.array_equal(state.weights, np.ones((1, 40)))
    assert not state.weights.flags.writeable


def large_collision_summary(skewed: bool, n: int, m: int, seed: int):
    rng = np.random.default_rng(seed)
    if skewed:  # one heavy category and n/200 scattered rare ones
        x = np.zeros(n, dtype=np.int64)
        x[: n // 200] = rng.integers(1, m, n // 200)
        x = rng.permutation(x)
    else:
        x = rng.integers(0, m, n)
    return apps.collision_rows(x[None], m), HajekParams(1.0, 1.0, apps.collision_xi(m, n))


@pytest.mark.parametrize("skewed", [False, True], ids=["uniform", "skewed"])
def test_state_equals_the_full_scan_reference_at_scale(skewed):
    summary, params = large_collision_summary(skewed, 2 * 10**5, 1000, 24)
    got = row_state(summary, params)
    assert_states_equal(got, full_scan_hajek_state(summary, params))
    assert (got.bad.size > 0) == skewed


@pytest.mark.parametrize("skewed", [False, True], ids=["uniform", "skewed"])
def test_state_sorts_only_the_over_threshold_tail(skewed, monkeypatch):
    n, m = 10**5, 100
    summary, params = large_collision_summary(skewed, n, m, 25)
    first = params.xi + 6.0 * 2 * params.c_range * 1 / n  # the t = 1 threshold
    over = int(np.count_nonzero(np.abs(summary.projections[0] - summary.a_n[0]) > first))
    sizes = []
    sort = np.sort

    def recording_sort(a, *args, **kwargs):
        sizes.append(np.size(a))
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(hajek.np, "sort", recording_sort)
    state = row_state(summary, params)
    monkeypatch.undo()
    if skewed:
        assert 2 <= over < n and state.spread_level[0] > 1
        assert sizes == [over]
    else:
        assert state.spread_level[0] == 1 and over <= 1
        assert sizes == []


def test_state_rejects_non_finite_projections():
    summary = SummaryRows(
        n=3, k=1, a_n=np.array([0.0]), projections=np.array([[0.0, math.nan, 0.0]]),
        reweight=lambda i, w: 0.0, all_tuples_family=True,
    )
    with pytest.raises(ValueError, match="finite"):
        row_state(summary, HajekParams(1.0, 1.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_release_on_non_finite_data_raises_before_any_spend(bad):
    # NaN deviations never pass the tail filter, so without the check this
    # NaN dataset would get L = 1 where the full scan gives L = 8
    x = np.arange(8, dtype=float)
    x[3] = bad
    budget = pv.PrivacyBudget(1.0)
    with pytest.raises(ValueError, match="finite"):
        hajek.private_mean_local_hajek(pv.mean_kernel(2), Dataset(x), all_tuples(8, 2),
                                       HajekParams(1.0, 1.0, 0.0), seed=1, budget=budget)
    assert budget.entries == []


# ---------------------------------------------------------------------------
# exhaustive smoothness / dominance at tiny scale
# ---------------------------------------------------------------------------

def enumerate_states(n, params):
    fam = all_tuples(n, 2)
    h = pv.collision_kernel()
    out = {}
    for config in itertools.product((0, 1), repeat=n):
        vals = kernel_values(h, Dataset(np.array(config, dtype=float)), fam)
        out[config] = row_state(summarize(h, Dataset(np.array(config, dtype=float)), fam, vals), params)
    return out


@pytest.mark.parametrize("eps", [0.5, 1.0])
def test_exhaustive_smoothness_and_dominance(eps):
    n = 5
    params = HajekParams(eps=eps, c_range=1.0, xi=0.0)
    states = enumerate_states(n, params)
    grow = math.exp(eps)
    for config, st in states.items():
        for i in range(n):
            flipped = config[:i] + (1 - config[i],) + config[i + 1 :]
            other = states[flipped]
            assert abs(st.reweighted[0] - other.reweighted[0]) <= st.smooth_bound[0] + 1e-12
            assert other.smooth_bound[0] <= grow * st.smooth_bound[0] + 1e-12


def test_smooth_bound_dominates_brute_force_local_sensitivity():
    n = 5
    params = HajekParams(eps=1.0, c_range=1.0, xi=0.0)
    fam = all_tuples(n, 2)
    h = pv.collision_kernel()

    def reweighted_of(pts):
        data = Dataset(np.asarray(pts, dtype=float))
        vals = kernel_values(h, data, fam)
        return row_state(summarize(h, data, fam, vals), params).reweighted[0]

    rng = np.random.default_rng(11)
    for _ in range(12):
        pts = rng.integers(0, 2, size=n)
        ls = brute_force_local_sensitivity(reweighted_of, pts.astype(float), [0.0, 1.0])
        vals = kernel_values(h, Dataset(pts.astype(float)), fam)
        s = row_state(summarize(h, Dataset(pts.astype(float)), fam, vals), params).smooth_bound[0]
        assert ls <= s + 1e-12


def test_sensitivity_reduction_on_adversarial_fixture():
    from privustat.harness.audits import adversarial_fixture

    fix = adversarial_fixture(60, 2, 0.5)
    h = pv.equality_kernel(2)
    fam = all_tuples(60, 2)
    params = HajekParams(eps=0.5, c_range=1.0, xi=fix.xi)
    vals = kernel_values(h, fix.base, fam)
    state = row_state(summarize(h, fix.base, fam, vals), params)
    closed = smooth_sensitivity_closed_form_bound(fix.xi, state.spread_level[0], 60, 2, 1.0, 0.5, True)
    assert state.smooth_bound[0] <= closed * (1 + 1e-9)
    # far below the worst-case range-based Laplace scale C * dep = C * k/n... the
    # clipped global-sensitivity scale for a complete family is k*C/n * n = C;
    # compare against the per-release Laplace scale C * k / n
    assert state.smooth_bound[0] < 1.0 * 2 / 60


# ---------------------------------------------------------------------------
# structured fast paths agree with the generic engine
# ---------------------------------------------------------------------------

# (xi, c_range, expect_bad): the tiny-range cases force down-weighted indices
# so the count-based reweighting corrections are genuinely exercised
COLLISION_CASES = [
    (0.0, 1.0, False),
    (0.3, 1.0, False),
    (0.0, 0.02, True),
    (0.02, 0.005, True),
]


@pytest.mark.parametrize("xi,c_range,expect_bad", COLLISION_CASES)
def test_collision_fast_path_matches_generic(xi, c_range, expect_bad):
    rng = np.random.default_rng(12)
    m = 6
    data = Dataset(rng.integers(0, m, size=35))
    fam = all_tuples(35, 2)
    params = HajekParams(eps=1.0, c_range=c_range, xi=xi)
    vals = kernel_values(pv.collision_kernel(), data, fam)
    generic = row_state(summarize(pv.collision_kernel(), data, fam, vals), params)
    fast = row_state(apps.collision_rows(data.points[None], m), params)
    if expect_bad:
        assert generic.bad.size > 0  # otherwise this case checks nothing new
    assert fast.spread_level == generic.spread_level
    assert fast.a_n == pytest.approx(generic.a_n, rel=1e-12)
    np.testing.assert_allclose(fast.projections, generic.projections, rtol=1e-12)
    assert fast.reweighted == pytest.approx(generic.reweighted, rel=1e-12)
    assert fast.smooth_bound == pytest.approx(generic.smooth_bound, rel=1e-12)


TRIANGLE_CASES = [
    (0.1, 1.0, False),
    (0.0, 0.01, True),
    (0.01, 0.002, True),
]


@pytest.mark.parametrize("xi,c_range,expect_bad", TRIANGLE_CASES)
def test_triangle_fast_path_matches_generic(xi, c_range, expect_bad):
    rng = np.random.default_rng(13)
    g = apps.sample_rgg(18, 0.9, rng)
    fam = all_tuples(18, 3)
    tri = pv.Kernel(
        3,
        lambda t: (
            dense_adjacency(g)[t[:, 0].astype(int), t[:, 1].astype(int)]
            * dense_adjacency(g)[t[:, 0].astype(int), t[:, 2].astype(int)]
            * dense_adjacency(g)[t[:, 1].astype(int), t[:, 2].astype(int)]
        ).astype(float),
        pv.Bounded(1.0),
    )
    params = HajekParams(eps=1.0, c_range=c_range, xi=xi)
    vals = kernel_values(tri, Dataset(np.arange(18)), fam)
    generic = row_state(summarize(tri, Dataset(np.arange(18)), fam, vals), params)
    fast = row_state(apps.triangle_rows(g, 1), params)
    if expect_bad:
        assert generic.bad.size > 0
    assert fast.spread_level == generic.spread_level
    np.testing.assert_allclose(fast.projections, generic.projections, rtol=1e-12)
    assert fast.reweighted == pytest.approx(generic.reweighted, rel=1e-12, abs=1e-15)
    assert fast.smooth_bound == pytest.approx(generic.smooth_bound, rel=1e-12)


def test_collision_fast_path_with_fractional_weights():
    # a shallow ramp (small eps) leaves weights strictly between 0 and 1
    rng = np.random.default_rng(15)
    m = 5
    data = Dataset(rng.integers(0, m, size=40))
    fam = all_tuples(40, 2)
    params = HajekParams(eps=0.05, c_range=0.02, xi=0.0)
    vals = kernel_values(pv.collision_kernel(), data, fam)
    generic = row_state(summarize(pv.collision_kernel(), data, fam, vals), params)
    fast = row_state(apps.collision_rows(data.points[None], m), params)
    fractional = (generic.weights > 0.0) & (generic.weights < 1.0)
    assert fractional.any()
    assert fast.reweighted == pytest.approx(generic.reweighted, rel=1e-12)
    np.testing.assert_allclose(fast.weights, generic.weights, rtol=1e-12)


def test_collision_fast_path_with_many_scattered_categories():
    # 120 occupied categories whose first occurrences are spread through the
    # data, with skewed counts so that several categories are down-weighted
    rng = np.random.default_rng(16)
    m = 130
    labels = np.concatenate([np.arange(10, m), np.repeat([3, 7], 25), np.full(40, 11)])
    data = Dataset(rng.permutation(labels))
    n = data.n
    assert np.count_nonzero(np.bincount(data.points, minlength=m)) > 100
    assert data.points[0] != 0 and data.points[0] != data.points[1]
    fam = all_tuples(n, 2)
    params = HajekParams(eps=1.0, c_range=0.02, xi=0.0)
    vals = kernel_values(pv.collision_kernel(), data, fam)
    generic = row_state(summarize(pv.collision_kernel(), data, fam, vals), params)
    fast = row_state(apps.collision_rows(data.points[None], m), params)
    assert 0 < generic.bad.size < n
    assert fast.reweighted == pytest.approx(generic.reweighted, rel=1e-12)


def test_triangle_fast_path_with_many_bad_nodes():
    # push most nodes below weight 1 so the two- and three-low-weight triple
    # corrections fire, then check against the generic enumeration
    rng = np.random.default_rng(14)
    g = apps.sample_rgg(14, 1.2, rng)
    fam = all_tuples(14, 3)
    tri = pv.Kernel(
        3,
        lambda t: (
            dense_adjacency(g)[t[:, 0].astype(int), t[:, 1].astype(int)]
            * dense_adjacency(g)[t[:, 0].astype(int), t[:, 2].astype(int)]
            * dense_adjacency(g)[t[:, 1].astype(int), t[:, 2].astype(int)]
        ).astype(float),
        pv.Bounded(1.0),
    )
    params = HajekParams(eps=0.2, c_range=0.001, xi=0.0)
    vals = kernel_values(tri, Dataset(np.arange(14)), fam)
    generic = row_state(summarize(tri, Dataset(np.arange(14)), fam, vals), params)
    fast = row_state(apps.triangle_rows(g, 1), params)
    assert generic.bad.size >= 3
    assert generic.weights.min() < 1.0
    assert fast.reweighted == pytest.approx(generic.reweighted, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("n,radius,low_share", [
    (40, 0.9, 0.1), (40, 1.4, 0.5), (25, 2.0, 1.0), (120, 0.5, 0.4), (3, 2.0, 1.0),
    # past one 64-bit word of neighbours: the low rows against the rest
    (65, 1.2, 0.3), (129, 0.8, 0.2), (200, 0.5, 0.1), (130, 2.0, 0.15),
])
def test_triangle_reweight_equals_loop_reference_bitwise(n, radius, low_share):
    # bitwise where the arithmetic is exact: with no node down-weighted the
    # reweight is a_n itself, and each low node's count of the triangles it
    # is earliest in equals a scan of every triple.  The reweight sums its
    # terms in its own order, so it meets the exact mean within the bound
    # derived in the oracles (REWEIGHT_EPS).
    rng = np.random.default_rng(n)
    g = apps.sample_rgg(n, radius, rng)
    adj = dense_adjacency(g)
    rows = apps.triangle_rows(g, 1)
    a_n = float(rows.a_n[0])
    assert rows.reweight(0, np.ones(n)) == a_n
    bits = apps._neighbour_bits(np.repeat(np.arange(n), np.diff(g.indptr)), g.indices, n, n)
    values, fam = dense_triangle_values(adj), all_tuples(n, 3)
    for _ in range(4):
        weights = np.ones(n)
        low = rng.choice(n, max(1, int(low_share * n)), replace=False)
        weights[low] = rng.choice([0.0, 0.25, rng.uniform()], size=low.size)
        order = low[np.argsort(weights[low], kind="stable")]
        counts = apps._later_triangles(g.indptr, g.indices, bits, 0, order)
        assert np.array_equal(counts, enumerated_later_triangles(adj, order))
        if n <= 130:  # the exact sum over C(n, 3) triples
            exact = exact_reweighted_mean(values, fam, weights, a_n)
            assert exact.admits(rows.reweight(0, weights), low.size)


# ---------------------------------------------------------------------------
# parameter selection
# ---------------------------------------------------------------------------

def test_degenerate_xi_values():
    assert pv.degenerate_xi(0.0, 2, 100, 0.05) == 0.0
    c, k, n, alpha = 1.0, 2, 200, 0.01
    log_term = math.log(2 * n / alpha)
    expected = c * math.sqrt(k / n * log_term) + 8 * c * k / (3 * n) * log_term
    assert pv.degenerate_xi(c, k, n, alpha) == pytest.approx(expected, rel=1e-14)


def test_degenerate_xi_covers_collision_projections():
    # max_i |proj(i) - theta| <= xi in >= 1 - alpha of trials
    m, n, alpha, trials = 100, 400, 0.05, 1000
    theta = 1 / m
    xi = pv.degenerate_xi(1.0, 2, n, alpha)
    rng = np.random.default_rng(14)
    hits = 0
    for _ in range(trials):
        x = rng.integers(0, m, size=n)
        counts = np.bincount(x, minlength=m)
        proj = (counts[x] - 1) / (n - 1)
        hits += int(np.max(np.abs(proj - theta)) <= xi)
    assert hits / trials >= 1 - alpha


def test_subgaussian_xi_covers_projections():
    # gaussian pair kernel: projections are sub-Gaussian(tau) around theta
    theta, tau, n, alpha, trials = 0.0, 0.5, 120, 0.05, 1000
    xi = subgaussian_xi(tau, n, alpha)
    fam = all_tuples(n, 2)
    h = pv.mean_kernel(2, tau)
    rng = np.random.default_rng(15)
    hits = 0
    for _ in range(trials):
        d = Dataset(rng.normal(theta, 1.0, n))
        proj = kernel_values_and_projections(h, d.points[None], fam)[1][0]
        hits += int(np.max(np.abs(proj - theta)) <= xi)
    assert hits / trials >= 1 - alpha


# ---------------------------------------------------------------------------
# sub-Gaussian pipeline
# ---------------------------------------------------------------------------

def test_pipeline_budget_split():
    budget = pv.PrivacyBudget(2.0)
    rng = np.random.default_rng(16)
    data = Dataset(rng.normal(1.0, 1.0, 300))
    pv.subgaussian_pipeline(
        pv.mean_kernel(2, 0.5), data, r=5.0, tau=0.5, eps=1.0, alpha=0.05, seed=17,
        budget=budget,
    )
    assert budget.spent == pytest.approx(1.0, abs=1e-9)


def test_pipeline_clipping_inert_when_values_inside():
    # every kernel value already lies in the coarse band, so the clipped
    # kernel agrees with the raw one on the estimation half
    rng = np.random.default_rng(18)
    data = Dataset(rng.normal(0.0, 0.05, 240))
    rep = pv.subgaussian_pipeline(
        pv.mean_kernel(2, 0.5), data, r=2.0, tau=0.5, eps=4.0, alpha=0.05, seed=19,
        budget=scratch_budget(),
    )
    coarse = rep.diagnostics["coarse_estimate"]
    hw = rep.diagnostics["clip_halfwidth"]
    second_half = data.points[120:]
    pair_means = (second_half[:, None] + second_half[None, :]) / 2
    assert np.all(pair_means > coarse - hw) and np.all(pair_means < coarse + hw)


def test_pipeline_accuracy_gaussian():
    # RMSE within 3x of the non-private sample-mean RMSE once n is large
    # enough for the calibrated (factor-10) release noise to fall near the
    # sampling error: the ratio is 5.6 at n = 2000, 2.9 at 20000, 2.0 at 50000
    theta, n, trials = 0.5, 50_000, 200
    rng = np.random.default_rng(20)
    errs, base_errs = [], []
    h = pv.identity_kernel()
    for _ in range(trials):
        data = Dataset(rng.normal(theta, 1.0, n))
        rep = pv.subgaussian_pipeline(
            h, data, r=4.0, tau=1.0, eps=1.0, alpha=0.05, seed=rng, budget=scratch_budget()
        )
        errs.append((rep.estimate - theta) ** 2)
        base_errs.append((float(data.points.mean()) - theta) ** 2)
    assert math.sqrt(np.mean(errs)) <= 3 * math.sqrt(np.mean(base_errs))


@pytest.mark.parametrize("complete", [True, False])
def test_smooth_sensitivity_shift_inequality(complete):
    # the exact property the release mechanism needs: moving the spread level
    # by one never inflates the bound by more than e^eps
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(6, 120))
        k = int(rng.integers(1, 4))
        L = int(rng.integers(1, n // 2 + 1))
        eps = float(rng.uniform(0.2, 2.5))
        xi = float(rng.uniform(0.0, 0.8))
        s_here = one_key_bound(xi, L, n, k, 1.0, eps, complete)
        s_up = one_key_bound(xi, min(L + 1, n), n, k, 1.0, eps, complete)
        assert s_up <= math.exp(eps) * s_here * (1 + 1e-12)
        assert s_here <= math.exp(eps) * s_up * (1 + 1e-12)
