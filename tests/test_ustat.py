"""Families, evaluation, projections, and the variance calculus."""

import itertools
import math
import mmap
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privustat as pv
from privustat import coinpress, hajek, ustat
from privustat.dp import PrivacyBudget
from privustat.errors import CombinatorialOverflow
from privustat.ustat import (
    Dataset,
    disjoint_chunks,
    kernel_values,
)

from oracles import (
    PROJECTION_ATOL,
    DegeneracyMismatch,
    EmptyIncidence,
    NegativeDeltaWarning,
    VarianceProfile,
    bincount_projections,
    constant_kernel,
    empirical_zetas,
    evaluate_one,
    explicit_family,
    floyd_subsample_picks,
    fsum_projections,
    gather_chunk_kernel_values,
    gather_means_and_projections,
    hoeffding_deltas,
    local_projection,
    variance_leading_term,
    variance_of_ustat,
    zetas_from_deltas,
)


# ---------------------------------------------------------------------------
# all_tuples
# ---------------------------------------------------------------------------

def test_all_tuples_4_2_full_enumeration():
    fam = pv.all_tuples(4, 2)
    assert fam.subsets.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    assert fam.counts.tolist() == [3, 3, 3, 3]
    assert fam.dependence_fraction() == 0.5


def test_all_tuples_dependence_is_k_over_n():
    fam = pv.all_tuples(6, 2)
    assert fam.dependence_fraction() == pytest.approx(2 / 6)


@pytest.mark.parametrize(
    "n, k", [(4, 2), (6, 2), (25, 3), (7, 7), (397, 5), (399, 6), (2000, 6), (100_000, 4)]
)
def test_complete_family_dependence_is_k_over_n_exactly(n, k):
    # C(n-1, k-1) / C(n, k) is k/n as a rational, and int/int division rounds
    # it correctly; the last two cases have C(n, k) > 2^53, past exact floats
    fam = pv.SubsetFamily(n, k, None, kind="all_tuples")
    assert fam.dependence_fraction() == float(Fraction(k, n))


def test_all_tuples_k_equals_n():
    fam = pv.all_tuples(5, 5)
    assert fam.size == 1
    assert fam.counts.tolist() == [1] * 5
    assert fam.dependence_fraction() == 1.0


def test_all_tuples_lexicographic_and_recount():
    fam = pv.all_tuples(6, 3)
    expected = list(itertools.combinations(range(6), 3))
    assert [tuple(r) for r in fam.subsets.tolist()] == expected
    recount = np.zeros(6, dtype=int)
    for row in fam.subsets:
        recount[row] += 1
    assert np.array_equal(recount, fam.counts)


def test_all_tuples_overflow_cap():
    with pytest.raises(CombinatorialOverflow):
        pv.all_tuples(100, 20)
    assert pv.all_tuples(25, 2).size == 300


PAST_THE_CAP = re.escape("C(20000,2) = 199990000 exceeds the cap 100000000; use subsample_family instead")


def refusing_kernel(k: int) -> pv.Kernel:
    """A kernel with no declared range whose ``fn`` refuses every call."""

    def fn(t):
        raise AssertionError("kernel called")

    return pv.Kernel(k, fn, pv.SubGaussian(1.0), name="refusing")


def test_enumeration_cap_guards_enumeration_not_the_family(monkeypatch):
    # C(20000, 2) subsets: the family and its counts stand, and every pass
    # that enumerates it is refused before it makes a block, allocates its
    # (q, M) values or calls the kernel
    fam = pv.all_tuples(20000, 2)
    assert fam.size > ustat.DEFAULT_ENUMERATION_CAP and fam.counts[0] == 19999
    assert fam.check_regularity().ok

    def no_values(*args):
        raise AssertionError("values allocated")

    monkeypatch.setattr(ustat, "_values_array", no_values)
    h, chunks = refusing_kernel(2), np.zeros((2, 20000))
    for enumerate_family in (
        lambda: next(fam.blocks()),
        lambda: ustat.chunk_kernel_values(h, chunks, fam),
        lambda: ustat.means_and_projections(h, chunks, fam),
    ):
        with pytest.raises(CombinatorialOverflow, match=PAST_THE_CAP):
            enumerate_family()


def test_a_kernel_pass_past_the_cap_is_refused_before_any_spend():
    # both releases refuse the kernel pass before any debit; an equality
    # kernel on the same family enumerates nothing and releases
    chunks = np.zeros((2, 20000))
    fam = pv.all_tuples(20000, 2)
    for release in (
        lambda h, budgets: coinpress.all_tuples_estimates(h, chunks, 1.0, 0.25, 1.0, 3, budgets),
        lambda h, budgets: pv.private_means_local_hajek(
            h, chunks, fam, pv.HajekParams(1.0, 1.0, 0.0), 3, budgets),
    ):
        budgets = [PrivacyBudget(1.0) for _ in range(2)]
        with pytest.raises(CombinatorialOverflow, match=PAST_THE_CAP):
            release(refusing_kernel(2), budgets)
        assert [b.spent for b in budgets] == [0.0, 0.0]
        reports = release(pv.collision_kernel(), budgets)
        assert all(r.estimate is not None for r in reports) and [b.spent for b in budgets] == [1.0, 1.0]


def test_binomials_are_exact_below_int64_overflow():
    # every C(c, k) below 2^63 with c from -1 (an empty class less one) to
    # n, k > n/2 included: counting up to C(c, k) through C(c, c/2) > 2^63
    # once wrapped, and the equality kernel of degree 66 on 70 equal values
    # released a_n = -2093/916895
    for n in (12, 70, 100):
        c = np.arange(-1, n + 1)
        for k in range(n + 1):
            if math.comb(n, k) < 2**63:
                want = [(-1) ** k] + [math.comb(v, k) for v in range(n + 1)]
                assert ustat.binomials(c, k).tolist() == want, (n, k)
    rows = hajek.summary_rows(pv.equality_kernel(66), np.zeros((1, 70)), pv.all_tuples(70, 66))
    assert rows.a_n.tolist() == [1.0] and rows.projections.tolist() == [[1.0]]


def test_value_counts_give_each_row_its_own_nan_columns():
    # 0.0 (= -0.0), 1.0 and 2.5, then a column per NaN of the row with the most
    h, fam = pv.equality_kernel(2), pv.all_tuples(4, 2)
    chunks = np.array([[math.nan, math.nan, 1.0, 0.0], [math.nan, 0.0, -0.0, 2.5]])
    assert ustat.value_counts(h, chunks, fam).tolist() == [[1, 1, 0, 1, 1], [2, 0, 1, 1, 0]]
    complex_chunks = np.array([[complex(math.nan, 0), 1j, 1j, complex(0, math.nan)]])
    assert ustat.value_counts(h, complex_chunks, fam).tolist() == [[2, 1, 1]]
    labels = np.array([[3, 3, 7, 9], [7, 9, 9, 9]])
    assert ustat.value_counts(h, labels, fam).tolist() == [[2, 1, 1], [0, 1, 3]]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_all_tuples_blocks_are_the_lexicographic_combinations(data):
    # small row budgets make blocks cross first-index runs and split long runs
    n = data.draw(st.integers(1, 12), label="n")
    k = data.draw(st.integers(1, n), label="k")
    budget = data.draw(st.sampled_from([1, 2, 3, 5, 8, 13, 40, 10**6]), label="budget")
    expected = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64).reshape(-1, k)
    with mock.patch.object(ustat, "_BLOCK_ROWS", budget):
        fam = pv.all_tuples(n, k)
        blocks = list(fam.blocks())
    assert [start for start, _ in blocks] == list(
        np.cumsum([0] + [rows.shape[0] for _, rows in blocks[:-1]])
    )
    assert all(rows.shape[0] <= budget for _, rows in blocks)
    assert np.array_equal(np.concatenate([rows for _, rows in blocks]), expected)
    assert fam.size == expected.shape[0]
    assert np.array_equal(fam.counts, np.bincount(expected.ravel(), minlength=n))


def test_all_tuples_blocked_values_and_projections_match_materialized():
    rng = np.random.default_rng(8)
    n, k = 40, 3  # 9880 subsets, cut into blocks of at most 500 rows
    d = Dataset(rng.normal(size=n))
    h = pv.mean_kernel(k)
    stored = explicit_family(n, k, list(itertools.combinations(range(n), k)))
    with mock.patch.object(ustat, "_BLOCK_ROWS", 500):
        fam = pv.all_tuples(n, k)
        assert len(list(fam.blocks())) > 1
        values = kernel_values(h, d, fam)
        proj = ustat.means_and_projections(h, d.points[None], fam)[1][0]
        assert np.array_equal(fam.subsets, stored.subsets)
    assert np.array_equal(values, kernel_values(h, d, stored))
    # the two families sum in different orders; both must stay near the exact sums
    exact = fsum_projections(values, stored)
    assert np.max(np.abs(values)) <= 4.0
    assert np.max(np.abs(proj - exact)) <= PROJECTION_ATOL
    assert np.max(np.abs(ustat.means_and_projections(h, d.points[None], stored)[1][0] - exact)) <= PROJECTION_ATOL


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_one_pass_values_and_projections_across_block_budgets(data):
    # small budgets split prefix runs across blocks
    n = data.draw(st.integers(1, 12), label="n")
    k = data.draw(st.integers(1, n), label="k")
    budget = data.draw(st.sampled_from([1, 2, 3, 5, 8, 13, 40, 10**6]), label="budget")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    cases = [
        (pv.equality_kernel(k), Dataset(rng.integers(0, 2, size=n))),
        (pv.mean_kernel(k), Dataset(rng.uniform(-4.0, 4.0, size=n))),
    ]
    with mock.patch.object(ustat, "_BLOCK_ROWS", budget):
        fam = pv.all_tuples(n, k)
        for h, d in cases:
            (mean,), (proj,) = ustat.means_and_projections(h, d.points[None], fam)
            values = kernel_values(h, d, fam)
            if h.name.startswith("equal"):  # 0/1 values: every sum is an exact integer
                assert mean == values.mean()
                assert np.array_equal(proj, bincount_projections(values, fam))
            else:
                assert abs(mean - math.fsum(values) / values.size) <= PROJECTION_ATOL
                assert np.max(np.abs(proj - fsum_projections(values, fam))) <= PROJECTION_ATOL


@pytest.mark.parametrize("kind", ["explicit", "subsampled", "chunks"])
def test_only_the_generated_family_is_complete(kind):
    # five disjoint pairs fail regularity; labelled complete they would pass
    # it unchecked and be released with the complete family's bound
    pairs = np.arange(10).reshape(5, 2)
    with pytest.raises(ValueError):
        pv.SubsetFamily(10, 2, pairs, kind="all_tuples")
    with pytest.raises(ValueError):
        pv.SubsetFamily(10, 2, None, kind=kind)
    assert not pv.SubsetFamily(10, 2, pairs, kind=kind).check_regularity().ok


def recording_kernel(k: int, seen: list) -> pv.Kernel:
    """A sum kernel that keeps a copy of each array it is handed, with its flags."""

    def fn(t):
        seen.append((t.copy(order="K"), t.flags.f_contiguous, t.flags.writeable))
        return t.sum(axis=1)

    return pv.Kernel(k, fn, pv.Bounded(1.0), name="record")


@pytest.mark.parametrize(
    "n, k, budget",
    [(9, 1, 4), (12, 2, 5), (12, 3, 7), (11, 4, 30), (10, 3, 10**6), (14, 5, 100)],
)
def test_generated_blocks_are_column_major_views(n, k, budget):
    # budgets below C(n-1, k-1) split a first index's run by its next index
    expected = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
    rng = np.random.default_rng(n * k)
    d = Dataset(rng.normal(size=n))
    chunks = rng.normal(size=(3, n))
    seen, seen_chunks = [], []
    with mock.patch.object(ustat, "_BLOCK_ROWS", budget):
        fam = pv.all_tuples(n, k)
        blocks = [rows for _, rows in fam.blocks()]
        kernel_values(recording_kernel(k, seen), d, fam)
        ustat.chunk_kernel_values(recording_kernel(k, seen_chunks), chunks, fam)
    assert budget >= math.comb(n - 1, k - 1) or len(blocks) > n - k + 1
    for rows in blocks:
        assert rows.ndim == 2 and rows.shape[1] == k
        assert rows.flags.f_contiguous and rows.base is not None
    assert np.array_equal(np.concatenate(blocks), expected)
    # a kernel gets each block's data as a read-only, F-ordered (m, k) array,
    # and a stack of q chunks as a read-only (q * m, k) array with column
    # c = chunks[:, S_c]
    assert len(seen) == len(seen_chunks) == len(blocks)
    for rows, (tuples, f_order, writeable), (stacked, _, writeable_stacked) in zip(blocks, seen, seen_chunks):
        assert f_order and not writeable and not writeable_stacked
        assert np.array_equal(tuples, d.points[rows])
        assert stacked.shape == (3 * rows.shape[0], k)
        for c in range(k):
            assert np.array_equal(stacked[:, c], chunks[:, rows[:, c]].ravel())


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_mean_kernel_on_column_major_blocks_is_bitwise_c_order(k):
    rng = np.random.default_rng(k)
    n = 16
    d = Dataset(rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n))
    chunks = rng.normal(size=(3, n)) * 10.0 ** rng.integers(-3, 4, size=(3, n))
    h = pv.mean_kernel(k)
    with mock.patch.object(ustat, "_BLOCK_ROWS", 100):
        fam = pv.all_tuples(n, k)
        blocks = [rows for _, rows in fam.blocks()]
        values = kernel_values(h, d, fam)
        stacked = ustat.chunk_kernel_values(h, chunks, fam)
    assert len(blocks) > 1
    reference = np.concatenate([h.evaluate(np.ascontiguousarray(d.points[rows])) for rows in blocks])
    assert np.array_equal(values, reference)
    for chunk, row in zip(chunks, stacked):
        c_order = np.concatenate([h.evaluate(np.ascontiguousarray(chunk[rows])) for rows in blocks])
        assert np.array_equal(row, c_order)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_engine_matches_the_index_then_gather_oracle_bitwise(data):
    # small budgets cut prefix runs at block ends and split first indices
    n = data.draw(st.integers(1, 14), label="n")
    k = data.draw(st.integers(1, min(n, 5)), label="k")
    budget = data.draw(st.sampled_from([1, 2, 3, 5, 8, 13, 40, 10**6]), label="budget")
    q = data.draw(st.sampled_from([1, 3, 19]), label="q")
    integer = data.draw(st.booleans(), label="integer")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if integer:
        h = data.draw(st.sampled_from([pv.equality_kernel(k), pv.mean_kernel(k)]), label="kernel")
        points, chunks = rng.integers(0, 3, size=n), rng.integers(-5, 6, size=(q, n))
    else:
        h = pv.mean_kernel(k)
        points, chunks = (rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape) for shape in (n, (q, n)))
    d = Dataset(points)
    with mock.patch.object(ustat, "_BLOCK_ROWS", budget):
        complete = pv.all_tuples(n, k)
        for fam in (complete, explicit_family(n, k, complete.subsets)):
            (mean,), (proj,) = ustat.means_and_projections(h, d.points[None], fam)
            expected_mean, expected_proj = gather_means_and_projections(h, d, fam)
            assert mean.tobytes() == expected_mean.tobytes()
            assert proj.tobytes() == expected_proj.tobytes()
            assert (kernel_values(h, d, fam).tobytes()
                    == gather_chunk_kernel_values(h, d.points[None], fam)[0].tobytes())
            assert (ustat.chunk_kernel_values(h, chunks, fam).tobytes()
                    == gather_chunk_kernel_values(h, chunks, fam).tobytes())
            # the stacked pass: each row is its chunk's own pass, byte for byte
            stacked_means, stacked_proj = ustat.means_and_projections(h, chunks, fam)
            assert stacked_means.shape == (q,) and stacked_proj.shape == (q, n)
            for row, chunk in enumerate(chunks):
                row_mean, row_proj = gather_means_and_projections(h, Dataset(chunk), fam)
                assert stacked_means[row].tobytes() == row_mean.tobytes()
                assert stacked_proj[row].tobytes() == row_proj.tobytes()


def test_large_kernel_values_get_a_mapping_of_their_own():
    # from _MAPPED_VALUES_BYTES on, a complete family's (q, M) values live in
    # a private anonymous mapping (on systems with huge-page advice); the
    # values, and every clip-and-release step run in place on them, are those
    # of a heap array, bit for bit
    rng = np.random.default_rng(8)
    chunks = rng.normal(size=(3, 40))
    fam, h = pv.all_tuples(40, 3), pv.mean_kernel(3)
    tb = coinpress.chunk_tail_bounds(1.0, 40)
    heap = ustat.chunk_kernel_values(h, chunks, fam)
    reports = coinpress.ustat_means(h, chunks, fam, 2.0, 1.0, 0.01, tb, 4, [PrivacyBudget(1.0) for _ in range(3)], "x")
    with mock.patch.object(ustat, "_MAPPED_VALUES_BYTES", 8):
        mapped = ustat.chunk_kernel_values(h, chunks, fam)
        mapped_reports = coinpress.ustat_means(
            h, chunks, fam, 2.0, 1.0, 0.01, tb, 4, [PrivacyBudget(1.0) for _ in range(3)], "x"
        )
    assert mapped.tobytes() == heap.tobytes() and mapped.flags.writeable
    mapping = getattr(mapped.base.base, "obj", None)
    assert isinstance(mapping, mmap.mmap) == hasattr(mmap, "MADV_HUGEPAGE")
    assert [(r.estimate, r.radius, r.diagnostics) for r in mapped_reports] == [
        (r.estimate, r.radius, r.diagnostics) for r in reports
    ]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("stored", [False, True])
def test_a_kernel_that_writes_into_its_input_cannot_change_the_data(k, stored):
    # at k = 1 a complete family's block is a view of the dataset itself
    def scribble(t):
        t[:, 0] = 0.0
        return t[:, 0].astype(float)

    h = pv.Kernel(k, scribble, pv.Bounded(1.0), name="scribble")
    points = np.arange(1.0, 7.0)
    d = Dataset(points.copy())
    fam = pv.all_tuples(6, k)
    if stored:
        fam = explicit_family(6, k, fam.subsets)
    for evaluate, data in (
        (kernel_values, d),
        (ustat.chunk_kernel_values, d.points[None]),
        (ustat.means_and_projections, d.points[None]),
    ):
        with pytest.raises(ValueError, match="read-only"):
            evaluate(h, data, fam)
        assert np.array_equal(d.points, points)


# ---------------------------------------------------------------------------
# subsample_family
# ---------------------------------------------------------------------------

def test_subsample_deterministic_given_seed():
    a = pv.subsample_family(10, 2, 1000, seed=5)
    b = pv.subsample_family(10, 2, 1000, seed=5)
    assert np.array_equal(a.subsets, b.subsets)
    c = pv.subsample_family(10, 2, 1000, seed=6)
    assert not np.array_equal(a.subsets, c.subsets)


def test_subsample_unique_subset_when_k_equals_n():
    fam = pv.subsample_family(4, 4, 7, seed=0)
    assert fam.size == 7
    assert all(row == [0, 1, 2, 3] for row in fam.subsets.tolist())


def test_subsample_incidence_concentration():
    # each M_i/M should sit within 3 binomial sigmas of k/n for ~99.7% of
    # (seed, index) checks; assert >= 99% over 100 seeds x 10 indices
    n, k, size = 10, 2, 10**5
    sigma = math.sqrt((k / n) * (1 - k / n) / size)
    ok = 0
    for seed in range(100):
        fam = pv.subsample_family(n, k, size, seed=seed)
        ok += int(np.sum(np.abs(fam.counts / size - k / n) <= 3 * sigma))
    assert ok >= 0.99 * 100 * n


def test_subsample_rows_are_valid_subsets():
    fam = pv.subsample_family(12, 3, 500, seed=1)
    assert np.all(np.diff(fam.subsets, axis=1) > 0)  # sorted, distinct


@pytest.mark.parametrize(
    "n, k, size",
    [(4, 4, 7), (10, 2, 1000), (7, 3, 20000), (1000, 2, 3453), (40000, 3, 5), (9, 1, 50)],
)
def test_subsample_matches_the_per_row_floyd_oracle(n, k, size):
    assert np.array_equal(
        pv.subsample_family(n, k, size, seed=21).subsets,
        floyd_subsample_picks(n, k, size, seed=21),
    )


def test_subsample_holds_size_k_integers_not_size_n():
    # (size, n) uniforms would take 8 GB here; beyond the family's own (n,)
    # counts the draw holds a few (size, k) arrays
    pv.subsample_family(10**6, 3, 1000, seed=3)
    tracemalloc.start()
    try:
        fam = pv.subsample_family(10**6, 3, 1000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - fam.counts.nbytes < 2**20


class EnumeratingGenerator(np.random.Generator):
    """Answers the c-th ``integers(0, j + 1, size)`` call with the c-th
    coordinate of every draw sequence in product(range(n-k+1), ..., range(n))."""

    def __init__(self, n: int, k: int):
        super().__init__(np.random.PCG64(0))
        self.highs = list(range(n - k + 1, n + 1))
        self.sequences = np.array(list(itertools.product(*map(range, self.highs))))
        self.calls = 0

    def integers(self, low, high, size):
        c = self.calls
        assert (low, high, size) == (0, self.highs[c], len(self.sequences))
        self.calls += 1
        return self.sequences[:, c].copy()


@pytest.mark.parametrize("n, k", [(5, 3), (6, 2), (6, 1), (4, 4)])
def test_subsample_law_is_exactly_uniform_over_k_subsets(n, k):
    # every draw sequence is equally likely, so uniformity is a count
    rng = EnumeratingGenerator(n, k)
    size = math.perm(n, k)
    fam = pv.subsample_family(n, k, size, seed=rng)
    assert rng.calls == k
    tally = Counter(map(tuple, fam.subsets.tolist()))
    assert set(tally) == set(itertools.combinations(range(n), k))
    assert set(tally.values()) == {math.factorial(k)}


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_subsample_rows_counts_and_stream(data):
    n = data.draw(st.integers(1, 60))
    k = data.draw(st.integers(1, n))
    size = data.draw(st.integers(1, 200))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    fam = pv.subsample_family(n, k, size, seed=rng)
    rows = fam.subsets
    assert rows.shape == (size, k)
    assert rows.min() >= 0 and rows.max() < n
    assert np.all(np.diff(rows, axis=1) > 0)
    assert np.array_equal(fam.counts, np.bincount(rows.ravel(), minlength=n))
    assert np.array_equal(pv.subsample_family(n, k, size, seed=seed).subsets, rows)
    by_hand = np.random.default_rng(seed)
    for j in range(n - k, n):
        by_hand.integers(0, j + 1, size)
    assert rng.bit_generator.state == by_hand.bit_generator.state


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (5, 5), (7, 1)])
def test_all_tuples_always_regular(n, k):
    assert pv.all_tuples(n, k).check_regularity().ok


def test_missing_index_is_bottom():
    fam = explicit_family(4, 2, [[0, 1], [0, 1], [0, 2]])
    check = fam.check_regularity()
    assert not check.ok
    assert "3" in check.reason  # index 3 (0-based) never appears


def test_overloaded_index_is_bottom():
    # index 0 in every subset: M_0/M = 1 > 3k/n = 6/8
    fam = explicit_family(8, 2, [[0, i] for i in range(1, 8)])
    check = fam.check_regularity()
    assert not check.ok


def test_boundary_ratio_ties_pass():
    # M_i/M = 3k/n exactly must pass (non-strict inequality)
    # n=6, k=2, M=4 subsets, index 0 in exactly 4*3*2/6 = 4 subsets: ratio 1 > 1? build 3k/n=1
    # use n=6,k=2: 3k/n = 1, so any M_i/M <= 1 passes; pair ratio boundary instead:
    fam = explicit_family(6, 2, [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [1, 2]])
    # M_0/M = 5/6 <= 1, M_01/M_0 = 1/5 <= 1 -> ok
    assert fam.check_regularity().ok


def brute_force_pair_counts(fam) -> dict:
    counts: dict = {}
    for row in fam.subsets.tolist():
        for a, b in itertools.combinations(row, 2):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_pair_counts_match_brute_force(k, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k, 15))
    families = [
        pv.subsample_family(n, k, int(rng.integers(1, 60)), seed=rng),
        # explicit rows need not be sorted
        explicit_family(n, k, [rng.permutation(n)[:k] for _ in range(int(rng.integers(1, 30)))]),
    ]
    for fam in families:
        pairs, mij = fam.pair_counts()
        assert dict(zip(map(tuple, pairs.tolist()), mij.tolist())) == brute_force_pair_counts(fam)
        assert np.all(np.diff(pairs[:, 0] * n + pairs[:, 1]) > 0)  # lexicographic order


def test_pair_violation_names_smallest_pair():
    # every index appears, no M_i/M is too large, but M_36/M_3 = 3/3 and
    # M_47/M_4 = 3/3 exceed 3k/n = 6/8; (3, 6) is the smaller pair
    rows = [[4, 7]] * 3 + [[3, 6]] * 3 + [[0, 1], [1, 2], [2, 5], [0, 5]]
    check = explicit_family(8, 2, rows).check_regularity()
    assert not check.ok
    assert check.reason.startswith("M_36/M_3 = 3/3")


def test_subsampled_regularity_holds_at_recommended_size():
    # with M = (n^2/k^2) log(n/gamma) samples the conditions hold w.h.p.
    n, k = 30, 2
    size = int((n / k) ** 2 * math.log(n / 0.05))
    ok = sum(
        pv.subsample_family(n, k, size, seed=s).check_regularity().ok
        for s in range(20)
    )
    assert ok >= 19


# ---------------------------------------------------------------------------
# evaluation and projections
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(2,), (4, 3)], ids=["one-tuple-as-1d", "wrong-width"])
def test_kernel_evaluate_takes_only_rows_of_k_tuples(shape):
    # a 1-D array is refused like a wrong width, not read as one tuple
    with pytest.raises(ValueError, match=re.escape(f"expected 2-tuples, got shape {shape}")):
        pv.mean_kernel(2).evaluate(np.zeros(shape))


def test_constant_kernel_evaluates_to_constant():
    fam = pv.all_tuples(5, 2)
    d = Dataset(np.arange(5.0))
    assert pv.evaluate_ustat(constant_kernel(1.0, 2), d, fam) == 1.0


def test_degree_one_is_sample_mean():
    d = Dataset(np.array([1.0, 2.0, 3.0]))
    assert pv.evaluate_ustat(pv.identity_kernel(), d, pv.all_tuples(3, 1)) == pytest.approx(2.0)


def test_collision_example():
    d = Dataset(np.array([1, 1, 2, 3]))
    fam = pv.all_tuples(4, 2)
    assert pv.evaluate_ustat(pv.collision_kernel(), d, fam) == pytest.approx(1 / 6)
    assert local_projection(pv.collision_kernel(), d, fam, 0) == pytest.approx(1 / 3)


def test_local_projection_constant_kernel():
    fam = pv.all_tuples(6, 3)
    d = Dataset(np.arange(6.0))
    for i in range(6):
        assert local_projection(constant_kernel(2.5, 3), d, fam, i) == 2.5


def test_local_projection_empty_incidence():
    fam = explicit_family(4, 2, [[0, 1], [0, 1], [0, 2]])
    with pytest.raises(EmptyIncidence):
        local_projection(pv.collision_kernel(), Dataset(np.zeros(4)), fam, 3)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_double_counting_identity(seed):
    # sum_i M_i proj(i) = k M A_n on any family
    rng = np.random.default_rng(seed)
    n, k = 8, 3
    fam = pv.subsample_family(n, k, 40, seed=rng)
    d = Dataset(rng.normal(size=n))
    h = pv.mean_kernel(k)
    vals = kernel_values(h, d, fam)
    proj = ustat.means_and_projections(h, d.points[None], fam)[1][0]
    lhs = float(np.nansum(fam.counts * proj))
    rhs = k * fam.size * float(vals.mean())
    assert lhs == pytest.approx(rhs, rel=1e-12)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_permutation_invariance_of_complete_ustat(seed):
    rng = np.random.default_rng(seed)
    n = 7
    d = rng.normal(size=n)
    fam = pv.all_tuples(n, 2)
    h = pv.mean_kernel(2)
    base = pv.evaluate_ustat(h, Dataset(d), fam)
    perm = rng.permutation(n)
    assert pv.evaluate_ustat(h, Dataset(d[perm]), fam) == pytest.approx(base, rel=1e-12)


def test_kernel_symmetry_by_sampled_permutations():
    rng = np.random.default_rng(3)
    for h in (pv.mean_kernel(3), pv.equality_kernel(3)):
        args = rng.integers(0, 3, size=3).astype(float)
        vals = {evaluate_one(h, *args[list(p)]) for p in itertools.permutations(range(3))}
        assert len(vals) == 1


def test_disjoint_chunks_shape_and_drop():
    fam = disjoint_chunks(7, 2)
    assert fam.subsets.tolist() == [[0, 1], [2, 3], [4, 5]]
    assert fam.counts[6] == 0
    assert fam.dependence_fraction() == pytest.approx(1 / 3)


# ---------------------------------------------------------------------------
# variance calculus
# ---------------------------------------------------------------------------

def test_variance_zero_profile():
    assert variance_of_ustat(VarianceProfile([0.0, 0.0]), 10, 2) == 0.0


def test_variance_hand_example():
    # k=2, n=3: weights (C(2,1)C(1,1), C(2,2)C(1,0)) / C(3,2) = (2, 1)/3
    v = variance_of_ustat(VarianceProfile([0.0, 3.0]), 3, 2)
    assert v == pytest.approx(1.0)


def test_variance_matches_pair_closed_form():
    # for k=2 the general formula reduces to 2(2(n-2) z1 + z2)/(n(n-1))
    rng = np.random.default_rng(0)
    for _ in range(20):
        z1 = rng.uniform(0, 0.3)
        z2 = rng.uniform(2 * z1, 1.0)  # respect the monotone chain
        n = int(rng.integers(5, 60))
        lhs = variance_of_ustat(VarianceProfile([z1, z2]), n, 2)
        rhs = 2.0 / (n * (n - 1)) * (2 * (n - 2) * z1 + z2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_leading_term_plugin_values():
    prof = VarianceProfile([1.0, 2.5])
    assert variance_leading_term(prof, 100, 2, degenerate=False) == pytest.approx(0.04)
    degen = VarianceProfile([0.0, 1.0])
    assert variance_leading_term(degen, 100, 2, degenerate=True) == pytest.approx(
        4 / (2 * 100 * 99)
    )


def test_leading_term_degeneracy_mismatch():
    with pytest.raises(DegeneracyMismatch):
        variance_leading_term(VarianceProfile([0.5, 1.0]), 100, 2, degenerate=True)


def test_leading_term_close_to_exact_variance():
    rng = np.random.default_rng(1)
    for _ in range(30):
        k = int(rng.integers(1, 5))
        deltas = rng.uniform(0.0, 1.0, size=k)
        zetas = zetas_from_deltas(deltas)  # a valid profile by construction
        n = int(rng.integers(2 * k, 200))
        exact = variance_of_ustat(VarianceProfile(zetas), n, k)
        lead = variance_leading_term(VarianceProfile(zetas), n, k, degenerate=False)
        slack = 2.0 * zetas[-1] * k**2 / n**2
        assert lead <= exact + 1e-12
        assert exact <= lead + slack + 1e-12


def test_hoeffding_deltas_examples():
    assert hoeffding_deltas([0.0, 0.0]).tolist() == [0.0, 0.0]
    a, b = 0.3, 1.1
    deltas = hoeffding_deltas([a, b])
    assert deltas[0] == pytest.approx(a)
    assert deltas[1] == pytest.approx(b - 2 * a)


def test_zeta_delta_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        deltas = rng.uniform(0.0, 2.0, size=k)  # any nonnegative component profile
        zetas = zetas_from_deltas(deltas)
        back = zetas_from_deltas(hoeffding_deltas(zetas))
        np.testing.assert_allclose(back, zetas, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(hoeffding_deltas(zetas), deltas, rtol=1e-9, atol=1e-9)


def test_negative_delta_warns():
    with pytest.warns(NegativeDeltaWarning):
        hoeffding_deltas([1.0, 0.5])  # zeta_2 < 2 zeta_1 is infeasible


def test_variance_profile_chain_checker():
    good = VarianceProfile([0.5, 1.0, 1.5])
    assert good.chain_violation() == 0.0
    bad = VarianceProfile([1.0, 1.0])
    assert bad.chain_violation() > 0.0


# ---------------------------------------------------------------------------
# empirical zetas
# ---------------------------------------------------------------------------

def uniform_sampler(m):
    return lambda rng, size: rng.integers(0, m, size=size)


def test_empirical_zeta_constant_kernel_is_zero():
    est = empirical_zetas(constant_kernel(3.0, 2), uniform_sampler(5), 1, 20_000, 0)
    assert abs(est.value) <= max(3 * est.stderr, 1e-12)


def test_empirical_zeta_rejects_c_zero():
    with pytest.raises(ValueError):
        empirical_zetas(pv.collision_kernel(), uniform_sampler(5), 0, 100, 0)


def test_empirical_zetas_uniform_collision():
    m = 8
    z1 = empirical_zetas(pv.collision_kernel(), uniform_sampler(m), 1, 300_000, 1)
    z2 = empirical_zetas(pv.collision_kernel(), uniform_sampler(m), 2, 300_000, 2)
    assert abs(z1.value - 0.0) <= 3 * z1.stderr + 1e-9
    assert abs(z2.value - (1 / m - 1 / m**2)) <= 3 * z2.stderr


def test_empirical_zeta1_perturbed_matches_pairwise_formula():
    m, amp = 6, 0.5
    p = (1 + np.concatenate([np.full(3, amp), np.full(3, -amp)])) / m
    expected = sum(
        p[i] * p[j] * (p[i] - p[j]) ** 2 for i in range(m) for j in range(i + 1, m)
    )
    sampler = lambda rng, size: rng.choice(m, size=size, p=p)
    est = empirical_zetas(pv.collision_kernel(), sampler, 1, 400_000, 3)
    assert abs(est.value - expected) <= 3 * est.stderr


def test_monotone_zeta_chain_empirically():
    m = 6
    p = (1 + np.concatenate([np.full(3, 0.4), np.full(3, -0.4)])) / m
    sampler = lambda rng, size: rng.choice(m, size=size, p=p)
    z1 = empirical_zetas(pv.collision_kernel(), sampler, 1, 200_000, 4)
    z2 = empirical_zetas(pv.collision_kernel(), sampler, 2, 200_000, 5)
    combined = math.hypot(z1.stderr, z2.stderr / 2)
    assert z1.value <= z2.value / 2 + 3 * combined


def test_eq3_matches_monte_carlo_small():
    # k=2 bounded kernel: formula with empirical zetas vs 10^4-replication MC
    m, reps = 6, 10**4
    for n in (10, 30):
        rng = np.random.default_rng(n)
        pairs = n * (n - 1) // 2
        us = np.empty(reps)
        for repi in range(reps):
            counts = np.bincount(rng.integers(0, m, size=n), minlength=m)
            us[repi] = (counts * (counts - 1) // 2).sum() / pairs
        mc = us.var(ddof=1)
        dev = us - us.mean()
        se_mc = math.sqrt(((dev**4).mean() - (reps - 3) / (reps - 1) * (dev**2).mean() ** 2) / reps)
        z1 = empirical_zetas(pv.collision_kernel(), uniform_sampler(m), 1, 400_000, n + 1)
        z2 = empirical_zetas(pv.collision_kernel(), uniform_sampler(m), 2, 400_000, n + 2)
        formula = variance_of_ustat(VarianceProfile([z1.value, z2.value]), n, 2)
        w1 = math.comb(2, 1) * math.comb(n - 2, 1) / math.comb(n, 2)
        w2 = 1 / math.comb(n, 2)
        se_formula = math.hypot(w1 * z1.stderr, w2 * z2.stderr)
        assert abs(mc - formula) <= 3 * math.hypot(se_mc, se_formula)


def test_incomplete_ustat_variance_formula():
    # MC var of the subsampled statistic vs (1 - 1/M) var(U_n) + zeta_k / M
    m_atoms, n, size, reps = 5, 12, 20, 2 * 10**4
    p = np.full(m_atoms, 1 / m_atoms)
    z1, z2 = 0.0, 1 / m_atoms - 1 / m_atoms**2
    var_un = variance_of_ustat(VarianceProfile([z1, z2]), n, 2)
    expected = (1 - 1 / size) * var_un + z2 / size
    rng = np.random.default_rng(8)
    vals = np.empty(reps)
    h = pv.collision_kernel()
    for repi in range(reps):
        data = Dataset(rng.integers(0, m_atoms, size=n))
        fam = pv.subsample_family(n, 2, size, seed=rng)
        vals[repi] = pv.evaluate_ustat(h, data, fam)
    mc = vals.var(ddof=1)
    dev = vals - vals.mean()
    se = math.sqrt(((dev**4).mean() - (reps - 3) / (reps - 1) * (dev**2).mean() ** 2) / reps)
    assert abs(mc - expected) <= 3 * se


def test_variance_formula_dual_route_through_components():
    # the subset-overlap formula in zeta-space must agree with the orthogonal
    # decomposition sum C(k,c)^2 / C(n,c) * delta_c^2 computed independently
    rng = np.random.default_rng(17)
    for _ in range(30):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(k, 40))
        deltas = rng.uniform(0.0, 1.5, size=k)
        zetas = zetas_from_deltas(deltas)
        via_overlap = variance_of_ustat(VarianceProfile(zetas), n, k)
        via_components = sum(
            math.comb(k, c) ** 2 / math.comb(n, c) * deltas[c - 1] for c in range(1, k + 1)
        )
        assert via_overlap == pytest.approx(via_components, rel=1e-10)
