"""Uniformity testing, geometric graphs, and triangle density."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privustat as pv
from privustat import applications as apps, dp
from privustat.dp import quartic_draws, scratch_budget
from privustat.errors import InsufficientData
from privustat.hajek import HajekParams, release_rows
from privustat.ustat import Dataset, all_tuples

from oracles import (
    VarianceProfile,
    collision_ustat_variance,
    collision_variance_profile,
    csr_edge_density,
    dense_adjacency,
    dense_edge_density,
    dense_triangle_values,
    dense_triangles_per_node,
    exact_reweighted_mean,
    index_level_rows,
    induced_subgraph,
    line_read_column,
    line_read_edge_list,
    StackNoise,
    loop_collision_reweight,
    majority_uniformity_test,
    nonzero_csr,
    packed_neighbour_bits,
    rgg_triangle_theta,
    row_state,
    variance_of_ustat,
    write_edge_list,
)


# ---------------------------------------------------------------------------
# perturbed uniform + multinomial sampling
# ---------------------------------------------------------------------------

def test_perturbed_uniform_validation():
    with pytest.raises(ValueError):
        apps.PerturbedUniform(3, np.array([0.5, 0.5, 0.5]))  # does not sum to 0
    with pytest.raises(ValueError):
        apps.PerturbedUniform(2, np.array([1.5, -1.5]))  # outside [-1, 1]
    with pytest.raises(ValueError, match="need at least one category, got m = 0"):
        apps.PerturbedUniform.uniform(0)
    for amplitude in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            apps.PerturbedUniform.half_split(4, amplitude)
    dist = apps.PerturbedUniform.half_split(4, 0.5)
    assert dist.probabilities.sum() == pytest.approx(1.0)
    assert np.all(dist.probabilities <= 2 / 4 + 1e-12)


def test_sample_multinomial_uniform_frequencies():
    m, n = 10, 200_000
    dist = apps.PerturbedUniform.uniform(m)
    data = apps.sample_multinomial(dist, n, seed=0)
    freqs = np.bincount(data.points, minlength=m) / n
    bound = 3 * math.sqrt((1 / m) * (1 - 1 / m) / n)
    assert np.sum(np.abs(freqs - 1 / m) <= bound) >= 9


def test_sample_multinomial_point_mass():
    dist = apps.PerturbedUniform(2, np.array([1.0, -1.0]))
    data = apps.sample_multinomial(dist, 1000, seed=1)
    assert np.all(data.points == 0)


def test_sample_multinomial_golden_sequence():
    data = apps.sample_multinomial(apps.PerturbedUniform.uniform(5), 12, seed=314)
    assert data.points.tolist() == [4, 3, 3, 2, 0, 1, 1, 1, 4, 2, 1, 3]


def test_collision_theta_values():
    assert apps.collision_theta(apps.PerturbedUniform.uniform(20)) == pytest.approx(1 / 20)
    point_mass = apps.PerturbedUniform(2, np.array([1.0, -1.0]))
    assert apps.collision_theta(point_mass) == pytest.approx(1.0)
    m, delta = 50, 0.5
    alt = apps.PerturbedUniform.half_split(m, delta)
    assert apps.collision_theta(alt) == pytest.approx((1 + delta**2) / m)


def test_collision_variance_profile_matches_closed_form():
    p = apps.PerturbedUniform.half_split(6, 0.4).probabilities
    z1, z2 = collision_variance_profile(p)
    pairwise = sum(
        p[i] * p[j] * (p[i] - p[j]) ** 2 for i in range(6) for j in range(i + 1, 6)
    )
    assert z1 == pytest.approx(pairwise, rel=1e-12)
    s2 = float(np.sum(p**2))
    assert z2 == pytest.approx(s2 - s2**2, rel=1e-12)
    n = 40
    direct = variance_of_ustat(VarianceProfile([z1, z2]), n, 2)
    assert collision_ustat_variance(p, n) == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# uniformity test
# ---------------------------------------------------------------------------

def test_uniformity_insufficient_data():
    with pytest.raises(InsufficientData):
        apps.boosted_uniformity_test(Dataset(np.array([1])), 5, 0.5, 1.0, None, 0, scratch_budget())


def test_uniformity_rejects_point_mass():
    data = Dataset(np.zeros(4000, dtype=int))
    decision = apps.boosted_uniformity_test(data, 50, 0.5, 1.0, None, 1, scratch_budget())
    assert decision.reject
    assert decision.statistic > decision.threshold


def test_uniformity_accepts_uniform_at_scale():
    data = apps.sample_multinomial(apps.PerturbedUniform.uniform(50), 60_000, seed=2)
    decision = apps.boosted_uniformity_test(data, 50, 0.5, 1.0, None, 3, scratch_budget())
    assert not decision.reject


def test_uniformity_xi_covers_projection_spread():
    # with uniform data and n >= 16/gamma the projections stay within xi of
    # the collision statistic in at least 1 - gamma of trials
    m, n, gamma, trials = 20, 1600, apps.APPLICATION_CONFIDENCE, 1000
    xi = apps.collision_xi(m, n)
    rng = np.random.default_rng(4)
    hits = 0
    for _ in range(trials):
        x = rng.integers(0, m, size=n)
        counts = np.bincount(x, minlength=m)
        u = (counts * (counts - 1) // 2).sum() / (n * (n - 1) // 2)
        proj = (counts[x] - 1) / (n - 1)
        hits += int(np.max(np.abs(proj - u)) <= xi)
    assert hits / trials >= 1 - gamma


def test_boosted_uniformity_budget_is_parallel():
    budget = pv.PrivacyBudget(2.0)
    data = apps.sample_multinomial(apps.PerturbedUniform.uniform(20), 5000, seed=5)
    apps.boosted_uniformity_test(data, 20, 0.5, 1.0, alpha=0.1, seed=6, budget=budget)
    assert budget.spent == pytest.approx(1.0)


def uniformity_cases():
    """120 seeded (data, m, delta, eps, alpha, seed) cases around the threshold."""
    rng = np.random.default_rng(31)
    for case in range(120):
        m = int(rng.choice([4, 10, 20]))
        amplitude = float(rng.uniform(0.0, 0.9))
        dist = apps.PerturbedUniform.half_split(m, amplitude)
        n = int(rng.integers(400, 3000))
        yield (apps.sample_multinomial(dist, n, rng), m, float(rng.uniform(0.3, 0.9)),
               float(rng.choice([0.5, 1.0, 4.0])), float(rng.choice([0.05, 0.2, 0.4])), case)


def test_boosted_uniformity_equals_the_chunk_majority_vote():
    # each chunk's one-chunk test adds the boosted stack's draw for it
    outcomes = []
    for data, m, delta, eps, alpha, seed in uniformity_cases():
        budget, reference = pv.PrivacyBudget(eps), pv.PrivacyBudget(eps)
        noise = StackNoise()
        with noise.recording():
            got = apps.boosted_uniformity_test(data, m, delta, eps, alpha, seed, budget)
        with noise.replaying():
            want = majority_uniformity_test(data, m, delta, eps, alpha, seed, reference)
        assert (got.reject, got.statistic, got.threshold, budget.spent) == want, seed
        assert budget.spent == reference.spent == eps
        outcomes.append(got.reject)
    assert 20 <= sum(outcomes) <= len(outcomes) - 20  # both decisions are well covered


@pytest.mark.parametrize("dtype", [np.uint64, np.uint8, np.int32])
def test_unsigned_and_narrow_labels_equal_int64_labels_bitwise(dtype):
    # the stacked counts shift row i's labels by i m as int64 codes; a
    # uint64 label plus an int64 shift would be float64
    x = np.random.default_rng(8).integers(0, 20, 4000)
    labels = {t: pv.Dataset(x.astype(t)) for t in (np.int64, dtype)}
    for alpha in (None, 0.2):
        got, want = (
            apps.boosted_uniformity_test(labels[t], 20, 0.5, 1.0, alpha, 3, scratch_budget())
            for t in (dtype, np.int64)
        )
        assert got.statistic == want.statistic and got.reject == want.reject
        assert got.report.diagnostics == want.report.diagnostics
    for q in (1, 5):
        got, want = (apps.collision_rows(labels[t].points.reshape(q, -1), 20) for t in (dtype, np.int64))
        assert np.array_equal(got.a_n, want.a_n) and np.array_equal(got.projections, want.projections)


def test_boosted_uniformity_ledger_is_one_median_of_means_entry():
    budget = pv.PrivacyBudget(2.0)
    data = apps.sample_multinomial(apps.PerturbedUniform.uniform(20), 5000, seed=5)
    decision = apps.boosted_uniformity_test(data, 20, 0.5, 1.0, alpha=0.1, seed=6, budget=budget)
    q = decision.report.diagnostics["chunks"]
    assert budget.entries == [(f"median_of_means(q={q})", 1.0)]
    assert len(decision.report.diagnostics["chunk_estimates"]) == q


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 400), st.integers(1, 60), st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0), st.booleans(),
)
def test_collision_reweight_matches_loop_reference(n, m, seed, low_share, skewed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, m, n)
    if skewed:  # one heavy category, as in the skewed benchmark input
        x[rng.random(n) < 0.8] = 0
    # weights are a function of the category, as projections are
    w_cat = np.where(rng.random(m) < low_share, rng.choice([0.0, 0.25, rng.uniform()], m), 1.0)
    weights = w_cat[x]
    rows = apps.collision_rows(x[None], m)
    got = index_level_rows(rows, x[None]).reweight(0, weights)
    assert got == pytest.approx(loop_collision_reweight(x, m, weights), rel=1e-12, abs=0)
    # the category weights directly: an empty category's weight is never read
    assert rows.reweight(0, w_cat) == got


def collision_labels(rng, q: int, n: int, m: int, skewed: bool) -> np.ndarray:
    """(q, n) labels: uniform over m, or one heavy category 0 with about 5%
    rare ones, at least one of them in every row."""
    if not skewed:
        return rng.integers(0, m, (q, n))
    x = np.where(rng.random((q, n)) < 0.05, rng.integers(1, m, (q, n)), 0)
    x[:, 0] = rng.integers(1, m, q)
    return x


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 5), st.integers(2, 30), st.integers(20, 300), st.booleans(),
    st.sampled_from([0.005, 0.02, 1.0]), st.integers(0, 2**32 - 1),
)
def test_letter_level_release_equals_its_index_level_expansion_bitwise(q, m, n, skewed, c_range, seed):
    # at C <= 0.02 and xi <= 0.05 every skewed row's rare categories are bad
    rng = np.random.default_rng(seed)
    x = collision_labels(rng, q, n, m, skewed)
    params = HajekParams(float(rng.uniform(0.1, 2.0)), c_range, rng.choice([0.0, 0.01, 0.05], q))
    rows = apps.collision_rows(x, m)
    assert rows.projections.shape == rows.multiplicity.shape == (q, m)
    got_budgets, want_budgets = ([pv.PrivacyBudget(10.0) for _ in range(q)] for _ in range(2))
    got = release_rows(rows, params, seed, got_budgets)
    want = release_rows(index_level_rows(rows, x), params, seed, want_budgets)
    for g, w in zip(got, want):
        assert (g.estimate, g.noise_scale, g.diagnostics) == (w.estimate, w.noise_scale, w.diagnostics)
    assert [b.entries for b in got_budgets] == [b.entries for b in want_budgets]
    if skewed and c_range < 1.0:
        assert all(r.diagnostics["n_bad"] > 0 for r in got)


@pytest.mark.parametrize("labels", ["uniform", "skewed", "rare5pct"])
def test_collision_release_on_a_million_labels_holds_no_per_index_array(labels):
    # 10^6 int64 labels are 7.6 MiB: a per-index projection, gather or offset
    # copy of them would pass the bound on its own.  The skewed labels are
    # count-summary's: 1000 rare labels, each a bad index (L = 1000).  With
    # 5% rare labels the heavy category is itself over the t = 1 threshold,
    # a candidate that stands for 95% of the indices, and L is the number of
    # rare labels: a spread level that took each candidate once per index
    # would hold about 10^6 values
    n, m = 10**6, 1000
    rng = np.random.default_rng(4)
    x = rng.integers(0, m, (1, n))
    if labels == "skewed":
        x[:] = 0
        x[0, rng.choice(n, 1000, replace=False)] = rng.integers(1, m, 1000)
    elif labels == "rare5pct":
        x = collision_labels(rng, 1, n, m, skewed=True)
    rare = int(np.count_nonzero(x)) if labels != "uniform" else 0
    budget = scratch_budget()
    tracemalloc.start()
    try:
        (report,) = apps.private_collision_densities(x, m, 1.0, apps.collision_xi(m, n), 5, [budget])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.diagnostics["n_bad"] == rare
    assert report.diagnostics["L"] == max(rare, 1)
    assert peak < 2**20


def test_collision_summary_gives_every_index_its_projection():
    x = np.random.default_rng(6).integers(0, 7, 50).astype(np.uint16)
    summary = apps.collision_summary(Dataset(x), 9)
    counts = np.bincount(x, minlength=9)
    assert summary.projections.shape == (50,)
    assert np.array_equal(summary.projections, (counts[x] - 1) / 49)
    assert summary.a_n == apps.collision_rows(x[None], 9).a_n[0]


# ---------------------------------------------------------------------------
# geometric graphs
# ---------------------------------------------------------------------------

def assert_csr_invariants(g):
    """``indptr`` starts at 0, never decreases and ends at ``indices.size``;
    within each row ``indices`` strictly increase and stay below n."""
    indptr, indices = g.indptr, g.indices
    assert indptr.dtype == indices.dtype == np.int64
    assert indptr[0] == 0 and (np.diff(indptr) >= 0).all() and indptr[-1] == indices.size
    rows = np.repeat(np.arange(g.n), np.diff(indptr))
    assert (np.diff(indices)[rows[1:] == rows[:-1]] > 0).all()
    assert ((indices >= 0) & (indices < g.n)).all()


def test_rgg_shape_and_symmetry():
    g = apps.sample_rgg(50, 0.5, seed=0)
    assert g.n == 50
    adj = dense_adjacency(g)
    assert np.array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 0)
    assert np.allclose(np.linalg.norm(g.latent, axis=1), 1.0)


def test_rgg_radius_two_is_complete():
    g = apps.sample_rgg(20, 2.0, seed=1)
    off_diag = dense_adjacency(g)[~np.eye(20, dtype=bool)]
    assert np.all(off_diag == 1)


def test_rgg_adjacency_matches_latent_rule():
    g = apps.sample_rgg(40, 0.7, seed=2)
    diffs = np.linalg.norm(g.latent[:, None, :] - g.latent[None, :, :], axis=2)
    expected = (diffs <= 0.7).astype(int)
    np.fill_diagonal(expected, 0)
    assert np.array_equal(dense_adjacency(g), expected)


def test_rgg_edge_density_expectation():
    # edge probability is r^2/4; average over many pairs
    r, n = 0.5, 700  # ~2.4e5 pairs
    dens = [csr_edge_density(apps.sample_rgg(n, r, seed=s)) for s in range(3)]
    p = r**2 / 4
    se = math.sqrt(p * (1 - p) / (3 * n * (n - 1) / 2))
    # edges sharing endpoints are weakly dependent; allow a margin over the
    # i.i.d. standard error
    assert abs(float(np.mean(dens)) - p) <= 6 * se


def test_graph_file_round_trip(tmp_path):
    g = apps.sample_rgg(15, 0.8, seed=3)
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    back = apps.read_edge_list(path)
    assert np.array_equal(dense_adjacency(back), dense_adjacency(g))
    first = path.read_text().splitlines()[0].split()
    assert len(first) == 2 and int(first[0]) >= 1


@pytest.mark.parametrize("text, where", [
    ("0 2\n3 5\n", "line 1"),  # a 0 label would wrap round to node n
    ("1 2\n# comment\n4 -1\n", "line 3"),
    ("1 2\n2 3 4\n", "line 2"),
    ("1 x\n", "line 1"),
    ("3 3\n", "line 1"),
    ("", "no edges"),
    ("# only a comment\n\n", "no edges"),
], ids=["zero-label", "negative-label", "three-labels", "not-a-number", "self-loop", "empty",
        "comments-only"])
def test_read_edge_list_rejects_bad_labels_and_empty_files(tmp_path, text, where):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=where):
        apps.read_edge_list(path)


def test_categorical_file_round_trip(tmp_path):
    data = apps.sample_multinomial(apps.PerturbedUniform.uniform(7), 40, seed=4)
    path = tmp_path / "cats.txt"
    path.write_text("".join(f"{v}\n" for v in data.points.tolist()))
    back = apps.read_categories(path)
    assert np.array_equal(back.points, data.points)


@pytest.mark.parametrize("text, where", [
    ("1\n2\n\nx\n", "line 4: .* got 'x'"),
    ("0\n1.5\n", "line 2: .* got '1.5'"),
    ("3\n  -2  \n4\n", "line 2: .* got '-2'"),
    ("\n\n", "no data"),
], ids=["not-a-number", "fraction", "negative", "blank"])
def test_read_categories_names_the_bad_line(tmp_path, text, where):
    path = tmp_path / "cats.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=where) as exc:
        apps.read_categories(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("text, where", [
    ("0.5\nnan\n", "line 2: .* got 'nan'"),
    ("0.5\n\n-inf\n", "line 3: .* got '-inf'"),
    ("foo\n", "line 1: .* got 'foo'"),
], ids=["nan", "inf", "not-a-number"])
def test_read_reals_names_the_bad_line(tmp_path, text, where):
    path = tmp_path / "reals.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=where):
        apps.read_reals(path)


def test_value_files_keep_blank_lines_out(tmp_path):
    path = tmp_path / "values.txt"
    path.write_text("\n3\n \n  1\n2")
    assert apps.read_categories(path).points.tolist() == [3, 1, 2]
    assert apps.read_reals(path).points.tolist() == [3.0, 1.0, 2.0]


def graph_arrays(graph):
    return dense_adjacency(graph), graph.indptr, graph.indices


def oracle_graph_arrays(adjacency):
    return adjacency, *nonzero_csr(adjacency)


# each reader, and its per-line oracle, as a tuple of arrays
READERS = {
    "categories": (
        lambda p: (apps.read_categories(p).points,),
        lambda p: (line_read_column(p, int, lambda a: a >= 0, "a non-negative integer label"),),
    ),
    "reals": (
        lambda p: (apps.read_reals(p).points,),
        lambda p: (line_read_column(p, float, np.isfinite, "a finite real number"),),
    ),
    "edges": (
        lambda p: graph_arrays(apps.read_edge_list(p)),
        lambda p: oracle_graph_arrays(line_read_edge_list(p)),
    ),
}


def assert_reads_like_the_line_oracle(kind, path):
    """The reader returns what the per-line oracle returns, array by array
    with equal dtypes, or raises the same error."""
    read, oracle = READERS[kind]
    try:
        want = oracle(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            read(path)
        assert str(got.value) == str(exc)
        return
    got = read(path)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w, equal_nan=True)


@pytest.mark.parametrize("text, indptr, indices", [
    ("3 1\n1 2\n2 1\n1 3\n1 2\n", [0, 2, 3, 4], [1, 2, 0, 0]),
    ("2 4\n4 2\n2 4\n1 3\n3 1\n", [0, 1, 2, 3, 4], [2, 3, 0, 1]),
    ("5 4\n4 3\n3 2\n2 1\n5 1\n1 5\n", [0, 2, 4, 6, 8, 10], [1, 4, 0, 2, 1, 3, 2, 4, 0, 3]),
    ("# repeated\n2 1\n1 2\n2 1\n", [0, 1, 2], [1, 0]),  # the per-line parse
], ids=["repeated-reversed-unsorted", "every-edge-twice", "descending-cycle", "comment"])
def test_read_edge_list_reads_a_repeated_edge_once(tmp_path, text, indptr, indices):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    g = apps.read_edge_list(path)
    assert g.indptr.tolist() == indptr and g.indices.tolist() == indices
    assert_csr_invariants(g)
    assert_reads_like_the_line_oracle("edges", path)


@pytest.mark.parametrize("kind, text", [
    ("categories", "1_000\n\u0663\n+4\n"),  # loadtxt refuses both, int() takes them
    ("categories", "9223372036854775808\n1\n"),  # past int64: the oracle's uint64
    ("reals", "1_000.5\n\u0663\n"),
    ("edges", "1_000 2\n\u0663 1\n"),
    ("edges", "# header\n1 2\n2 3\n"),
], ids=["underscore-int", "past-int64", "underscore-real", "edge-digits", "edge-comment"])
def test_readers_fall_back_to_the_line_parse(tmp_path, kind, text):
    path = tmp_path / "values.txt"
    path.write_text(text, encoding="utf-8")
    assert_reads_like_the_line_oracle(kind, path)


@pytest.mark.parametrize("kind, text, where", [
    ("categories", "3 4\n", "line 1"),  # one line of two values, not two labels
    ("reals", "3 4\n", "line 1"),
    ("edges", "1 2 # x\n", "line 1"),  # no trailing comments on an edge line
    ("edges", "1 2\n2 2\n", "line 2: self-loops"),
    ("categories", "", "no data"),
    ("reals", "\n \n", "no data"),
    ("edges", "", "no edges"),
])
def test_readers_refuse_what_the_line_parse_refuses(tmp_path, kind, text, where):
    path = tmp_path / "values.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt's "input contained no data" stays inside
        with pytest.raises(ValueError, match=where):
            READERS[kind][0](path)
    assert_reads_like_the_line_oracle(kind, path)


TOKENS = ["0", "1", "2", "3", "12", "+4", "-1", "007", "1_000", "\u0663", "2.5", "1e3", ".5",
          "inf", "nan", "x", "#", "#1", ""]
LINE = st.builds(
    lambda lead, tokens, sep, end: lead + sep.join(tokens) + end,
    st.sampled_from(["", " ", "\t"]),
    st.lists(st.sampled_from(TOKENS), max_size=3),
    st.sampled_from([" ", "\t ", "\xa0", "\x0c", "\x1c"]),
    st.sampled_from(["\n", "\r\n", " \n", "\x85\n"]),
)
WELL_FORMED = {
    "categories": st.integers(0, 9).map(str),
    "reals": st.floats(allow_nan=False, allow_infinity=False).map(repr),
    "edges": st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda e: f"{e[0]} {e[1]}"),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(READERS)).flatmap(lambda kind: st.tuples(
    st.just(kind),
    st.lists(st.one_of(LINE, WELL_FORMED[kind].map(lambda v: v + "\n")), max_size=8),
    st.booleans(),
)))
def test_readers_equal_the_line_oracle_on_generated_files(tmp_path_factory, case):
    kind, lines, cut_last_newline = case
    text = "".join(lines)
    if cut_last_newline:
        text = text.removesuffix("\n")
    path = tmp_path_factory.mktemp("files") / "values.txt"
    path.write_text(text, encoding="utf-8")
    assert_reads_like_the_line_oracle(kind, path)


@pytest.mark.parametrize("bad, reason", [
    (0.5, "0/1"), (2.0, "0/1"), (-1.0, "0/1"), (np.nan, "symmetric"),  # NaN != NaN
])
def test_graph_rejects_non_binary_float_adjacency(bad, reason):
    adj = np.zeros((4, 4))
    adj[0, 1] = adj[1, 0] = bad
    with pytest.raises(ValueError, match=reason):
        apps.GeometricGraph(adj)


@pytest.mark.parametrize("dtype", [bool, np.int64, np.float64])
def test_graph_accepts_binary_adjacency_of_any_dtype(dtype):
    adj = np.zeros((4, 4), dtype=dtype)
    adj[0, 1] = adj[1, 0] = adj[2, 3] = adj[3, 2] = 1
    g = apps.GeometricGraph(adj)
    assert_csr_invariants(g)
    assert g.indices.size == 4 and np.array_equal(dense_adjacency(g), adj)


def test_triangle_counts_are_exact_past_int8_common_neighbours():
    # 300 common neighbours per pair would wrap round in int8 products
    n = 302
    adj = np.ones((n, n), dtype=np.int8) - np.eye(n, dtype=np.int8)
    s = apps.triangle_summary(apps.GeometricGraph(adj))
    assert s.a_n == 1.0 and np.all(s.projections == 1.0)


def test_triangle_density_refuses_small_graphs_before_any_spend():
    budget = pv.PrivacyBudget(2.0)
    for n in (0, 1, 2):
        with pytest.raises(InsufficientData):
            apps.private_triangle_density(apps.GeometricGraph(np.zeros((n, n))), 1.0, 1, budget)
    assert budget.entries == []


def test_read_edge_list_builds_no_dense_adjacency(tmp_path):
    path = tmp_path / "far.txt"
    path.write_text("1 2\n2 3\n4999 5000\n")
    tracemalloc.start()
    try:
        g = apps.read_edge_list(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == 5000 and g.indices.size == 6
    assert_csr_invariants(g)
    assert peak < 2 * 10**6  # a dense int8 adjacency alone takes 25 MB


# ---------------------------------------------------------------------------
# triangle density
# ---------------------------------------------------------------------------

def test_triangle_summary_complete_graph():
    adj = np.ones((10, 10), dtype=np.int8)
    np.fill_diagonal(adj, 0)
    g = apps.GeometricGraph(adj)
    s = apps.triangle_summary(g)
    assert s.a_n == pytest.approx(1.0)
    np.testing.assert_allclose(s.projections, 1.0)


def assert_summary_matches_dense_oracle(adj):
    s = apps.triangle_summary(apps.GeometricGraph(adj))
    n = adj.shape[0]
    per_node = dense_triangles_per_node(adj)
    assert np.array_equal(s.projections, per_node / math.comb(n - 1, 2))
    assert s.a_n == float(per_node.sum() / 3.0) / math.comb(n, 3)


def star(n):
    adj = np.zeros((n, n), dtype=np.int8)
    adj[0, 1:] = adj[1:, 0] = 1
    return adj


@pytest.mark.parametrize("adj", [
    dense_adjacency(apps.sample_rgg(300, 0.3, 1)),
    dense_adjacency(apps.sample_rgg(120, 0.9, 2)),
    np.zeros((12, 12), dtype=np.int8),
    np.ones((12, 12), dtype=np.int8) - np.eye(12, dtype=np.int8),
    star(15),
    np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.int8),
    np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int8),
], ids=["rgg300", "rgg120", "empty", "complete", "star", "n3-triangle", "n3-path"])
def test_triangle_summary_matches_dense_oracle(adj):
    assert_summary_matches_dense_oracle(adj)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 40).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
    st.permutations(range(n)).flatmap(lambda p: st.integers(0, n).map(lambda k: p[:k])),
    st.lists(st.sampled_from([0.0, 0.25, 0.6, 1.0, 1.0]), min_size=n, max_size=n),
)))
def test_csr_graph_equals_the_dense_oracles(tmp_path_factory, case):
    n, bits, order, weights = case
    adj = np.zeros((n, n), dtype=np.int8)
    adj[np.triu_indices(n, 1)] = bits
    adj += adj.T
    assert_summary_matches_dense_oracle(adj)
    g = apps.GeometricGraph(adj)
    assert_csr_invariants(g)
    assert np.array_equal(dense_adjacency(g), adj)
    assert csr_edge_density(g) == dense_edge_density(adj)
    idx = np.array(order, dtype=np.intp)
    sub = induced_subgraph(g, idx)
    assert np.array_equal(dense_adjacency(sub), adj[np.ix_(idx, idx)])
    size = n // 2
    blocks = g.block_diagonal(2, size)
    assert_csr_invariants(blocks)
    chunk = np.arange(2 * size) // size
    in_chunk = chunk[:, None] == chunk[None, :]
    assert np.array_equal(dense_adjacency(blocks), adj[: 2 * size, : 2 * size] * in_chunk)
    if adj.any():
        path = tmp_path_factory.mktemp("graphs") / "edges.txt"
        write_edge_list(g, path)
        read = apps.read_edge_list(path)
        assert_csr_invariants(read)
        # the file names no node past the last one with an edge
        assert np.array_equal(dense_adjacency(read), adj[: read.n, : read.n])
        assert not adj[read.n :].any()
    assert_triangle_reweight_is_exact(apps.triangle_rows(g, 1), 0, adj, np.array(weights))


def assert_triangle_reweight_is_exact(rows, i, adj, weights):
    """Row i's reweight is the exact mean over every triple of the dense
    graph ``adj`` within the bound derived in the oracles (REWEIGHT_EPS),
    for a sum of one term per down-weighted node."""
    n = adj.shape[0]
    exact = exact_reweighted_mean(dense_triangle_values(adj), all_tuples(n, 3), weights, float(rows.a_n[i]))
    assert exact.admits(rows.reweight(i, weights), np.count_nonzero(weights < 1.0))


def random_graph(n, density, rng):
    """Symmetric 0/1 int8 adjacency with each pair an edge with probability ``density``."""
    upper = np.triu(rng.random((n, n)) < density, 1)
    return (upper | upper.T).astype(np.int8)


def complete_graph(n):
    return np.ones((n, n), dtype=np.int8) - np.eye(n, dtype=np.int8)


# neighbour bitsets are ceil(n / 64) words: one word short of, at and past
# each word boundary
WORD_EDGE_SIZES = [63, 64, 65, 127, 128, 129]


@pytest.mark.parametrize("n", WORD_EDGE_SIZES)
@pytest.mark.parametrize("kind", ["random", "complete"])
def test_triangle_summary_at_word_boundaries_matches_dense_oracle(n, kind):
    adj = random_graph(n, 0.3, np.random.default_rng(n)) if kind == "random" else complete_graph(n)
    assert_summary_matches_dense_oracle(adj)


def assert_stack_matches_each_chunk(adj, q, size, rng):
    """Every chunk of the block-diagonal graph's ``triangle_rows`` equals the
    dense oracles on that chunk alone: counts, a_n and a reweight."""
    rows = apps.triangle_rows(apps.GeometricGraph(adj).block_diagonal(q, size), q)
    assert rows.n == size and rows.projections.shape == (q, size)
    for i in range(q):
        block = adj[i * size : (i + 1) * size, i * size : (i + 1) * size]
        per_node = dense_triangles_per_node(block)
        assert np.array_equal(rows.projections[i], per_node / math.comb(size - 1, 2))
        assert rows.a_n[i] == float(per_node.sum() / 3.0) / math.comb(size, 3)
        weights = np.ones(size)
        low = rng.choice(size, min(size, 6), replace=False)
        weights[low] = rng.choice([0.0, 0.25, 0.6], size=low.size)
        assert_triangle_reweight_is_exact(rows, i, block, weights)


@pytest.mark.parametrize("q,size", [(2, 70), (3, 65), (3, 130), (19, 67), (19, 3)])
def test_block_diagonal_triangle_rows_match_each_chunk(q, size):
    rng = np.random.default_rng(q * size)
    assert_stack_matches_each_chunk(random_graph(q * size + 5, 0.4, rng), q, size, rng)


@pytest.mark.parametrize("gather_bytes", [8, 200, 4096])
def test_triangle_counts_do_not_depend_on_the_gather_block(monkeypatch, gather_bytes):
    # blocks of one pair, of a few pairs with a ragged last block, and of many
    monkeypatch.setattr(apps, "_GATHER_BYTES", gather_bytes)
    rng = np.random.default_rng(gather_bytes)
    assert_summary_matches_dense_oracle(random_graph(129, 0.4, rng))
    assert_stack_matches_each_chunk(random_graph(3 * 70, 0.4, rng), 3, 70, rng)


@pytest.mark.parametrize("gather_bytes", [8, 200, 1 << 18])
@pytest.mark.parametrize("q,size", [(1, 129), (2, 64), (3, 65)])
def test_neighbour_bits_equal_the_packed_dense_rows(monkeypatch, gather_bytes, q, size):
    # entries in blocks of one, of 25 with a ragged last block, and all at once
    monkeypatch.setattr(apps, "_GATHER_BYTES", gather_bytes)
    g = apps.GeometricGraph(random_graph(q * size, 0.4, np.random.default_rng(size))).block_diagonal(q, size)
    bits = apps._neighbour_bits(np.repeat(np.arange(g.n), np.diff(g.indptr)), g.indices, g.n, size)
    assert bits.dtype == np.uint64
    assert np.array_equal(bits, packed_neighbour_bits(dense_adjacency(g), size))


def test_triangle_densities_refuse_an_edge_between_chunks_before_any_spend():
    adj = random_graph(2 * 70, 0.4, np.random.default_rng(9))
    budgets = [pv.PrivacyBudget(2.0), pv.PrivacyBudget(2.0)]
    with pytest.raises(ValueError, match="block-diagonal"):
        apps.private_triangle_densities(apps.GeometricGraph(adj), 1.0, 1, budgets)
    assert all(b.entries == [] for b in budgets)


def test_an_edgeless_chunk_inside_a_stack_counts_zero():
    rng = np.random.default_rng(3)
    q, size = 3, 65
    adj = random_graph(q * size, 0.5, rng)
    adj[size : 2 * size, :] = 0
    adj[:, size : 2 * size] = 0
    assert_stack_matches_each_chunk(adj, q, size, rng)
    rows = apps.triangle_rows(apps.GeometricGraph(adj).block_diagonal(q, size), q)
    assert rows.a_n[1] == 0.0 and not rows.projections[1].any()


@pytest.mark.parametrize("q,size", [(1, 130), (4, 65)])
def test_an_edgeless_graph_counts_zero(q, size):
    rows = apps.triangle_rows(apps.GeometricGraph(np.zeros((q * size,) * 2, dtype=np.int8)), q)
    assert not rows.a_n.any() and not rows.projections.any()
    weights = np.full(size, 0.5)
    assert rows.reweight(q - 1, weights) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(3, 140),
    st.sampled_from([0.0, 0.05, 0.3, 0.8, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_triangle_rows_of_random_stacks_equal_the_dense_oracles(q, size, density, seed):
    rng = np.random.default_rng(seed)
    assert_stack_matches_each_chunk(random_graph(q * size, density, rng), q, size, rng)


def test_triangle_density_complete_graph():
    adj = np.ones((30, 30), dtype=np.int8)
    np.fill_diagonal(adj, 0)
    g = apps.GeometricGraph(adj)
    rep = apps.private_triangle_density(g, eps=5.0, seed=5, budget=scratch_budget())
    assert not rep.is_bottom
    assert rep.diagnostics["edge_density"] == 1.0
    state = row_state(apps.triangle_rows(g, 1), HajekParams(5.0, 1.0, rep.diagnostics["xi"]))
    assert state.reweighted[0] == 1.0  # the statistic itself; output is 1 +- noise
    # replay seed 5: one uniform for the Laplace proxy, then the quartic draw
    rng = np.random.default_rng(5)
    rng.random()
    z = quartic_draws(1, rng)[0]
    assert rep.estimate == 1.0 + rep.noise_scale * z
    assert abs(rep.estimate - 1.0) > 0.0


def test_triangle_empty_graph_bottom_rate_matches_laplace():
    # with zero edge density the proxy is pure Laplace noise: bottom happens
    # with probability exactly 1/2
    n_graphs = 4000
    g = apps.GeometricGraph(np.zeros((12, 12), dtype=np.int8))
    rng = np.random.default_rng(6)
    bottoms = sum(
        apps.private_triangle_density(g, 1.0, rng, scratch_budget()).is_bottom
        for _ in range(n_graphs)
    )
    rate = bottoms / n_graphs
    assert rate == pytest.approx(0.5, abs=3 * math.sqrt(0.25 / n_graphs))


@pytest.mark.parametrize("q", [1, 3])
def test_triangle_densities_make_no_second_release_when_every_proxy_is_negative(q, monkeypatch):
    # an edgeless graph's proxies are pure Laplace noise, negative at some seeds
    size, eps = 12, 1.0
    chunks = apps.GeometricGraph(np.zeros((q * size,) * 2, dtype=np.int8))
    calls = mock.Mock(wraps=apps.release_rows)
    monkeypatch.setattr(apps, "release_rows", calls)
    all_negative = 0
    for seed in range(48):
        want_budgets = [pv.PrivacyBudget(5.0) for _ in range(q)]
        nu = dp.releases(dp.LAPLACE, [0.0] * q, [2.0 / size] * q, eps, want_budgets, seed,
                         "edge density proxy")[0].tolist()
        budgets = [pv.PrivacyBudget(5.0) for _ in range(q)]
        calls.reset_mock()
        reports = apps.private_triangle_densities(chunks, eps, seed, budgets)
        if max(nu) >= 0:  # a live chunk: one stacked release
            assert calls.call_count == 1
            continue
        all_negative += 1
        assert calls.call_count == 0
        assert [(r.estimate, r.bottom_reason, r.diagnostics) for r in reports] == [
            (None, f"edge-density proxy {v:.4g} < 0", {"nu": v, "edge_density": 0.0}) for v in nu
        ]
        assert [b.entries for b in budgets] == [b.entries for b in want_budgets]
    assert 0 < all_negative < 48


def test_triangle_budget_is_two_eps():
    budget = pv.PrivacyBudget(5.0)
    g = apps.sample_rgg(40, 0.8, seed=7)
    rep = apps.private_triangle_density(g, eps=1.0, seed=8, budget=budget)
    assert not rep.is_bottom
    assert budget.spent == pytest.approx(2.0)


def test_triangle_kernel_is_degenerate():
    # zeta_1 of the triangle kernel vanishes: E[h | one vertex] is constant
    r, trials = 0.8, 120_000
    rng = np.random.default_rng(9)
    # shared first point, two fresh pairs -> covariance at overlap c=1
    def draw(batch):
        pts = rng.standard_normal((batch, 5, 3))
        return pts / np.linalg.norm(pts, axis=2, keepdims=True)

    thr = 1 - r**2 / 2
    pts = draw(trials)
    def tri(a, b, c):
        return (
            (np.einsum("ij,ij->i", pts[:, a], pts[:, b]) >= thr)
            & (np.einsum("ij,ij->i", pts[:, a], pts[:, c]) >= thr)
            & (np.einsum("ij,ij->i", pts[:, b], pts[:, c]) >= thr)
        ).astype(float)

    first = tri(0, 1, 2)
    second = tri(0, 3, 4)
    prods = first * second
    theta_hat = 0.5 * (first.mean() + second.mean())
    z1 = prods.mean() - theta_hat**2
    influence = (prods - prods.mean()) - 2 * theta_hat * (0.5 * (first + second) - theta_hat)
    se = influence.std(ddof=1) / math.sqrt(trials)
    assert abs(z1) <= 3 * se + 1e-9


def test_edge_density_ustat_concentrates():
    # the edge statistic lands in [r^2/8, 3 r^2/8] with probability -> 1
    for n, min_rate in ((100, 0.9), (400, 1.0)):
        hits = 0
        for s in range(20):
            g = apps.sample_rgg(n, 0.3, seed=(n, s))
            u = csr_edge_density(g)
            hits += int(0.3**2 / 8 <= u <= 3 * 0.3**2 / 8)
        assert hits / 20 >= min_rate


def test_triangle_theta_oracle_in_analytic_band():
    # E[triangle] lies between the two conditional-probability bounds
    r = 0.3
    theta = rgg_triangle_theta(r, 400_000, seed=10)
    upper = (r**2 / 4) ** 2
    lower = (math.sqrt(3) / (8 * math.pi)) * r**2 * (r**2 / 4)
    assert lower * 0.9 <= theta <= upper * 1.1


def test_boosted_triangle_density_runs():
    g = apps.sample_rgg(120, 0.8, seed=11)
    budget = pv.PrivacyBudget(5.0)
    rep = apps.boosted_triangle_density(g, eps=1.0, alpha=0.5, seed=12, budget=budget)
    assert not rep.is_bottom
    assert budget.spent == pytest.approx(2.0)
