"""Experiment runner determinism, CLI behavior, audits with negative controls."""

import argparse
import dataclasses
import itertools
import math
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

import privustat as pv
from privustat import applications as apps, dp, hajek
from privustat.dp import quartic_cdf
from privustat.errors import AuditFailure, LedgerMismatch, PreconditionWarning
from privustat.hajek import hajek_rows
from privustat.harness import audits, cli, experiments
from privustat.harness.audits import SmoothnessReport
from privustat.harness.cli import main as cli_main
from privustat.harness.experiments import (
    CSV_COLUMNS,
    DistributionSpec,
    ExperimentSpec,
    rows_to_csv,
    run_experiment,
)

import oracles
from oracles import (
    constant_kernel,
    dense_adjacency,
    fresh_array_ks_gap,
    halved_bound_rows,
    kernel_pass_rows,
    loop_smoothness_audit,
    reference_noise_gap,
    without_counts,
)

# a NaN or inf reaching a sampler or an audit shows as a RuntimeWarning: fail on it
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

def small_spec(**overrides):
    base = dict(
        method="hajek",
        kernel="collision",
        dist=DistributionSpec("uniform", {"m": 10}),
        n_grid=[60, 120],
        eps_grid=[1.0],
        trials=3,
        seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_csv_is_byte_identical_across_reruns():
    a = rows_to_csv(run_experiment(small_spec()))
    b = rows_to_csv(run_experiment(small_spec()))
    assert a == b
    assert a.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_csv_seed_changes_rows():
    a = rows_to_csv(run_experiment(small_spec()))
    b = rows_to_csv(run_experiment(small_spec(seed=8)))
    assert a != b


def test_one_cell_one_trial_tiny_noise_at_huge_eps():
    # clip-release estimator with huge eps: error is the statistic's own noise
    spec = small_spec(method="all", n_grid=[200], trials=1, eps_grid=[10**6])
    rows = list(run_experiment(spec))
    assert len(rows) == 1
    row = rows[0]
    assert row.error == ""
    assert row.abs_error < 0.01


def test_rows_cover_grid_in_order():
    spec = small_spec()
    rows = list(run_experiment(spec))
    assert [(r.n, r.trial) for r in rows] == [
        (60, 0), (60, 1), (60, 2), (120, 0), (120, 1), (120, 2)
    ]


def test_all_methods_produce_rows():
    for method in ("naive", "all", "subsampled", "hajek"):
        spec = small_spec(method=method, n_grid=[40], trials=2)
        rows = list(run_experiment(spec))
        assert len(rows) == 2
        assert all(r.error == "" for r in rows), rows[0].error


@pytest.mark.parametrize("alpha", [None, 0.5])
def test_default_subsample_size_meets_the_recommended_size(alpha):
    # without M the runner draws ceil((n/k) log n) subsets; int() fell short
    # of (n/k) log n, so every default trial warned, chunk runs included
    spec = small_spec(method="subsampled", kernel="pair_mean", dist=DistributionSpec("gaussian", {}),
                      n_grid=[60, 500], trials=1, alpha_grid=[alpha])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PreconditionWarning)
        rows = list(run_experiment(spec))
    assert all(r.error == "" for r in rows), rows[0].error
    assert not [w for w in caught if issubclass(w.category, PreconditionWarning)
                and str(w.message).startswith("subsample size below")]


def test_wrapped_run_uses_median_of_means():
    spec = small_spec(method="all", n_grid=[150], trials=1, alpha_grid=[0.5])
    (row,) = list(run_experiment(spec))
    assert row.error == ""
    assert row.alpha == 0.5


@pytest.mark.parametrize(
    "spends,bottom,error",
    [
        ((1.0, 1.0), False, "LedgerMismatch: release spent"),  # 2 eps for a release
        ((0.5,), False, "LedgerMismatch: release spent"),  # short of eps
        ((1.0, 1.0), True, "LedgerMismatch: bottom spent"),  # 2 eps before refusing
        ((0.5,), True, "bottom: refused"),  # a bottom may spend less than eps
        ((1.0,), False, ""),
    ],
)
def test_trial_ledger_is_checked_against_the_cell_eps(monkeypatch, spends, bottom, error):
    def dispatch(spec, kernel, data, cell, rng, budget):
        eps = cell[1]
        for fraction in spends:
            budget.spend("stub release", fraction * eps)
        if bottom:
            return pv.EstimateReport(None, bottom_reason="refused")
        return pv.EstimateReport(0.1)

    monkeypatch.setattr(experiments, "run_single", dispatch)
    (row,) = list(run_experiment(small_spec(n_grid=[40], trials=1, eps_grid=[0.8])))
    assert row.error.startswith(error) if error else row.error == ""


@pytest.mark.parametrize("fails_in", ["run_single", "check_trial_ledger"])
def test_a_raising_trial_keeps_what_it_released(monkeypatch, fails_in):
    # a run that raised released nothing; a release whose ledger fails the
    # check keeps its outputs beside the error
    def fail(*args):
        raise LedgerMismatch("stub")

    def dispatch(spec, kernel, data, cell, rng, budget):
        return pv.EstimateReport(0.1, radius=0.2, noise_scale=0.3, diagnostics={"L": 2, "n_bad": 1})

    monkeypatch.setattr(experiments, "run_single", dispatch)
    monkeypatch.setattr(experiments, fails_in, fail)
    (row,) = list(run_experiment(small_spec(n_grid=[40], trials=1)))
    assert row.error == "LedgerMismatch: stub"
    released = (row.estimate, row.radius, row.noise_scale, row.spread_level, row.n_bad)
    assert released == ((None,) * 5 if fails_in == "run_single" else (0.1, 0.2, 0.3, 2, 1))


def test_timing_column_optional():
    spec = small_spec(n_grid=[40], trials=1)
    plain = rows_to_csv(run_experiment(spec))
    timed = rows_to_csv(run_experiment(spec), include_timing=True)
    assert "wall_time" not in plain.splitlines()[0]
    assert timed.splitlines()[0].endswith("wall_time")


def test_degenerate_sweep_ordering_via_runner():
    # medians from the grid runner show the reweighting estimator ahead of
    # clip-and-release on the degenerate kernel at every n of a small sweep
    common = dict(
        kernel="collision",
        dist=DistributionSpec("uniform", {"m": 100}),
        n_grid=[250, 500],
        eps_grid=[1.0],
        trials=40,
        seed=99,
        r_bound=1.0,
        tau=0.25,
    )
    hajek_rows = list(run_experiment(ExperimentSpec(method="hajek", **common)))
    all_rows = list(run_experiment(ExperimentSpec(method="all", **common)))
    for n in common["n_grid"]:
        med_h = np.median([r.abs_error for r in hajek_rows if r.n == n])
        med_a = np.median([r.abs_error for r in all_rows if r.n == n])
        assert med_h < med_a


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_usage_error_exit_code(capsys):
    # bad flag values exit 1 (argparse's default would be 2, reserved for audits)
    with pytest.raises(SystemExit) as exc:
        cli_main(["estimate", "--method", "nonsense", "--simulate", "gaussian,n=10"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_cli_requires_data_or_simulate(capsys):
    code = cli_main(["estimate", "--method", "naive"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_estimate_simulated(capsys):
    code = cli_main([
        "estimate", "--method", "naive", "--kernel", "identity",
        "--simulate", "gaussian,n=400,mu=0.5", "--R", "4", "--tau", "1",
        "--eps", "1", "--seed", "3",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "estimate" in captured.out
    assert "privacy ledger" in captured.err


def test_cli_estimate_nan_eps_is_a_usage_error(capsys):
    code = cli_main(["estimate", "--method", "naive", "--simulate", "gaussian,n=50", "--eps", "nan"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: epsilon must be finite and > 0\n"
    assert "estimate" not in captured.out


def test_cli_estimate_collision_reads_m_from_simulate_spec(capsys):
    argv = ["estimate", "--method", "hajek", "--kernel", "collision",
            "--simulate", "uniform,n=500,m=50", "--seed", "3"]
    assert cli_main(argv) == 0
    assert capsys.readouterr().out.startswith("estimate ")


def test_cli_estimate_takes_no_m(capsys):
    # the Hájek release reads the labels' own counts; a category count has
    # no reader, so --m (an abbreviation of --method here) is a usage error
    argv = ["estimate", "--method", "hajek", "--kernel", "collision", "--simulate", "uniform,n=500,m=5"]
    assert cli_code(argv + ["--m", "5"]) == 1
    assert capsys.readouterr().out == ""


def test_cli_estimate_collision_reads_labels_of_any_size(tmp_path, capsys):
    # no [0, m) check on the estimate path: labels past 10, negative or
    # fractional ones release, and the labels' values only name categories
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 40, 500)
    runs = []
    for name, values in (("codes", codes), ("spread", codes * 1000.5 - 7000)):
        labels = tmp_path / f"{name}.txt"
        labels.write_text("".join(f"{v}\n" for v in values.tolist()))
        assert cli_main(["estimate", "--method", "hajek", "--kernel", "collision",
                         "--data", str(labels), "--seed", "2"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0].startswith("estimate ") and runs[1] == runs[0]


def test_cli_estimate_all_collision_past_the_enumeration_cap_releases(capsys):
    # C(20000, 2) subsets are past the cap, but the collision kernel runs on
    # value counts and enumerates none; a kernel that needs the pass is refused
    simulate = ["--method", "all", "--eps", "1", "--seed", "3"]
    assert cli_main(["estimate", "--kernel", "collision", "--simulate", "uniform,n=20000,m=100"] + simulate) == 0
    assert capsys.readouterr().out.startswith("estimate ")
    assert cli_main(["estimate", "--kernel", "pair_mean", "--simulate", "gaussian,n=20000"] + simulate) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: CombinatorialOverflow: C(20000,2) = 199990000 exceeds the cap 100000000; "
        "use subsample_family instead\n"
    )


@pytest.mark.parametrize("method", experiments.METHODS)
def test_spec_refuses_a_range_other_than_the_kernels_before_sampling(method, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("data sampled")

    monkeypatch.setattr(experiments.DistributionSpec, "sample", no_sampling)
    with pytest.raises(ValueError, match="^C must be 1, the collision kernel's finite range; got 0.5$"):
        small_spec(method=method, c_range=0.5)
    # a kernel with no declared range takes any
    assert small_spec(method=method, kernel="pair_mean", c_range=0.5).c_range == 0.5


def test_cli_uniformity_accept_and_reject(capsys):
    code = cli_main([
        "uniformity-test", "--m", "30", "--delta", "0.5", "--eps", "1",
        "--simulate", "n=40000,kind=uniform", "--seed", "5",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "decision accept" in out
    code = cli_main([
        "uniformity-test", "--m", "30", "--delta", "0.5", "--eps", "1",
        "--simulate", "n=40000,kind=split,a=0.9", "--seed", "5",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "decision reject" in out


def test_cli_rgg_bottom_exit_code(tmp_path, capsys):
    # an empty graph with an unlucky seed gives a negative proxy -> exit 3
    path = tmp_path / "empty.txt"
    path.write_text("1 2\n")  # two nodes, one edge, n=2 -> still tiny density
    codes = set()
    for seed in range(12):
        g = tmp_path / "g.txt"
        g.write_text("1 2\n3 4\n")  # n=4, two disjoint edges
        codes.add(cli_main(["rgg-triangles", "--graph", str(g), "--eps", "0.5",
                            "--seed", str(seed)]))
    capsys.readouterr()
    assert 3 in codes  # bottom observed
    assert codes <= {0, 3}


@pytest.mark.parametrize("text", ["0 2\n3 5\n", ""], ids=["zero-label", "empty"])
def test_cli_rgg_bad_edge_list_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    code = cli_main(["rgg-triangles", "--graph", str(path), "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert str(path) in captured.err and "privacy ledger" not in captured.err
    assert captured.out == ""


def test_cli_estimate_on_a_nan_line_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "reals.txt"
    path.write_text("0.1\n0.5\nnan\n0.3\n")
    code = cli_main(["estimate", "--method", "hajek", "--data", str(path), "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert f"{path} line 3" in captured.err and "finite" in captured.err
    assert "privacy ledger" not in captured.err and captured.out == ""


@pytest.mark.parametrize("method", ["all", "naive"])
def test_cli_clip_and_release_releases_both_overflow_neighbours(method, tmp_path, capsys):
    # one record at 1.7e308 leaves every pair mean finite; two make one
    # overflow, which the first halving step clips
    x = np.random.default_rng(0).normal(0.0, 1.0, 200)
    for records in (1, 2):
        x[:records] = 1.7e308
        path = tmp_path / f"reals{records}.txt"
        path.write_text("\n".join(map(repr, x.tolist())) + "\n")
        code = cli_main(["estimate", "--kernel", "pair_mean", "--seed", "1", "--method", method,
                         "--data", str(path)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert any(line.startswith("estimate ") for line in captured.out.splitlines())


@pytest.mark.parametrize("text", ["1\n2\nx\n", "1\n\n-2\n"], ids=["not-a-number", "negative"])
def test_cli_uniformity_bad_label_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "labels.txt"
    path.write_text(text)
    code = cli_main(["uniformity-test", "--data", str(path), "--m", "5", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert f"{path} line 3" in captured.err and "non-negative integer label" in captured.err
    assert "privacy ledger" not in captured.err and captured.out == ""


def test_cli_audit_exit_codes(monkeypatch, capsys):
    ok = cli_main(["audit-smoothness", "--n", "4", "--eps", "1.0", "--xi", "0.0"])
    assert ok == 0
    # the 5 binary multisets of size 4 and their 8 ordered neighbour pairs
    assert "smoothness audit ok\ndatasets 5\npairs 8\n" in capsys.readouterr().out
    monkeypatch.setattr(audits, "hajek_rows", halved_bound_rows)
    bad = cli_main(["audit-smoothness", "--n", "5", "--eps", "1.0", "--xi", "0.0"])
    assert bad == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--xi", "--C"])
def test_cli_estimate_hajek_non_finite_radius_is_a_usage_error(flag, capsys):
    code = cli_main(["estimate", "--method", "hajek", "--kernel", "collision",
                     "--simulate", "uniform,n=200", flag, "nan"])
    captured = capsys.readouterr()
    assert code == 1
    assert "finite" in captured.err
    assert "estimate" not in captured.out


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--simulate", "gaussian,n=100", "--R", "inf"], "range bound must be finite"),
    (["estimate", "--simulate", "gaussian,n=100", "--R", "nan"], "range bound must be finite"),
    (["estimate", "--simulate", "gaussian,n=100", "--tau", "inf"], "deviation bound must be finite"),
    (["estimate", "--method", "subsampled", "--simulate", "gaussian,n=100", "--tau", "nan"],
     "deviation bound must be finite"),
    (["simulate", "--dist", "half_split", "--amplitude", "nan", "--n-grid", "40", "--trials", "1"],
     "perturbations must be finite"),
    (["estimate", "--simulate", "gaussian,n=100", "--tau", "-1"],
     "variance proxy must be >= 0, got -1.0"),
    (["estimate", "--method", "hajek", "--kernel", "pair_mean", "--simulate", "gaussian,n=100",
      "--C", "-1"], "kernel range C must be >= 0, got -1.0"),
    (["estimate", "--simulate", "gaussian,n=200,sigma=-1"], "sigma must be >= 0, got -1.0"),
    (["estimate", "--simulate", "uniform,n=200,m=0"], "need at least one category, got m = 0"),
    (["estimate", "--method", "subsampled", "--simulate", "gaussian,n=100", "--M", "0"],
     "need at least one subset"),
    (["simulate", "--method", "subsampled", "--kernel", "pair_mean", "--dist", "gaussian",
      "--M-grid", "0", "--n-grid", "100", "--trials", "1"], "need at least one subset"),
    (["estimate", "--method", "hajek", "--kernel", "pair_mean", "--simulate", "gaussian,n=100",
      "--eps", "inf"], "epsilon must be finite and > 0"),
    (["estimate", "--method", "all", "--simulate", "gaussian,n=100", "--eps", "inf"],
     "epsilon must be finite and > 0"),
    (["estimate", "--method", "naive", "--simulate", "gaussian,n=100", "--eps", "inf"],
     "epsilon must be finite and > 0"),
    (["uniformity-test", "--m", "5", "--simulate", "n=200", "--eps", "inf"],
     "epsilon must be finite and > 0"),
    (["rgg-triangles", "--simulate", "n=100", "--eps", "inf"], "epsilon must be finite and > 0"),
], ids=["R-inf", "R-nan", "tau-inf", "tau-nan", "amplitude-nan", "tau-negative", "C-negative",
        "sigma-negative", "m-zero", "estimate-M-zero", "simulate-M-zero", "hajek-eps-inf",
        "all-eps-inf", "naive-eps-inf", "uniformity-eps-inf", "rgg-eps-inf"])
def test_cli_non_finite_bounds_are_one_line_usage_errors(argv, message, capsys):
    # the package's own ValueError, raised before any spend: one error line,
    # no traceback, no ledger and no output (an M of 0 is a size, not "unset")
    code = cli_main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag, value", [("--xi", "nan"), ("--eps", "inf")])
def test_cli_audit_smoothness_bad_parameter_is_a_usage_error(flag, value, capsys):
    code = cli_main(["audit-smoothness", "--n", "6", flag, value])
    captured = capsys.readouterr()
    assert code == 1
    assert "finite" in captured.err
    assert "audit ok" not in captured.out


def test_cli_audit_smoothness_takes_no_range(capsys):
    # the audit runs the collision kernel, whose range is 1; a verdict at
    # any other C would be one on a release that no command runs
    code = cli_code(["audit-smoothness", "--n", "6", "--C", "0.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert "unrecognized arguments: --C 0.5" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("eps", ["inf", "nan", "-1", "0"])
def test_cli_fixture_adversarial_bad_eps_is_a_usage_error(eps, capsys):
    # at eps = inf the fixture had no flips and a zero gap, and passed
    code = cli_main(["fixture-adversarial", "--n", "60", "--k", "2", "--eps", eps])
    captured = capsys.readouterr()
    assert code == 1
    assert "error: epsilon must be finite and > 0" in captured.err
    assert "ok" not in captured.out


@pytest.mark.parametrize("argv", [
    ["estimate", "--method", method, "--simulate", "gaussian,n=100", "--eps", "-1"]
    for method in ("all", "naive", "subsampled")
] + [["simulate", "--n-grid", "100", "--trials", "1", "--eps-grid", "-1"]],
    ids=["all", "naive", "subsampled", "simulate"])
def test_cli_clip_and_release_bad_eps_fails_before_any_warning(argv, capsys):
    # epsilon is checked before the halving preconditions, which would
    # otherwise warn about a bound computed from the negative epsilon
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PreconditionWarning)
        code = cli_main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines()[-1] == "error: epsilon must be finite and > 0"
    assert [str(w.message) for w in caught if issubclass(w.category, PreconditionWarning)] == []


def test_cli_simulate_csv_round_trip(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = cli_main([
        "simulate", "--method", "all", "--kernel", "collision", "--dist", "uniform",
        "--m", "8", "--n-grid", "40,60", "--eps-grid", "1.0", "--trials", "2",
        "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 4
    capsys.readouterr()


def test_cli_simulate_reports_checked_ledgers(capsys):
    code = cli_main([
        "simulate", "--method", "naive", "--kernel", "collision", "--dist", "uniform",
        "--n-grid", "40,60", "--eps-grid", "0.5,1.0", "--trials", "3", "--seed", "2",
    ])
    captured = capsys.readouterr()
    assert code == 0
    rows = captured.out.splitlines()[1:]
    assert len(rows) == 12 and not any("LedgerMismatch" in row for row in rows)
    assert captured.err.startswith("privacy ledger: 12 trial ledgers checked")
    assert "0.5, 1.0" in captured.err


def user_data_files(tmp_path):
    rng = np.random.default_rng(21)
    reals, labels, edges = tmp_path / "reals.txt", tmp_path / "labels.txt", tmp_path / "edges.txt"
    reals.write_text("".join(f"{v!r}\n" for v in rng.normal(0.3, 1.0, 600).tolist()))
    labels.write_text("".join(f"{v}\n" for v in rng.integers(0, 10, 900).tolist()))
    graph = pv.sample_rgg(150, 0.6, rng)
    rows, cols = np.nonzero(np.triu(dense_adjacency(graph), 1))
    edges.write_text("".join(f"{i + 1} {j + 1}\n" for i, j in zip(rows, cols)))
    return str(reals), str(labels), str(edges)


RELEASED_KEYS = {"estimate", "radius", "decision", "statistic", "threshold"}
DEBUG_FIELDS = ("L", "n_bad", "a_n", "smooth_bound", "edge_density", "nu", "xi", "reweighted")


@pytest.mark.filterwarnings("ignore::privustat.errors.PreconditionWarning")
def test_cli_default_output_on_user_data_is_released_only(tmp_path, capsys):
    reals, labels, edges = user_data_files(tmp_path)
    runs = []
    for alpha in ([], ["--alpha", "0.3"]):
        for method in ("naive", "all", "subsampled", "hajek"):
            runs.append(["estimate", "--method", method, "--data", reals, "--R", "4", "--tau", "1"] + alpha)
        runs.append(["estimate", "--method", "hajek", "--kernel", "collision", "--data", labels] + alpha)
        runs.append(["uniformity-test", "--data", labels, "--m", "10"] + alpha)
        runs.append(["rgg-triangles", "--graph", edges] + alpha)
    for argv in runs:
        for seed in ("1", "2"):
            code = cli_main(argv + ["--seed", seed])
            captured = capsys.readouterr()
            assert code in (0, 3), (argv, captured.err)
            for line in captured.out.splitlines():
                key, value = line.split()
                assert key in RELEASED_KEYS, (argv, line)
            for line in captured.err.splitlines():
                ledger = line.startswith("privacy ledger: spent ") or line.startswith("  ")
                assert ledger or line.startswith("bottom: "), (argv, line)
                tokens = line.replace(":", " ").replace("=", " ").split()
                assert not set(DEBUG_FIELDS) & set(tokens), (argv, line)


def test_cli_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 30\ndelta = 0.5\neps = 1.0\nseed = 5\nsimulate = n=30000,kind=uniform\n")
    code = cli_main(["uniformity-test", "--config", str(cfg)])
    assert code == 0
    first = capsys.readouterr().out
    # flag overrides the config seed; a different simulation size changes output
    code = cli_main(["uniformity-test", "--config", str(cfg), "--simulate", "n=30200,kind=uniform"])
    second = capsys.readouterr().out
    assert code == 0
    assert first != second


@pytest.mark.parametrize("form", ["separate", "joined"])
def test_cli_config_file_is_read_in_both_flag_forms(tmp_path, capsys, form):
    # --config FILE and --config=FILE stand for the same flags
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = all\nsimulate = gaussian,n=200,mu=0.5\nR = 4\n")
    config = ["--config", str(cfg)] if form == "separate" else [f"--config={cfg}"]
    assert cli_main(["estimate", "--seed", "3"] + config) == 0
    from_config = capsys.readouterr().out
    assert cli_main(["estimate", "--method", "all", "--simulate", "gaussian,n=200,mu=0.5",
                     "--R", "4", "--seed", "3"]) == 0
    assert capsys.readouterr().out == from_config != ""


@pytest.mark.parametrize("argv", [
    ["estimate", "--method", "hajek", "--kernel", "collision", "--data", "missing-labels.txt"],
    ["simulate", "--method", "hajek", "--kernel", "collision", "--n-grid", "100", "--trials", "1"],
    ["simulate", "--method", "all", "--n-grid", "100", "--trials", "1"],
], ids=["estimate", "simulate-hajek", "simulate-all"])
@pytest.mark.parametrize("c", ["5", "0.5", "0", "nan"])
def test_cli_collision_kernel_refuses_a_range_other_than_one(argv, c, capsys, monkeypatch):
    # the collision releases run at C = 1 while --C moved the radius; the
    # refusal comes before any data are read (the estimate's file does not
    # exist) or sampled
    def no_sampling(*args):
        raise AssertionError("data sampled")

    monkeypatch.setattr(experiments.DistributionSpec, "sample", no_sampling)
    code = cli_main(argv + ["--C", c])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: --C must be 1, the collision kernel's finite range; got {float(c)}\n"


def cli_code(argv) -> int:
    """The exit code of a CLI run, argparse's usage exits included."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("line", ["sede = 5", "seed = 5.5", "R = 4", "r = 4", "m: 10"])
def test_cli_config_line_that_is_not_a_flag_is_a_usage_error(tmp_path, capsys, line):
    # uniformity-test has no --R; "r" is the dest of another command's --R
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"m = 10\nsimulate = n=2000,kind=uniform\n{line}\n")
    assert cli_code(["uniformity-test", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, line, flags", [
    (["estimate", "--method", "all", "--simulate", "gaussian,n=200,mu=0.5", "--seed", "3"],
     "R = 4", ["--R", "4"]),
    (["simulate", "--method", "subsampled", "--kernel", "pair_mean", "--dist", "gaussian",
      "--n-grid", "60", "--trials", "1"], "M-grid = 40", ["--M-grid", "40"]),
    (["simulate", "--method", "subsampled", "--kernel", "pair_mean", "--dist", "gaussian",
      "--n-grid", "60", "--trials", "1"], "M_grid = 40", ["--M-grid", "40"]),
])
def test_cli_config_flag_name_key_takes_effect(tmp_path, capsys, argv, line, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert cli_main(argv + ["--config", str(cfg)]) == 0
    from_config = capsys.readouterr().out
    assert cli_main(argv + flags) == 0
    assert capsys.readouterr().out == from_config
    assert cli_main(argv) == 0
    assert capsys.readouterr().out != from_config


def test_cli_config_true_sets_a_switch_and_false_leaves_it_off(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    argv = ["simulate", "--method", "naive", "--n-grid", "40", "--trials", "1", "--config", str(cfg)]
    for value, timed in (("true", True), ("false", False)):
        cfg.write_text(f"timing = {value}\n")
        assert cli_main(argv) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.endswith(",wall_time") == timed


def test_cli_simulate_eps_is_the_eps_grid(capsys):
    # simulate has no --eps of its own; argparse reads the prefix as --eps-grid
    code = cli_main(["simulate", "--method", "naive", "--n-grid", "40", "--trials", "2",
                     "--eps", "0.5"])
    rows = capsys.readouterr().out.splitlines()
    assert code == 0
    column = CSV_COLUMNS.index("eps")
    assert [row.split(",")[column] for row in rows[1:]] == ["0.5", "0.5"]


SMALL_RUNS = {
    "estimate": ["--method", "all", "--simulate", "gaussian,n=100,mu=0.5"],
    "simulate": ["--method", "naive", "--n-grid", "40", "--trials", "1"],
    "uniformity-test": ["--m", "10", "--simulate", "n=2000,kind=uniform"],
    "rgg-triangles": ["--simulate", "n=150,r=0.6"],
    "audit-smoothness": ["--n", "3"],
    "audit-noise": ["--draws", "100000"],
    "fixture-adversarial": [],
}


@pytest.mark.filterwarnings("ignore::privustat.errors.PreconditionWarning")
@pytest.mark.parametrize("command", cli.HANDLERS)
def test_cli_command_reads_every_flag_it_takes(command, capsys):
    # a command added without a small run fails here on the lookup
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    args = cli.build_parser().parse_args([command] + SMALL_RUNS[command], namespace=Recording())
    read.clear()  # what argparse itself looked at
    assert cli.HANDLERS[command](args) == 0
    capsys.readouterr()
    assert set(vars(args)) - {"command"} - read == set()


def test_cli_reuses_one_parser_and_repeats_each_run_byte_for_byte(tmp_path, capsysbinary):
    # one parser serves the process: neither a parse nor a usage error's exit
    # changes it, so a command run again prints the same bytes
    assert cli.build_parser() is cli.build_parser()
    labels, graph = tmp_path / "labels.txt", tmp_path / "graph.txt"
    labels.write_text("".join(f"{v}\n" for v in np.random.default_rng(0).integers(0, 10, 2000)))
    oracles.write_edge_list(apps.sample_rgg(150, 0.6, seed=1), graph)
    with open(graph, "a") as fh:
        fh.write("2 1\n1 2\n")  # a repeated edge, both ways
    runs = [["uniformity-test", "--m", "10", "--data", str(labels), "--seed", "3"],
            ["rgg-triangles", "--graph", str(graph), "--seed", "3"]]

    def run(argv):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsysbinary.readouterr()
        return code, captured.out, captured.err

    first = [run(argv) for argv in runs]
    assert [code for code, _, _ in first] == [0, 0]
    code, out, err = run(["estimate", "--method", "nope"])
    assert code == 1 and out == b"" and b"invalid choice: 'nope'" in err
    assert [run(argv) for argv in runs] == first


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "privustat.harness.cli", "audit-noise", "--law", "laplace",
         "--draws", "100000", "--seed", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ok True" in proc.stdout


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def test_fixture_values_direct_combinatorics():
    fix = audits.adversarial_fixture(60, 2, 0.5)
    assert fix.ones == 11 and fix.flips == 2
    assert fix.xi == pytest.approx(12 / 59)
    assert fix.gap == pytest.approx(23 / 1770)
    assert fix.gap >= fix.gap_lower_bound
    margins = audits.fixture_projection_margins(fix)
    assert margins["direct_gap"] == pytest.approx(fix.gap, rel=1e-12)
    assert margins["base"]["max_abs_projection_deviation"] <= fix.xi
    assert margins["shifted"]["max_abs_projection_deviation"] <= fix.xi


def test_fixture_differs_in_exactly_flip_count_positions():
    fix = audits.adversarial_fixture(60, 2, 0.5)
    assert int(np.sum(fix.base.points != fix.shifted.points)) == fix.flips


def test_smoothness_audit_constant_kernel_trivially_passes():
    rep = audits.smoothness_audit(
        n=4, eps=1.0, xi=0.0, c_range=0.0, kernel=constant_kernel(1.0, 2)
    )
    assert rep.ok
    assert rep.worst_dominance_margin >= 0.0


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_smoothness_audit_fails_on_a_non_finite_kernel(value):
    # an inf reweighted mean moves to its neighbour's by inf - inf = NaN
    kernel = constant_kernel(value, 2)
    with np.errstate(invalid="ignore"), pytest.raises(AuditFailure, match="dominance violated .* nan"):
        audits.smoothness_audit(n=4, eps=1.0, xi=0.0, c_range=0.0, kernel=kernel)


def test_smoothness_audit_fails_on_a_nan_bound(monkeypatch):
    def nan_bound(rows, params):
        states = hajek_rows(rows, params)
        states.smooth_bound[:] = math.nan
        return states

    monkeypatch.setattr(audits, "hajek_rows", nan_bound)
    with pytest.raises(AuditFailure, match="dominance violated") as exc:
        audits.smoothness_audit(n=4, eps=1.0, xi=0.0)
    # both checks on every ordered pair of the 5 binary multisets of size 4
    assert f"({2 * 8} violations total)" in str(exc.value)


def test_smoothness_audit_equality_kernel_positive_margins():
    rep = audits.smoothness_audit(n=5, eps=1.0, xi=0.0, c_range=1.0)
    assert rep.ok
    assert rep.worst_dominance_margin > 0
    assert rep.worst_smoothness_margin > 0
    # j ones go to j - 1 or j + 1 ones
    assert (rep.datasets, rep.pairs_checked) == (6, 2 * 5)


@pytest.mark.parametrize("n, alphabet", [(10, (0, 1)), (6, (0, 1, 2)), (4, (0, 1, 2, 3))])
def test_smoothness_audit_runs_the_engine_once_per_multiset(monkeypatch, n, alphabet):
    calls = mock.Mock(wraps=hajek_rows)
    monkeypatch.setattr(audits, "hajek_rows", calls)
    rep = audits.smoothness_audit(n=n, eps=1.0, xi=0.1, alphabet=alphabet)
    r = len(alphabet)
    (rows, _), _ = calls.call_args
    assert calls.call_count == 1
    assert rows.a_n.shape == (rep.datasets,) and rep.datasets == math.comb(n + r - 1, r - 1)
    # an ordered pair per letter present and letter it can become
    present = sum(len(set(m)) for m in itertools.combinations_with_replacement(range(r), n))
    assert rep.pairs_checked == present * (r - 1)


@pytest.mark.parametrize("kwargs", [
    dict(n=10, eps=1.0, xi=0.1),
    dict(n=13, eps=1.0, xi=0.0),  # the known dominance misses
    dict(n=12, eps=0.5, xi=0.0, c_range=0.3),
    dict(n=8, eps=1.0, xi=0.0, alphabet=(0, 1, 2), kernel=pv.equality_kernel(3)),
    dict(n=7, eps=2.0, xi=0.05, alphabet=(-0.0, 0.0, 1.0, math.nan)),
], ids=lambda kwargs: ",".join(f"{k}={getattr(v, 'name', v)}" for k, v in kwargs.items()))
def test_smoothness_audit_stack_equals_the_kernel_pass(monkeypatch, kwargs):
    # the audit's equality kernels run on value counts; the kernel pass over
    # the same multisets must give the same L, n_bad and smooth bounds bit
    # for bit, and reweighted means that differ only by rounding
    calls = mock.Mock(wraps=hajek_rows)
    monkeypatch.setattr(audits, "hajek_rows", calls)
    try:
        audits.smoothness_audit(**kwargs)
    except AuditFailure:
        pass
    (rows, params), _ = calls.call_args
    got = hajek_rows(rows, params)
    alphabet = kwargs.get("alphabet", (0, 1))
    kernel = kwargs.get("kernel", pv.collision_kernel())
    datasets = np.asarray(alphabet, dtype=float)[
        np.array(list(itertools.combinations_with_replacement(range(len(alphabet)), kwargs["n"])))
    ]
    want = hajek_rows(kernel_pass_rows(kernel, datasets, pv.all_tuples(kwargs["n"], kernel.degree)), params)
    # one column per value, not per index
    assert rows.multiplicity.strides != (0, 0) and (rows.multiplicity.sum(axis=1) == kwargs["n"]).all()
    if any(map(math.isnan, alphabet)):
        # the two values 0.0 (= -0.0) and 1.0, then the n NaNs of the all-NaN multiset
        assert rows.projections.shape[1] == 2 + kwargs["n"]
    for name in ("a_n", "spread_level", "n_bad", "smooth_bound"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    np.testing.assert_allclose(got.reweighted, want.reweighted, rtol=1e-13, atol=0)


def no_summary(*args):
    raise AssertionError("the audit summarised a stack past its cap")


def test_smoothness_audit_past_the_value_cap_raises_before_any_kernel_pass(monkeypatch):
    monkeypatch.setattr(hajek, "means_and_projections", no_summary)
    monkeypatch.setattr(audits, "summary_rows", no_summary)
    # 324 binary multisets of n = 323, C(323, 2) values each, for a kernel
    # that takes the kernel pass
    assert 324 * math.comb(323, 2) > audits.AUDIT_VALUE_CAP
    with pytest.raises(ValueError, match="kernel values, over the cap"):
        audits.smoothness_audit(n=323, eps=1.0, xi=0.0, kernel=without_counts(pv.collision_kernel()))


def test_smoothness_audit_past_the_stack_cap_raises_before_its_stack_is_built(monkeypatch):
    # the collision kernel runs on value counts and evaluates no kernel
    # value, so its cap is on the (multisets, n) stack: 2049 binary
    # multisets of n = 2048 are past it, and 2048 of n = 2047 are not (a
    # ternary stack at n = 10^6 would not fit in memory, were it built)
    monkeypatch.setattr(audits, "summary_rows", no_summary)
    assert 2049 * 2048 > audits.AUDIT_STACK_CAP >= 2048 * 2047
    with pytest.raises(ValueError, match="would take 4196352 stack entries, over the cap"):
        audits.smoothness_audit(n=2048, eps=1.0, xi=0.0)
    with pytest.raises(ValueError, match="stack entries, over the cap"):
        audits.smoothness_audit(n=10**6, eps=1.0, xi=0.0, alphabet=(0, 1, 2))
    assert cli_main(["audit-smoothness", "--n", "2048"]) == 1


def test_smoothness_audit_value_cap_counts_multisets_times_subsets(monkeypatch):
    # binary data at n = 40: 41 multisets of C(40, 2) = 780 values
    kwargs = dict(n=40, eps=1.0, xi=0.0, c_range=0.0, kernel=constant_kernel(0.5, 2))
    monkeypatch.setattr(audits, "AUDIT_VALUE_CAP", 41 * 780 - 1)
    with pytest.raises(ValueError, match="31980 kernel values"):
        audits.smoothness_audit(**kwargs)
    monkeypatch.setattr(audits, "AUDIT_VALUE_CAP", 41 * 780)
    assert audits.smoothness_audit(**kwargs).datasets == 41


@pytest.mark.parametrize("n, violations", [(13, 12), (40, 34), (1000, 156)])
def test_smoothness_audit_known_dominance_misses_past_n_12(n, violations):
    # the smooth bound does not dominate the reweighted mean's change where
    # L moves (binary collision data, eps = 1, xi = 0); kept visible until
    # the bound is fixed, up to the acceptance tests' n
    with pytest.raises(AuditFailure, match=f"^dominance .*\\({violations} violations total\\)$"):
        audits.smoothness_audit(n=n, eps=1.0, xi=0.0)


def test_cli_audit_past_n_12_runs_and_fails_on_the_known_miss(capsys):
    assert cli_main(["audit-smoothness", "--n", "13", "--eps", "1.0", "--xi", "0.0"]) == 2
    assert "audit failure: dominance violated" in capsys.readouterr().err


def test_smoothness_audit_leaves_out_only_the_non_finite_multisets(monkeypatch):
    # multisets holding inf have an inf a_n and get NaN; the rest are audited
    calls = mock.Mock(wraps=hajek_rows)
    monkeypatch.setattr(audits, "hajek_rows", calls)
    kwargs = dict(n=4, eps=1.0, xi=0.0, alphabet=(0, 1, math.inf), kernel=pv.mean_kernel(2))
    with np.errstate(invalid="ignore"):
        with pytest.raises(AuditFailure):
            audits.smoothness_audit(**kwargs)
        (rows, _), _ = calls.call_args
        assert rows.a_n.shape == (5,)  # the 5 multisets of 0s and 1s
        assert_audit_equals_the_loop_audit_modulo_permutation(monkeypatch, **kwargs)


def test_smoothness_audit_fault_injection_fails(monkeypatch):
    monkeypatch.setattr(audits, "hajek_rows", halved_bound_rows)
    with pytest.raises(AuditFailure):
        audits.smoothness_audit(n=5, eps=1.0, xi=0.0, c_range=1.0)


def audit_run(monkeypatch, audit, **kwargs):
    """(report, failure message or None) of an audit, raising or not."""
    reports = []

    def record(**fields):
        reports.append(SmoothnessReport(**fields))
        return reports[-1]

    with monkeypatch.context() as patched:
        for module in (audits, oracles):
            patched.setattr(module, "SmoothnessReport", record)
        try:
            audit(**kwargs)
        except AuditFailure as exc:
            return reports[-1], str(exc)
    return reports[-1], None


def close(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def assert_audit_equals_the_loop_audit_modulo_permutation(monkeypatch, **kwargs):
    """The multiset audit against the sequence oracle: the same verdict and
    first violation, the same worst margins, and as violations the oracle's
    mapped to sorted datasets."""
    got, failure = audit_run(monkeypatch, audits.smoothness_audit, **kwargs)
    ref, ref_failure = audit_run(monkeypatch, loop_smoothness_audit, **kwargs)
    alphabet = tuple(kwargs.get("alphabet", (0, 1)))

    def by_letter(dataset):
        return tuple(sorted(dataset, key=alphabet.index))

    expected = {}
    for kind, d, d2, realized, allowed in ref.violations:
        expected.setdefault((kind, by_letter(d), by_letter(d2)), []).append((realized, allowed))
    assert got.ok == ref.ok and (failure is None) == (ref_failure is None), kwargs
    if failure is not None:
        kind, d, d2 = ref.violations[0][:3]
        assert got.violations[0][:3] == (kind, by_letter(d), by_letter(d2)), kwargs
        assert failure.startswith(f"{kind} violated for {by_letter(d)} -> {by_letter(d2)}: ")
    found = {v[:3]: [v[3:]] for v in got.violations}
    assert len(found) == len(got.violations), kwargs
    # a permuted sequence rounds its reweighted mean differently, so the two
    # sets may differ on a pair that one audit flags only by rounding: its
    # realized change equals its allowance within 1e-12 relative
    for name in set(found) ^ set(expected):
        assert all(close(*numbers) for numbers in found.get(name, expected.get(name))), (kwargs, name)
    for name in set(found) & set(expected):
        for ref_realized, ref_allowed in expected[name]:
            (realized, allowed), = found[name]
            assert close(realized, ref_realized) and close(allowed, ref_allowed), (kwargs, name)
    # the oracle's Python min skips NaN margins where NumPy's keeps them; a
    # NaN margin is a violation, compared above
    for margin, ref_margin in (
        (got.worst_dominance_margin, ref.worst_dominance_margin),
        (got.worst_smoothness_margin, ref.worst_smoothness_margin),
    ):
        assert math.isnan(margin) or close(margin, ref_margin), kwargs


def smoothness_cases(n):
    """(audit keywords, whether both audits run on a halved smooth bound)."""
    yield dict(n=n, eps=1.0, xi=0.0), False  # at n = 10 this is the known dominance miss
    yield dict(n=n, eps=1.0, xi=0.1), False
    yield dict(n=n, eps=0.5, xi=0.3), False
    yield dict(n=n, eps=1.0, xi=0.0), True
    yield dict(n=n, eps=1.0, xi=0.1, c_range=0.0), False
    if n <= 8:
        yield dict(n=n, eps=1.0, xi=0.0, kernel=pv.equality_kernel(3)), False
    if n <= 6:
        yield dict(n=n, eps=1.0, xi=0.1, kernel=constant_kernel(float("nan"), 2)), False
        yield dict(n=n, eps=1.0, xi=0.1, alphabet=(0, 1, 2)), False
        yield dict(n=n, eps=0.5, xi=0.0, alphabet=(0, 1, 2), kernel=pv.equality_kernel(3)), False


@pytest.mark.parametrize("n", range(3, 11))
def test_smoothness_audit_equals_the_loop_audit(monkeypatch, n):
    for kwargs, halved in smoothness_cases(n):
        with monkeypatch.context() as patched:
            if halved:
                for module in (audits, oracles):
                    patched.setattr(module, "hajek_rows", halved_bound_rows)
            assert_audit_equals_the_loop_audit_modulo_permutation(patched, **kwargs)


def test_smoothness_audit_orders_violations_like_the_loop_audit(monkeypatch):
    # a bound that falls as a_n rises breaks dominance and smoothness on the
    # first pair, so the report must name dominance first
    def skewed(rows, params):
        states = hajek_rows(rows, params)
        states.smooth_bound *= 0.1 * (1.0 + 30.0 * (1.0 - states.a_n))
        return states

    monkeypatch.setattr(audits, "hajek_rows", skewed)
    monkeypatch.setattr(oracles, "hajek_rows", skewed)
    for n in (4, 5, 6):
        with pytest.raises(AuditFailure, match="^dominance"):
            audits.smoothness_audit(n=n, eps=1.0, xi=0.0)
        assert_audit_equals_the_loop_audit_modulo_permutation(monkeypatch, n=n, eps=1.0, xi=0.0)


def test_ks_gap_equals_the_fresh_array_gap():
    def cdf_of(z):  # nondecreasing, bent away from the normal CDF: the largest gap is interior
        return 0.5 + 0.5 * np.tanh(0.6 * z + 0.05 * z * z * z)

    rng = np.random.default_rng(8)
    sizes = {1, 7, 1000, 10**5, 10**5 + 3}
    for block in audits._KS_BLOCKS + (audits._RATIO_BLOCK,):
        sizes |= {block - 1, block, block + 1}
    for size in sorted(sizes):
        normal = np.sort(rng.standard_normal(size))
        for samples in (normal, np.round(normal, 1), np.full(size, 0.3)):  # ties, all equal
            gap = audits._ks_gap(samples, cdf_of)
            assert gap == fresh_array_ks_gap(samples, cdf_of(samples)), size


def test_ks_gap_refuses_a_decreasing_cdf():
    def cdf_of(z):  # decreases for |z| > 2.24, so it is no CDF
        return np.clip(z * 0.3 + 0.5 - 0.02 * z * z * z, 0, 1)

    samples = np.sort(np.random.default_rng(8).standard_normal(10**5))
    with pytest.raises(ValueError, match="nondecreasing CDF"):
        audits._ks_gap(samples, cdf_of)


@pytest.mark.parametrize("cdf_of", [quartic_cdf, dp.LAPLACE.cdf])
def test_ks_gap_of_non_finite_samples_equals_the_fresh_array_gap(cdf_of):
    rng = np.random.default_rng(9)
    for extra in ([math.nan], [math.inf], [-math.inf], [-math.inf, math.inf],
                  [math.nan, math.inf, -math.inf]):
        samples = np.sort(np.concatenate((rng.standard_normal(10**5), extra)))
        gap, reference = audits._ks_gap(samples, cdf_of), fresh_array_ks_gap(samples, cdf_of(samples))
        if math.isnan(reference):  # a NaN draw fails the audit
            assert math.isnan(gap), extra
        else:
            assert gap == reference, extra


def test_ks_gap_when_every_block_survives():
    # at the Laplace quantiles F^-1((i + 1/2)/n) every point's gap is 1/2n,
    # so no block can be pruned and every point is evaluated
    n = 10**6
    p = (np.arange(n) + 0.5) / n
    samples = np.where(p < 0.5, np.log(2.0 * p), -np.log(2.0 - 2.0 * p))
    reference = fresh_array_ks_gap(samples, dp.LAPLACE.cdf(samples))
    points = []
    tracemalloc.start()
    try:
        gap = audits._ks_gap(samples, lambda z: points.append(z.size) or dp.LAPLACE.cdf(z))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gap == reference
    assert sum(points) >= n
    # the draws and the search's temporaries fit the audit's 16 MiB
    assert samples.nbytes + peak < 16 * 2**20


@pytest.mark.parametrize("law", ["laplace", "quartic"])
def test_noise_gof_gap_equals_the_reference_gap(law):
    for seed in (1, 2, 3):
        assert audits.noise_gof(law, 10**5, seed).ks_gap == reference_noise_gap(law, 10**5, seed), seed
    assert audits.noise_gof(law, 10**6, 4).ks_gap == reference_noise_gap(law, 10**6, 4)


@pytest.mark.parametrize("law", ["laplace", "quartic"])
def test_noise_gof_holds_only_block_sized_temporaries(law):
    # 8 MB of sorted draws plus blocks of _RATIO_BLOCK points; an unblocked
    # sampler and KS gap hold 38 MB (laplace), and the whole-batch quartic
    # sampler with the np.where CDF and the fresh-array gap 100 MiB
    tracemalloc.start()
    try:
        audits.noise_gof(law, 10**6, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_noise_gof_both_laws():
    assert audits.noise_gof("laplace", 10**5, 1).ok
    assert audits.noise_gof("quartic", 10**5, 2).ok


@pytest.mark.parametrize("law", ["laplace", "quartic"])
def test_noise_gof_evaluates_its_cdf_at_few_draws(monkeypatch, law):
    cdf_of = dp.LAWS[law].cdf
    points = []
    counted = dataclasses.replace(dp.LAWS[law], cdf=lambda z: points.append(z.size) or cdf_of(z))
    monkeypatch.setitem(dp.LAWS, law, counted)
    for seed in (1, 2, 3):
        points.clear()
        assert audits.noise_gof(law, 10**6, seed).ok
        assert sum(points) < 0.02 * 10**6, seed


def test_noise_gof_wrong_scale_fails(monkeypatch):
    # each law's bulk sampler, drawing 1.25 times too wide, or one NaN
    laws = dict(dp.LAWS)
    for fault in (lambda draws: 1.25 * draws, lambda draws: np.append(draws[1:], math.nan)):
        for law, noise in laws.items():
            monkeypatch.setitem(dp.LAWS, law, dataclasses.replace(
                noise, draws=lambda size, seed, draws=noise.draws: fault(draws(size, seed))
            ))
        for law, seed in itertools.product(laws, (1, 2, 3)):
            assert not audits.noise_gof(law, 10**5, seed).ok, (law, seed)


def test_cli_estimate_wrapped_with_alpha(capsys):
    code = cli_main([
        "estimate", "--method", "naive", "--kernel", "identity",
        "--simulate", "gaussian,n=3000,mu=0.3", "--R", "4", "--tau", "1",
        "--eps", "1", "--alpha", "0.1", "--seed", "11",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "estimate" in captured.out
    assert "median_of_means" in captured.err  # parallel ledger entry visible
