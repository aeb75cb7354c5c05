"""Seeded estimates of the complete-family estimators, pinned to fixed values.

The values were produced by the materialising itertools enumeration that the
blocked complete-family engine replaced.  Each case runs at the module's own
row budget and at two small ones, so the families are cut into many blocks;
the smallest is below C(n-1, k-1) of every case, so each first index's
subsets are split across blocks as well.
"""

from unittest import mock

import numpy as np
import pytest

import privustat as pv
from privustat import ustat
from privustat.dp import scratch_budget
from privustat.ustat import clipped_kernel


def estimates() -> dict:
    rng = np.random.default_rng(2024)
    out = {}
    labels = rng.integers(0, 30, 300)
    out["all_tuples.collision"] = pv.all_tuples_estimator(
        pv.collision_kernel(), pv.Dataset(labels), r=1.0, tau=0.25, eps=1.0, seed=11,
        budget=scratch_budget(),
    )
    normal = rng.normal(0.5, 1.0, 60)
    out["all_tuples.mean3"] = pv.all_tuples_estimator(
        pv.mean_kernel(3, tau=1 / 3), pv.Dataset(normal), r=2.0, tau=1 / 3, eps=1.0, seed=12,
        budget=scratch_budget(),
    )
    labels = rng.integers(0, 20, 400)
    out["hajek.collision"] = pv.private_mean_local_hajek(
        pv.collision_kernel(), pv.Dataset(labels), pv.all_tuples(400, 2),
        pv.HajekParams(eps=1.0, c_range=1.0, xi=0.01), seed=13, budget=scratch_budget(),
    )
    # ten singleton labels among 390 zeros: ten down-weighted indices
    concentrated = np.zeros(400, dtype=np.int64)
    concentrated[:10] = np.arange(1, 11)
    out["hajek.collision.outliers"] = pv.private_mean_local_hajek(
        pv.collision_kernel(), pv.Dataset(concentrated), pv.all_tuples(400, 2),
        pv.HajekParams(eps=1.0, c_range=1.0, xi=0.0), seed=14, budget=scratch_budget(),
    )
    heavy = rng.normal(0.5, 0.05, 70)
    heavy[0] = 5.0
    out["hajek.mean3"] = pv.private_mean_local_hajek(
        clipped_kernel(pv.mean_kernel(3), 0.4, 0.6), pv.Dataset(heavy), pv.all_tuples(70, 3),
        pv.HajekParams(eps=1.0, c_range=0.2, xi=0.0), seed=15, budget=scratch_budget(),
    )
    out["pipeline"] = pv.subgaussian_pipeline(
        pv.mean_kernel(2, tau=0.5), pv.Dataset(rng.normal(0.5, 1.0, 700)),
        r=2.0, tau=0.5, eps=1.0, alpha=0.1, seed=16, budget=scratch_budget(),
    )
    return out


# name: (estimate, spread level L, number of down-weighted indices)
GOLDEN = {
    "all_tuples.collision": (0.03235496558701079, None, None),
    "all_tuples.mean3": (2.0, None, None),  # release midpoint 3.273..., clamped to R = 2
    "hajek.collision": (0.0481106554930661, 1, 0),
    "hajek.collision.outliers": (0.9600097965945312, 10, 10),
    "hajek.mean3": (0.528441897323756, 1, 1),
    "pipeline": (1.053858680000214, 1, 0),
}


@pytest.mark.parametrize("budget", [ustat._BLOCK_ROWS, 1000, 150])
def test_complete_family_estimates_match_golden_values(budget):
    with mock.patch.object(ustat, "_BLOCK_ROWS", budget):
        reports = estimates()
    for name, (estimate, level, n_bad) in GOLDEN.items():
        report = reports[name]
        assert report.estimate == pytest.approx(estimate, rel=1e-12, abs=0), name
        assert report.diagnostics.get("L") == level, name
        assert report.diagnostics.get("n_bad") == n_bad, name


# ---------------------------------------------------------------------------
# command-line releases: stdout and exit code at fixed seeds
# ---------------------------------------------------------------------------

def cli_cases(tmp_path) -> dict:
    """name -> argv; the data files are written from a fixed seed."""
    rng = np.random.default_rng(77)
    labels, edges, sparse = tmp_path / "labels.txt", tmp_path / "edges.txt", tmp_path / "sparse.txt"
    sparse.write_text("1 2\n3 4\n")  # near-empty graph: the edge-density proxy often goes negative
    labels.write_text("".join(f"{v}\n" for v in rng.integers(0, 12, 3000).tolist()))
    graph = pv.sample_rgg(400, 0.5, rng)
    rows, cols = np.nonzero(np.triu(graph.adjacency.toarray(), 1))
    edges.write_text("".join(f"{i + 1} {j + 1}\n" for i, j in zip(rows, cols)))
    alpha = ["--alpha", "0.2"]
    uni = ["uniformity-test", "--m", "12", "--delta", "0.5", "--eps", "1"]
    rgg = ["rgg-triangles", "--eps", "1"]
    pair_mean = ["estimate", "--kernel", "pair_mean", "--simulate", "gaussian,n=600,mu=0.4",
                 "--R", "4", "--tau", "1", "--eps", "1"]
    return {
        "uniformity.simulate.accept": uni + ["--simulate", "n=3000,kind=uniform", "--seed", "1"],
        "uniformity.simulate.reject": uni + ["--simulate", "n=3000,kind=split,a=0.8", "--seed", "2"],
        "uniformity.simulate.alpha": uni + ["--simulate", "n=6000,kind=split,a=0.4", "--seed", "3"] + alpha,
        "uniformity.simulate.alpha.reject": uni + ["--simulate", "n=6000,kind=split,a=0.8", "--seed", "3"] + alpha,
        "uniformity.data": uni + ["--data", str(labels), "--seed", "4"],
        "uniformity.data.alpha": uni + ["--data", str(labels), "--seed", "5"] + alpha,
        "rgg.simulate": rgg + ["--simulate", "n=300,r=0.5", "--seed", "6"],
        "rgg.simulate.alpha": rgg + ["--simulate", "n=1500,r=0.6", "--seed", "7"] + alpha,
        "rgg.graph": rgg + ["--graph", str(edges), "--seed", "8"],
        "rgg.graph.alpha": rgg + ["--graph", str(edges), "--seed", "9"] + alpha,
        "rgg.graph.bottom": rgg + ["--graph", str(sparse), "--seed", "3"],
        "estimate.pair_mean.all": pair_mean + ["--method", "all", "--seed", "10"],
        "estimate.pair_mean.hajek": pair_mean + ["--method", "hajek", "--seed", "11"],
        "estimate.pair_mean.naive.alpha": pair_mean + ["--method", "naive", "--seed", "12"] + alpha,
        "estimate.pair_mean.subsampled.alpha": pair_mean + ["--method", "subsampled", "--seed", "13"] + alpha,
    }


# name: (exit code, stdout)
CLI_GOLDEN = {
    'uniformity.simulate.accept': (0, 'decision accept\nstatistic 0.07883346444280284\nthreshold 0.09895833333333333\n'),
    'uniformity.simulate.reject': (0, 'decision reject\nstatistic 0.14248265725941592\nthreshold 0.09895833333333333\n'),
    'uniformity.simulate.alpha': (0, 'decision accept\nstatistic 0.08865080311741576\nthreshold 0.09895833333333333\n'),
    'uniformity.simulate.alpha.reject': (0, 'decision reject\nstatistic 0.1287561894481268\nthreshold 0.09895833333333333\n'),
    'uniformity.data': (0, 'decision accept\nstatistic 0.08438692620728355\nthreshold 0.09895833333333333\n'),
    'uniformity.data.alpha': (0, 'decision accept\nstatistic 0.07018795819155729\nthreshold 0.09895833333333333\n'),
    'rgg.simulate': (0, 'estimate -0.05339739764657513\n'),
    'rgg.simulate.alpha': (0, 'estimate -0.3967829717391178\n'),
    'rgg.graph': (0, 'estimate 0.06884255758541803\n'),
    'rgg.graph.alpha': (0, 'estimate 1.0900760639313258\n'),
    'rgg.graph.bottom': (3, ''),
    'estimate.pair_mean.all': (0, 'estimate 0.34506518387850627\nradius 0.6603207765030902\n'),
    'estimate.pair_mean.hajek': (0, 'estimate 1.3068057662180075\n'),
    'estimate.pair_mean.naive.alpha': (0, 'estimate 0.1741339492784082\nradius 7.171672469754931\n'),
    'estimate.pair_mean.subsampled.alpha': (0, 'estimate 1.0973285011654497\nradius 23.864552897655837\n'),
}


@pytest.mark.filterwarnings("ignore::privustat.errors.PreconditionWarning")
def test_cli_release_stdout_matches_golden_values(tmp_path, capsys):
    from privustat.harness.cli import main

    for name, argv in cli_cases(tmp_path).items():
        code = main(argv)
        assert (code, capsys.readouterr().out) == CLI_GOLDEN[name], name
