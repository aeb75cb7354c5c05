"""Seeded estimates of the complete-family estimators, pinned to fixed values.

The values were produced by the materialising itertools enumeration that the
blocked complete-family engine replaced.  Each case runs at the module's own
row budget and at a small one, so the families are cut into many blocks.
"""

from unittest import mock

import numpy as np
import pytest

import privustat as pv
from privustat import ustat
from privustat.ustat import clipped_kernel


def estimates() -> dict:
    rng = np.random.default_rng(2024)
    out = {}
    labels = rng.integers(0, 30, 300)
    out["all_tuples.collision"] = pv.all_tuples_estimator(
        pv.collision_kernel(), pv.Dataset(labels), r=1.0, tau=0.25, eps=1.0, seed=11
    )
    normal = rng.normal(0.5, 1.0, 60)
    out["all_tuples.mean3"] = pv.all_tuples_estimator(
        pv.mean_kernel(3, tau=1 / 3), pv.Dataset(normal), r=2.0, tau=1 / 3, eps=1.0, seed=12
    )
    labels = rng.integers(0, 20, 400)
    out["hajek.collision"] = pv.private_mean_local_hajek(
        pv.collision_kernel(), pv.Dataset(labels), pv.all_tuples(400, 2),
        pv.HajekParams(eps=1.0, c_range=1.0, xi=0.01), seed=13,
    )
    # ten singleton labels among 390 zeros: ten down-weighted indices
    concentrated = np.zeros(400, dtype=np.int64)
    concentrated[:10] = np.arange(1, 11)
    out["hajek.collision.outliers"] = pv.private_mean_local_hajek(
        pv.collision_kernel(), pv.Dataset(concentrated), pv.all_tuples(400, 2),
        pv.HajekParams(eps=1.0, c_range=1.0, xi=0.0), seed=14,
    )
    heavy = rng.normal(0.5, 0.05, 70)
    heavy[0] = 5.0
    out["hajek.mean3"] = pv.private_mean_local_hajek(
        clipped_kernel(pv.mean_kernel(3), 0.4, 0.6), pv.Dataset(heavy), pv.all_tuples(70, 3),
        pv.HajekParams(eps=1.0, c_range=0.2, xi=0.0), seed=15,
    )
    out["pipeline"] = pv.subgaussian_pipeline(
        pv.mean_kernel(2, tau=0.5), pv.Dataset(rng.normal(0.5, 1.0, 700)),
        r=2.0, tau=0.5, eps=1.0, alpha=0.1, seed=16,
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


@pytest.mark.parametrize("budget", [ustat._BLOCK_ROWS, 1000])
def test_complete_family_estimates_match_golden_values(budget):
    with mock.patch.object(ustat, "_BLOCK_ROWS", budget):
        reports = estimates()
    for name, (estimate, level, n_bad) in GOLDEN.items():
        report = reports[name]
        assert report.estimate == pytest.approx(estimate, rel=1e-12, abs=0), name
        assert report.diagnostics.get("L") == level, name
        assert report.diagnostics.get("n_bad") == n_bad, name
