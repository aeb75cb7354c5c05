"""The benchmark's four workloads: seeded inputs, the ops of a round, oracles.

Each workload generates all of its inputs from the workload seed at set-up
(``slots`` input sets), and the library receives only those inputs.  A round
runs the ops of one slot; ``loop_slot`` says which slot the i-th measured
round uses.  Ops call the library's public functions only; the tracer (when
on) sees them from outside.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import privustat as pv
from privustat import applications as apps
from privustat.harness import audits, cli, experiments


@dataclass
class Outcome:
    """What an op released.  ``values`` is None for bottom."""

    values: Optional[tuple]
    signature: str
    spent: Optional[float] = None  # ledger total after the op
    exit_code: Optional[int] = None
    trials: int = 0


@dataclass
class Op:
    name: str
    metric: Optional[str]  # end-to-end metric whose per-round sum includes this op
    seed: int  # seed handed to the library; (name, seed) repeats must agree
    call: Callable[[], Outcome]
    contract: Optional[float]  # epsilon the op's ledger must show, if it has one
    sizes: dict = field(default_factory=dict)


def slot_rng(seed: int, slot: int, item: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(slot, item)))


def slot_seed(seed: int, slot: int, item: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(slot, item, 1)).generate_state(1)[0])


def complete_subsets(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n) in lexicographic order, built with NumPy."""
    if k == 2:
        i, j = np.triu_indices(n, 1)
        return np.stack([i, j], axis=1)
    parts = []
    for i in range(n - k + 1):
        rest = complete_subsets(n - i - 1, k - 1) + (i + 1)
        parts.append(np.column_stack([np.full(rest.shape[0], i), rest]))
    return np.concatenate(parts)


def family_sizes(n: int, k: int, **extra) -> dict:
    rows = math.comb(n, k)
    return {"n": n, "k": k, **extra, "family_rows": rows,
            "working_set_bytes": rows * k * 8 + rows * 8}  # int64 subsets + float64 values


def estimator_call(fn: Callable, contract: float) -> Callable[[], Outcome]:
    def call() -> Outcome:
        budget = pv.PrivacyBudget(4 * contract)
        report = fn(budget)
        values = None if report.estimate is None else (report.estimate,)
        return Outcome(values, repr(report.estimate), budget.spent)

    return call


def run_cli(argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    match = re.search(r"privacy ledger: spent (\S+)", err.getvalue())
    fields = [line.split() for line in out.getvalue().splitlines()]
    numbers = [float(f[1]) for f in fields if len(f) == 2 and f[0] in ("estimate", "statistic")]
    values = None if code == cli.EXIT_BOTTOM else tuple(numbers)
    return Outcome(values, out.getvalue(), float(match.group(1)) if match else None, code)


# ---------------------------------------------------------------------------
# oracles: the non-private U-statistic of an input, computed with NumPy
# ---------------------------------------------------------------------------

def collision_oracle(x: np.ndarray) -> float:
    c = np.bincount(x).astype(float)
    return float(np.sum(c * (c - 1)) / (x.size * (x.size - 1)))


def equality3_oracle(x: np.ndarray) -> float:
    return sum(math.comb(int(c), 3) for c in np.bincount(x)) / math.comb(x.size, 3)


def triangle_oracle(adj: np.ndarray) -> float:
    """trace(A^3) / 6C(n,3), with trace(A^3) = 2 * sum over edges of common neighbours."""
    n = adj.shape[0]
    bits = np.packbits(adj.astype(bool), axis=1)
    i, j = np.nonzero(np.triu(adj, 1))
    common = 0
    for lo in range(0, i.size, 20000):
        both = bits[i[lo:lo + 20000]] & bits[j[lo:lo + 20000]]
        common += int(np.bitwise_count(both).sum())
    return 2 * common / (6 * math.comb(n, 3))


def ustat_check(kernel: pv.Kernel, x: np.ndarray) -> float:
    """The library's U-statistic over the complete family."""
    family = pv.SubsetFamily(x.size, kernel.degree, complete_subsets(x.size, kernel.degree), kind="explicit")
    return pv.evaluate_ustat(kernel, pv.Dataset(x), family)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    slots = 1
    metrics: tuple = ()  # workload-specific end-to-end metrics
    speed_exponent = 1.0  # see worker.Clock

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch

    def loop_slot(self, i: int) -> int:
        """Slot of the i-th measured round (slot 0 is the warm-up)."""
        return (i + 1) % self.slots

    def trace_slots(self) -> tuple[list[int], list[int]]:
        """Slots of the untraced and the traced pass of a traced run."""
        every = list(range(self.slots))
        return every, every

    def ops(self, slot: int) -> list[Op]:
        raise NotImplementedError

    def oracle_checks(self) -> list[tuple[str, Callable[[], float], float]]:
        """(label, library U-statistic, oracle value) for every input."""
        return []


class CompleteFamily(Workload):
    """Clip-and-release and Hajek estimators over materialised complete families.

    Every call gets a distinct (n, k): n steps away from 2000 (k = 2), 250
    (k = 3) and 1200 (pair-mean pipeline) in both directions, so the work per
    round stays level while no family can be reused.
    """

    name = "complete-family"
    slots = 7
    metrics = ("all_tuples_s", "hajek_s")

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.inputs = [self._inputs(s) for s in range(self.slots)]

    def loop_slot(self, i):
        return 1 + i % (self.slots - 1)

    def trace_slots(self):
        return [1, 2, 3], [4, 5, 6]

    def _inputs(self, s):
        sign = 1 if s % 2 == 0 else -1
        odd, even = sign * (2 * s + 1), sign * (2 * s + 2)
        rng = slot_rng(self.seed, s, 0)
        return {
            "collision.all": rng.integers(0, 100, 2000 + odd),
            "collision.hajek": rng.integers(0, 100, 2000 - odd),
            "mean3.all": rng.normal(0.5, 1.0, 250 + odd),
            "equal3.all": rng.integers(0, 5, 250 - odd),
            "mean3.hajek": rng.normal(0.5, 1.0, 250 + even),
            "equal3.hajek": rng.integers(0, 5, 250 - even),
            "pipeline": rng.normal(0.5, 1.0, 1200 + 2 * even),
        }

    def ops(self, slot):
        x = self.inputs[slot]
        seeds = [slot_seed(self.seed, slot, j) for j in range(7)]
        eps, tau3 = 1.0, 1.0 / 3.0

        def all_tuples(kernel, data, r, tau, seed):
            return lambda b: pv.all_tuples_estimator(kernel, data, r=r, tau=tau, eps=eps, seed=seed, budget=b)

        def hajek(kernel, data, c_range, xi, seed):
            def run(b):
                family = pv.all_tuples(data.n, kernel.degree)
                params = pv.HajekParams(eps=eps, c_range=c_range, xi=xi)
                return pv.private_mean_local_hajek(kernel, data, family, params, seed=seed, budget=b)
            return run

        d = {key: pv.Dataset(v) for key, v in x.items()}
        n = {key: v.size for key, v in x.items()}

        def op(name, metric, key, k, seed, run, **extra):
            return Op(name, metric, seed, estimator_call(run, eps), eps, family_sizes(n[key], k, **extra))

        def subgaussian_xi(tau, m):
            return math.sqrt(2.0 * tau * math.log(2.0 * m / 0.01))

        collision, mean3, equal3 = pv.collision_kernel(), pv.mean_kernel(3, tau=tau3), pv.equality_kernel(3)
        fine = n["pipeline"] - n["pipeline"] // 2  # the pipeline's Hajek half
        return [
            op("all_tuples.collision", "all_tuples_s", "collision.all", 2, seeds[0],
               all_tuples(collision, d["collision.all"], 1.0, 0.25, seeds[0]), m=100),
            op("hajek.collision", "hajek_s", "collision.hajek", 2, seeds[1],
               hajek(collision, d["collision.hajek"], 1.0,
                     pv.degenerate_xi(1.0, 2, n["collision.hajek"], 0.01), seeds[1]), m=100),
            op("all_tuples.mean3", "all_tuples_s", "mean3.all", 3, seeds[2],
               all_tuples(mean3, d["mean3.all"], 2.0, tau3, seeds[2])),
            op("all_tuples.equal3", "all_tuples_s", "equal3.all", 3, seeds[3],
               all_tuples(equal3, d["equal3.all"], 1.0, 0.25, seeds[3]), m=5),
            op("hajek.mean3", "hajek_s", "mean3.hajek", 3, seeds[4],
               hajek(mean3, d["mean3.hajek"], 4.0, subgaussian_xi(tau3, n["mean3.hajek"]), seeds[4])),
            op("hajek.equal3", "hajek_s", "equal3.hajek", 3, seeds[5],
               hajek(equal3, d["equal3.hajek"], 1.0,
                     pv.degenerate_xi(1.0, 3, n["equal3.hajek"], 0.01), seeds[5]), m=5),
            Op("hajek.pipeline", "hajek_s", seeds[6], estimator_call(
                lambda b: pv.subgaussian_pipeline(pv.mean_kernel(2, tau=0.5), d["pipeline"], r=2.0, tau=0.5,
                                                  eps=eps, alpha=0.1, seed=seeds[6], budget=b), eps),
               eps, {**family_sizes(fine, 2), "n": n["pipeline"], "fine_n": fine}),
        ]

    def oracle_checks(self):
        checks = []
        for s, x in enumerate(self.inputs):
            for key, v in x.items():
                label = f"slot{s}.{key}"
                if key.startswith("collision"):
                    checks.append((label, lambda v=v: apps.collision_summary(pv.Dataset(v), 100).a_n,
                                   collision_oracle(v)))
                elif key.startswith("equal3"):
                    checks.append((label, lambda v=v: ustat_check(pv.equality_kernel(3), v),
                                   equality3_oracle(v)))
                else:
                    k = 2 if key == "pipeline" else 3
                    checks.append((label, lambda v=v, k=k: ustat_check(pv.mean_kernel(k), v),
                                   float(np.mean(v))))
        return checks


def rgg(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """Adjacency of a random geometric graph on the unit sphere."""
    latent = rng.standard_normal((n, 3))
    latent /= np.linalg.norm(latent, axis=1, keepdims=True)
    adj = np.triu(latent @ latent.T >= 1.0 - radius**2 / 2.0, 1).astype(np.int8)
    return adj + adj.T


class CountSummary(Workload):
    """Count-based applications: collision and triangle summaries, boosting, CLI."""

    name = "count-summary"
    slots = 2
    metrics = ("collision_density_s", "triangle_density_s", "cli_s")
    # Over 20 runs on a shared 2-core VM, round wall time went as the
    # reference time to the power 0.71: the 10^6-label and dense A @ A ops
    # slow down less than the reference kernel when the host is busy.
    speed_exponent = 0.7

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.inputs = [self._inputs(s) for s in range(self.slots)]

    def _inputs(self, s):
        rng = slot_rng(self.seed, s, 0)
        skewed = np.zeros(10**6, dtype=np.int64)
        skewed[:1000] = rng.integers(1, 1000, 1000)
        edge_file = os.path.join(self.scratch, f"edges{s}.txt")
        file_graph = rgg(rng, 1000, 0.3)
        rows, cols = np.nonzero(np.triu(file_graph, 1))
        np.savetxt(edge_file, np.column_stack([rows, cols]) + 1, fmt="%d")
        label_file = os.path.join(self.scratch, f"labels{s}.txt")
        np.savetxt(label_file, rng.integers(0, 50, 64000), fmt="%d")
        return {
            "uniform": rng.integers(0, 1000, 10**6),
            "skewed": rng.permutation(skewed),
            "uniform64k": rng.integers(0, 50, 64000),
            "rgg2000": rgg(rng, 2000, 0.3),
            "rgg3000": rgg(rng, 3000, 0.3),
            "edge_file": edge_file,
            "label_file": label_file,
        }

    def ops(self, slot):
        x = self.inputs[slot]
        seeds = [slot_seed(self.seed, slot, j) for j in range(7)]
        eps, m = 1.0, 1000
        uniform, skewed = pv.Dataset(x["uniform"]), pv.Dataset(x["skewed"])
        xi = apps.collision_xi(m, uniform.n)
        g2000, g3000 = pv.GeometricGraph(x["rgg2000"]), pv.GeometricGraph(x["rgg3000"])

        def boosted_uniformity():
            budget = pv.PrivacyBudget(4 * eps)
            d = pv.boosted_uniformity_test(pv.Dataset(x["uniform64k"]), 50, 0.5, eps, 0.1,
                                           seed=seeds[2], budget=budget)
            return Outcome((d.statistic,), repr((d.reject, d.statistic)), budget.spent)

        cli_args = ["--eps", str(eps)]
        collision_sizes = {"n": uniform.n, "m": m, "working_set_bytes": uniform.points.nbytes + m * 8}
        triangle_sizes = lambda n: {"n": n, "working_set_bytes": 17 * n * n}  # noqa: E731
        return [
            Op("collision.uniform", "collision_density_s", seeds[0], estimator_call(
                lambda b: pv.private_collision_density(uniform, m, eps, xi, seed=seeds[0], budget=b), eps),
               eps, collision_sizes),
            Op("collision.skewed", "collision_density_s", seeds[1], estimator_call(
                lambda b: pv.private_collision_density(skewed, m, eps, xi, seed=seeds[1], budget=b), eps),
               eps, collision_sizes),
            Op("boosted_uniformity", "collision_density_s", seeds[2], boosted_uniformity, eps,
               {"n": 64000, "m": 50, "alpha": 0.1, "working_set_bytes": 64000 * 8}),
            Op("triangle", "triangle_density_s", seeds[3], estimator_call(
                lambda b: pv.private_triangle_density(g2000, eps, seed=seeds[3], budget=b), 2 * eps),
               2 * eps, triangle_sizes(2000)),
            Op("boosted_triangle", "triangle_density_s", seeds[4], estimator_call(
                lambda b: pv.boosted_triangle_density(g3000, eps, 0.1, seed=seeds[4], budget=b), 2 * eps),
               2 * eps, {"n": 3000, "alpha": 0.1, "working_set_bytes": 9 * 10**6}),
            Op("cli.rgg_triangles", "cli_s", seeds[5], lambda: run_cli(
                ["rgg-triangles", "--graph", x["edge_file"], "--seed", str(seeds[5])] + cli_args),
               2 * eps, {"n": 1000, "file_bytes": os.path.getsize(x["edge_file"]),
                         "working_set_bytes": 17 * 1000 * 1000}),
            Op("cli.uniformity", "cli_s", seeds[6], lambda: run_cli(
                ["uniformity-test", "--data", x["label_file"], "--m", "50", "--alpha", "0.1",
                 "--seed", str(seeds[6])] + cli_args),
               eps, {"n": 64000, "m": 50, "file_bytes": os.path.getsize(x["label_file"]),
                     "working_set_bytes": 64000 * 8}),
        ]

    def oracle_checks(self):
        checks = []
        for s, x in enumerate(self.inputs):
            for key, m in (("uniform", 1000), ("skewed", 1000), ("uniform64k", 50)):
                checks.append((f"slot{s}.{key}", lambda v=x[key], m=m:
                               apps.collision_summary(pv.Dataset(v), m).a_n, collision_oracle(x[key])))
            for key in ("rgg2000", "rgg3000"):
                checks.append((f"slot{s}.{key}", lambda a=x[key]:
                               apps.triangle_summary(pv.GeometricGraph(a)).a_n, triangle_oracle(x[key])))
            pairs = np.loadtxt(x["edge_file"], dtype=np.int64) - 1
            adj = np.zeros((pairs.max() + 1,) * 2, dtype=np.int8)
            adj[pairs[:, 0], pairs[:, 1]] = adj[pairs[:, 1], pairs[:, 0]] = 1
            checks.append((f"slot{s}.edge_file", lambda p=x["edge_file"]:
                           apps.triangle_summary(apps.read_edge_list(p)).a_n, triangle_oracle(adj)))
            labels = np.loadtxt(x["label_file"], dtype=np.int64)
            checks.append((f"slot{s}.label_file", lambda p=x["label_file"]:
                           apps.collision_summary(apps.read_categories(p), 50).a_n,
                           collision_oracle(labels)))
        return checks


SIMULATE_TRIALS = {"naive": 8, "subsampled": 1, "all": 1, "hajek.collision": 6, "hajek.pair_mean": 1}


class SimulateGrid(Workload):
    """The paper's error-rate experiments: one fixed spec, identical every round."""

    name = "simulate-grid"
    slots = 1
    metrics = ("trials_per_s",)

    def specs(self) -> dict:
        gauss = experiments.DistributionSpec("gaussian", {"mu": 0.5, "sigma": 1.0})
        labels = experiments.DistributionSpec("uniform", {"m": 20})
        pair_mean = dict(kernel="pair_mean", dist=gauss, tau=0.5, r_bound=2.0)
        methods = {
            "naive": dict(method="naive", **pair_mean),
            "subsampled": dict(method="subsampled", **pair_mean),
            "all": dict(method="all", kernel="collision", dist=labels),
            "hajek.collision": dict(method="hajek", kernel="collision", dist=labels),
            "hajek.pair_mean": dict(method="hajek", xi="auto-subgaussian", c_range=4.0, **pair_mean),
        }
        return {
            name: experiments.ExperimentSpec(
                n_grid=[500, 1000], eps_grid=[0.5, 1.0], alpha_grid=[None, 0.1],
                trials=SIMULATE_TRIALS[name], seed=slot_seed(self.seed, 0, j), **kw)
            for j, (name, kw) in enumerate(methods.items())
        }

    def ops(self, slot):
        def run(spec):
            def call():
                rows = list(experiments.run_experiment(spec))
                for row in rows:
                    if row.error and not row.error.startswith("bottom"):
                        raise RuntimeError(f"trial {row.n}/{row.eps}/{row.alpha}/{row.trial}: {row.error}")
                    if row.theta != spec.dist.theta(spec.kernel):
                        raise RuntimeError(f"trial target {row.theta} is not {spec.dist.theta(spec.kernel)}")
                text = experiments.rows_to_csv(rows)
                values = tuple(r.estimate for r in rows if r.estimate is not None)
                return Outcome(values, hashlib.sha256(text.encode()).hexdigest(), trials=len(rows))
            return call

        return [
            Op(f"simulate.{name}", None, spec.seed, run(spec), None,
               {"cells": len(spec.cells()), "trials": len(spec.cells()) * spec.trials,
                "n_grid": spec.n_grid,
                "working_set_bytes": SIMULATE_WORKING_SET[name](max(spec.n_grid))})
            for name, spec in self.specs().items()
        ]


# largest array a trial of each method builds at size n
SIMULATE_WORKING_SET = {
    "naive": lambda n: n * 8,
    "subsampled": lambda n: int(n / 2 * math.log(n)) * n * 8,  # uniform draws per subset and index
    "all": lambda n: family_sizes(n, 2)["working_set_bytes"],
    "hajek.collision": lambda n: n * 8,
    "hajek.pair_mean": lambda n: family_sizes(n, 2)["working_set_bytes"],
}


class Audit(Workload):
    """Exhaustive smoothness audits, sampler goodness of fit, adversarial fixture."""

    name = "audit"
    slots = 4
    metrics = ("smoothness_audit_s", "noise_audit_s")

    def ops(self, slot):
        seeds = [slot_seed(self.seed, slot, j) for j in range(2)]

        def smoothness(xi):
            def call():
                r = audits.smoothness_audit(10, 1.0, xi)
                margins = (r.worst_dominance_margin, r.worst_smoothness_margin)
                return Outcome(margins, repr((r.pairs_checked,) + margins))
            return call

        def gof(law, seed):
            def call():
                r = audits.noise_gof(law, 10**6, seed)
                if not r.ok:
                    raise RuntimeError(f"{law} KS gap {r.ks_gap:.4g} above {r.threshold:.4g}")
                return Outcome((r.ks_gap,), repr(r.ks_gap))
            return call

        n_fix = 600 + slot

        def fixture():
            fix = audits.adversarial_fixture(n_fix, 2, 0.5)
            margins = audits.fixture_projection_margins(fix)
            if margins["direct_gap"] < fix.gap_lower_bound:
                raise RuntimeError(f"fixture gap {margins['direct_gap']:.4g} below its bound")
            return Outcome((margins["direct_gap"],), repr(margins))

        smooth_sizes = {"n": 10, "k": 2, "datasets": 2**10, "pairs": 10 * 2**10,
                        "working_set_bytes": 2**10 * 16}
        return [
            Op("smoothness.xi0", "smoothness_audit_s", 0, smoothness(0.0), None, smooth_sizes),
            Op("smoothness.xi0.1", "smoothness_audit_s", 0, smoothness(0.1), None, smooth_sizes),
            Op("noise_gof.quartic", "noise_audit_s", seeds[0], gof("quartic", seeds[0]), None,
               {"draws": 10**6, "working_set_bytes": 4 * 8 * 10**6}),
            Op("noise_gof.laplace", "noise_audit_s", seeds[1], gof("laplace", seeds[1]), None,
               {"draws": 10**6, "working_set_bytes": 3 * 8 * 10**6}),
            Op("fixture", None, n_fix, fixture, None, family_sizes(n_fix, 2)),
        ]

    def oracle_checks(self):
        checks = []
        for s in range(self.slots):
            fix = audits.adversarial_fixture(600 + s, 2, 0.5)
            for name, data in (("base", fix.base), ("shifted", fix.shifted)):
                _, codes = np.unique(data.points, return_inverse=True)
                checks.append((f"fixture{600 + s}.{name}",
                               lambda v=data.points: ustat_check(pv.equality_kernel(2), v),
                               collision_oracle(codes)))
        return checks


WORKLOADS = {w.name: w for w in (CompleteFamily, CountSummary, SimulateGrid, Audit)}
