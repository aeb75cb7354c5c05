"""Seeded Monte Carlo experiment runner with CSV emission.

A spec names an estimation method, a kernel, a synthetic distribution with a
known target value, and a grid of (n, eps, alpha, M) cells.  Every cell runs
a fixed number of independent trials; each trial derives its own generator
from the master seed and the (cell, trial) pair, so reruns are byte-identical
regardless of execution order, and however a cell's trials are stacked.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from ..boosting import BoostPlan, boosted
from ..coinpress import (
    DEFAULT_CONFIDENCE, all_tuples_estimates, naive_estimates, subgaussian_xi, subsampled_estimates,
)
from ..dp import PrivacyBudget, scratch_budget
from ..errors import LedgerMismatch, PrivustatError
from ..hajek import HajekParams, degenerate_xi, private_means_local_hajek
from ..applications import PerturbedUniform, collision_theta, sample_multinomial
from ..report import EstimateReport
from ..rng import stream
from ..ustat import Dataset, Kernel, all_tuples, check_range, collision_kernel, identity_kernel, mean_kernel

METHODS = ("naive", "all", "subsampled", "hajek")

LEDGER_TOLERANCE = 1e-9  # relative; a ledger sums eps in steps and may round

# values one stack of a cell's trials may hold in all, 8 MB of float64: a
# clip-and-release stack of (8, C(1000, 2)) kernel values ran 27% slower than
# one trial at a time, a stack of 2 4% faster (2-core host)
STACK_VALUES = 1 << 20

CSV_COLUMNS = [
    "method", "kernel", "dist", "n", "eps", "alpha", "M", "trial",
    "theta", "estimate", "abs_error", "radius", "noise_scale", "L", "n_bad", "error",
]


@dataclass(frozen=True)
class DistributionSpec:
    """Synthetic data source with a known estimation target per kernel."""

    name: str
    params: dict

    def perturbed(self) -> PerturbedUniform:
        m = int(self.params.get("m", 10))
        if self.name == "uniform":
            return PerturbedUniform.uniform(m)
        if self.name == "half_split":
            return PerturbedUniform.half_split(m, float(self.params.get("amplitude", 0.5)))
        raise ValueError(f"{self.name} is not categorical")

    def sampler(self) -> Callable[[np.random.Generator, int], Dataset]:
        """``sample(rng, n)``: n points from this source, whose law is built
        and checked once, here."""
        if self.name in ("uniform", "half_split"):
            law = self.perturbed()
            return lambda rng, n: sample_multinomial(law, n, rng)
        if self.name == "gaussian":
            mu = float(self.params.get("mu", 0.0))
            sigma = float(self.params.get("sigma", 1.0))
            if not sigma >= 0:  # also rejects NaN
                raise ValueError(f"sigma must be >= 0, got {sigma}")
            return lambda rng, n: Dataset(rng.normal(mu, sigma, size=n))
        raise ValueError(f"unknown distribution {self.name!r}")

    def theta(self, kernel_name: str) -> float:
        if self.name in ("uniform", "half_split"):
            if kernel_name != "collision":
                raise ValueError("categorical distributions pair with the collision kernel")
            return collision_theta(self.perturbed())
        if self.name == "gaussian":
            if kernel_name not in ("identity", "pair_mean"):
                raise ValueError("gaussian data pairs with identity or pair_mean")
            return float(self.params.get("mu", 0.0))
        raise ValueError(f"unknown distribution {self.name!r}")


def build_kernel(name: str) -> Kernel:
    if name == "collision":
        return collision_kernel()
    if name == "identity":
        return identity_kernel()
    if name == "pair_mean":
        return mean_kernel(2)
    raise ValueError(f"unknown kernel {name!r}")


@dataclass
class ExperimentSpec:
    method: str
    kernel: str
    dist: DistributionSpec
    n_grid: list
    eps_grid: list
    trials: int
    seed: int
    alpha_grid: list = field(default_factory=lambda: [None])
    m_grid: list = field(default_factory=lambda: [None])
    r_bound: float = 1.0
    tau: float = 0.25
    c_range: float = 1.0
    xi: str = "auto-degenerate"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if not self.n_grid or not self.eps_grid:
            raise ValueError("grid must be non-empty")
        if self.trials < 1:
            raise ValueError("need at least one trial per cell")
        check_range(build_kernel(self.kernel), self.c_range)

    def cells(self) -> list[tuple]:
        return [
            (n, eps, alpha, m)
            for n in self.n_grid
            for eps in self.eps_grid
            for alpha in self.alpha_grid
            for m in self.m_grid
        ]


@dataclass
class ResultRow:
    method: str
    kernel: str
    dist: str
    n: int
    eps: float
    alpha: Optional[float]
    subsample_size: Optional[int]
    trial: int
    theta: float
    estimate: Optional[float]
    abs_error: Optional[float]
    radius: Optional[float]
    noise_scale: Optional[float]
    spread_level: Optional[int]
    n_bad: Optional[int]
    error: str
    wall_time: float = 0.0

    def as_csv_values(self) -> list[str]:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, float):
                return repr(x)
            return str(x)

        return [
            self.method, self.kernel, self.dist, str(self.n), repr(float(self.eps)),
            fmt(self.alpha), fmt(self.subsample_size), str(self.trial),
            repr(float(self.theta)), fmt(self.estimate), fmt(self.abs_error),
            fmt(self.radius), fmt(self.noise_scale), fmt(self.spread_level),
            fmt(self.n_bad), self.error,
        ]


def resolve_xi(spec: ExperimentSpec, kernel: Kernel, n: int) -> float:
    if spec.xi == "auto-degenerate":
        return degenerate_xi(spec.c_range, kernel.degree, n, DEFAULT_CONFIDENCE)
    if spec.xi == "auto-subgaussian":
        return subgaussian_xi(spec.tau, n, DEFAULT_CONFIDENCE)
    return float(spec.xi)


def family_size(method: str, n: int, k: int, subsample_size: Optional[int]) -> int:
    """The subsets of ``method``'s family on n points: n // k disjoint ones,
    all C(n, k), or M subsampled; without M, ⌈(n/k) log n⌉, the fewest that
    meet ``subsampled_estimator``'s recommended size."""
    if method != "subsampled":
        return n // k if method == "naive" else math.comb(n, k)
    return max(1, math.ceil((n / k) * math.log(max(n, 2)))) if subsample_size is None else subsample_size


def run_cell(
    spec: ExperimentSpec,
    kernel: Kernel,
    cell: tuple,
    datasets: list[Dataset],
    seed,
    budgets: list[PrivacyBudget],
) -> list[EstimateReport]:
    """``spec.method`` estimates on datasets of one size at an (n, eps,
    alpha, M) cell in one stacked call, dataset t debiting budgets[t] and
    drawing from its generator of ``seed``: the CLI's ``estimate`` passes one
    dataset, ``run_experiment`` a stack of a cell's trials.  With alpha set,
    the method runs on disjoint chunks under median-of-means boosting.
    """
    _, eps, alpha, subsample_size = cell
    r, tau, k = spec.r_bound, spec.tau, kernel.degree

    def run(chunks: np.ndarray, rngs, budgets: list[PrivacyBudget]) -> list[EstimateReport]:
        n = chunks.shape[1]
        if spec.method == "naive":
            return naive_estimates(kernel, chunks, r, tau, eps, rngs, budgets)
        if spec.method == "all":
            return all_tuples_estimates(kernel, chunks, r, tau, eps, rngs, budgets)
        if spec.method == "subsampled":
            size = family_size("subsampled", n, k, subsample_size)
            return subsampled_estimates(kernel, chunks, r, tau, eps, size, rngs, budgets)
        # reweighting estimator, on value counts for an equality kernel
        params = HajekParams(eps=eps, c_range=spec.c_range, xi=resolve_xi(spec, kernel, n))
        return private_means_local_hajek(kernel, chunks, all_tuples(n, k), params, rngs, budgets)

    return boosted(run, datasets, k, alpha, seed, budgets)


def stack_trials(spec: ExperimentSpec, kernel: Kernel, cell: tuple) -> int:
    """How many of a cell's trials one ``run_cell`` call takes: the most
    whose chunks hold at most ``STACK_VALUES`` values in all, and at least
    one.  A chunk holds a value per subset of its family, or, where an
    equality kernel runs on value counts (``ustat.runs_on_counts``), its
    points.  It reads the cell, the method and the kernel, never the data."""
    n, _, alpha, subsample_size = cell
    k = kernel.degree
    q = 1 if alpha is None else BoostPlan.chunk_count(float(alpha))
    size = max(n // q, k)  # a plan whose chunks fall short of k raises in the stack
    if kernel.equality and spec.method in ("all", "hajek"):  # the complete family's count route
        held = size
    else:
        held = max(1, family_size(spec.method, size, k, subsample_size))  # M = 0 raises in the stack
    return max(1, STACK_VALUES // (q * held))


def check_trial_ledger(report: EstimateReport, budget: PrivacyBudget, eps: float) -> None:
    """A release must have spent exactly the cell's eps, a bottom at most that."""
    spent = budget.spent
    slack = LEDGER_TOLERANCE * max(1.0, eps)
    if spent > eps + slack or (not report.is_bottom and spent < eps - slack):
        outcome = "bottom" if report.is_bottom else "release"
        raise LedgerMismatch(f"{outcome} spent {spent!r} in a cell at eps {eps!r}")


def _trial_error(report: EstimateReport, budget: PrivacyBudget, eps: float) -> str:
    """A trial's error column: its ledger check's error, else its bottom reason."""
    try:
        check_trial_ledger(report, budget, eps)
    except PrivustatError as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"bottom: {report.bottom_reason}" if report.is_bottom else ""


def run_experiment(spec: ExperimentSpec) -> Iterator[ResultRow]:
    """Rows in deterministic (cell, trial) order.

    The target and the sampler are built once per spec.  A cell's trials
    run in stacks of ``stack_trials``, one ``run_cell`` call each: trial t
    samples its data from ``stream(seed, cell, t)`` and draws its noise from
    that generator alone.  An estimator-side error depends only on (n, k,
    q), so a stack that raises one gives it to every trial, with nothing
    released.  A trial's ``wall_time`` is its share of the stack's run.
    """
    kernel = build_kernel(spec.kernel)
    theta = spec.dist.theta(spec.kernel)
    sample = spec.dist.sampler()
    for cell_index, cell in enumerate(spec.cells()):
        n, eps, alpha, subsample_size = cell
        per_stack = stack_trials(spec, kernel, cell)
        for first in range(0, spec.trials, per_stack):
            trials = range(first, min(first + per_stack, spec.trials))
            rngs = [stream(spec.seed, cell_index, trial) for trial in trials]
            datasets = [sample(rng, n) for rng in rngs]
            budgets = [scratch_budget() for _ in trials]
            started = time.perf_counter()
            try:
                reports = run_cell(spec, kernel, cell, datasets, rngs, budgets)
                errors = [_trial_error(r, b, eps) for r, b in zip(reports, budgets)]
            except PrivustatError as exc:
                reports = [EstimateReport(None)] * len(trials)  # a run that raised released nothing
                errors = [f"{type(exc).__name__}: {exc}"] * len(trials)
            share = (time.perf_counter() - started) / len(trials)
            for trial, report, error in zip(trials, reports, errors):
                estimate = report.estimate
                yield ResultRow(
                    method=spec.method, kernel=spec.kernel, dist=spec.dist.name, n=n, eps=eps,
                    alpha=alpha, subsample_size=subsample_size, trial=trial, theta=theta,
                    estimate=estimate,
                    abs_error=None if estimate is None else abs(estimate - theta),
                    radius=report.radius, noise_scale=report.noise_scale,
                    spread_level=report.diagnostics.get("L"), n_bad=report.diagnostics.get("n_bad"),
                    error=error, wall_time=share,
                )


def rows_to_csv(rows, include_timing: bool = False) -> str:
    """Fixed column order, '.' decimals, deterministic float repr.

    Wall time is measured but excluded by default so that reruns with the
    same seed are byte-identical.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(CSV_COLUMNS) + (["wall_time"] if include_timing else [])
    writer.writerow(header)
    for row in rows:
        values = row.as_csv_values()
        if include_timing:
            values = values + [repr(row.wall_time)]
        writer.writerow(values)
    return buf.getvalue()
