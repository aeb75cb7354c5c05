"""Seeded Monte Carlo experiment runner with CSV emission.

A spec names an estimation method, a kernel, a synthetic distribution with a
known target value, and a grid of (n, eps, alpha, M) cells.  Every cell runs
a fixed number of independent trials; each trial derives its own generator
from the master seed and the (cell, trial) pair, so reruns are byte-identical
regardless of execution order.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from ..boosting import boosted
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

    def sample(self, rng: np.random.Generator, n: int) -> Dataset:
        if self.name in ("uniform", "half_split"):
            return sample_multinomial(self.perturbed(), n, rng)
        if self.name == "gaussian":
            mu = float(self.params.get("mu", 0.0))
            sigma = float(self.params.get("sigma", 1.0))
            if not sigma >= 0:  # also rejects NaN
                raise ValueError(f"sigma must be >= 0, got {sigma}")
            return Dataset(rng.normal(mu, sigma, size=n))
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


def run_single(
    spec: ExperimentSpec,
    kernel: Kernel,
    data: Dataset,
    cell: tuple,
    rng: np.random.Generator,
    budget: PrivacyBudget,
) -> EstimateReport:
    """One ``spec.method`` estimate on ``data`` at an (n, eps, alpha, M) cell.

    With alpha set, the method runs on disjoint chunks under median-of-means
    boosting.  Without M, the subsampled method draws ⌈(n/k) log n⌉ subsets, the
    fewest that meet ``subsampled_estimator``'s recommended size.
    """
    _, eps, alpha, subsample_size = cell
    r, tau, k = spec.r_bound, spec.tau, kernel.degree

    def run(chunks: np.ndarray, rng, budgets: list[PrivacyBudget]) -> list[EstimateReport]:
        n = chunks.shape[1]
        if spec.method == "naive":
            return naive_estimates(kernel, chunks, r, tau, eps, rng, budgets)
        if spec.method == "all":
            return all_tuples_estimates(kernel, chunks, r, tau, eps, rng, budgets)
        if spec.method == "subsampled":
            size = subsample_size
            if size is None:
                size = max(1, math.ceil((n / k) * math.log(max(n, 2))))
            return subsampled_estimates(kernel, chunks, r, tau, eps, size, rng, budgets)
        # reweighting estimator, on value counts for an equality kernel
        params = HajekParams(eps=eps, c_range=spec.c_range, xi=resolve_xi(spec, kernel, n))
        return private_means_local_hajek(kernel, chunks, all_tuples(n, k), params, rng, budgets)

    return boosted(run, data, k, alpha, rng, budget)


def check_trial_ledger(report: EstimateReport, budget: PrivacyBudget, eps: float) -> None:
    """A release must have spent exactly the cell's eps, a bottom at most that."""
    spent = budget.spent
    slack = LEDGER_TOLERANCE * max(1.0, eps)
    if spent > eps + slack or (not report.is_bottom and spent < eps - slack):
        outcome = "bottom" if report.is_bottom else "release"
        raise LedgerMismatch(f"{outcome} spent {spent!r} in a cell at eps {eps!r}")


def run_trial(
    spec: ExperimentSpec, cell_index: int, trial: int, kernel: Kernel, cell: tuple
) -> ResultRow:
    n, eps, alpha, subsample_size = cell
    rng = stream(spec.seed, cell_index, trial)
    theta = spec.dist.theta(spec.kernel)
    data = spec.dist.sample(rng, n)
    budget = scratch_budget()
    started = time.perf_counter()
    error = ""
    report = EstimateReport(None)  # a run that raised released nothing
    try:
        report = run_single(spec, kernel, data, cell, rng, budget)
        check_trial_ledger(report, budget, eps)
        if report.is_bottom:
            error = f"bottom: {report.bottom_reason}"
    except PrivustatError as exc:
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    estimate = report.estimate
    return ResultRow(
        method=spec.method,
        kernel=spec.kernel,
        dist=spec.dist.name,
        n=n,
        eps=eps,
        alpha=alpha,
        subsample_size=subsample_size,
        trial=trial,
        theta=theta,
        estimate=estimate,
        abs_error=abs(estimate - theta) if estimate is not None else None,
        radius=report.radius,
        noise_scale=report.noise_scale,
        spread_level=report.diagnostics.get("L"),
        n_bad=report.diagnostics.get("n_bad"),
        error=error,
        wall_time=elapsed,
    )


def run_experiment(spec: ExperimentSpec) -> Iterator[ResultRow]:
    """Rows in deterministic (cell, trial) order."""
    kernel = build_kernel(spec.kernel)
    for cell_index, cell in enumerate(spec.cells()):
        for trial in range(spec.trials):
            yield run_trial(spec, cell_index, trial, kernel, cell)


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
