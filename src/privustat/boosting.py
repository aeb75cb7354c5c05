"""Median-of-means wrapper: constant-confidence private estimates to 1 - alpha.

The data is split into q disjoint consecutive chunks (q odd), the base
estimator runs independently on each, and the median of the chunk estimates
is returned.  Because the chunks are disjoint, the whole procedure costs the
same privacy budget as a single run (parallel composition).  ``boosted`` is
the one place that chooses between a plain run and a boosted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable, Optional

import numpy as np

from .dp import PrivacyBudget
from .errors import InsufficientData
from .report import EstimateReport
from .rng import child_seeds
from .ustat import Dataset


@dataclass(frozen=True)
class BoostPlan:
    """Chunking plan for a target failure probability alpha."""

    alpha: float
    chunks: int
    chunk_size: int

    @classmethod
    def for_dataset(cls, n: int, k: int, alpha: float) -> "BoostPlan":
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        q = math.ceil(8.0 * math.log(1.0 / alpha))
        if q % 2 == 0:
            q += 1
        q = max(q, 1)
        size = n // q
        if size < k:
            raise InsufficientData(
                f"n = {n} gives chunks of {size} < k = {k} at alpha = {alpha}"
            )
        return cls(alpha=alpha, chunks=q, chunk_size=size)


def median_of_means(
    estimator: Callable[[Any, np.random.Generator, PrivacyBudget], EstimateReport],
    data,
    plan: BoostPlan,
    seed,
    budget: PrivacyBudget,
) -> EstimateReport:
    """Median of the base estimator over disjoint consecutive chunks.

    ``data`` is a ``Dataset`` (chunks are subsets) or a graph (chunks are
    induced subgraphs); indices past chunks * chunk_size are dropped.  Each
    chunk gets an independently derived seed stream and its own branch ledger,
    and the whole block is one parallel-composition entry
    ``median_of_means(q=...)`` whose debit is the largest branch total.  Chunk
    runs that return bottom are excluded from the median; if a majority are
    bottom the wrapped result is bottom too (a majority of failures leaves the
    median meaningless).
    """
    q, size = plan.chunks, plan.chunk_size
    if data.n < q * size:
        raise InsufficientData("dataset shorter than the chunk plan")
    take = data.subset if isinstance(data, Dataset) else data.induced
    rngs = child_seeds(seed, q)
    with budget.parallel(f"median_of_means(q={q})") as branches:
        reports = [
            estimator(take(np.arange(ci * size, (ci + 1) * size)), rngs[ci], branches.branch())
            for ci in range(q)
        ]
    good = [r for r in reports if not r.is_bottom]
    if len(good) <= q // 2:
        return EstimateReport(
            estimate=None,
            bottom_reason=f"{q - len(good)} of {q} chunk runs returned bottom",
            diagnostics={"chunks": q, "chunk_size": size},
        )
    estimates = [r.estimate for r in good]
    radii = [r.radius for r in good if r.radius is not None]
    return EstimateReport(
        estimate=float(median(estimates)),
        radius=max(radii) if len(radii) == len(good) else None,
        noise_scale=None,
        diagnostics={
            "chunks": q,
            "chunk_size": size,
            "chunk_estimates": estimates,
            "bottoms": q - len(good),
        },
    )


def boosted(
    estimator: Callable[[Any, np.random.Generator, PrivacyBudget], EstimateReport],
    data,
    k: int,
    alpha: Optional[float],
    seed,
    budget: PrivacyBudget,
) -> EstimateReport:
    """``estimator(data, seed, budget)`` at confidence 1 - alpha.

    With ``alpha`` None the estimator runs once on the whole data.  Otherwise
    it runs under ``median_of_means`` with the chunk plan for degree-``k``
    statistics at that alpha.
    """
    if alpha is None:
        return estimator(data, seed, budget)
    return median_of_means(
        estimator, data, BoostPlan.for_dataset(data.n, k, float(alpha)), seed, budget
    )
