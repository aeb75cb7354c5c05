"""Median-of-means wrapper: constant-confidence private estimates to 1 - alpha.

The data is split into q disjoint consecutive chunks (q odd), the base
estimator runs independently on each, and the median of the chunk estimates
is returned.  Because the chunks are disjoint, the whole procedure costs the
same privacy budget as a single run (parallel composition).  ``boosted`` is
the one place that chooses between a plain run and a boosted one.

Both take T datasets of one size (one dataset, or the trials of an
experiment cell) and make one estimator call on all T q chunks,
``estimator(chunks, rngs, budgets) -> list[EstimateReport]``: row i debits
budgets[i] and draws from rngs[i], its dataset's generator.  Each release
gives each generator's rows i.i.d. draws of its noise law, independent of
the data (``dp.releases``), so each chunk gets the noise of a run on that
chunk alone.  The chunks of ``Dataset``s are the rows of a (T q, size)
array; the chunks of a graph are the diagonal blocks of one block-diagonal
graph over its first q * size nodes.  A plain run is the q = 1 call.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable, Optional

import numpy as np

from .dp import PrivacyBudget
from .errors import InsufficientData
from .report import EstimateReport
from .rng import row_generators
from .ustat import Dataset

ChunkEstimator = Callable[[Any, Any, list[PrivacyBudget]], list[EstimateReport]]


@dataclass(frozen=True)
class BoostPlan:
    """Chunking plan for a target failure probability alpha."""

    alpha: float
    chunks: int
    chunk_size: int

    @staticmethod
    def chunk_count(alpha: float) -> int:
        """The odd q >= 8 log(1/alpha) of every plan at alpha."""
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        q = math.ceil(8.0 * math.log(1.0 / alpha))
        return q + 1 if q % 2 == 0 else q

    @classmethod
    def for_dataset(cls, n: int, k: int, alpha: float) -> "BoostPlan":
        q = cls.chunk_count(alpha)
        size = n // q
        if size < k:
            raise InsufficientData(
                f"n = {n} gives chunks of {size} < k = {k} at alpha = {alpha}"
            )
        return cls(alpha=alpha, chunks=q, chunk_size=size)


def _chunks(datasets: list, q: int, size: int):
    """The first q * size points of each dataset as q consecutive chunks,
    dataset after dataset: the rows of a (T q, size) array for T
    ``Dataset``s, one block-diagonal graph for a graph (the graph itself
    when one chunk holds all of it)."""
    if isinstance(datasets[0], Dataset):
        rows = [d.points[: q * size].reshape(q, size) for d in datasets]
        return rows[0] if len(rows) == 1 else np.concatenate(rows)  # one dataset's chunks are a view
    (graph,) = datasets  # graphs are boosted one at a time
    return graph.block_diagonal(q, size)


def _median(reports: list[EstimateReport], size: int) -> EstimateReport:
    """The median of one dataset's chunk reports.  Chunk runs that return
    bottom are excluded; if a majority are bottom the result is bottom too
    (a majority of failures leaves the median meaningless)."""
    q = len(reports)
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
            "chunks": q, "chunk_size": size, "chunk_estimates": estimates, "bottoms": q - len(good),
        },
    )


def median_of_means(
    estimator: ChunkEstimator,
    datasets: list,
    plan: BoostPlan,
    seed,
    budgets: list[PrivacyBudget],
) -> list[EstimateReport]:
    """The median of the chunk estimator over disjoint consecutive chunks of
    each of T datasets, dataset t debiting budgets[t].

    A dataset is a ``Dataset`` (chunks are rows of its points) or a graph
    (chunks are the diagonal blocks of one block-diagonal graph); indices
    past chunks * chunk_size are dropped.  ``seed`` is one seed for every
    dataset or one generator per dataset.  One estimator call runs all T q
    chunks, dataset after dataset, each chunk with its own branch ledger and
    its dataset's generator.  Each dataset is one parallel-composition entry
    ``median_of_means(q=...)``, whose debit is its largest branch total,
    and gets its own median.
    """
    q, size = plan.chunks, plan.chunk_size
    if any(data.n < q * size for data in datasets):
        raise InsufficientData("dataset shorter than the chunk plan")
    rows = [g for g in row_generators(seed, len(datasets)) for _ in range(q)]
    with ExitStack() as blocks:
        branches = []
        for budget in budgets:
            block = blocks.enter_context(budget.parallel(f"median_of_means(q={q})"))
            branches += [block.branch() for _ in range(q)]
        reports = estimator(_chunks(datasets, q, size), rows, branches)
    return [_median(reports[t : t + q], size) for t in range(0, len(reports), q)]


def boosted(
    estimator: ChunkEstimator,
    datasets: list,
    k: int,
    alpha: Optional[float],
    seed,
    budgets: list[PrivacyBudget],
) -> list[EstimateReport]:
    """The chunk estimator's report on each of T datasets of one size at
    confidence 1 - alpha, dataset t debiting budgets[t]; ``seed`` is one
    seed for every dataset or one generator per dataset.

    With ``alpha`` None the estimator runs once on the T whole datasets, one
    chunk each, with their generators and ``budgets`` themselves.
    Otherwise they run under ``median_of_means`` with the chunk plan for
    degree-``k`` statistics at that alpha.
    """
    n = datasets[0].n
    if any(data.n != n for data in datasets):
        raise ValueError("boosted datasets must be of one size")
    if alpha is None:
        return estimator(_chunks(datasets, 1, n), row_generators(seed, len(datasets)), budgets)
    plan = BoostPlan.for_dataset(n, k, float(alpha))
    return median_of_means(estimator, datasets, plan, seed, budgets)
