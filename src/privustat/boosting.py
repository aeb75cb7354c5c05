"""Median-of-means wrapper: constant-confidence private estimates to 1 - alpha.

The data is split into q disjoint consecutive chunks (q odd), the base
estimator runs independently on each, and the median of the chunk estimates
is returned.  Because the chunks are disjoint, the whole procedure costs the
same privacy budget as a single run (parallel composition).  ``boosted`` is
the one place that chooses between a plain run and a boosted one.

Every estimator here takes all of its chunks in one call,
``estimator(chunks, rng, budgets) -> list[EstimateReport]``: chunk i debits
budgets[i], and every chunk's randomness comes from the one generator
``rng``.  Each release of the stack gives its rows i.i.d. draws of its noise
law, independent of the data (``dp.releases``), so each chunk gets the noise
of a run on that chunk alone.  The chunks of a ``Dataset`` are the rows of
a (q, size) array; the chunks of a graph are the diagonal blocks of one
block-diagonal graph over its first q * size nodes.  Every estimator runs
its chunks as one stacked pass, and a plain run is the q = 1 call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable, Optional

from .dp import PrivacyBudget
from .errors import InsufficientData
from .report import EstimateReport
from .rng import as_generator
from .ustat import Dataset

ChunkEstimator = Callable[[Any, Any, list[PrivacyBudget]], list[EstimateReport]]


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
        size = n // q
        if size < k:
            raise InsufficientData(
                f"n = {n} gives chunks of {size} < k = {k} at alpha = {alpha}"
            )
        return cls(alpha=alpha, chunks=q, chunk_size=size)


def _chunks(data, q: int, size: int):
    """The first q * size points of ``data`` as q consecutive chunks: the
    rows of a (q, size) array for a ``Dataset``, one block-diagonal graph
    for a graph (the graph itself when one chunk holds all of it)."""
    if isinstance(data, Dataset):
        return data.points[: q * size].reshape(q, size)
    return data.block_diagonal(q, size)


def median_of_means(
    estimator: ChunkEstimator,
    data,
    plan: BoostPlan,
    seed,
    budget: PrivacyBudget,
) -> EstimateReport:
    """Median of the chunk estimator over disjoint consecutive chunks.

    ``data`` is a ``Dataset`` (chunks are rows of its points) or a graph
    (chunks are the diagonal blocks of one block-diagonal graph); indices
    past chunks * chunk_size are dropped.  The estimator gets the generator
    of ``seed`` and one branch ledger per chunk, and the whole block is one
    parallel-composition entry ``median_of_means(q=...)`` whose debit is
    the largest branch total.
    Chunk runs that return bottom are excluded from the median; if a
    majority are bottom the wrapped result is bottom too (a majority of
    failures leaves the median meaningless).
    """
    q, size = plan.chunks, plan.chunk_size
    if data.n < q * size:
        raise InsufficientData("dataset shorter than the chunk plan")
    rng = as_generator(seed)
    with budget.parallel(f"median_of_means(q={q})") as branches:
        reports = estimator(_chunks(data, q, size), rng, [branches.branch() for _ in range(q)])
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
    estimator: ChunkEstimator,
    data,
    k: int,
    alpha: Optional[float],
    seed,
    budget: PrivacyBudget,
) -> EstimateReport:
    """The chunk estimator's report on ``data`` at confidence 1 - alpha.

    With ``alpha`` None the estimator runs once on the whole data, as one
    chunk with ``seed`` and ``budget`` themselves.  Otherwise it runs under
    ``median_of_means`` with the chunk plan for degree-``k`` statistics at
    that alpha.
    """
    if alpha is None:
        (report,) = estimator(_chunks(data, 1, data.n), seed, [budget])
        return report
    return median_of_means(
        estimator, data, BoostPlan.for_dataset(data.n, k, float(alpha)), seed, budget
    )
