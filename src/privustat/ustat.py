"""Kernels, subset families, and U-statistic evaluation.

A U-statistic averages a symmetric kernel h of degree k over k-subsets of the
data.  The "all-tuples" family enumerates every subset; the "subsampled"
family draws M subsets uniformly with replacement (an incomplete U-statistic).
Per-index incidence counts of a family drive both the noise calibration of the
private estimators and the regularity check used by the reweighting algorithm.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import CombinatorialOverflow
from .rng import as_generator

DEFAULT_ENUMERATION_CAP = 10**8


# ---------------------------------------------------------------------------
# kernels and datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bounded:
    """Kernel tail descriptor: sup h - inf h <= range_width."""

    range_width: float


@dataclass(frozen=True)
class SubGaussian:
    """Kernel tail descriptor: variance proxy of the kernel value distribution."""

    tau: float


@dataclass(frozen=True)
class Kernel:
    """A symmetric k-ary real-valued function.

    ``fn`` is evaluated in batch: it receives an (M, k) array whose rows are
    the k-tuples of data values, and returns an (M,) array.  The array may be
    column-major (complete families are generated that way), so ``fn`` must
    not assume C order and must not write into it.  Symmetry in the k
    arguments is the caller's responsibility (and is property-tested).
    """

    degree: int
    fn: Callable[[np.ndarray], np.ndarray]
    tail: Bounded | SubGaussian
    name: str = "kernel"

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("kernel degree must be >= 1")

    def evaluate(self, tuples: np.ndarray) -> np.ndarray:
        tuples = np.asarray(tuples)
        if tuples.ndim == 1:
            tuples = tuples.reshape(1, -1)
        if tuples.shape[1] != self.degree:
            raise ValueError(f"expected {self.degree}-tuples, got shape {tuples.shape}")
        return np.asarray(self.fn(tuples), dtype=float).reshape(tuples.shape[0])


def identity_kernel() -> Kernel:
    """Degree-1 kernel h(x) = x (sample mean)."""
    return Kernel(1, lambda t: t[:, 0].astype(float), SubGaussian(1.0), name="identity")


def mean_kernel(degree: int, tau: float = 1.0) -> Kernel:
    """h(x_1..x_k) = average of the arguments."""
    return Kernel(degree, lambda t: t.mean(axis=1), SubGaussian(tau), name=f"mean{degree}")


def collision_kernel() -> Kernel:
    """Pair kernel 1(x = y) used by the uniformity test."""
    return Kernel(2, lambda t: (t[:, 0] == t[:, 1]).astype(float), Bounded(1.0), name="collision")


def equality_kernel(degree: int) -> Kernel:
    """k-ary kernel 1(x_1 = ... = x_k)."""

    def fn(t):
        out = np.ones(t.shape[0], dtype=bool)
        for j in range(1, t.shape[1]):
            out &= t[:, j] == t[:, 0]
        return out.astype(float)

    return Kernel(degree, fn, Bounded(1.0), name=f"equal{degree}")


def clipped_kernel(base: Kernel, lo: float, hi: float) -> Kernel:
    """Project the values of ``base`` onto [lo, hi]."""
    if hi < lo:
        raise ValueError("empty clipping interval")
    return Kernel(
        base.degree,
        lambda t: np.clip(base.fn(t), lo, hi),
        Bounded(hi - lo),
        name=f"clip({base.name})",
    )


@dataclass(frozen=True)
class Dataset:
    """An ordered sequence of n opaque data values (stored as a 1-D array)."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points))
        if self.points.ndim != 1:
            raise ValueError("dataset must be one-dimensional")

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    def subset(self, indices) -> "Dataset":
        return Dataset(self.points[np.asarray(indices)])


# ---------------------------------------------------------------------------
# subset families
# ---------------------------------------------------------------------------

class RegularityCheck(NamedTuple):
    ok: bool
    reason: Optional[str]


# Row budget of one generated block of the complete family.  A block's
# indices, its gathered data and its kernel values then stay in cache.
_BLOCK_ROWS = 1 << 15


def _with_firsts(n: int, k: int, lo: int, hi: int, tails: np.ndarray) -> np.ndarray:
    """The k-subsets of range(n) whose first index lies in [lo, hi), in lexicographic order.

    The result is a (k, m) array: row c holds column c of the m subsets.
    ``tails`` holds every (k-1)-subset of range(t, n), for some t <= lo + 1,
    in lexicographic order and in the same layout; the subsets that start
    with i end in its last C(n-i-1, k-1) columns.
    """
    runs = [math.comb(n - i - 1, k - 1) for i in range(lo, hi)]
    out = np.empty((k, sum(runs)), dtype=np.int64)
    start = 0
    for i, run in zip(range(lo, hi), runs):
        out[0, start : start + run] = i
        out[1:, start : start + run] = tails[:, tails.shape[1] - run :]
        start += run
    return out


def _complete(n: int, k: int, lo: int) -> np.ndarray:
    """Every k-subset of range(lo, n), in lexicographic order, as a (k, m) array."""
    if k == 1:
        return np.arange(lo, n, dtype=np.int64).reshape(1, -1)
    return _with_firsts(n, k, lo, n - k + 1, _complete(n, k - 1, lo + 1))


def _lex_blocks(n: int, k: int, lo: int = 0) -> Iterator[np.ndarray]:
    """Every k-subset of range(lo, n) in lexicographic order, as (k, m) blocks.

    A block is a run of consecutive first indices of at most _BLOCK_ROWS
    subsets; a first index whose subsets alone are more is split by its next
    index.
    """
    if k == 1:
        for start in range(lo, n, _BLOCK_ROWS):
            yield np.arange(start, min(start + _BLOCK_ROWS, n), dtype=np.int64).reshape(1, -1)
        return
    first, last = lo, n - k
    while first <= last and math.comb(n - first - 1, k - 1) > _BLOCK_ROWS:
        for tail in _lex_blocks(n, k - 1, first + 1):
            block = np.empty((k, tail.shape[1]), dtype=np.int64)
            block[0] = first
            block[1:] = tail
            yield block
        first += 1
    tails = _complete(n, k - 1, first + 1)  # no longer than one block
    while first <= last:
        stop, rows = first, 0
        while stop <= last and rows + math.comb(n - stop - 1, k - 1) <= _BLOCK_ROWS:
            rows += math.comb(n - stop - 1, k - 1)
            stop += 1
        yield _with_firsts(n, k, first, stop, tails)
        first = stop


def _prefix_runs(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(starts, heads) of the prefix runs of a block of lexicographic k-subsets.

    A run is a maximal stretch of rows that share their first k-1 indices;
    in lexicographic order it ends at a row whose last index is n-1, or where
    the block ends.  ``starts`` holds the first row of each run, ``heads``
    its first k-1 indices as a (k-1, runs) array.
    """
    last = rows[:, -1]
    first = np.empty(last.size, dtype=bool)
    first[0] = True
    np.equal(last[:-1], n - 1, out=first[1:])
    starts = np.flatnonzero(first)
    return starts, rows.T[:-1, starts]


class SubsetFamily:
    """An indexed collection of M k-subsets of range(n), with incidence counts.

    Rows are 0-based, sorted, distinct indices (rows may repeat).  ``counts``
    holds M_i, the number of subsets containing each index.  Consumers read
    the rows through ``blocks()``.  ``subsets=None`` stands for every k-subset
    in lexicographic order: its counts are C(n-1, k-1) and its rows are
    generated block by block on every pass, unless they fit in one block,
    which is then kept.  Generated rows are column-major, so each column of
    a block is contiguous.  ``kind="all_tuples"`` is exactly that generated
    family; stored rows take any other kind.
    """

    def __init__(self, n: int, k: int, subsets: Optional[np.ndarray], kind: str):
        # kind: "all_tuples" | "subsampled" | "chunks" | "explicit"
        if (subsets is None) != (kind == "all_tuples"):
            # the label buys the complete family's regularity, its tighter
            # smooth bound and its prefix-run projections, so it is never
            # taken on trust
            raise ValueError('kind "all_tuples" is exactly the generated family (subsets=None)')
        self.n, self.k, self.kind = n, k, kind
        self._pair_counts: Optional[tuple[np.ndarray, np.ndarray]] = None
        if subsets is None:
            self.size = math.comb(n, k)
            self.counts = np.full(n, math.comb(n - 1, k - 1), dtype=np.int64)
            self._subsets = _complete(n, k, 0).T if self.size <= _BLOCK_ROWS else None
            return
        subsets = np.asarray(subsets, dtype=np.int64)
        if subsets.ndim != 2 or subsets.shape[1] != k:
            raise ValueError("subsets must be an (M, k) array")
        if subsets.size and (subsets.min() < 0 or subsets.max() >= n):
            raise ValueError("subset indices out of range")
        self._subsets = subsets
        self.size = int(subsets.shape[0])
        self.counts = np.bincount(subsets.ravel(), minlength=n)

    def blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """(first row number, (m, k) rows) for consecutive blocks covering the family.

        Rows of a complete family are F-ordered (m, k) views, rows of a stored
        family are the array it was given.  Consumers must not write into them.
        """
        if self._subsets is not None:
            yield 0, self._subsets
            return
        start = 0
        for block in _lex_blocks(self.n, self.k):
            yield start, block.T
            start += block.shape[1]

    @property
    def subsets(self) -> np.ndarray:
        """The (M, k) rows; a generated family builds them anew on each access."""
        if self._subsets is None:
            return np.concatenate([block for _, block in self.blocks()])
        return self._subsets

    def pair_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(pairs, M_ij): the (P, 2) pairs i <= j that co-occur in some subset,
        in lexicographic order, and the number of subsets containing each."""
        if self._pair_counts is None:
            codes = [np.empty(0, dtype=np.int64)]
            for _, rows in self.blocks():
                for a, b in itertools.combinations(rows.T, 2):
                    codes.append(np.minimum(a, b) * self.n + np.maximum(a, b))
            unique, mij = np.unique(np.concatenate(codes), return_counts=True)
            self._pair_counts = (np.stack([unique // self.n, unique % self.n], axis=1), mij)
        return self._pair_counts

    def dependence_fraction(self) -> float:
        """max_i M_i / M, the maximal fraction of subsets sharing one index.

        For the complete family this is C(n-1, k-1)/C(n, k), exactly k/n as a
        rational; int/int division rounds it correctly, so it is float(k/n).
        """
        return int(self.counts.max()) / self.size

    def check_regularity(self) -> RegularityCheck:
        """Incidence conditions required by the reweighting algorithm.

        ok iff M_i > 0 for all i, M_i/M <= 3k/n for all i, and
        M_ij/M_i <= 3k/n for all pairs i != j.  Ties pass.  Comparisons are
        done by integer cross-multiplication, so boundary cases are exact.
        A failing pair condition names the lexicographically smallest pair.
        """
        n, k, m = self.n, self.k, self.size
        if self.kind == "all_tuples":
            # M_i/M = k/n and M_ij/M_i = (k-1)/(n-1) <= 3k/n hold identically.
            return RegularityCheck(True, None)
        if int(self.counts.min()) == 0:
            i = int(np.argmin(self.counts))
            return RegularityCheck(False, f"index {i} appears in no subset")
        too_big = np.nonzero(self.counts * n > 3 * k * m)[0]
        if too_big.size:
            i = int(too_big[0])
            return RegularityCheck(False, f"M_{i}/M = {int(self.counts[i])}/{m} exceeds 3k/n")
        pairs, mij = self.pair_counts()
        # column c violates when M_ij/M_i exceeds 3k/n with i = pairs[:, c]
        over = mij[:, None] * n > 3 * k * self.counts[pairs]
        hits = np.nonzero(over.any(axis=1))[0]
        if hits.size:
            p = int(hits[0])
            c = 0 if over[p, 0] else 1
            i, j = int(pairs[p, c]), int(pairs[p, 1 - c])
            return RegularityCheck(
                False, f"M_{i}{j}/M_{i} = {int(mij[p])}/{int(self.counts[i])} exceeds 3k/n"
            )
        return RegularityCheck(True, None)


def _check_enumeration_cap(n: int, k: int, cap: int) -> int:
    total = math.comb(n, k)
    if total > cap:
        raise CombinatorialOverflow(
            f"C({n},{k}) = {total} exceeds the cap {cap}; use subsample_family instead"
        )
    return total


def all_tuples(n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> SubsetFamily:
    """Every k-subset of range(n), in lexicographic order."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    _check_enumeration_cap(n, k, cap)
    return SubsetFamily(n, k, None, kind="all_tuples")


def subsample_family(n: int, k: int, size: int, seed) -> SubsetFamily:
    """``size`` subsets drawn uniformly with replacement from all k-subsets.

    Each row is an independent, exactly uniform k-subset of range(n), drawn
    by Floyd's sampler (Bentley & Floyd, CACM 30(9), 1987) run on all rows
    at once: for j = n-k, ..., n-1 draw t uniform on [0, j] and add t to
    the row, or j if t is already in it.  That is k vectors of ``size``
    integers from ``seed``, O(size·k) memory and O(size·k²) comparisons,
    independent of n.  The k² term is the price at large k: on 2 cores
    (200, 100, 2000) takes 28 ms against 6.1 ms for argpartitioning
    (size, n) uniforms, while (1000, 2, 3453) takes 0.31 ms against 35 ms.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if size < 1:
        raise ValueError("need at least one subset")
    rng = as_generator(seed)
    picks = np.empty((size, k), dtype=np.int64)
    for c, j in enumerate(range(n - k, n)):
        t = rng.integers(0, j + 1, size)
        seen = (picks[:, :c] == t[:, None]).any(axis=1)
        picks[:, c] = np.where(seen, j, t)
    picks.sort(axis=1)
    return SubsetFamily(n, k, picks, kind="subsampled")


def disjoint_chunks(n: int, k: int) -> SubsetFamily:
    """floor(n/k) consecutive disjoint k-blocks; remainder indices dropped."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    m = n // k
    rows = np.arange(m * k, dtype=np.int64).reshape(m, k)
    return SubsetFamily(n, k, rows, kind="chunks")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _check_pair(h: Kernel, data: Dataset, family: SubsetFamily) -> None:
    if family.n != data.n:
        raise ValueError("family ambient size does not match dataset size")
    if family.k != h.degree:
        raise ValueError("family subset size does not match kernel degree")


def kernel_values(h: Kernel, data: Dataset, family: SubsetFamily) -> np.ndarray:
    """h(X_S) for every subset S of the family, as an (M,) array."""
    _check_pair(h, data, family)
    out = np.empty(family.size)
    for start, rows in family.blocks():
        out[start : start + rows.shape[0]] = h.evaluate(data.points[rows])
    return out


def evaluate_ustat(h: Kernel, data: Dataset, family: SubsetFamily) -> float:
    """(1/M) sum_S h(X_S): the complete or incomplete U-statistic."""
    return float(kernel_values(h, data, family).mean())


def _add_projection_sums(
    sums: np.ndarray,
    rows: np.ndarray,
    values: np.ndarray,
    runs: Optional[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Add the value of every row to the sums of its k indices.

    With the block's prefix runs, each of the first k-1 columns is constant
    on a run, so it adds one sum per run; only the last column scatters every
    value.
    """
    n = sums.size
    if runs is None:
        for column in rows.T:
            sums += np.bincount(column, weights=values, minlength=n)
        return
    starts, heads = runs
    run_sums = np.add.reduceat(values, starts)
    for column in heads:
        sums += np.bincount(column, weights=run_sums, minlength=n)
    sums += np.bincount(rows[:, -1], weights=values, minlength=n)


def kernel_values_and_projections(
    h: Kernel, data: Dataset, family: SubsetFamily
) -> tuple[np.ndarray, np.ndarray]:
    """``kernel_values`` and the local projections, in one pass over the family.

    Entry i of the projections is (1/M_i) sum_{S : i in S} h(X_S); indices
    with M_i = 0 get NaN.  Each block's values are added to the projection
    sums while the block is still in cache.  The values are those of
    ``kernel_values``, bit for bit.
    """
    _check_pair(h, data, family)
    values = np.empty(family.size)
    sums = np.zeros(family.n)
    for start, rows in family.blocks():
        block_values = values[start : start + rows.shape[0]]
        block_values[:] = h.evaluate(data.points[rows])
        runs = _prefix_runs(rows, family.n) if family.kind == "all_tuples" else None
        _add_projection_sums(sums, rows, block_values, runs)
    with np.errstate(invalid="ignore", divide="ignore"):
        return values, sums / family.counts
