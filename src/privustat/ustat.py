"""Kernels, subset families, and U-statistic evaluation.

A U-statistic averages a symmetric kernel h of degree k over k-subsets of the
data.  The "all-tuples" family enumerates every subset; the "subsampled"
family draws M subsets uniformly with replacement (an incomplete U-statistic).
Per-index incidence counts of a family drive both the noise calibration of the
private estimators and the regularity check used by the reweighting algorithm.

The complete family is never stored.  One generator writes its subsets in
lexicographic blocks, copying from any array of shape (..., n): from the
indices range(n) it gives the rows of ``SubsetFamily.blocks()``, and from
the data or a stack of chunks it gives the kernel's inputs directly, with no
index array and no gather in between.
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
    column-major or strided (complete families are generated column-major),
    so ``fn`` must not assume C order.  It is read-only, because it may be a
    view of the dataset itself: a ``fn`` that writes into it raises.
    Symmetry in the k arguments is the caller's responsibility (and is
    property-tested).
    """

    degree: int
    fn: Callable[[np.ndarray], np.ndarray]
    tail: Bounded | SubGaussian
    name: str = "kernel"

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("kernel degree must be >= 1")

    def evaluate(self, tuples: np.ndarray) -> np.ndarray:
        # a read-only view: the tuples may be a view of the dataset itself
        tuples = np.asarray(tuples).view()
        tuples.flags.writeable = False
        if tuples.ndim != 2 or tuples.shape[1] != self.degree:
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


# ---------------------------------------------------------------------------
# subset families
# ---------------------------------------------------------------------------

class RegularityCheck(NamedTuple):
    ok: bool
    reason: Optional[str]


# Row budget of one generated block of the complete family.  A block's
# values and its kernel values then stay in cache.
_BLOCK_ROWS = 1 << 15


def _with_firsts(base: np.ndarray, k: int, lo: int, hi: int, tails: np.ndarray) -> np.ndarray:
    """The k-subsets of range(n) whose first index lies in [lo, hi), in
    lexicographic order, drawn from ``base`` of shape (..., n).

    The result is a (k, ..., m) array: row c holds base[..., S_c] for the m
    subsets S.  ``tails`` holds every (k-1)-subset of range(t, n), for some
    t <= lo + 1, in lexicographic order and in the same layout; the subsets
    that start with i end in its last C(n-i-1, k-1) columns.  So each first
    index costs two slice copies, whatever base is.
    """
    n = base.shape[-1]
    runs = [math.comb(n - i - 1, k - 1) for i in range(lo, hi)]
    out = np.empty((k, *base.shape[:-1], sum(runs)), dtype=base.dtype)
    firsts, rest, width = out[0], out[1:], tails.shape[-1]
    start = 0
    for i, run in zip(range(lo, hi), runs):
        stop = start + run
        firsts[..., start:stop] = base[..., i, None]
        rest[..., start:stop] = tails[..., width - run :]
        start = stop
    return out


def _complete(base: np.ndarray, k: int, lo: int) -> np.ndarray:
    """Every k-subset of range(lo, n), in lexicographic order, drawn from ``base`` as (k, ..., m)."""
    if k == 1:
        return base[None, ..., lo:]
    return _with_firsts(base, k, lo, base.shape[-1] - k + 1, _complete(base, k - 1, lo + 1))


# (prefix, first, stop): a block of a complete family, see _lex_spans
_Span = tuple[tuple[int, ...], int, int]


def _lex_spans(n: int, k: int, lo: int = 0) -> Iterator[_Span]:
    """The blocks of every k-subset of range(lo, n) in lexicographic order, as
    (prefix, first, stop) spans.

    A span's block is the prefix followed by each (k - len(prefix))-subset of
    range(n) whose first index lies in [first, stop).  It holds at most
    _BLOCK_ROWS subsets: a run of consecutive first indices, or, where one
    first index has more subsets than that, part of them with the index moved
    into the prefix.
    """
    if k == 1:
        for start in range(lo, n, _BLOCK_ROWS):
            yield (), start, min(start + _BLOCK_ROWS, n)
        return
    first, last = lo, n - k
    while first <= last and math.comb(n - first - 1, k - 1) > _BLOCK_ROWS:
        for prefix, a, b in _lex_spans(n, k - 1, first + 1):
            yield (first, *prefix), a, b
        first += 1
    while first <= last:
        stop, rows = first, 0
        while stop <= last and rows + math.comb(n - stop - 1, k - 1) <= _BLOCK_ROWS:
            rows += math.comb(n - stop - 1, k - 1)
            stop += 1
        yield (), first, stop
        first = stop


class _SpanBlocks:
    """The blocks of a span sequence drawn from one ``base`` of shape (..., n).

    The tails table of each degree is built once and serves every later span
    whose first index is no smaller (no table is longer than one block).
    """

    def __init__(self, base: np.ndarray):
        self.base = base
        self._tails: dict[int, tuple[int, np.ndarray]] = {}

    def tails(self, k: int, lo: int) -> np.ndarray:
        """Every (k-1)-subset of range(t, n) for some t <= lo + 1."""
        if k not in self._tails or lo < self._tails[k][0]:
            self._tails[k] = lo, _complete(self.base, k - 1, lo + 1)
        return self._tails[k][1]

    def block(self, prefix: tuple[int, ...], k: int, lo: int, hi: int) -> np.ndarray:
        """``prefix`` followed by each k-subset with first index in [lo, hi),
        as a (len(prefix) + k, ..., m) array."""
        base = self.base
        if k == 1:
            body = base[None, ..., lo:hi]
        else:
            body = _with_firsts(base, k, lo, hi, self.tails(k, lo))
        if not prefix:
            return body
        heads = np.moveaxis(base[..., list(prefix)], -1, 0)[..., None]
        return np.concatenate([np.broadcast_to(heads, (len(prefix), *body.shape[1:])), body])


def _lex_runs(n: int, k: int) -> Iterator[tuple[_Span, np.ndarray, np.ndarray, np.ndarray]]:
    """(span, starts, heads, last) for each span of ``_lex_spans(n, k)``.

    A run is a maximal stretch of a block's subsets that share their first
    k-1 indices, its head.  ``starts`` holds the first row of each run,
    ``heads`` the heads as a (k-1, runs) array and ``last`` the last index of
    every subset.  A head of the span (prefix, first, stop) is the prefix
    followed by a (k-1-len(prefix))-subset of range(n-1) with first index in
    [first, stop), and its run lasts until the last index reaches n-1; a
    span of 1-subsets is one run, cut where the block ends.  So the heads
    come from the subset generator too, and only ``last`` has a row per
    subset: one suffix copy of the index tails' last row per first index.
    """
    indices, head_indices = _SpanBlocks(np.arange(n)), _SpanBlocks(np.arange(n - 1))
    for span in _lex_spans(n, k):
        prefix, lo, hi = span
        j = k - len(prefix)
        if j == 1:  # one run, headed by the prefix
            heads = np.array(prefix, dtype=np.int64).reshape(-1, 1)
            yield span, np.zeros(1, dtype=np.intp), heads, indices.base[lo:hi]
            continue
        heads = head_indices.block(prefix, j - 1, lo, hi)
        lengths = n - 1 - heads[-1]
        starts = np.zeros(lengths.size, dtype=np.intp)
        np.cumsum(lengths[:-1], out=starts[1:])
        tail = indices.tails(j, lo)[-1]
        last = np.concatenate([tail[tail.size - math.comb(n - i - 1, j - 1) :] for i in range(lo, hi)])
        yield span, starts, heads, last


class SubsetFamily:
    """An indexed collection of M k-subsets of range(n), with incidence counts.

    Rows are 0-based, sorted, distinct indices (rows may repeat).  ``counts``
    holds M_i, the number of subsets containing each index.  Consumers read
    the rows through ``blocks()``.  ``subsets=None`` stands for every k-subset
    in lexicographic order: its counts are C(n-1, k-1) and its rows are
    generated block by block on every pass.  Generated rows are column-major,
    so each column of a block is contiguous.  The kernel evaluators do not
    read these index rows: they run the same generator on the data.
    ``kind="all_tuples"`` is exactly that generated family; stored rows take
    any other kind.
    """

    def __init__(self, n: int, k: int, subsets: Optional[np.ndarray], kind: str):
        # kind: "all_tuples" | "subsampled" | "chunks" | "explicit"
        if (subsets is None) != (kind == "all_tuples"):
            # the label buys the complete family's regularity, its tighter
            # smooth bound and its prefix-run projections, so it is never
            # taken on trust
            raise ValueError('kind "all_tuples" is exactly the generated family (subsets=None)')
        self.n, self.k, self.kind = n, k, kind
        if subsets is None:
            self._subsets = None
            self.size = math.comb(n, k)
            self.counts = np.full(n, math.comb(n - 1, k - 1), dtype=np.int64)
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
        blocks, start = _SpanBlocks(np.arange(self.n, dtype=np.int64)), 0
        for prefix, lo, hi in _lex_spans(self.n, self.k):
            block = blocks.block(prefix, self.k - len(prefix), lo, hi)
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
        codes = [np.empty(0, dtype=np.int64)]
        for _, rows in self.blocks():
            for a, b in itertools.combinations(rows.T, 2):
                codes.append(np.minimum(a, b) * self.n + np.maximum(a, b))
        unique, mij = np.unique(np.concatenate(codes), return_counts=True)
        return np.stack([unique // self.n, unique % self.n], axis=1), mij

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


def all_tuples(n: int, k: int) -> SubsetFamily:
    """Every k-subset of range(n), in lexicographic order; at most
    ``DEFAULT_ENUMERATION_CAP`` of them."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    total = math.comb(n, k)
    if total > DEFAULT_ENUMERATION_CAP:
        raise CombinatorialOverflow(
            f"C({n},{k}) = {total} exceeds the cap {DEFAULT_ENUMERATION_CAP}; "
            "use subsample_family instead"
        )
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

def _check_pair(h: Kernel, n: int, family: SubsetFamily) -> None:
    if family.n != n:
        raise ValueError("family ambient size does not match dataset size")
    if family.k != h.degree:
        raise ValueError("family subset size does not match kernel degree")


def _block_values(h: Kernel, block: np.ndarray) -> np.ndarray:
    """h on a (k, q, m) block of subsets drawn from q chunks, as (q, m).

    The passes call it on each block as it is made, so that no block
    outlives its evaluation and the next block can reuse its memory while it
    is still in cache.  A block held while the next one was built made a
    pass 5-20% slower at k = 3 and n = 250 (2 cores), with no more page
    faults.
    """
    k, q, m = block.shape
    return h.evaluate(block.reshape(k, q * m).T).reshape(q, m)


def kernel_values(h: Kernel, data: Dataset, family: SubsetFamily) -> np.ndarray:
    """h(X_S) for every subset S of the family, as an (M,) array."""
    return chunk_kernel_values(h, data.points[None], family)[0]


def chunk_kernel_values(h: Kernel, chunks: np.ndarray, family: SubsetFamily) -> np.ndarray:
    """``kernel_values`` of one family on each row of a (q, n) array of
    chunks, as a (q, M) array.

    Each block of the family is drawn from every chunk at once and evaluated
    in one kernel call on a (q * m, k) array whose column c holds the chunks'
    values at the blocks' c-th indices.  A complete family's block is copied
    from the chunks by the subset generator itself (column-major, no index
    array); a stored family's rows are gathered.  Every row's values are
    those of ``kernel_values`` on that chunk alone, bit for bit.
    """
    q, k = chunks.shape[0], family.k
    _check_pair(h, chunks.shape[1], family)
    if family.kind != "all_tuples":
        return h.evaluate(np.take(chunks, family.subsets, axis=1).reshape(-1, k)).reshape(q, family.size)
    out = np.empty((q, family.size))
    blocks, start = _SpanBlocks(chunks), 0
    for prefix, lo, hi in _lex_spans(family.n, k):
        block_values = _block_values(h, blocks.block(prefix, k - len(prefix), lo, hi))
        m = block_values.shape[1]
        out[:, start : start + m] = block_values
        start += m
    return out


def evaluate_ustat(h: Kernel, data: Dataset, family: SubsetFamily) -> float:
    """(1/M) sum_S h(X_S): the complete or incomplete U-statistic."""
    return float(kernel_values(h, data, family).mean())


def kernel_values_and_projections(
    h: Kernel, chunks: np.ndarray, family: SubsetFamily
) -> tuple[np.ndarray, np.ndarray]:
    """``chunk_kernel_values`` and the local projections of each row of a
    (q, n) array of chunks, in one pass over the family: (q, M) values and
    (q, n) projections.

    Entry (r, i) of the projections is (1/M_i) sum_{S : i in S} h(X_S) on
    chunk r; indices with M_i = 0 get NaN.  On a complete family the run
    structure is walked once for all rows, and each block, drawn from every
    chunk at once, is added to the projection sums while it is still in
    cache: each of the first k-1 indices is constant on a prefix run, so it
    adds one sum per run, and only the last index scatters every value.
    Each scatter is one ``bincount`` over the whole stack, with row r's bins
    offset by r * n.  Every row's values and projections are those of its
    chunk alone, bit for bit.
    """
    q, n, k = chunks.shape[0], family.n, family.k
    _check_pair(h, chunks.shape[1], family)
    sums = np.zeros(q * n)
    # row r's bins start at r * n; a single row needs no offsets
    offsets = np.arange(0, q * n, n)[:, None] if q > 1 else None

    def scatter(column: np.ndarray, weights: np.ndarray) -> None:
        codes = column if offsets is None else (column + offsets).ravel()
        np.add(sums, np.bincount(codes, weights=weights.ravel(), minlength=q * n), out=sums)

    if family.kind != "all_tuples":
        values = chunk_kernel_values(h, chunks, family)
        for column in family.subsets.T:
            scatter(column, values)
    else:
        values = np.empty((q, family.size))
        blocks = _SpanBlocks(chunks)
        start = 0
        for (prefix, lo, hi), starts, heads, last in _lex_runs(n, k):
            m = last.size
            block_values = values[:, start : start + m]
            block_values[:] = _block_values(h, blocks.block(prefix, k - len(prefix), lo, hi))
            start += m
            run_sums = np.add.reduceat(block_values, starts, axis=1)
            for column in heads:
                scatter(column, run_sums)
            scatter(last, block_values)
    with np.errstate(invalid="ignore", divide="ignore"):
        return values, sums.reshape(q, n) / family.counts
