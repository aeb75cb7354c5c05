"""Two applications: private uniformity testing and private triangle density.

Both test statistics are degenerate U-statistics (collision indicator under
the uniform law; triangle indicator in a geometric graph), which is exactly
the regime where the reweighting estimator beats Laplace-on-range noise.
Both kernels are structured, so the release engine is fed count-based
summaries that avoid enumerating the complete subset family; equivalence
with the generic enumeration path is covered by tests.  Both summaries
stack the q chunks of a boosted estimate as rows, and each row of a
release draws from its own generator (``rng.row_generators``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass, field, replace
from typing import Optional

import numpy as np

from .boosting import boosted
from .dp import LAPLACE, PrivacyBudget, releases
from .errors import InsufficientData
from .hajek import HajekParams, SummaryRows, count_rows, release_rows
from .report import EstimateReport
from .rng import as_generator, row_generators
from .ustat import Dataset

APPLICATION_CONFIDENCE = 0.01  # fixed per-run failure level; callers boost

# Laplace scale multiplier for the private edge density: calibrated to the
# true one-node substitution sensitivity (n-1)/C(n,2) = 2/n of edge density.
EDGE_DENSITY_SENSITIVITY_FACTOR = 2.0


# ---------------------------------------------------------------------------
# perturbed-uniform distributions and the collision statistic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbedUniform:
    """Categorical law p_i = (1 + a_i)/m with a_i in [-1, 1] summing to 0."""

    m: int
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        if self.m < 1:
            raise ValueError(f"need at least one category, got m = {self.m}")
        if self.a.shape != (self.m,):
            raise ValueError("need one perturbation per atom")
        if not np.all(np.abs(self.a) <= 1 + 1e-12):  # also rejects NaN
            raise ValueError("perturbations must be finite and lie in [-1, 1]")
        if abs(float(self.a.sum())) > 1e-9 * max(1, self.m):
            raise ValueError("perturbations must sum to 0")

    @classmethod
    def uniform(cls, m: int) -> "PerturbedUniform":
        return cls(m, np.zeros(m))

    @classmethod
    def half_split(cls, m: int, amplitude: float) -> "PerturbedUniform":
        """+amplitude on the first half of the atoms, -amplitude on the rest."""
        if m % 2:
            raise ValueError("half split needs an even number of atoms")
        a = np.concatenate([np.full(m // 2, amplitude), np.full(m // 2, -amplitude)])
        return cls(m, a)

    @property
    def probabilities(self) -> np.ndarray:
        return (1.0 + self.a) / self.m


def sample_multinomial(dist: PerturbedUniform, n: int, seed) -> Dataset:
    """n i.i.d. category draws (0-based labels)."""
    rng = as_generator(seed)
    return Dataset(rng.choice(dist.m, size=n, p=dist.probabilities))


def collision_theta(dist: PerturbedUniform) -> float:
    """Collision probability sum_i p_i^2 = 1/m + ||a||^2 / m^2."""
    p = dist.probabilities
    return float(np.sum(p * p))


@dataclass(frozen=True)
class UStatSummary:
    """One dataset's non-private statistic: the U-statistic ``a_n`` and the
    local projections of its n indices.  A record to read, not an input of
    the release engine, which takes ``SummaryRows``."""

    n: int
    k: int
    a_n: float
    projections: np.ndarray


def _first_row(rows: SummaryRows) -> UStatSummary:
    return UStatSummary(n=rows.n, k=rows.k, a_n=float(rows.a_n[0]), projections=rows.projections[0])


def collision_rows(chunks: np.ndarray, m: int) -> SummaryRows:
    """Count-based summaries of the collision kernel over all pairs of each
    row of a (q, n) array of category labels: ``count_rows`` of the rows'
    category counts, one column per category.

    One O(n) ``bincount`` of the int64 labels (row i's shifted by i m when
    q > 1) gives the counts, and all after it is O(m log m) per row.  Every
    row is checked before any is summarised.
    """
    x = np.asarray(chunks)
    if x.dtype.kind not in "iu":
        raise ValueError("categorical data must be integer")
    q, n = x.shape
    if n < 2:
        raise InsufficientData("need at least two samples for pair statistics")
    if x.min() < 0 or x.max() >= m:
        raise ValueError(f"category labels must lie in [0, {m})")
    # as integers whatever the label dtype (uint64 plus int64 would give float64)
    codes = x.astype(np.int64, copy=False)
    if q > 1:  # row i's labels shifted to [i m, (i + 1) m)
        codes = codes + m * np.arange(q)[:, None]
    return count_rows(np.bincount(codes.ravel(), minlength=q * m).reshape(q, m), n, 2)


def collision_summary(data: Dataset, m: int) -> UStatSummary:
    """Row 0 of ``collision_rows`` for one dataset, its projections expanded to the n indices."""
    row = _first_row(collision_rows(data.points.reshape(1, -1), m))
    return replace(row, projections=row.projections[data.points])


def collision_xi(m: int, n: int) -> float:
    """Concentration radius for collision projections: 6/m + 8 log(4n/gamma)/n,
    at gamma = APPLICATION_CONFIDENCE."""
    return 6.0 / m + 8.0 * math.log(4.0 * n / APPLICATION_CONFIDENCE) / n


def private_collision_density(
    data: Dataset,
    m: int,
    eps: float,
    xi: float,
    seed,
    budget: PrivacyBudget,
) -> EstimateReport:
    """The collision density of one dataset: the one-row call of
    ``private_collision_densities``."""
    (report,) = private_collision_densities(
        np.asarray(data.points).reshape(1, -1), m, eps, xi, seed, [budget]
    )
    return report


def private_collision_densities(
    chunks: np.ndarray,
    m: int,
    eps: float,
    xi: float,
    seed,
    budgets: list[PrivacyBudget],
) -> list[EstimateReport]:
    """Reweighting estimator for the collision probability (C = 1 kernel) on
    each row of a (q, n) array of labels, row i debiting budgets[i] and
    drawing from its generator of ``seed``."""
    params = HajekParams(eps=eps, c_range=1.0, xi=xi)
    return release_rows(
        collision_rows(chunks, m), params, seed, budgets, label="collision density"
    )


@dataclass(frozen=True)
class UniformityDecision:
    reject: bool
    statistic: float
    threshold: float
    report: EstimateReport


def boosted_uniformity_test(
    data: Dataset,
    m: int,
    delta: float,
    eps: float,
    alpha: Optional[float],
    seed,
    budget: PrivacyBudget,
) -> UniformityDecision:
    """Reject approximate uniformity iff the private collision estimate is
    large: the median of the chunks' collision densities.

    The private estimate replaces the raw collision statistic; the decision
    threshold (1 + 3 delta^2 / 4)/m splits the two hypothesis classes.  The
    chunks are disjoint (parallel composition) and their number is odd, so
    the median clears the threshold exactly when a strict majority of the
    chunk estimates do.  With ``alpha`` None the whole dataset is one chunk.
    """
    if m < 2:
        raise ValueError("need at least two atoms")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if data.n < 2:
        raise InsufficientData("uniformity testing needs at least two samples")
    (report,) = boosted(
        lambda chunks, rngs, branches: private_collision_densities(
            chunks, m, eps, collision_xi(m, chunks.shape[1]), rngs, branches
        ),
        [data], 2, alpha, seed, [budget],
    )
    threshold = (1.0 + 0.75 * delta**2) / m
    return UniformityDecision(
        reject=report.estimate >= threshold,
        statistic=report.estimate,
        threshold=threshold,
        report=report,
    )


# ---------------------------------------------------------------------------
# random geometric graphs and triangle density
# ---------------------------------------------------------------------------

@dataclass
class GeometricGraph:
    """Undirected graph; ``sample_rgg`` also records the latent unit-sphere
    positions it drew the edges from.

    The adjacency is kept only in CSR form, as two int64 arrays: node v's
    neighbours are ``indices[indptr[v]:indptr[v + 1]]``, in increasing
    order, so ``indptr`` has n + 1 entries and ``indices`` one per stored
    direction of each edge.  The triangle counts build their neighbour
    bitsets from them (``triangle_rows``).  The constructor takes a dense
    0/1 array of any dtype: one scan of its n^2 entries finds the edges, and
    every check after it is linear in their number.
    """

    adjacency: InitVar[np.ndarray]
    latent: Optional[np.ndarray] = None
    indptr: np.ndarray = field(init=False)
    indices: np.ndarray = field(init=False)

    def __post_init__(self, adjacency):
        a = np.asarray(adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be square")
        n = a.shape[0]
        byte_sized = a.dtype.itemsize == 1 and a.dtype.kind in "biu"
        flat = np.flatnonzero(a.view(np.bool_) if byte_sized else a != 0)
        rows, cols = np.divmod(flat, n)
        values = a.reshape(-1)[flat]
        if not np.array_equal(a[cols, rows], values):
            raise ValueError("adjacency must be symmetric")
        if (rows == cols).any():
            raise ValueError("adjacency must have a zero diagonal")
        if not (values == 1).all():
            raise ValueError("adjacency entries must be 0/1")
        self.indptr, self.indices = np.searchsorted(rows, np.arange(n + 1)), cols

    @classmethod
    def _of_csr(cls, indptr: np.ndarray, indices: np.ndarray) -> "GeometricGraph":
        """A graph around CSR arrays that are valid by construction, with no
        latent positions; no checks."""
        graph = object.__new__(cls)
        graph.indptr, graph.indices = indptr, indices
        return graph

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    def block_diagonal(self, q: int, size: int) -> "GeometricGraph":
        """The first q * size nodes as q disjoint consecutive chunks of
        ``size`` nodes: one graph that keeps only the edges within a chunk
        (the graph itself when one chunk holds all of it)."""
        if q == 1 and size == self.n:
            return self
        n = q * size
        rows = np.repeat(np.arange(n), np.diff(self.indptr[: n + 1]))
        cols = self.indices[: self.indptr[n]]
        keep = rows // size == cols // size
        return GeometricGraph._of_csr(np.searchsorted(rows[keep], np.arange(n + 1)), cols[keep])


def sample_rgg(n: int, radius: float, seed) -> GeometricGraph:
    """Latent positions uniform on the unit sphere; edges within the radius."""
    if n < 3:
        raise ValueError("need at least three nodes")
    if not 0 < radius <= 2:
        raise ValueError("radius must be in (0, 2]")
    rng = as_generator(seed)
    raw = rng.standard_normal((n, 3))
    latent = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    # |x - y| <= r on the unit sphere <=> <x, y> >= 1 - r^2/2
    adj = latent @ latent.T >= 1.0 - radius**2 / 2.0
    np.fill_diagonal(adj, False)
    return GeometricGraph(adj, latent)


# bytes one gather of ``_common_neighbours`` reads per side, or one block of ``_neighbour_bits``
_GATHER_BYTES = 1 << 18


def _neighbour_bits(rows: np.ndarray, cols: np.ndarray, n: int, size: int) -> np.ndarray:
    """Each node's neighbours inside its own chunk of ``size`` consecutive
    nodes, as an (n, ceil(size / 64)) array of uint64 words: bit j of word w
    of row v is set when v is adjacent to node 64 w + j of its chunk.

    (rows, cols) are the entries of a block-diagonal CSR, each column at
    most once per row, so the bits that land in one word are distinct powers
    of two and one unbuffered integer ``add.at`` per block of entries sets them.
    """
    words = -(-size // 64)
    bits = np.zeros(n * words, dtype=np.uint64)
    step = _GATHER_BYTES // 8
    for lo in range(0, rows.size, step):
        local = cols[lo : lo + step] % size
        one_bits = np.left_shift(np.uint64(1), (local & 63).astype(np.uint64))
        np.add.at(bits, rows[lo : lo + step] * words + (local >> 6), one_bits)
    return bits.reshape(n, words)


def _common_neighbours(
    left: np.ndarray, right: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """popcount(left[u[e]] & right[v[e]]) for each pair e, as exact int64,
    gathered in blocks of about ``_GATHER_BYTES`` per side."""
    out = np.empty(u.size, dtype=np.int64)
    step = max(1, _GATHER_BYTES // (8 * left.shape[1]))
    for lo in range(0, u.size, step):
        both = np.take(left, u[lo : lo + step], axis=0)
        both &= np.take(right, v[lo : lo + step], axis=0)
        np.einsum("ij->i", np.bitwise_count(both), dtype=np.int64, out=out[lo : lo + step])
    return out


def _halved_counts(common: np.ndarray, ends: tuple[np.ndarray, ...], n: int) -> np.ndarray:
    """Half the sum of ``common`` at each of the n indices named by ``ends``.

    The float64 bincount is exact: every sum is an integer below 2^53.
    """
    total = sum(np.bincount(e, common, n) for e in ends)
    return total.astype(np.int64) // 2


def triangle_rows(chunks: GeometricGraph, q: int) -> SummaryRows:
    """Count-based summaries of the triangle kernel over all node triples
    of each of q chunks, given as one block-diagonal graph of q equal chunks
    (``GeometricGraph.block_diagonal``).

    Each node's neighbours in its chunk are one bitset of ceil(size / 64)
    words.  Every undirected edge is visited once: the popcount of its
    ends' intersection is its number of common neighbours, which both ends
    add, and each node's sum is twice its triangles (the edge iterator of
    Schank & Wagner, WEA 2005).  That is E ceil(size / 64) word operations
    on n ceil(size / 64) words, and the counts are exact integers.  Row i's
    reweight reads chunk i's rows of the same CSR and bitsets by global id.
    """
    size = chunks.n // q
    if size * q != chunks.n:
        raise ValueError(f"{chunks.n} nodes do not split into {q} equal chunks")
    if size < 3:
        raise InsufficientData("triangle statistics need at least three nodes")
    indptr, indices = chunks.indptr, chunks.indices
    rows = np.repeat(np.arange(chunks.n), np.diff(indptr))
    if q > 1 and (rows // size != indices // size).any():
        raise ValueError(f"an edge joins two of the {q} chunks; pass a block-diagonal graph")
    bits = _neighbour_bits(rows, indices, chunks.n, size)
    lower = indices < rows
    u, v = rows[lower], indices[lower]
    common = _common_neighbours(bits, bits, u, v)
    per_node = _halved_counts(common, (u, v), chunks.n).reshape(q, size)
    a_n = per_node.sum(axis=1) / 3.0 / math.comb(size, 3)
    projections = per_node / math.comb(size - 1, 2)

    def reweight(i: int, weights: np.ndarray) -> float:
        # by the rule of every reweight (``hajek``) a triple takes the weight
        # of its earliest member in ascending weight order: the r-th
        # down-weighted node v is earliest in C(size - 1 - r, 2) triples, t_v
        # of them triangles, and adds (w_v - 1)(t_v - a_n C(size - 1 - r, 2)) / M
        order = np.argsort(weights, kind="stable")
        low = order[: np.count_nonzero(weights < 1.0)]
        t = _later_triangles(indptr, indices, bits, i * size, low)
        rest = size - 1 - np.arange(low.size)
        corr = float((weights[low] - 1.0) @ (t - a_n[i] * (rest * (rest - 1) // 2)))
        return float(a_n[i]) + corr / math.comb(size, 3)

    return SummaryRows(
        n=size, k=3, a_n=a_n, projections=projections, reweight=reweight, all_tuples_family=True,
        multiplicity=np.broadcast_to(np.int64(1), projections.shape),  # a column per node
    )


def _later_triangles(
    indptr: np.ndarray, indices: np.ndarray, bits: np.ndarray, lo: int, low: np.ndarray
) -> np.ndarray:
    """For each node v of ``low`` (in order, ids in the chunk from node lo),
    the triangles through v whose other two nodes are neither v nor an
    earlier node of ``low``.  v's neighbours after it are its bitset less a
    cumulative OR of one-hot rows; each CSR entry (v, u) with u after v adds
    the popcount of that and u's bitset, so each triangle counts twice."""
    rank = np.full(bits.shape[1] * 64, low.size)  # a rank for every bit of a row
    rank[low] = np.arange(low.size)
    one_hot = np.zeros((low.size, bits.shape[1]), dtype=np.uint64)
    one_hot[np.arange(low.size), low >> 6] = np.left_shift(np.uint64(1), (low & 63).astype(np.uint64))
    after = bits[lo + low] & ~np.bitwise_or.accumulate(one_hot, axis=0)
    starts = indptr[lo + low]
    degrees = indptr[lo + low + 1] - starts
    owner = np.repeat(np.arange(low.size), degrees)
    # entry j of the low rows sits at its row's start plus its rank in the row
    ends = indices[np.repeat(starts - (np.cumsum(degrees) - degrees), degrees) + np.arange(owner.size)]
    later = rank[ends - lo] > owner
    owner, ends = owner[later], ends[later]
    return _halved_counts(_common_neighbours(after, bits, owner, ends), (owner,), low.size)


def triangle_summary(graph: GeometricGraph) -> UStatSummary:
    """The triangle statistic of one graph: row 0 of ``triangle_rows``."""
    return _first_row(triangle_rows(graph, 1))


def triangle_xi(nu: float, n: int) -> float:
    """Concentration radius for triangle projections, from the edge proxy nu,
    at confidence gamma = APPLICATION_CONFIDENCE."""
    gamma = APPLICATION_CONFIDENCE
    log_term = math.log(2.0 * n / gamma)
    return (
        18.0 * nu * math.sqrt((2.0 / n) * log_term)
        + (16.0 / (3.0 * n)) * log_term
        + (9.0 * nu / n) * math.sqrt(2.0 / gamma)
    )


def private_triangle_density(
    graph: GeometricGraph,
    eps: float,
    seed,
    budget: PrivacyBudget,
) -> EstimateReport:
    """Private triangle density of a geometric graph: the one-chunk call of
    ``private_triangle_densities``.

    First releases the edge density with Laplace noise (sensitivity 2/n under
    one-node substitution) to size the concentration radius; returns bottom if
    that proxy comes out negative.  Then runs the reweighting estimator on the
    triangle kernel over all triples.  Sequential composition: 2 * eps total
    (eps when the proxy returns bottom).
    """
    (report,) = private_triangle_densities(graph, eps, seed, [budget])
    return report


def private_triangle_densities(
    chunks: GeometricGraph,
    eps: float,
    seed,
    budgets: list[PrivacyBudget],
) -> list[EstimateReport]:
    """``private_triangle_density`` on each of q = len(budgets) chunks,
    given as one block-diagonal graph (``GeometricGraph.block_diagonal``):
    chunk i debits budgets[i].

    One pass over the edges of the block-diagonal graph counts every
    chunk's triangles from its neighbour bitsets (``triangle_rows``), and
    all proxies go through one release.  The chunks whose proxy is >= 0 are
    then released through one ``release_rows``, each with the radius its own
    proxy sizes; the others are bottoms that spent eps.  Chunk i draws from
    its generator of ``seed``: its proxy first, then, if live, its release.
    With no live chunk there is no second release.
    """
    q = len(budgets)
    chunk_rows = triangle_rows(chunks, q)
    size = chunk_rows.n
    rngs = row_generators(seed, q)
    # every edge of chunk i is an entry of its rows, inside its diagonal block
    u_edges = (np.diff(chunks.indptr[::size]) / (size * (size - 1))).tolist()
    nu = releases(
        LAPLACE, u_edges, [EDGE_DENSITY_SENSITIVITY_FACTOR / size] * q, eps, budgets, rngs,
        "edge density proxy",
    )[0].tolist()
    reports = [
        None if v >= 0 else EstimateReport(
            estimate=None,
            bottom_reason=f"edge-density proxy {v:.4g} < 0",
            diagnostics={"nu": v, "edge_density": u},
        )
        for v, u in zip(nu, u_edges)
    ]
    live = [i for i in range(q) if nu[i] >= 0]
    if not live:
        return reports
    xi = [triangle_xi(nu[i], size) for i in live]
    released = release_rows(
        chunk_rows.take(live), HajekParams(eps=eps, c_range=1.0, xi=np.array(xi)),
        [rngs[i] for i in live], [budgets[i] for i in live], label="triangle density",
    )
    for i, x, report in zip(live, xi, released):
        report.diagnostics.update({"nu": nu[i], "xi": x, "edge_density": u_edges[i]})
        reports[i] = report
    return reports


def boosted_triangle_density(
    graph: GeometricGraph,
    eps: float,
    alpha: Optional[float],
    seed,
    budget: PrivacyBudget,
) -> EstimateReport:
    """Median of the triangle estimator over disjoint node chunks, all of
    them run by one ``private_triangle_densities`` call.

    With ``alpha`` None this is one ``private_triangle_density`` run.
    """
    (report,) = boosted(
        lambda chunks, rngs, branches: private_triangle_densities(chunks, eps, rngs, branches),
        [graph], 3, alpha, seed, [budget],
    )
    return report


# ---------------------------------------------------------------------------
# graph / categorical file formats
# ---------------------------------------------------------------------------

def _loadtxt(path, parse, columns: int) -> Optional[np.ndarray]:
    """The whole file in one ``np.loadtxt`` parse: an array of rows with
    exactly ``columns`` whitespace-separated values, or None when the
    per-line parse has to decide.

    ``comments=None`` and ``ndmin=2`` keep this path from accepting what the
    per-line parse rejects: a '#' anywhere fails it, and a one-line file of
    two values stays one row of two.
    """
    with open(path) as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            arr = np.loadtxt(fh, dtype=parse, comments=None, ndmin=2)
        except ValueError:
            return None
    return arr if arr.size and arr.shape[1] == columns else None


def _edge_lines(path) -> np.ndarray:
    """The (edges, 2) array of 1-based labels, one line at a time; names the
    first bad line."""
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                i_s, j_s = line.split()
                i, j = int(i_s), int(j_s)
            except ValueError:
                raise ValueError(
                    f"{path} line {lineno}: expected two node labels, got {line!r}"
                ) from None
            if i < 1 or j < 1:
                raise ValueError(f"{path} line {lineno}: node labels start at 1, got {line!r}")
            if i == j:
                raise ValueError(f"{path} line {lineno}: self-loops are not allowed")
            edges.append((i, j))
    if not edges:
        raise ValueError(f"no edges in {path}")
    return np.array(edges, dtype=np.intp)


def read_edge_list(path) -> GeometricGraph:
    """Edge list, one '1-based i j' pair per line.  An edge may repeat, in
    either direction, and is read once: one sort of the edge codes dedupes.

    Lines starting with '#' are comments; a file that has them, or any bad
    line, is read by the per-line parse.
    """
    pairs = _loadtxt(path, int, 2)
    if pairs is None or pairs.min() < 1 or (pairs[:, 0] == pairs[:, 1]).any():
        pairs = _edge_lines(path)
    n = int(pairs.max())
    i, j = (pairs - 1).T
    # both directions of every edge, once each, in row-major order: a bare
    # np.unique hashes integers, 50x slower than this on 10^6 codes
    codes = np.sort(np.concatenate([i * n + j, j * n + i]))
    rows, cols = np.divmod(codes[np.append(True, codes[1:] != codes[:-1])], n)
    return GeometricGraph._of_csr(np.searchsorted(rows, np.arange(n + 1)), cols)


def _read_column(path, parse, valid, expected: str) -> np.ndarray:
    """One ``parse``d value per non-blank line, each passing ``valid``.

    Lines are parsed one at a time only when the whole-file parse fails or
    holds an invalid value; that pass names the first bad line.
    """
    arr = _loadtxt(path, parse, 1)
    if arr is not None and valid(arr).all():
        return arr[:, 0]
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.isspace():
                continue
            try:
                value = parse(line)
                ok = bool(valid(np.asarray(value)))
            except ValueError:
                ok = False
            if not ok:
                raise ValueError(f"{path} line {lineno}: expected {expected}, got {line.strip()!r}")
            values.append(value)
    if not values:
        raise ValueError(f"no data in {path}")
    return np.asarray(values)


def read_categories(path) -> Dataset:
    """Newline-delimited non-negative integer labels."""
    return Dataset(_read_column(path, int, lambda a: a >= 0, "a non-negative integer label"))


def read_reals(path) -> Dataset:
    """Newline-delimited finite real numbers."""
    return Dataset(_read_column(path, float, np.isfinite, "a finite real number"))
