"""Two applications: private uniformity testing and private triangle density.

Both test statistics are degenerate U-statistics (collision indicator under
the uniform law; triangle indicator in a geometric graph), which is exactly
the regime where the reweighting estimator beats Laplace-on-range noise.
Both kernels are structured, so the release engine is fed count-based
summaries that avoid enumerating the complete subset family; equivalence
with the generic enumeration path is covered by tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .boosting import boosted, each_chunk
from .dp import PrivacyBudget, global_sensitivity_release
from .errors import InsufficientData
from .hajek import HajekParams, SummaryRows, UStatSummary, release_from_summary, release_rows
from .report import EstimateReport
from .rng import as_generator
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
        if self.a.shape != (self.m,):
            raise ValueError("need one perturbation per atom")
        if np.any(np.abs(self.a) > 1 + 1e-12):
            raise ValueError("perturbations must lie in [-1, 1]")
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


def collision_rows(chunks: np.ndarray, m: int) -> SummaryRows:
    """Count-based summaries of the collision kernel over all pairs of each
    row of a (q, n) array of category labels.

    The overall mean, the per-index projections, and the reweighted mean all
    depend on a row only through its category counts, so everything is
    O(n + m log m) per row instead of O(n^2).  One ``bincount`` of
    x + m * row counts every row at once.  Every row is checked before any
    is summarised.
    """
    x = np.asarray(chunks)
    if x.dtype.kind not in "iu":
        raise ValueError("categorical data must be integer")
    q, n = x.shape
    if n < 2:
        raise InsufficientData("need at least two samples for pair statistics")
    if x.min() < 0 or x.max() >= m:
        raise ValueError(f"category labels must lie in [0, {m})")
    # row i's labels shifted to [i m, (i + 1) m); row 0 needs no shift
    codes = x + m * np.arange(q)[:, None] if q > 1 else x
    counts = np.bincount(codes.ravel(), minlength=q * m).reshape(q, m)
    pairs_total = n * (n - 1) // 2
    same_pairs = counts * (counts - 1) // 2
    a_n = same_pairs.sum(axis=1) / pairs_total
    projections = ((counts - 1) / (n - 1)).reshape(-1)[codes]

    def reweight(i: int, weights: np.ndarray) -> float:
        # weights are constant within a category (projections are), so any
        # index of a category gives its weight; unchanged ones stay 1
        changed = np.flatnonzero(weights != 1.0)
        w_cat = np.ones(m)
        w_cat[x[i, changed]] = weights[changed]
        occupied = np.flatnonzero(counts[i])
        wc = w_cat[occupied]
        # same-category pairs: h = 1, weight w_c
        sp = same_pairs[i, occupied]
        total = float(np.sum(sp * (wc + a_n[i] * (1.0 - wc))))
        # cross-category pairs: h = 0, weight min(w_c, w_d).  In increasing
        # weight order the minimum of a pair is its earlier category's
        # weight, which meets every count after it: a suffix sum.
        order = np.argsort(wc, kind="stable")
        cnt = counts[i, occupied][order]
        after = n - np.cumsum(cnt)
        total += a_n[i] * float(np.sum(cnt * after * (1.0 - wc[order])))
        return total / pairs_total

    return SummaryRows(
        n=n, k=2, a_n=a_n, projections=projections, reweight=reweight, all_tuples_family=True
    )


def collision_summary(data: Dataset, m: int) -> UStatSummary:
    """Count-based summary of the collision kernel over all pairs: the one
    row of ``collision_rows``."""
    rows = collision_rows(np.asarray(data.points).reshape(1, -1), m)
    return UStatSummary(
        n=rows.n,
        k=2,
        a_n=float(rows.a_n[0]),
        projections=rows.projections[0],
        reweight=lambda weights: rows.reweight(0, weights),
        all_tuples_family=True,
    )


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
    """Reweighting estimator for the collision probability (C = 1 kernel)."""
    summary = collision_summary(data, m)
    params = HajekParams(eps=eps, c_range=1.0, xi=xi)
    return release_from_summary(summary, params, seed, budget, label="collision density")


def private_collision_densities(
    chunks: np.ndarray,
    m: int,
    eps: float,
    xi: float,
    seeds: list,
    budgets: list[PrivacyBudget],
) -> list[EstimateReport]:
    """``private_collision_density`` on each row of a (q, n) array of labels,
    row i drawing from seeds[i] and debiting budgets[i]."""
    params = HajekParams(eps=eps, c_range=1.0, xi=xi)
    return release_rows(
        collision_rows(chunks, m), params, seeds, budgets, label="collision density"
    )


@dataclass(frozen=True)
class UniformityDecision:
    reject: bool
    statistic: float
    threshold: float
    report: EstimateReport


def uniformity_test(
    data: Dataset,
    m: int,
    delta: float,
    eps: float,
    seed,
    budget: PrivacyBudget,
) -> UniformityDecision:
    """Reject approximate uniformity iff the private collision estimate is large.

    The private estimate replaces the raw collision statistic; the decision
    threshold (1 + 3 delta^2 / 4)/m splits the two hypothesis classes.
    """
    return boosted_uniformity_test(data, m, delta, eps, None, seed, budget)


def boosted_uniformity_test(
    data: Dataset,
    m: int,
    delta: float,
    eps: float,
    alpha: Optional[float],
    seed,
    budget: PrivacyBudget,
) -> UniformityDecision:
    """The uniformity test on the median of the chunks' collision densities.

    The chunks are disjoint (parallel composition) and their number is odd,
    so the median clears the threshold exactly when a strict majority of the
    chunk estimates do.  With ``alpha`` None this is ``uniformity_test``.
    """
    if m < 2:
        raise ValueError("need at least two atoms")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if data.n < 2:
        raise InsufficientData("uniformity testing needs at least two samples")
    report = boosted(
        lambda chunks, rngs, branches: private_collision_densities(
            chunks, m, eps, collision_xi(m, chunks.shape[1]), rngs, branches
        ),
        data, 2, alpha, seed, budget,
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

def _csr(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, n: int) -> sparse.csr_array:
    """n x n CSR array from entries sorted by row, then by column, no repeats."""
    return sparse.csr_array((values, cols, np.searchsorted(rows, np.arange(n + 1))), shape=(n, n))


@dataclass
class GeometricGraph:
    """Undirected graph, optionally carrying latent unit-sphere positions.

    The adjacency is kept only as a CSR array of int8 ones with sorted
    indices.  The constructor takes a dense 0/1 array of any dtype: one scan
    of its n^2 entries finds the edges, and every check after it is linear
    in their number.
    """

    adjacency: sparse.csr_array
    latent: Optional[np.ndarray] = None

    def __post_init__(self):
        a = np.asarray(self.adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be square")
        n = a.shape[0]
        byte_sized = a.dtype.itemsize == 1 and a.dtype.kind in "biu"
        flat = np.flatnonzero(a.view(np.bool_) if byte_sized else a != 0)
        c = _csr(*np.divmod(flat, n), a.reshape(-1)[flat], n)
        t = c.T.tocsr()
        if not (
            np.array_equal(t.indptr, c.indptr)
            and np.array_equal(t.indices, c.indices)
            and np.array_equal(t.data, c.data)
        ):
            raise ValueError("adjacency must be symmetric")
        if c.diagonal().any():
            raise ValueError("adjacency must have a zero diagonal")
        if not (c.data == 1).all():
            raise ValueError("adjacency entries must be 0/1")
        c.data = np.ones(c.nnz, dtype=np.int8)
        self.adjacency = c

    @classmethod
    def _of_csr(cls, adjacency: sparse.csr_array, latent=None) -> "GeometricGraph":
        """A graph around a CSR adjacency that is valid by construction; no checks."""
        graph = object.__new__(cls)
        graph.adjacency, graph.latent = adjacency, latent
        return graph

    @property
    def n(self) -> int:
        return int(self.adjacency.shape[0])

    def edge_density(self) -> float:
        n = self.n
        return self.adjacency.nnz / (n * (n - 1))

    def induced(self, indices) -> "GeometricGraph":
        idx = np.asarray(indices)
        lat = self.latent[idx] if self.latent is not None else None
        sub = self.adjacency[np.ix_(idx, idx)]
        sub.sort_indices()  # unsorted only when idx is not increasing
        return GeometricGraph._of_csr(sub, lat)


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


def _add_in_order(total: float, terms: np.ndarray) -> float:
    """total + terms[0] + terms[1] + ..., rounded left to right.

    Keeps the sum bit-identical to a scalar loop over the same terms, which a
    pairwise ``np.sum`` would not.
    """
    return float(np.add.accumulate(np.concatenate([[total], terms]))[-1])


def _lower_triangle(c: sparse.csr_array) -> sparse.csr_array:
    """The entries of c below its diagonal (``sparse.tril`` without the COO
    round trip, which dominates on small graphs)."""
    n = c.shape[0]
    rows = np.repeat(np.arange(n), np.diff(c.indptr))
    keep = c.indices < rows
    return _csr(rows[keep], c.indices[keep], c.data[keep], n)


def _triangles_per_row(rows: sparse.csr_array, square: sparse.csr_array) -> np.ndarray:
    """Triangles closed by each row's node: for every row v, the number of
    edges {u, w} of ``square`` with both ends among v's neighbours.

    One masked product with the lower triangle counts each edge once, for
    u > w (Azad, Buluc & Gilbert, IPDPSW 2015).  int64 data keeps the counts
    exact; int8 products would overflow past 127 common neighbours.
    """
    return (rows @ _lower_triangle(square)).multiply(rows).sum(axis=1)


def triangle_summary(graph: GeometricGraph) -> UStatSummary:
    """Sparse-product summary of the triangle kernel over all node triples.

    Counts are exact integers from int64 sparse products, so the work grows
    with the number of edges, not with n^3.
    """
    n = graph.n
    if n < 3:
        raise InsufficientData("triangle statistics need at least three nodes")
    c = graph.adjacency.astype(np.int64, copy=False)
    per_node = _triangles_per_row(c, c)
    total = float(per_node.sum() / 3.0)
    m_total = math.comb(n, 3)
    m_i = math.comb(n - 1, 2)
    a_n = total / m_total
    projections = per_node / m_i

    def reweight(weights: np.ndarray) -> float:
        low = np.nonzero(weights < 1.0)[0]
        # reweighted mean = a_n + (1/M) sum over triples meeting a
        # down-weighted node of (wt(S) - 1)(h(S) - a_n); triples of three
        # full-weight nodes contribute nothing
        rest = np.setdiff1d(np.arange(n), low)
        w = weights[low]
        c_low = c[low]
        to_rest = c_low[:, rest]
        # exactly one down-weighted node: triangles through it within rest
        tri_one = _triangles_per_row(to_rest, c[rest][:, rest])
        pairs = rest.size * (rest.size - 1) // 2
        corr = _add_in_order(0.0, (w - 1.0) * (tri_one - a_n * pairs))
        # exactly two down-weighted nodes: common neighbours within rest
        low_low = c_low[:, low].toarray()
        common = (to_rest @ to_rest.T).toarray()
        x, y = np.triu_indices(low.size, 1)
        tri_two = low_low[x, y] * common[x, y]
        corr = _add_in_order(corr, (np.minimum(w[x], w[y]) - 1.0) * (tri_two - a_n * rest.size))
        # all three down-weighted: per first node, the pairs after it are a
        # suffix of the lexicographic pair list
        for first in range(low.size - 2):
            tail = np.searchsorted(x, first + 1)
            p, q = x[tail:], y[tail:]
            w_min = np.minimum(w[first], np.minimum(w[p], w[q]))
            h = low_low[first, p] * low_low[first, q] * low_low[p, q]
            corr = _add_in_order(corr, (w_min - 1.0) * (h - a_n))
        return a_n + corr / m_total

    return UStatSummary(
        n=n, k=3, a_n=a_n, projections=projections, reweight=reweight, all_tuples_family=True
    )


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
    """Private triangle density of a geometric graph.

    First releases the edge density with Laplace noise (sensitivity 2/n under
    one-node substitution) to size the concentration radius; returns bottom if
    that proxy comes out negative.  Then runs the reweighting estimator on the
    triangle kernel over all triples.  Sequential composition: 2 * eps total
    (eps when the proxy returns bottom).
    """
    n = graph.n
    if n < 3:
        raise InsufficientData("triangle statistics need at least three nodes")
    rng = as_generator(seed)
    u_edges = graph.edge_density()
    nu = global_sensitivity_release(
        u_edges,
        gs=EDGE_DENSITY_SENSITIVITY_FACTOR / n,
        eps=eps,
        budget=budget,
        seed=rng,
        label="edge density proxy",
    )
    if nu < 0:
        return EstimateReport(
            estimate=None,
            bottom_reason=f"edge-density proxy {nu:.4g} < 0",
            diagnostics={"nu": nu, "edge_density": u_edges},
        )
    xi = triangle_xi(nu, n)
    summary = triangle_summary(graph)
    params = HajekParams(eps=eps, c_range=1.0, xi=xi)
    report = release_from_summary(summary, params, rng, budget, label="triangle density")
    report.diagnostics.update({"nu": nu, "xi": xi, "edge_density": u_edges})
    return report


def boosted_triangle_density(
    graph: GeometricGraph,
    eps: float,
    alpha: Optional[float],
    seed,
    budget: PrivacyBudget,
) -> EstimateReport:
    """Median of the triangle estimator over disjoint node chunks.

    With ``alpha`` None this is one ``private_triangle_density`` run.
    """
    return boosted(
        each_chunk(lambda chunk, rng, branch: private_triangle_density(chunk, eps, rng, branch)),
        graph, 3, alpha, seed, budget,
    )


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
    """Edge list, one '1-based i j' pair per line, each undirected edge once.

    Lines starting with '#' are comments; a file that has them, or any bad
    line, is read by the per-line parse.
    """
    pairs = _loadtxt(path, int, 2)
    if pairs is None or pairs.min() < 1 or (pairs[:, 0] == pairs[:, 1]).any():
        pairs = _edge_lines(path)
    n = int(pairs.max())
    i, j = (pairs - 1).T
    # both directions of every edge, once each, in row-major order
    flat = np.unique(np.concatenate([i * n + j, j * n + i]))
    return GeometricGraph._of_csr(_csr(*np.divmod(flat, n), np.ones(flat.size, dtype=np.int8), n))


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
