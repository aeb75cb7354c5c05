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
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .boosting import boosted
from .dp import PrivacyBudget, global_sensitivity_release
from .errors import InsufficientData
from .hajek import HajekParams, UStatSummary, release_from_summary
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


def collision_summary(data: Dataset, m: int) -> UStatSummary:
    """Count-based summary of the collision kernel over all pairs.

    The overall mean, the per-index projections, and the reweighted mean all
    depend on the data only through category counts, so everything is
    O(n + m^2) instead of O(n^2).
    """
    x = np.asarray(data.points)
    if x.dtype.kind not in "iu":
        raise ValueError("categorical data must be integer")
    if x.size < 2:
        raise InsufficientData("need at least two samples for pair statistics")
    if x.min() < 0 or x.max() >= m:
        raise ValueError(f"category labels must lie in [0, {m})")
    n = x.size
    counts = np.bincount(x, minlength=m)
    pairs_total = n * (n - 1) // 2
    same_pairs = counts * (counts - 1) // 2
    a_n = float(same_pairs.sum() / pairs_total)
    projections = ((counts - 1) / (n - 1))[x]

    def reweight(weights: np.ndarray) -> float:
        # weights are constant within a category (projections are), so any
        # index of a category gives its weight
        w_cat = np.ones(m)
        w_cat[x] = weights
        occupied = np.nonzero(counts)[0]
        total = 0.0
        # same-category pairs: h = 1, weight w_c
        wc = w_cat[occupied]
        sp = same_pairs[occupied]
        total += float(np.sum(sp * (wc + a_n * (1.0 - wc))))
        # cross-category pairs: h = 0, weight min(w_c, w_d)
        cnt = counts[occupied].astype(float)
        for idx in range(occupied.size - 1):
            w_pair = np.minimum(wc[idx], wc[idx + 1 :])
            total += float(np.sum(cnt[idx] * cnt[idx + 1 :] * a_n * (1.0 - w_pair)))
        return total / pairs_total

    return UStatSummary(
        n=n, k=2, a_n=a_n, projections=projections, reweight=reweight, all_tuples_family=True
    )


def collision_xi(m: int, n: int, gamma: float = APPLICATION_CONFIDENCE) -> float:
    """Concentration radius for collision projections: 6/m + 8 log(4n/gamma)/n."""
    return 6.0 / m + 8.0 * math.log(4.0 * n / gamma) / n


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
        lambda chunk, rng, branch: private_collision_density(
            chunk, m, eps, collision_xi(m, chunk.n), rng, branch
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

@dataclass
class GeometricGraph:
    """Undirected graph, optionally carrying latent unit-sphere positions."""

    adjacency: np.ndarray
    radius: Optional[float] = None
    latent: Optional[np.ndarray] = None

    def __post_init__(self):
        a = np.asarray(self.adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be square")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency must have a zero diagonal")
        if not ((a == 0) | (a == 1)).all():
            raise ValueError("adjacency entries must be 0/1")
        self.adjacency = a.astype(np.int8)

    @property
    def n(self) -> int:
        return int(self.adjacency.shape[0])

    def edge_density(self) -> float:
        n = self.n
        return float(self.adjacency.sum() / (n * (n - 1)))

    def induced(self, indices) -> "GeometricGraph":
        idx = np.asarray(indices)
        lat = self.latent[idx] if self.latent is not None else None
        return GeometricGraph(self.adjacency[np.ix_(idx, idx)], self.radius, lat)


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
    gram = latent @ latent.T
    adj = (gram >= 1.0 - radius**2 / 2.0).astype(np.int8)
    np.fill_diagonal(adj, 0)
    return GeometricGraph(adj, radius, latent)


def _add_in_order(total: float, terms: np.ndarray) -> float:
    """total + terms[0] + terms[1] + ..., rounded left to right.

    Keeps the sum bit-identical to a scalar loop over the same terms, which a
    pairwise ``np.sum`` would not.
    """
    return float(np.add.accumulate(np.concatenate([[total], terms]))[-1])


def triangle_summary(graph: GeometricGraph) -> UStatSummary:
    """Sparse-product summary of the triangle kernel over all node triples.

    Counts come from an int64 CSR copy of the adjacency, so they are exact
    integers and the work grows with the number of edges, not with n^3.
    """
    n = graph.n
    if n < 3:
        raise InsufficientData("triangle statistics need at least three nodes")
    c = sparse.csr_array(graph.adjacency, dtype=np.int64)
    # twice the triangles through each node: closed walks of length 3
    per_node = (c @ c).multiply(c).sum(axis=1) / 2.0
    total = float(per_node.sum() / 3.0)
    m_total = math.comb(n, 3)
    m_i = math.comb(n - 1, 2)
    a_n = total / m_total
    projections = per_node / m_i

    def reweight(weights: np.ndarray) -> float:
        low = np.nonzero(weights < 1.0)[0]
        if low.size == 0:
            return a_n
        # reweighted mean = a_n + (1/M) sum over triples meeting a
        # down-weighted node of (wt(S) - 1)(h(S) - a_n); triples of three
        # full-weight nodes contribute nothing
        rest = np.setdiff1d(np.arange(n), low)
        w = weights[low]
        c_low = c[low]
        to_rest = c_low[:, rest]
        # exactly one down-weighted node: triangles through it within rest
        tri_one = (to_rest @ c[rest][:, rest]).multiply(to_rest).sum(axis=1) / 2.0
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


def triangle_xi(nu: float, n: int, gamma: float = APPLICATION_CONFIDENCE) -> float:
    """Concentration radius for triangle projections, from the edge proxy nu."""
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
        lambda chunk, rng, branch: private_triangle_density(chunk, eps, rng, branch),
        graph, 3, alpha, seed, budget,
    )


# ---------------------------------------------------------------------------
# graph / categorical file formats
# ---------------------------------------------------------------------------

def read_edge_list(path) -> GeometricGraph:
    """Edge list, one '1-based i j' pair per line, each undirected edge once."""
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
            edges.append((i - 1, j - 1))
    if not edges:
        raise ValueError(f"no edges in {path}")
    i, j = np.array(edges, dtype=np.intp).T
    n = int(max(i.max(), j.max())) + 1
    adj = np.zeros((n, n), dtype=np.int8)
    adj[i, j] = adj[j, i] = 1
    return GeometricGraph(adj)


def _read_column(path, parse, valid, expected: str) -> np.ndarray:
    """One ``parse``d value per non-blank line, each passing ``valid``; the
    first bad line is looked for only after the whole-file parse fails."""
    with open(path) as fh:
        lines = fh.readlines()
    try:
        arr = np.asarray([parse(line) for line in lines if not line.isspace()])
        if arr.size and valid(arr).all():
            return arr
    except ValueError:
        pass
    for lineno, line in enumerate(lines, 1):
        try:
            ok = line.isspace() or bool(valid(np.asarray(parse(line))))
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"{path} line {lineno}: expected {expected}, got {line.strip()!r}")
    raise ValueError(f"no data in {path}")


def read_categories(path) -> Dataset:
    """Newline-delimited non-negative integer labels."""
    return Dataset(_read_column(path, int, lambda a: a >= 0, "a non-negative integer label"))


def read_reals(path) -> Dataset:
    """Newline-delimited finite real numbers."""
    return Dataset(_read_column(path, float, np.isfinite, "a finite real number"))
