"""Oracles that only the tests use: brute-force sensitivities and a Monte Carlo θ."""

import math
from typing import Callable, Iterable

import numpy as np

from privustat.hajek import smooth_bound_g
from privustat.rng import as_generator


def brute_force_local_sensitivity(
    f: Callable[[np.ndarray], float], points: np.ndarray, alphabet: Iterable
) -> float:
    """max over one-point substitutions of |f(D) - f(D')| at this dataset."""
    points = np.asarray(points)
    base = float(f(points))
    worst = 0.0
    for i in range(points.shape[0]):
        original = points[i]
        for a in alphabet:
            if a == original:
                continue
            mutated = points.copy()
            mutated[i] = a
            worst = max(worst, abs(base - float(f(mutated))))
    return worst


def brute_force_global_sensitivity(
    f: Callable[[np.ndarray], float], n: int, alphabet
) -> float:
    """max local sensitivity over every dataset from a finite alphabet (tiny n only)."""
    import itertools

    alphabet = list(alphabet)
    worst = 0.0
    for combo in itertools.product(alphabet, repeat=n):
        arr = np.asarray(combo)
        worst = max(worst, brute_force_local_sensitivity(f, arr, alphabet))
    return worst


def rgg_triangle_theta(radius: float, draws: int, seed) -> float:
    """Monte Carlo oracle for the expected triangle indicator at a given radius."""
    rng = as_generator(seed)
    theta_hat = 0.0
    threshold = 1.0 - radius**2 / 2.0
    done = 0
    batch = 200_000
    while done < draws:
        take = min(batch, draws - done)
        pts = rng.standard_normal((take, 3, 3))
        pts /= np.linalg.norm(pts, axis=2, keepdims=True)
        d01 = np.einsum("ij,ij->i", pts[:, 0], pts[:, 1]) >= threshold
        d02 = np.einsum("ij,ij->i", pts[:, 0], pts[:, 2]) >= threshold
        d12 = np.einsum("ij,ij->i", pts[:, 1], pts[:, 2]) >= threshold
        theta_hat += float(np.sum(d01 & d02 & d12))
        done += take
    return theta_hat / draws


def dense_triangles_per_node(adjacency: np.ndarray) -> np.ndarray:
    """Triangles through each node from the dense float64 A @ A (exact below 2^53)."""
    a = np.asarray(adjacency, dtype=np.float64)
    return np.einsum("ij,ji->i", a @ a, a) / 2.0


def full_range_smooth_sensitivity(xi, spread_level, n, k, c_range, eps, all_tuples_family) -> float:
    """max over every shift l in 0..n of exp(-eps l) g(xi, L + l, n)."""
    shifts = np.arange(0, n + 1)
    g = smooth_bound_g(xi, spread_level + shifts, n, k, c_range, eps, all_tuples_family)
    return float(np.max(np.exp(-eps * shifts) * g))


def loop_triangle_reweight(adjacency: np.ndarray, weights: np.ndarray, a_n: float) -> float:
    """Triangle reweighted mean by dense per-node, per-pair and per-triple loops."""
    a = np.asarray(adjacency, dtype=np.float64)
    n = a.shape[0]
    low = np.nonzero(weights < 1.0)[0]
    if low.size == 0:
        return a_n
    rest = np.setdiff1d(np.arange(n), low)
    ar = a[np.ix_(rest, rest)]
    corr = 0.0
    for b in low:
        row = a[b, rest]
        pairs = rest.size * (rest.size - 1) // 2
        corr += (weights[b] - 1.0) * (float(row @ ar @ row) / 2.0 - a_n * pairs)
    for x in range(low.size):
        for y in range(x + 1, low.size):
            b1, b2 = low[x], low[y]
            tri = float(a[b1, b2] * np.sum(a[b1, rest] * a[b2, rest]))
            corr += (min(weights[b1], weights[b2]) - 1.0) * (tri - a_n * rest.size)
    for x in range(low.size):
        for y in range(x + 1, low.size):
            for z in range(y + 1, low.size):
                b1, b2, b3 = low[x], low[y], low[z]
                h = float(a[b1, b2] * a[b1, b3] * a[b2, b3])
                corr += (min(weights[b1], weights[b2], weights[b3]) - 1.0) * (h - a_n)
    return a_n + corr / math.comb(n, 3)
