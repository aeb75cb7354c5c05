"""Oracles that only the tests use: brute-force sensitivities and a Monte Carlo θ."""

from typing import Callable, Iterable

import numpy as np

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
