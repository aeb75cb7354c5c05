"""Seed handling helpers.

Every randomized operation in the package accepts either an integer seed, a
``numpy.random.SeedSequence``, or an existing ``numpy.random.Generator``.
Experiment code derives independent per-trial streams with
``stream(master_seed, cell_index, trial_index)``, i.e.
``SeedSequence(master_seed, spawn_key=(cell, trial))``.  The q chunks of a
boosted estimate share one generator, ``as_generator(seed)``: each release
draws all of their noise in one call (``dp.releases``).
"""

from __future__ import annotations

import numpy as np


def as_generator(seed) -> np.random.Generator:
    """Coerce an int / SeedSequence / Generator / None into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic per-(cell, trial) stream derived from a master seed."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(key)))
