"""Seed handling helpers.

Every randomized operation in the package accepts either an integer seed, a
``numpy.random.SeedSequence``, or an existing ``numpy.random.Generator``.
Experiment code derives independent per-trial streams with
``stream(master_seed, cell_index, trial_index)``, i.e.
``SeedSequence(master_seed, spawn_key=(cell, trial))``.  A stacked call
takes one seed for every row or one generator per row, resolved by
``row_generators`` alone: a boosted dataset's chunks share its generator,
and each trial of a cell draws only from its own (``dp.releases``).
"""

from __future__ import annotations

import numpy as np


def as_generator(seed) -> np.random.Generator:
    """Coerce an int / SeedSequence / Generator / None into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def row_generators(seed, rows: int) -> list[np.random.Generator]:
    """``as_generator(seed)`` for each of ``rows`` rows, or a list ``seed``
    itself: one Generator per row (equal integer seeds would give two rows
    the same draws), rows sharing an object sharing its stream."""
    if not isinstance(seed, list):
        return [as_generator(seed)] * rows
    if len(seed) != rows:
        raise ValueError(f"need one generator per row, got {len(seed)} for {rows}")
    if not all(isinstance(g, np.random.Generator) for g in dict.fromkeys(seed)):
        raise TypeError("per-row seeds must be numpy Generators")
    return seed


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic per-(cell, trial) stream derived from a master seed."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(key)))
