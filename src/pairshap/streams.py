"""Deterministic random substreams.

Every randomized routine derives its generator here so that a single master
seed reproduces the whole computation and distinct logical units (replicate,
retry, trial) never share a stream.
"""
from __future__ import annotations

import numpy as np


def derive_rng(seed, *key: int) -> np.random.Generator:
    """Return a PCG64 generator for the substream identified by `key`.

    `seed` is an integer master seed, a list of them (an entropy key, as
    experiment replicates use), a SeedSequence, or None (fresh OS entropy;
    only seeded runs are reproducible).  Extending the spawn key
    rather than reseeding keeps substreams statistically independent.
    """
    if isinstance(seed, np.random.SeedSequence):
        ss = np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + tuple(key)
        )
    else:
        ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.default_rng(ss)
