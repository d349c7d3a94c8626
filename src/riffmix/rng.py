"""Deterministic random stream plumbing.

Every randomized routine draws from `numpy.random.Generator` instances
derived here, each addressed by a path of non-negative integers under
the caller's seed.  A routine whose work is large splits it into blocks
of a fixed size, draws block `b` from the substream addressed by `b`,
and merges the blocks in order, so the values it produces depend only
on its arguments.
"""

from __future__ import annotations

import numpy as np

# Purpose tags keep substreams for different jobs disjoint even when the
# top-level seed is reused.
PURPOSE_HISTOGRAM = 1
PURPOSE_TVD = 2
PURPOSE_TRANSITION_SAMPLE = 4
PURPOSE_INSTANCE_GEN = 5


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by `path` under `seed`."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.PCG64(ss))
