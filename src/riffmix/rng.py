"""Deterministic random stream plumbing.

Every randomized routine draws from `numpy.random.Generator` instances
derived here.  A routine that distributes work across logical streams
always uses the fixed stream count `STREAMS`, assigns work to streams by
index, and merges results in stream order, so the values it produces
depend only on its arguments.
"""

from __future__ import annotations

import numpy as np

# Logical substream count for partitioned work.  Fixed so that results
# do not depend on the machine.
STREAMS = 1024

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


def quotas(total: int, parts: int) -> list[int]:
    """Split `total` units of work into `parts` contiguous quotas.

    The first `total % parts` quotas get one extra unit.  Sum is `total`.
    """
    base, extra = divmod(total, parts)
    return [base + (1 if s < extra else 0) for s in range(parts)]


class KahanSum:
    """Compensated float accumulator, so merge order is the only thing
    that matters for reproducibility."""

    __slots__ = ("total", "_c")

    def __init__(self) -> None:
        self.total = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        y = x - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t
