"""Deterministic random stream plumbing.

Every randomized routine draws from `numpy.random.Generator` instances
derived here.  A routine that distributes work across logical streams
always uses the fixed stream count `STREAMS`, assigns work to streams by
index, and merges results in stream order, so the values it produces
depend only on its arguments.  `substreams` seeds a whole run of such
streams in one vectorized pass, giving the same generators as one
`substream` call per stream.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

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


# The hash of NumPy's `SeedSequence` (O'Neill's seed_seq), which NEP 19
# keeps stable: a pool of 4 uint32 words, mixed with these constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(x: int) -> list[int]:
    """`x` as `SeedSequence` splits an int: 32-bit words, low word first."""
    if x < 0:
        raise ValueError("expected non-negative integer")
    out = [x & _MASK32]
    x >>= 32
    while x:
        out.append(x & _MASK32)
        x >>= 32
    return out


class _Hash:
    """One running hash constant of the seed_seq hash."""

    def __init__(self, init: int, mult: int) -> None:
        self.const = init
        self.mult = mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> 16)


def _seed_states(entropy: list[np.ndarray]) -> np.ndarray:
    """`SeedSequence.generate_state(4, np.uint64)` for many sequences.

    `entropy` holds the assembled entropy words as uint32 columns that
    broadcast against each other, one row per sequence, at least
    `_POOL_SIZE` of them.  Returns one row of 4 uint64 words per sequence.
    """
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w))
    out = _Hash(_INIT_B, _MULT_B)
    words = [out(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)]
    state = np.stack(words, axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def substreams(
    seed: int, path: Sequence[int], indices: Iterable[int]
) -> Iterator[np.random.Generator]:
    """Generators equal to `substream(seed, *path, i)` for each `i` in
    `indices`, in order, seeded in one vectorized pass.

    Each index must fit in one 32-bit word, as stream indices do.  The
    entropy words are assembled as `SeedSequence` assembles them: the
    seed's words padded to the pool size, then the path's, then the
    index.  Only `PCG64`'s own seeding runs once per generator.
    """
    prefix = _words(seed)
    prefix += [0] * (_POOL_SIZE - len(prefix))
    for p in path:
        prefix += _words(p)
    idx = list(indices)
    if any(not 0 <= i <= _MASK32 for i in idx):
        raise ValueError("stream indices must lie in [0, 2**32)")
    entropy = [np.array([w], dtype=np.uint32) for w in prefix]
    entropy.append(np.array(idx, dtype=np.uint32))
    states = _seed_states(entropy)

    # Loaded here, not at import, so importing riffmix leaves
    # numpy.random unloaded.
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class _Fixed(ISeedSequence):
        """Hands `PCG64` its state, already generated: `PCG64` seeds
        itself from `generate_state(4, np.uint64)`."""

        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError("only the precomputed PCG64 state is available")
            return self.state

    return (Generator(PCG64(_Fixed(row))) for row in states)


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
