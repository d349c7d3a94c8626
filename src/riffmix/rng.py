"""Deterministic random stream plumbing.

Every randomized routine draws from a stream addressed by a path of
non-negative integers under the caller's seed.  `substream` gives the
stream as a `numpy.random.Generator`, for the engines that draw numpy
arrays; `PermutationStream` draws the same stream's `permutation` calls
in pure Python, bit for bit, so drawing arrangements needs no numpy.
A routine whose work is large splits it into blocks of a fixed size,
draws block `b` from the substream addressed by `b`, and merges the
blocks in order, so the values it produces depend only on its arguments.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Purpose tags keep substreams for different jobs disjoint even when the
# top-level seed is reused.
PURPOSE_HISTOGRAM = 1
PURPOSE_TVD = 2
PURPOSE_TRANSITION_SAMPLE = 4
PURPOSE_INSTANCE_GEN = 5


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by `path` under `seed`."""
    import numpy as np

    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.PCG64(ss))


# numpy's SeedSequence constants (pool of 4 32-bit words) and the PCG64
# multiplier.
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words32(value: int) -> list[int]:
    """`value` as 32-bit words, least significant first; 0 is one word."""
    if value < 0:
        raise ValueError("expected a non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seed_state(seed: int, path: tuple[int, ...]) -> list[int]:
    """numpy's `SeedSequence(seed, spawn_key=path).generate_state(4, uint64)`."""
    entropy = _words32(seed)
    spawn = [w for p in path for w in _words32(p)]
    if spawn:
        # A spawn key is appended after the entropy padded to the pool.
        entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy += spawn
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    # Pairs of 32-bit words read as little-endian 64-bit words.
    return [lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])]


def _pcg64_halves(s0: int, s1: int, i0: int, i1: int) -> Iterator[int]:
    """The 32-bit draws of numpy's PCG64 seeded with the words `_seed_state`
    gives: each 64-bit output yields its low half, then its high half, as
    `next_uint32` buffers the spare half."""
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    # setseq initialisation: step from 0, add the seed, step again.
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        # XSL-RR output: fold the halves, rotate by the top 6 bits.
        rot = state >> 122
        x = (state >> 64 ^ state) & _MASK64
        x = (x >> rot | x << (64 - rot)) & _MASK64
        yield x & _MASK32
        yield x >> 32


class PermutationStream:
    """The `permutation` draws of `substream(seed, *path)`, in pure Python.

    `permutation(n)` returns the list `substream(seed, *path).permutation(n)`
    holds, and consecutive calls continue the stream as they do on one
    Generator.
    """

    def __init__(self, seed: int, *path: int) -> None:
        self._next32 = _pcg64_halves(*_seed_state(seed, path)).__next__

    def permutation(self, n: int) -> list[int]:
        """A uniform permutation of 0..n-1: numpy's Fisher–Yates from the
        top, each index drawn by masked rejection from 32-bit draws."""
        out = list(range(n))
        draw = self._next32
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = draw() & mask
            while j > i:
                j = draw() & mask
            out[i], out[j] = out[j], out[i]
        return out
