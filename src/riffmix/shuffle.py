"""The cut-and-interleave shuffle driven by uniform digit sequences.

An `a`-way shuffle of `n` cards is described by a sequence of `n` digits
from 1..a, one per target position.  The deck is cut into `a` consecutive
packets whose sizes are the digit multiplicities, in digit order.  Target
position `i` then receives the next unused card of packet `digits[i]`,
so each packet stays in relative order.  Drawing the digits i.i.d.
uniform gives the standard model of a riffle-style shuffle; `a = 2^k`
corresponds to `k` successive two-packet riffles.

The chance that such a shuffle realizes a permutation depends only on its
descent count, through the integer weights of `shuffle_weights`; the
permutations of `n` distinct cards with each descent count are counted by
`eulerian_row`.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from functools import lru_cache
from typing import TYPE_CHECKING

from .deck import Permutation, descents
from .rng import PURPOSE_TRANSITION_SAMPLE, substream

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np


def shuffle_weights(n: int, a: int) -> tuple[tuple[int, ...], int]:
    """Integer weights C(a+n-d-1, n) for d = 0..n-1, and the denominator
    a^n, of the shuffle probability formula at packet count `a`.

    The weight of degree `d` counts the digit sequences realizing one
    permutation with `d` descents, so it vanishes exactly when d >= a.
    """
    if a < 1:
        raise ValueError("packet count must be at least 1")
    return tuple(math.comb(a + n - d - 1, n) for d in range(n)), a**n


@lru_cache(maxsize=None)
def eulerian_row(n: int) -> tuple[int, ...]:
    """Counts of n-card permutations by descent number (degrees 0..n-1)."""
    if n < 1:
        raise ValueError("need at least one card")
    row = [1]
    for m in range(2, n + 1):
        # Inserting card m into an (m-1)-card permutation with d descents
        # keeps d in d + 1 of the m gaps and adds one in the other m - 1 - d.
        row = [
            (d + 1) * below + (m - d) * left
            for d, (below, left) in enumerate(zip(row + [0], [0] + row))
        ]
    return tuple(row)


def sequence_to_permutation(digits: tuple[int, ...], a: int) -> Permutation:
    """Position map of the shuffle described by `digits`.

    The result sends source position i to the target position that draws
    it, so applying the permutation to a deck performs the shuffle.
    """
    if a < 1:
        raise ValueError("packet count must be at least 1")
    n = len(digits)
    if any(not 1 <= d <= a for d in digits):
        raise ValueError(f"digits must lie in 1..{a}")
    counts = Counter(digits)
    # First unused source position of each packet, 1-based.
    next_source = {}
    start = 1
    for p in range(1, a + 1):
        next_source[p] = start
        start += counts.get(p, 0)
    images = [0] * n
    for target, d in enumerate(digits, start=1):
        images[next_source[d] - 1] = target
        next_source[d] += 1
    return Permutation(tuple(images))


def sample_digit_sequence(
    n: int, a: int, gen: np.random.Generator | int
) -> tuple[int, ...]:
    """Draw `n` i.i.d. uniform digits from 1..a."""
    if a < 1:
        raise ValueError("packet count must be at least 1")
    if isinstance(gen, numbers.Integral):
        gen = substream(int(gen), PURPOSE_TRANSITION_SAMPLE)
    return tuple(int(d) for d in gen.integers(1, a + 1, size=n))


def sample_a_shuffle(
    n: int, a: int, gen: np.random.Generator | int
) -> Permutation:
    """Draw the position map of a random `a`-way shuffle of `n` cards."""
    return sequence_to_permutation(sample_digit_sequence(n, a, gen), a)


def permutation_probability(p: Permutation, a: int) -> Fraction:
    """Chance that a random `a`-way shuffle realizes exactly `p`.

    Depends on `p` only through its descent count `d`: it is the
    degree-`d` weight of `shuffle_weights` over a^n, and vanishes
    exactly when `d >= a`.
    """
    from fractions import Fraction

    weights, denom = shuffle_weights(p.n, a)
    return Fraction(weights[descents(p)], denom)
