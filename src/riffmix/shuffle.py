"""The cut-and-interleave shuffle driven by uniform digit sequences.

An `a`-way shuffle of `n` cards is described by a sequence of `n` digits
from 1..a, one per target position.  The deck is cut into `a` consecutive
packets whose sizes are the digit multiplicities, in digit order.  Target
position `i` then receives the next unused card of packet `digits[i]`,
so each packet stays in relative order.  Drawing the digits i.i.d.
uniform gives the standard model of a riffle-style shuffle; `a = 2^k`
corresponds to `k` successive two-packet riffles.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np

from .deck import Permutation, descents
from .descentpoly import shuffle_weights
from .rng import PURPOSE_TRANSITION_SAMPLE, substream


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
    if isinstance(gen, (int, np.integer)):
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
    weights, denom = shuffle_weights(p.n, a)
    return Fraction(weights[descents(p)], denom)
