"""Digit sequences, the permutations they induce, and their probabilities."""

import itertools
from fractions import Fraction
from math import comb

import pytest

from riffmix import (
    Permutation,
    apply,
    descents,
    identity,
    parse_deck,
    permutation_probability,
    sample_a_shuffle,
    sample_digit_sequence,
    sequence_to_permutation,
)
from riffmix.rng import substream


def all_induced(n: int, a: int) -> dict[tuple[int, ...], int]:
    """Permutation -> number of digit sequences inducing it, by brute force."""
    out: dict[tuple[int, ...], int] = {}
    for digits in itertools.product(range(1, a + 1), repeat=n):
        images = sequence_to_permutation(digits, a).images
        out[images] = out.get(images, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Worked examples


def test_two_packet_example():
    p = sequence_to_permutation((2, 1, 1, 2, 1), 2)
    assert p.images == (2, 3, 5, 1, 4)
    d = parse_deck("1,2,3,4,5")
    assert apply(p, d).cards == ("4", "1", "2", "5", "3")


def test_three_packet_example():
    p = sequence_to_permutation((1, 3, 2, 3, 2, 3, 2, 1), 3)
    assert p.images == (1, 8, 3, 5, 7, 2, 4, 6)
    assert descents(p) == 2


def test_single_packet_is_identity():
    assert sequence_to_permutation((1, 1, 1, 1), 1) == identity(4)
    assert sequence_to_permutation((1, 1, 1), 5) == identity(3)


def test_digit_validation():
    with pytest.raises(ValueError):
        sequence_to_permutation((0, 1), 2)
    with pytest.raises(ValueError):
        sequence_to_permutation((1, 3), 2)
    with pytest.raises(ValueError):
        sequence_to_permutation((1, 1), 0)


# ---------------------------------------------------------------------------
# Probability of a single permutation


def test_probability_matches_digit_enumeration():
    for n, a in ((3, 2), (4, 2), (4, 3), (3, 4), (5, 2)):
        induced = all_induced(n, a)
        assert sum(induced.values()) == a**n
        for images, count in induced.items():
            got = permutation_probability(Permutation(images), a)
            assert got == Fraction(count, a**n), (n, a, images)


def test_probability_closed_form_shape():
    p = Permutation((2, 3, 5, 1, 4))
    assert descents(p) == 1
    assert permutation_probability(p, 2) == Fraction(comb(5, 5), 2**5)
    assert permutation_probability(p, 4) == Fraction(comb(7, 5), 4**5)


def test_probability_of_unreachable_permutation_is_zero():
    # More descents than cut points available.
    p = Permutation((3, 2, 1))
    assert descents(p) == 2
    assert permutation_probability(p, 2) == 0


def test_probabilities_sum_to_one():
    for n, a in ((4, 2), (3, 3)):
        total = sum(
            permutation_probability(Permutation(images), a)
            for images in itertools.permutations(range(1, n + 1))
        )
        assert total == 1


# ---------------------------------------------------------------------------
# Sampling


def test_sample_digit_sequence_range_and_determinism():
    gen = substream(13, 1)
    for _ in range(20):
        digits = sample_digit_sequence(6, 4, gen)
        assert len(digits) == 6
        assert all(1 <= v <= 4 for v in digits)
    assert sample_digit_sequence(8, 3, 21) == sample_digit_sequence(8, 3, 21)


def test_sample_a_shuffle_matches_digit_distribution():
    n, a = 3, 2
    induced = all_induced(n, a)
    counts = dict.fromkeys(induced, 0)
    gen = substream(13, 2)
    draws = 8000
    for _ in range(draws):
        counts[sample_a_shuffle(n, a, gen).images] += 1
    for images, weight in induced.items():
        expect = draws * weight / a**n
        assert abs(counts[images] - expect) < 120, images


def test_sample_a_shuffle_deterministic():
    assert sample_a_shuffle(10, 8, 99) == sample_a_shuffle(10, 8, 99)
