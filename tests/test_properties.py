"""Property tests of the exact engines on small random decks."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from riffmix import (  # noqa: E402
    FIXED_SOURCE,
    FIXED_TARGET,
    custom_scenario,
    descent_moments,
    descent_polynomial_family,
    enumerate_arrangements,
    exact_descent_polynomial,
    exact_tvd_curve,
    parse_deck,
    probability_from_coefficients,
    sample_uniform_rearrangement,
    transition_cardinality,
)
from riffmix.blockfamily import pair_row  # noqa: E402
from riffmix.descentpoly import _counts_vectorized  # noqa: E402
from riffmix.rng import PermutationStream, substream  # noqa: E402


def deck_lists(labels: int, size: int):
    """Decks of up to `size` cards over up to `labels` labels, in any order."""
    return st.lists(st.integers(1, labels), min_size=1, max_size=size).map(
        lambda cards: parse_deck(",".join(map(str, cards)))
    )


def pairs_of(decks):
    """A deck and a uniformly drawn rearrangement of it."""
    return st.tuples(decks, st.integers(0, 2**32)).map(
        lambda t: (t[0], sample_uniform_rearrangement(t[0], substream(t[1])))
    )


decks = deck_lists(3, 7)
kinds = st.sampled_from([FIXED_SOURCE, FIXED_TARGET])
pairs = pairs_of(decks)
# Up to 5 labels over up to 8 cards, so many labels hold a single card.
wide_pairs = pairs_of(deck_lists(5, 8))
small = settings(max_examples=50, deadline=None)
# Block decks of up to 5 labels of up to 4 cards, in a random label order.
block_decks = st.lists(st.integers(1, 4), min_size=1, max_size=5).flatmap(
    lambda sizes: st.permutations(range(len(sizes))).map(
        lambda order: parse_deck(",".join(f"{lab}^{sizes[lab]}" for lab in order))
    )
)


@small
@given(decks, kinds, st.integers(1, 9))
def test_probabilities_over_all_counterparts_sum_to_one(deck, kind, a):
    role = "source" if kind == FIXED_SOURCE else "target"
    family = descent_polynomial_family(deck, role=role)
    total = sum(
        probability_from_coefficients(row, a) for row in family.counts.tolist()
    )
    assert total == 1


@small
@given(decks, kinds)
def test_sweep_and_enumeration_agree(deck, kind):
    # The sweep's rows, as a multiset, are the per-arrangement rows that
    # decks of more than `_SWEEP_MAX_N` cards are summed over.
    s = custom_scenario(deck, kind)
    role = "source" if kind == FIXED_SOURCE else "target"
    family = descent_polynomial_family(deck, role=role)
    assert Counter(map(tuple, family.counts.tolist())) == Counter(
        exact_descent_polynomial(*s.pair(c)).coefficients
        for c in enumerate_arrangements(deck)
    )


@small
@given(decks, kinds)
def test_exact_distance_does_not_increase_with_shuffles(deck, kind):
    values = exact_tvd_curve(custom_scenario(deck, kind), [1, 2, 4, 8, 16, 32])
    assert all(x >= y for x, y in zip(values, values[1:]))
    assert all(0 <= v < 1 for v in values)


@small
@given(pairs)
def test_coefficients_sum_to_cardinality(pair):
    d1, d2 = pair
    poly = exact_descent_polynomial(d1, d2)
    assert sum(poly.coefficients) == transition_cardinality(d1, d2)


def _pair(source: str, target: str):
    return parse_deck(source), parse_deck(target)


@small
@given(wide_pairs)
@example(_pair("1", "1"))
@example(_pair("1,1", "1,1"))
@example(_pair("1,2", "2,1"))
@example(_pair("1,2", "1,2"))
@example(_pair("1,1,1,1,1", "1,1,1,1,1"))
@example(_pair("1,2,1,3,1,4", "4,1,1,3,2,1"))
@example(_pair("2,1,2,3,2", "3,2,2,1,2"))
def test_moments_match_enumerated_polynomial(pair):
    d1, d2 = pair
    coeffs = exact_descent_polynomial(d1, d2).coefficients
    m = sum(coeffs)
    mean = Fraction(sum(d * c for d, c in enumerate(coeffs)), m)
    square = Fraction(sum(d * d * c for d, c in enumerate(coeffs)), m)
    moments = descent_moments(d1, d2)
    assert moments.mean == mean
    assert moments.variance == square - mean**2


@small
@given(pairs_of(block_decks))
def test_block_dp_matches_enumeration_in_both_roles(pair):
    block, other = pair
    for d1, d2, role in ((block, other, "source"), (other, block, "target")):
        assert list(pair_row(d1, d2, role)) == _counts_vectorized(d1, d2)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**140),
    st.lists(st.integers(0, 2**40), max_size=3),
    st.lists(st.integers(0, 70), min_size=1, max_size=4),
)
def test_permutation_stream_matches_numpy(seed, path, sizes):
    ours = PermutationStream(seed, *path)
    theirs = substream(seed, *path)
    for n in sizes:
        assert ours.permutation(n) == theirs.permutation(n).tolist()
