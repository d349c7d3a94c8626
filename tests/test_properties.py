"""Property tests of the exact engines on small random decks."""

from __future__ import annotations

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from riffmix import (  # noqa: E402
    FIXED_SOURCE,
    FIXED_TARGET,
    custom_scenario,
    descent_polynomial_family,
    exact_tvd_curve,
    parse_deck,
    probability_from_coefficients,
)

# Decks of up to 7 cards over up to 3 labels, in any order.
decks = st.lists(st.integers(1, 3), min_size=1, max_size=7).map(
    lambda cards: parse_deck(",".join(map(str, cards)))
)
kinds = st.sampled_from([FIXED_SOURCE, FIXED_TARGET])
small = settings(max_examples=50, deadline=None)


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
    # A transition cap below n! rules out the sweep.  Decks with two or
    # more labels have transition sets below n!, so enumeration can run.
    hypothesis.assume(len(deck.counts) >= 2)
    s = custom_scenario(deck, kind)
    packets = [1, 2, 3, 4]
    cap = math.factorial(deck.n) - 1
    assert exact_tvd_curve(s, packets) == exact_tvd_curve(
        s, packets, transition_cap=cap
    )


@small
@given(decks, kinds)
def test_exact_distance_does_not_increase_with_shuffles(deck, kind):
    values = exact_tvd_curve(custom_scenario(deck, kind), [1, 2, 4, 8, 16, 32])
    assert all(x >= y for x, y in zip(values, values[1:]))
    assert all(0 <= v < 1 for v in values)
