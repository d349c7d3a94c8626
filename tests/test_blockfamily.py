"""The DP over all counterparts of a block deck, against enumeration."""

from __future__ import annotations

import itertools
import math
from collections import Counter

import pytest

from riffmix import (
    descent_polynomial_family,
    enumerate_arrangements,
    exact_descent_polynomial,
    parse_deck,
)
from riffmix.blockfamily import family_rows
from riffmix.deck import arrangement_count
from riffmix.shuffle import eulerian_row


def compositions(n):
    """Every tuple of positive label sizes summing to n."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        sizes, size = [], 1
        for cut in cuts:
            if cut:
                sizes.append(size)
                size = 0
            size += 1
        yield tuple(sizes + [size])


def block_deck(sizes):
    return parse_deck(",".join(f"{v}^{m}" for v, m in enumerate(sizes, start=1)))


# Every block deck of up to 7 cards, up to relabeling: the 127 compositions
# of 1..7 into label sizes.
BLOCK_DECKS = [sizes for n in range(1, 8) for sizes in compositions(n)]


@pytest.mark.parametrize("role", ["source", "target"])
@pytest.mark.parametrize("sizes", BLOCK_DECKS, ids=lambda s: ",".join(map(str, s)))
def test_rows_are_the_sweep_rows(sizes, role):
    deck = block_deck(sizes)
    rows = family_rows(deck, role)
    family = descent_polynomial_family(deck, role=role)
    assert Counter(rows) == Counter(map(tuple, family.counts.tolist()))
    assert sum(rows.values()) == arrangement_count(deck)
    members = math.prod(map(math.factorial, sizes))
    assert {sum(row) for row in rows} == {members}
    assert all(len(row) == deck.n for row in rows)


@pytest.mark.parametrize("role", ["source", "target"])
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_distinct_cards_give_the_eulerian_row(n, role):
    deck = block_deck((1,) * n)
    unit = [(0,) * d + (1,) + (0,) * (n - d - 1) for d in range(n)]
    assert family_rows(deck, role) == {
        u: c for u, c in zip(unit, eulerian_row(n)) if c
    }


@pytest.mark.parametrize("role", ["source", "target"])
@pytest.mark.parametrize("expr", ["1^5,2^6", "1,2^10,3^2"])
def test_rows_above_the_sweep_are_the_per_arrangement_rows(expr, role):
    # 11 and 13 cards: each pair's polynomial comes from `blockdp`.
    deck = parse_deck(expr)
    want = Counter(
        exact_descent_polynomial(
            *((deck, c) if role == "source" else (c, deck))
        ).coefficients
        for c in enumerate_arrangements(deck)
    )
    assert Counter(family_rows(deck, role)) == want


def test_refuses_a_deck_that_is_not_a_block_deck():
    with pytest.raises(ValueError):
        family_rows(parse_deck("1,2,1"), "source")
    with pytest.raises(ValueError):
        family_rows(parse_deck("1^2,2"), "both")
