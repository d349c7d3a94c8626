"""The DP over all counterparts of a block deck, against enumeration."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from riffmix import (
    descent_moments,
    descent_polynomial_family,
    enumerate_arrangements,
    exact_descent_polynomial,
    parse_deck,
)
from riffmix.blockfamily import block_row, family_rows, pair_row
from riffmix.deck import arrangement_count
from riffmix.errors import SignatureMismatchError
from riffmix.descentpoly import _counts_plain
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
    # 11 and 13 cards.  Each pair's polynomial comes from `pair_row`, a
    # walk of the same steps along one arrangement, so the closed-form
    # moments of every pair check both independently.
    deck = parse_deck(expr)
    pairs = [
        (deck, c) if role == "source" else (c, deck)
        for c in enumerate_arrangements(deck)
    ]
    want = Counter(exact_descent_polynomial(*pair).coefficients for pair in pairs)
    rows = family_rows(deck, role)
    assert Counter(rows) == want
    got: Counter = Counter()
    for row, times in rows.items():
        total = sum(row)
        mean = Fraction(sum(d * c for d, c in enumerate(row)), total)
        square = Fraction(sum(d * d * c for d, c in enumerate(row)), total)
        got[total, mean, square - mean**2] += times
    members = math.prod(map(math.factorial, deck.counts.values()))
    moments = (descent_moments(*pair) for pair in pairs)
    assert got == Counter((members, m.mean, m.variance) for m in moments)


@pytest.mark.parametrize(
    "sizes",
    [sizes for sizes in BLOCK_DECKS if sum(sizes) <= 6],
    ids=lambda s: ",".join(map(str, s)),
)
def test_block_row_is_the_enumerated_row_of_every_small_pair(sizes):
    # Pairs of up to 6 cards, of up to 720 members, which `_counts_plain`
    # lists whole; the block deck is the source of one pair and the target
    # of the other.
    deck = block_deck(sizes)
    for c in enumerate_arrangements(deck):
        for d1, d2 in ((deck, c), (c, deck)):
            assert block_row(d1, d2) == tuple(_counts_plain(d1, d2)), (d1, d2)


@pytest.mark.parametrize("seed", range(5))
def test_block_row_of_distinct_cards_is_its_one_member(seed):
    # 52 distinct cards, as in BayerDiaconis: a one-member pair, read off
    # its member, must give the row of both walks and of enumeration.
    cards = list(range(1, 53))
    random.Random(seed).shuffle(cards)
    deck, c = block_deck((1,) * 52), parse_deck(",".join(map(str, cards)))
    for d1, d2 in ((deck, c), (c, deck)):
        row = block_row(d1, d2)
        assert row == tuple(_counts_plain(d1, d2))
        assert row == pair_row(d1, d2, "source") == pair_row(d1, d2, "target")
    with pytest.raises(SignatureMismatchError):
        block_row(deck, parse_deck(",".join(map(str, range(2, 54)))))


def test_block_row_leaves_pairs_without_a_block_deck_to_enumeration():
    d1, d2 = parse_deck("1,2,1,2"), parse_deck("2,1,1,2")
    assert block_row(d1, d2) is None


def test_refuses_a_deck_that_is_not_a_block_deck():
    with pytest.raises(ValueError):
        family_rows(parse_deck("1,2,1"), "source")
    with pytest.raises(ValueError):
        family_rows(parse_deck("1^2,2"), "both")
