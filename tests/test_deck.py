"""Decks, parsing, permutation algebra, and transition enumeration."""

import itertools
import math

import numpy as np
import pytest

from riffmix import (
    CapExceededError,
    Deck,
    DeckParseError,
    Permutation,
    SignatureMismatchError,
    apply,
    arrangement_count,
    compose,
    deck_text,
    descents,
    enumerate_arrangements,
    enumerate_transitions,
    identity,
    inverse,
    is_transition,
    label_positions,
    parse_deck,
    sample_digit_sequence,
    sample_uniform_rearrangement,
    sample_uniform_transition,
    transition_cardinality,
)
from riffmix.rng import PURPOSE_TRANSITION_SAMPLE, substream


def brute_transitions(d1: Deck, d2: Deck) -> set[tuple[int, ...]]:
    """Reference enumeration: filter all n! permutations directly."""
    n = d1.n
    out = set()
    for images in itertools.permutations(range(1, n + 1)):
        if all(d1.cards[i] == d2.cards[images[i] - 1] for i in range(n)):
            out.add(images)
    return out


# ---------------------------------------------------------------------------
# Parsing and text


def test_parse_plain_terms():
    d = parse_deck("1,1,2,2")
    assert d.n == 4
    assert deck_text(d) == "1^2,2^2"
    assert d.cards == ("1", "1", "2", "2")


def test_parse_powers_and_groups():
    assert deck_text(parse_deck("1^3,2")) == "1^3,2"
    assert parse_deck("(1,2)^3").cards == ("1", "2", "1", "2", "1", "2")
    assert parse_deck("(a,b)^2,c").cards == ("a", "b", "a", "b", "c")
    assert parse_deck(" 1 , 2 ").cards == ("1", "2")
    with pytest.raises(DeckParseError):
        parse_deck("(a,b^2)^2")


def test_parse_multichar_tokens():
    d = parse_deck("ace,ace,king")
    assert deck_text(d) == "ace^2,king"
    assert d.counts["ace"] == 2


def test_parse_errors_carry_position():
    for text in ("", "1,,2", "1^0", "1^", "(1,2", "1)", "^2"):
        with pytest.raises(DeckParseError) as info:
            parse_deck(text)
        assert info.value.position >= 0


def test_text_roundtrip_random_decks():
    gen = substream(11, 900)
    for _ in range(50):
        n = int(gen.integers(1, 9))
        cards = tuple(str(int(gen.integers(1, 4))) for _ in range(n))
        d = Deck(cards)
        assert parse_deck(deck_text(d)) == d


@pytest.mark.parametrize(
    "cards", [("a,b",), (1, 2), ("",), ("a b",), ("x", "y^2"), ("(z)",), ("\t",)]
)
def test_text_refuses_cards_it_cannot_write(cards):
    # `a,b` would read back as two cards; `1` is no label token at all.
    with pytest.raises(DeckParseError):
        deck_text(Deck(cards))


def test_text_roundtrip_any_writable_tokens():
    labels = ("ace", "x1", "L", "10", "é", "_", "a.b", "[1]")
    gen = substream(12, 900)
    for _ in range(50):
        n = int(gen.integers(1, 12))
        d = Deck(tuple(labels[int(i)] for i in gen.integers(0, len(labels), n)))
        assert parse_deck(deck_text(d)) == d


def test_decks_are_plain_values():
    assert Deck(("ace", "ace", "king")) == parse_deck("ace^2,king")
    assert deck_text(Deck(("x1", "L"))) == "x1,L"


def test_signature_ignores_order():
    a = parse_deck("1,2,2,3")
    b = parse_deck("3,2,1,2")
    assert a.signature == b.signature
    assert a.counts != b.counts or a.cards != b.cards


# ---------------------------------------------------------------------------
# Permutation algebra


def test_permutation_rejects_non_bijections():
    for images in ((1, 1), (0, 2), (2, 3)):
        with pytest.raises(ValueError):
            Permutation(images)


def test_descents_counts_strict_drops():
    assert descents(Permutation((2, 3, 5, 1, 4))) == 1
    assert descents(Permutation((1, 8, 3, 5, 7, 2, 4, 6))) == 2
    assert descents(identity(6)) == 0
    assert descents(Permutation(tuple(range(5, 0, -1)))) == 4


def test_apply_routes_cards_to_image_positions():
    d = parse_deck("1,2,3,4,5")
    out = apply(Permutation((2, 3, 5, 1, 4)), d)
    assert out.cards == ("4", "1", "2", "5", "3")
    rep = apply(Permutation((1, 4, 2, 3)), parse_deck("1,1,2,2"))
    assert rep.cards == ("1", "2", "2", "1")


def test_inverse_and_compose():
    gen = substream(11, 901)
    for _ in range(25):
        n = int(gen.integers(1, 8))
        p = Permutation(tuple(int(v) + 1 for v in gen.permutation(n)))
        q = Permutation(tuple(int(v) + 1 for v in gen.permutation(n)))
        assert compose(p, inverse(p)) == identity(n)
        assert compose(inverse(p), p) == identity(n)
        d = Deck(tuple(str(i) for i in range(n)))
        assert apply(compose(p, q), d) == apply(q, apply(p, d))


# ---------------------------------------------------------------------------
# Transition sets


def test_transition_enumeration_order_frozen():
    d1 = parse_deck("1,1,2,2")
    d2 = parse_deck("1,2,2,1")
    got = [p.images for p in enumerate_transitions(d1, d2)]
    assert got == [(1, 4, 2, 3), (1, 4, 3, 2), (4, 1, 2, 3), (4, 1, 3, 2)]
    assert transition_cardinality(d1, d2) == 4
    # Three labels, taken in the source's first-appearance order (b, a,
    # c): b's bijection varies slowest and c's fastest.
    d1 = parse_deck("b,a,b,c,c")
    d2 = parse_deck("c,b,a,c,b")
    members = enumerate_transitions(d1, d2)
    assert type(members) is tuple
    assert [p.images for p in members] == [
        (2, 3, 5, 1, 4),
        (2, 3, 5, 4, 1),
        (5, 3, 2, 1, 4),
        (5, 3, 2, 4, 1),
    ]


def test_transition_membership():
    d1 = parse_deck("1,1,2,2")
    d2 = parse_deck("1,2,2,1")
    assert is_transition(Permutation((1, 4, 2, 3)), d1, d2)
    assert not is_transition(Permutation((1, 2, 3, 4)), d1, d2)


def test_transition_cardinality_golden():
    assert transition_cardinality(parse_deck("1,2,3"), parse_deck("3,1,2")) == 1
    d = parse_deck("1^3,2^3")
    assert transition_cardinality(d, d) == 36
    b = parse_deck("R^26,B^26")
    assert (
        transition_cardinality(b, b)
        == math.factorial(26) * math.factorial(26)
    )


def test_transition_signature_mismatch():
    with pytest.raises(SignatureMismatchError):
        transition_cardinality(parse_deck("1,1,2"), parse_deck("1,2,2"))
    with pytest.raises(SignatureMismatchError):
        transition_cardinality(parse_deck("1,2"), parse_deck("1,2,2"))


def test_transitions_match_bruteforce():
    gen = substream(11, 902)
    for _ in range(40):
        n = int(gen.integers(2, 7))
        labels = [str(int(gen.integers(1, 4))) for _ in range(n)]
        d1 = parse_deck(",".join(labels))
        d2 = sample_uniform_rearrangement(d1, gen)
        got = {p.images for p in enumerate_transitions(d1, d2)}
        want = brute_transitions(d1, d2)
        assert got == want
        assert len(got) == transition_cardinality(d1, d2)
        for images in got:
            assert is_transition(Permutation(images), d1, d2)


def test_transition_cap():
    d = parse_deck("1^6,2^6")
    with pytest.raises(CapExceededError):
        list(enumerate_transitions(d, d, cap=100))


def test_label_positions_are_one_based_and_sorted():
    d = parse_deck("2,1,2,1,2")
    pos = label_positions(d)
    assert pos["2"] == (1, 3, 5)
    assert pos["1"] == (2, 4)


# ---------------------------------------------------------------------------
# Arrangements


def test_enumerate_arrangements_lex_and_complete():
    d = parse_deck("1,1,2,2")
    seqs = [a.cards for a in enumerate_arrangements(d)]
    assert seqs == [
        ("1", "1", "2", "2"),
        ("1", "2", "1", "2"),
        ("1", "2", "2", "1"),
        ("2", "1", "1", "2"),
        ("2", "1", "2", "1"),
        ("2", "2", "1", "1"),
    ]
    assert arrangement_count(d) == 6


def test_enumerate_arrangements_ignores_interning_order():
    first = next(enumerate_arrangements(parse_deck("ord-a,ord-b")))
    assert first.cards == ("ord-a", "ord-b")
    first = next(enumerate_arrangements(parse_deck("ord-b,ord-a")))
    assert first.cards == ("ord-b", "ord-a")


def test_arrangement_count_golden():
    assert arrangement_count(parse_deck("1")) == 1
    assert arrangement_count(parse_deck("1^5,2^5")) == 252
    assert arrangement_count(parse_deck("N^13,E^13,S^13,W^13")) == (
        math.factorial(52)
        // math.factorial(13) ** 4
    )


def test_enumerate_arrangements_cap():
    d = parse_deck("1^8,2^8,3^8")
    with pytest.raises(CapExceededError):
        list(enumerate_arrangements(d, cap=10))


# ---------------------------------------------------------------------------
# Uniform sampling


def test_sample_transition_uniform_and_deterministic():
    d1 = parse_deck("1,1,2,2")
    d2 = parse_deck("1,2,2,1")
    members = [p.images for p in enumerate_transitions(d1, d2)]
    counts = dict.fromkeys(members, 0)
    gen = substream(11, 903)
    for _ in range(4000):
        counts[sample_uniform_transition(d1, d2, gen).images] += 1
    assert set(counts) == set(members)
    for c in counts.values():
        assert 880 <= c <= 1120
    assert (
        sample_uniform_transition(d1, d2, 77).images
        == sample_uniform_transition(d1, d2, 77).images
    )


def test_sample_rearrangement_uniform_and_deterministic():
    d = parse_deck("1,1,2")
    seen = {a.cards: 0 for a in enumerate_arrangements(d)}
    gen = substream(11, 904)
    for _ in range(3000):
        seen[sample_uniform_rearrangement(d, gen).cards] += 1
    assert all(c > 850 for c in seen.values())
    assert (
        sample_uniform_rearrangement(d, 5).cards
        == sample_uniform_rearrangement(d, 5).cards
    )


@pytest.mark.parametrize("seed", [0, 77, 2**40])
def test_seeded_samplers_draw_what_their_generator_draws(seed):
    # An int seed, a numpy integer seed and the Generator it names give
    # the same draw; the int seeds go through the pure-Python stream.
    d1 = parse_deck("1^3,2^4,3,1^2")
    d2 = parse_deck("2^2,1^5,3,2^2")
    draws = (
        lambda gen: sample_uniform_rearrangement(d1, gen).cards,
        lambda gen: sample_uniform_transition(d1, d2, gen).images,
        lambda gen: sample_digit_sequence(9, 4, gen),
    )
    for draw in draws:
        want = draw(substream(seed, PURPOSE_TRANSITION_SAMPLE))
        assert draw(seed) == want
        assert draw(np.int64(seed)) == want


def test_sampled_transition_is_always_a_transition():
    gen = substream(11, 905)
    for _ in range(20):
        n = int(gen.integers(2, 8))
        labels = [str(int(gen.integers(1, 3))) for _ in range(n)]
        d1 = parse_deck(",".join(labels))
        d2 = sample_uniform_rearrangement(d1, gen)
        p = sample_uniform_transition(d1, d2, gen)
        assert is_transition(p, d1, d2)
        assert apply(p, d1) == d2
