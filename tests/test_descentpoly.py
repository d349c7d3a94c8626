"""Exact descent polynomials, family sweeps, histograms, and conversions."""

import itertools
import math
import operator
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from riffmix import (
    CapExceededError,
    InconsistentProbabilitiesError,
    SignatureMismatchError,
    deck_text,
    descent_distribution_under_a_shuffle,
    descent_moments,
    descent_polynomial_family,
    digit_transition_counts,
    enumerate_arrangements,
    eulerian_row,
    exact_descent_polynomial,
    family_as_dict,
    mc_descent_histogram,
    parse_deck,
    probabilities_to_polynomial,
    probability_from_coefficients,
    sample_uniform_rearrangement,
    scenario,
    sequence_to_permutation,
    shuffle_weights,
)
from riffmix import cache as cache_mod
from riffmix import tables as tables_mod
from riffmix.blockfamily import is_block, pair_row
from riffmix.descentpoly import (
    _BLOCK_SAMPLES,
    _CHECKPOINT_BLOCKS,
    _SAMPLE_TABLE_MAX_MULT,
    _TABLE_MAX_MULT,
    SAMPLER_VERSION,
    _counts_plain,
    _counts_vectorized,
    _perm_table,
)
from riffmix.tables import _DRAW_CELLS, _SCORE_CELLS, _SCORE_COLUMNS, _LabelTables
from riffmix.deck import (
    Permutation,
    _transition_images,
    descents,
    transition_cardinality,
)
from riffmix.rng import PURPOSE_HISTOGRAM, substream


def brute_polynomial(d1, d2) -> tuple[int, ...]:
    """Descent tally over all n! permutations, filtered directly."""
    n = d1.n
    counts = [0] * n
    for images in itertools.permutations(range(1, n + 1)):
        if all(d1.cards[i] == d2.cards[images[i] - 1] for i in range(n)):
            d = sum(1 for i in range(n - 1) if images[i] > images[i + 1])
            counts[d] += 1
    return tuple(counts)


def random_pair(gen, n_max=7, labels=3):
    n = int(gen.integers(2, n_max + 1))
    toks = [str(int(gen.integers(1, labels + 1))) for _ in range(n)]
    d1 = parse_deck(",".join(toks))
    return d1, sample_uniform_rearrangement(d1, gen)


# ---------------------------------------------------------------------------
# Exact single-pair oracle


def test_exact_polynomial_golden():
    poly = exact_descent_polynomial(parse_deck("1,1,2,2"), parse_deck("1,2,2,1"))
    assert poly.coefficients == (0, 2, 2, 0)
    assert poly.cardinality == 4
    assert poly.probability(2) == Fraction(1, 8)
    assert poly.probability(1) == 0


def test_probability_at_one_detects_equality():
    d = parse_deck("1,2,1,2")
    assert exact_descent_polynomial(d, d).probability(1) == 1


def test_exact_polynomial_matches_bruteforce():
    gen = substream(17, 0)
    for _ in range(40):
        d1, d2 = random_pair(gen)
        assert exact_descent_polynomial(d1, d2).coefficients == brute_polynomial(
            d1, d2
        ), (deck_text(d1), deck_text(d2))


def test_single_label_deck_gives_full_eulerian_row():
    for n in range(1, 7):
        d = parse_deck(f"x^{n}") if n > 1 else parse_deck("x")
        poly = exact_descent_polynomial(d, d)
        assert poly.coefficients == eulerian_row(n)


def test_plain_and_vectorized_paths_agree():
    gen = substream(17, 1)
    checked = 0
    while checked < 12:
        d1, d2 = random_pair(gen, n_max=9, labels=2)
        if max(d1.counts.values()) > 7:
            continue
        assert _counts_plain(d1, d2) == _counts_vectorized(d1, d2)
        checked += 1
    # Sets of 216 and 13,824 members, above the plain route's limit.
    for expr in ("1^3,2^3,3^3", "1^4,2^4,3^4"):
        d1 = parse_deck(expr)
        d2 = sample_uniform_rearrangement(d1, gen)
        assert _counts_plain(d1, d2) == _counts_vectorized(d1, d2)


@pytest.mark.parametrize(
    "source, target, groups",
    [
        ("1^3,2^8", "2^4,1,2,1,2^3,1", 5),
        # One unit whose only column is its descent table.
        ("1,2,3,1,2,3,1,2", "3,2,1,1,2,3,2,1", 4),
        # Units (4, 1) of 30,240 rows and (2, 3) of 12, each read at
        # boundaries with the other.
        ("4,1,2,4,3,1,4,2,3,4,1,4,2,4^2", "4^3,2,4^2,1^2,3,2,4,2,1,4,3", 23_280),
        # 45 cards: label 1 is read in 14 columns of values up to 44, so
        # base-46 keys of those values would overflow int64.
        (
            "1,1,1,2,1,3,1,4,1,5,1,6,1,7,1," + ",".join(map(str, range(10, 40))),
            ",".join(map(str, range(10, 40))) + ",2,3,4,5,6,7,1^9",
            302_400,
        ),
    ],
)
def test_distinct_rows_match_row_wise_unique(source, target, groups):
    tables = _LabelTables(parse_deck(source), parse_deck(target), _TABLE_MAX_MULT)
    merged = tables.distinct_rows()
    read = {row: [] for row in merged}
    for row, tab in tables.runs:
        read[row].append(tab)
    for left, i, right, j in tables.mixed:
        read[i].append(left)
        read[j].append(right)
    assert len(merged[0][0]) == groups
    for row, columns in read.items():
        _, first, mult = np.unique(
            np.stack(columns, axis=1),
            axis=0,
            return_index=True,
            return_counts=True,
        )
        got_first, got_mult = merged[row]
        if got_mult is None:  # every row is its own group, in table order
            assert len(first) == len(columns[0])
            np.testing.assert_array_equal(got_first, np.arange(len(first)))
        else:
            np.testing.assert_array_equal(got_first, first)
            np.testing.assert_array_equal(got_mult, mult)


# ---------------------------------------------------------------------------
# Block decks: the walk over the block deck of one pair


def block_pairs(gen, shape):
    """(block side, source, target) for the block deck of label sizes
    `shape` and a uniform rearrangement of it, in both roles."""
    block = parse_deck(",".join(f"{lab + 1}^{m}" for lab, m in enumerate(shape)))
    other = sample_uniform_rearrangement(block, gen)
    return [("source", block, other), ("target", other, block)]


def tally_images(d1, d2):
    """Descent tally over `_transition_images`."""
    counts = [0] * d1.n
    for images in _transition_images(d1, d2):
        counts[sum(map(operator.gt, images, images[1:]))] += 1
    return tuple(counts)


def test_block_decks_are_the_decks_whose_labels_sit_together():
    for expr in ("1", "1^4,2^4", "R^26,B^26", "3,1,2", "2^3,1"):
        assert is_block(parse_deck(expr))
    for expr in ("1,2,1", "(1,2)^2", "1^3,2,1^5,2"):
        assert not is_block(parse_deck(expr))


@pytest.mark.parametrize(
    "shape",
    [
        (1,),
        (2, 3),
        (1,) * 7,
        (2, 2, 2, 2),
        (4, 4, 4),
        (1, 5, 1, 5),
        (2,) * 6,
        (3, 8),
        (6, 6),
        (2, 9),
        (9, 1, 2),
    ],
)
def test_block_dp_matches_enumeration(shape):
    gen = substream(19, *shape)
    for _ in range(2):
        for block, d1, d2 in block_pairs(gen, shape):
            got = pair_row(d1, d2, block)
            assert got == tuple(_counts_vectorized(d1, d2)), (block, d1, d2)
            if transition_cardinality(d1, d2) <= 20_000:
                assert got == tuple(_counts_plain(d1, d2)) == tally_images(d1, d2)


@pytest.mark.parametrize(
    "shape",
    [(10,), (5, 5), (3, 3, 4), (1, 2, 3, 4), (10, 1), (1, 10), (2, 10), (10, 2)],
)
def test_block_dp_matches_digit_counts_and_moments(shape):
    # Enumerating a 10-card label takes seconds per pair; digit words at
    # two and three packets, and the moment formulas, take milliseconds.
    for block, d1, d2 in block_pairs(substream(20, *shape), shape):
        coeffs = pair_row(d1, d2, block)
        assert sum(coeffs) == transition_cardinality(d1, d2)
        for a in (2, 3):
            walk = digit_transition_counts(d1, a)
            assert probability_from_coefficients(coeffs, a) == Fraction(
                walk.get(d2, 0), a**d1.n
            )
        mean = Fraction(sum(d * c for d, c in enumerate(coeffs)), sum(coeffs))
        square = Fraction(sum(d * d * c for d, c in enumerate(coeffs)), sum(coeffs))
        moments = descent_moments(d1, d2)
        assert (moments.mean, moments.variance) == (mean, square - mean**2)


def test_block_dp_gives_unit_rows_on_distinct_decks():
    # One permutation carries a distinct deck onto another: its row is the
    # unit vector at its descent count, at any size.
    gen = substream(22)
    for n in (1, 2, 5, 52):
        for block, d1, d2 in block_pairs(gen, (1,) * n):
            images = [d2.cards.index(c) + 1 for c in d1.cards]
            d = descents(Permutation(tuple(images)))
            assert pair_row(d1, d2, block) == tuple(int(e == d) for e in range(n))


@pytest.mark.parametrize(
    "source, target",
    [
        ("1^4,2^4,3^4,4^4,5^4,6^4,7^4,8^4,9^4,10^4,11^4,12^4,13^4",
         "13^4,12^4,11^4,10^4,9^4,8^4,7^4,6^4,5^4,4^4,3^4,2^4,1^4"),
        ("R^26,B^26", "B^26,R^26"),
        ("N^13,E^13,S^13,W^13", "S^13,N^13,W^13,E^13"),
    ],
)
def test_both_block_dps_agree_at_52_cards(source, target):
    d1, d2 = parse_deck(source), parse_deck(target)
    coeffs = pair_row(d1, d2, "source")
    assert coeffs == pair_row(d1, d2, "target")
    assert sum(coeffs) == math.prod(math.factorial(m) for m in d1.counts.values())
    assert min(coeffs) >= 0
    assert exact_descent_polynomial(d1, d2, cap=1).coefficients == coeffs


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["Blackjack1", "RedBlack1"])
def test_block_source_walk_at_52_cards_matches_moments(name, seed):
    # A fixed-source pair of a desk-scale scenario: the block source
    # against a seeded uniform target, too large to enumerate.
    d1 = scenario(name).anchor
    d2 = sample_uniform_rearrangement(d1, substream(23, seed))
    coeffs = pair_row(d1, d2, "source")
    members = math.prod(math.factorial(m) for m in d1.counts.values())
    assert sum(coeffs) == members
    mean = Fraction(sum(d * c for d, c in enumerate(coeffs)), members)
    square = Fraction(sum(d * d * c for d, c in enumerate(coeffs)), members)
    moments = descent_moments(d1, d2)
    assert (moments.mean, moments.variance) == (mean, square - mean**2)


def test_exact_polynomial_cap():
    # The cap refuses enumerations: pairs without a block deck.
    d = parse_deck("(1,2)^8")
    with pytest.raises(CapExceededError):
        exact_descent_polynomial(d, d, cap=10**6)
    # A block pair of the same size takes the DP, which no cap refuses.
    d = parse_deck("1^8,2^8")
    poly = exact_descent_polynomial(d, d, cap=10**6)
    assert poly.cardinality == math.factorial(8) ** 2
    assert poly.coefficients[0] == 1
    walk = digit_transition_counts(d, 2)
    assert poly.probability(2) == Fraction(walk[d], 2**16)


def test_exact_polynomial_signature_mismatch():
    with pytest.raises(SignatureMismatchError):
        exact_descent_polynomial(parse_deck("1,1,2"), parse_deck("1,2,2"))


def test_shuffle_weights_match_worpitzky_identity():
    # sum_d A(n, d) * C(a+n-d-1, n) = a^n: every digit sequence realizes
    # exactly one permutation.
    for n in range(1, 9):
        for a in range(1, 10):
            weights, denom = shuffle_weights(n, a)
            assert denom == a**n
            assert sum(e * w for e, w in zip(eulerian_row(n), weights)) == denom
            assert all(w == 0 for w in weights[a:])
    with pytest.raises(ValueError):
        shuffle_weights(3, 0)


def test_transition_probability_wrapper():
    d1 = parse_deck("1,1,2,2")
    d2 = parse_deck("1,2,2,1")
    assert exact_descent_polynomial(d1, d2).probability(2) == Fraction(1, 8)


# ---------------------------------------------------------------------------
# Family sweeps


def test_family_rows_match_single_pair_oracle():
    anchor = parse_deck("1,1,2,3")
    for role in ("source", "target"):
        fam = descent_polynomial_family(anchor, role)
        table = family_as_dict(fam)
        assert len(table) == 12
        for counterpart, poly in table.items():
            if role == "source":
                want = exact_descent_polynomial(anchor, counterpart)
            else:
                want = exact_descent_polynomial(counterpart, anchor)
            assert poly.coefficients == want.coefficients
            assert poly.source == want.source and poly.target == want.target
            assert fam.polynomial(counterpart) == poly


def test_family_row_count_and_sums():
    anchor = parse_deck("1^3,2^4")
    fam = descent_polynomial_family(anchor)
    assert len(fam.codes) == math.comb(7, 3)
    m = math.factorial(3) * math.factorial(4)
    assert all(int(row.sum()) == m for row in fam.counts)


def test_family_sweep_allocates_for_reachable_rows_only():
    # 5^9 * 9 (code, degree) cells would take 140 MB; 22,680 rows are reachable.
    anchor = parse_deck("1^2,2^2,3^2,4^2,5")
    tracemalloc.start()
    try:
        fam = descent_polynomial_family(anchor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert len(fam.codes) == math.factorial(9) // 2**4
    assert all(int(row.sum()) == 2**4 for row in fam.counts)


def test_perm_table_lists_permutations_in_lex_order_with_descents():
    for n in range(1, 9):
        perms, des = _perm_table(n)
        want = list(itertools.permutations(range(n)))
        assert perms.dtype == des.dtype == np.int8
        assert perms.tolist() == [list(p) for p in want]
        assert des.tolist() == [
            sum(p[i] > p[i + 1] for i in range(n - 1)) for p in want
        ]


def test_family_encode_decode_roundtrip():
    fam = descent_polynomial_family(parse_deck("1,2,2,3"))
    for code in fam.codes:
        deck = fam.decode(int(code))
        assert fam.encode(deck) == int(code)


def test_family_lookup_unknown_counterpart():
    fam = descent_polynomial_family(parse_deck("1,1,2"))
    with pytest.raises(KeyError):
        fam.polynomial(parse_deck("1,2,2"))


def test_family_size_guard():
    with pytest.raises(CapExceededError):
        descent_polynomial_family(parse_deck("1^6,2^5"))


# ---------------------------------------------------------------------------
# Digit-sequence transition counts


def test_digit_counts_golden_and_total():
    d1 = parse_deck("1,1,2,2")
    counts = digit_transition_counts(d1, 2)
    assert sum(counts.values()) == 2**4
    assert counts[d1] > 0
    # Every counted target is reachable and correctly weighted: compare
    # with a direct walk over all digit sequences.
    from riffmix import apply

    direct: dict = {}
    for digits in itertools.product((1, 2), repeat=4):
        out = apply(sequence_to_permutation(digits, 2), d1)
        direct[out] = direct.get(out, 0) + 1
    assert counts == direct


def test_digit_counts_match_exact_probability():
    gen = substream(17, 2)
    for a in (2, 3):
        for _ in range(6):
            d1, _ = random_pair(gen, n_max=6)
            counts = digit_transition_counts(d1, a)
            for d2, c in counts.items():
                p = exact_descent_polynomial(d1, d2).probability(a)
                assert p == Fraction(c, a**d1.n)


def test_digit_counts_cap():
    with pytest.raises(CapExceededError):
        digit_transition_counts(parse_deck("1^13,2^13"), 4, cap=10**6)


# ---------------------------------------------------------------------------
# Eulerian utilities


def test_eulerian_rows_golden():
    assert eulerian_row(1) == (1,)
    assert eulerian_row(2) == (1, 1)
    assert eulerian_row(3) == (1, 4, 1)
    assert eulerian_row(4) == (1, 11, 11, 1)


def test_eulerian_row_of_a_large_deck_sums_to_its_permutations():
    assert sum(eulerian_row(600)) == math.factorial(600)


@pytest.mark.parametrize("role", ["source", "target"])
def test_eulerian_rows_are_the_sweep_rows_of_distinct_decks(role):
    # Every arrangement of distinct cards has one transition, so its row
    # is the unit vector at that transition's descent count.
    for n in range(1, 9):
        family = descent_polynomial_family(
            parse_deck(",".join(map(str, range(1, n + 1)))), role
        )
        units = {
            tuple(int(d == e) for e in range(n)): c
            for d, c in enumerate(eulerian_row(n))
        }
        assert Counter(map(tuple, family.counts.tolist())) == Counter(units)


def test_eulerian_rows_match_bruteforce():
    for n in range(1, 8):
        counts = [0] * n
        for images in itertools.permutations(range(n)):
            d = sum(1 for i in range(n - 1) if images[i] > images[i + 1])
            counts[d] += 1
        assert eulerian_row(n) == tuple(counts)
        assert sum(eulerian_row(n)) == math.factorial(n)


def test_shuffle_descent_distribution():
    for n, a in ((4, 2), (5, 3)):
        dist = descent_distribution_under_a_shuffle(n, a)
        assert sum(dist) == 1
        # Independent check: walk every digit sequence of the identity deck.
        counts = [0] * n
        for digits in itertools.product(range(1, a + 1), repeat=n):
            p = sequence_to_permutation(digits, a)
            d = sum(
                1
                for i in range(n - 1)
                if p.images[i] > p.images[i + 1]
            )
            counts[d] += 1
        assert dist == tuple(Fraction(c, a**n) for c in counts)


# ---------------------------------------------------------------------------
# Probability conversions


def test_probability_conversion_roundtrip_golden():
    coeffs = (0, 2, 2, 0)
    probs = [probability_from_coefficients(coeffs, a) for a in range(1, 5)]
    assert probabilities_to_polynomial(probs, 4) == coeffs


def test_probability_conversion_roundtrip_random():
    gen = substream(17, 3)
    for _ in range(30):
        d1, d2 = random_pair(gen)
        poly = exact_descent_polynomial(d1, d2)
        probs = [poly.probability(a) for a in range(1, d1.n + 1)]
        assert probabilities_to_polynomial(probs, d1.n) == poly.coefficients


def test_probability_conversion_rejects_garbage():
    with pytest.raises(InconsistentProbabilitiesError):
        probabilities_to_polynomial(
            [Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)], 3
        )
    with pytest.raises(ValueError):
        probabilities_to_polynomial([Fraction(1, 2)], 3)


# ---------------------------------------------------------------------------
# Sampled histograms


def test_histogram_counts_sum_and_determinism():
    d1 = parse_deck("1,1,2,2,3")
    d2 = parse_deck("3,1,2,1,2")
    h1 = mc_descent_histogram(d1, d2, 5000, seed=4)
    h2 = mc_descent_histogram(d1, d2, 5000, seed=4)
    h3 = mc_descent_histogram(d1, d2, 5000, seed=5)
    assert sum(h1.counts) == 5000
    assert h1.counts == h2.counts
    assert h1.counts != h3.counts


# Reference counts of the sampler's draw order.  Cached histograms are
# keyed by `SAMPLER_VERSION`, so a change to the draw order must fail here
# until that version is bumped.  Cases: table path, code-label path, mixed
# (two seeds), 140,001 samples spanning three `_BLOCK_SAMPLES` blocks, the
# last one partial, cached (so stored when its one block is done), and an
# code label whose source runs another label splits, on both sides of
# mixed boundaries.
_TABLE_PAIR = ("1^4,2^4,3^3,4^4,5^2", "4,3,4^2,1,5^2,2^2,1,3,2^2,4,3,1^2")
_MIXED_PAIR = ("1^8,2^3,3", "1^4,2,1,2,3,2,1^3")
_PINNED = [
    (
        _TABLE_PAIR,
        dict(samples=30000, seed=31),
        (0, 0, 0, 0, 33, 394, 2325, 6847, 9891, 7201, 2809, 473, 25, 2, 0, 0, 0),
    ),
    (
        ("1^8,2^8", "1,2^2,1,2,1,2,1,2^2,1,2,1,2,1^2"),
        dict(samples=20000, seed=32),
        (0, 0, 0, 1, 50, 623, 2684, 5969, 6388, 3340, 858, 85, 2, 0, 0, 0),
    ),
    (
        _MIXED_PAIR,
        dict(samples=20000, seed=33),
        (0, 0, 11, 463, 3677, 8139, 5945, 1650, 114, 1, 0, 0),
    ),
    (
        ("1^3,2^3,3^2", "2^2,3,1,2,3,1^2"),
        dict(samples=140001, seed=34),
        (0, 0, 11709, 54518, 58185, 15589, 0, 0),
    ),
    (
        _TABLE_PAIR,
        dict(samples=8000, seed=35, cache_dir=True),
        (0, 0, 0, 0, 0, 111, 601, 1890, 2610, 1944, 710, 125, 9, 0, 0, 0, 0),
    ),
    (
        _MIXED_PAIR,
        dict(samples=20000, seed=36),
        (0, 0, 14, 484, 3769, 8069, 5943, 1596, 123, 2, 0, 0),
    ),
    (
        ("1^3,2,1^5,2", "2,1^4,2,1^4"),
        dict(samples=20000, seed=37),
        (0, 0, 123, 1459, 6390, 7997, 3577, 443, 11, 0),
    ),
]


@pytest.mark.parametrize("pair, kwargs, counts", _PINNED)
def test_histogram_counts_are_pinned(tmp_path, pair, kwargs, counts):
    d1, d2 = map(parse_deck, pair)
    if "cache_dir" in kwargs:
        kwargs = dict(kwargs, cache_dir=tmp_path)
    assert mc_descent_histogram(d1, d2, **kwargs).counts == counts


def test_histogram_is_the_sum_of_its_blocks():
    # Block b holds `_BLOCK_SAMPLES` samples, the last block the remainder,
    # drawn from its own substream alone, so any split of the blocks over
    # calls (checkpoints, resumes) gives the same counts.
    d1, d2 = map(parse_deck, _MIXED_PAIR)
    sizes = [_BLOCK_SAMPLES, _BLOCK_SAMPLES, 777]
    tables = _LabelTables(d1, d2, _SAMPLE_TABLE_MAX_MULT)
    blocks = [
        tables.sample_counts([size], [substream(38, PURPOSE_HISTOGRAM, b)])
        for b, size in enumerate(sizes)
    ]
    hist = mc_descent_histogram(d1, d2, sum(sizes), seed=38)
    assert hist.counts == tuple(int(c) for c in sum(blocks))


def test_histogram_tracks_exact_distribution():
    d1 = parse_deck("1^5,2^5")
    d2 = parse_deck("(1,2)^5")
    poly = exact_descent_polynomial(d1, d2)
    m = poly.cardinality
    samples = 200_000
    hist = mc_descent_histogram(d1, d2, samples, seed=7)
    tvd = (
        sum(
            abs(Fraction(c, samples) - Fraction(e, m))
            for c, e in zip(hist.counts, poly.coefficients)
        )
        / 2
    )
    assert tvd < Fraction(1, 100)


# Table units: a three-label unit of a block source (13,824 rows), one
# four-label unit (144 rows) of a source that interleaves its labels, and
# units of small labels on both sides of an 8-card code label.  Code
# labels read at their last slot, their first slot (flipped), both ends,
# interleaved slots plus a run, two interior slots (flipped), and between
# runs of single pairs.
@pytest.mark.parametrize(
    "source, target_seed",
    [
        ("1^4,2^4,3^4", 61),
        ("2,1^2,3,2,4,1,3,4,2", 65),
        ("1,2,1,3^3,2,4,3^2,1,3,4^2,3^2", 63),
        ("1^9,2^2", 66),
        ("2^2,1^9", 67),
        ("2,1^8,2", 68),
        ("(1,2)^4,1^4", 69),
        ("1^4,2^2,1^5", 73),
        ("1^2,2,1^2,2,1^2,2,1^2", 74),
    ],
)
def test_unit_histograms_track_exact_distribution(source, target_seed):
    d1 = parse_deck(source)
    d2 = sample_uniform_rearrangement(d1, target_seed)
    poly = exact_descent_polynomial(d1, d2)
    samples = 200_000
    hist = mc_descent_histogram(d1, d2, samples, seed=62)
    m = poly.cardinality
    tvd = (
        sum(
            abs(Fraction(c, samples) - Fraction(e, m))
            for c, e in zip(hist.counts, poly.coefficients)
        )
        / 2
    )
    assert tvd < Fraction(1, 100)


@pytest.mark.parametrize(
    "source, units",
    [
        (",".join(f"{v}^4" for v in range(1, 14)), [3, 3, 3, 3, 1]),
        (",".join(f"{v}^2" for v in range(1, 27)), [15, 11]),
        ("1^2,2^3,3^8,4^2,5^3,6^7,7", [2, 1, 2, 2]),
        ("3,1,2^2,3,1,4^3,2^2,3,4,5^5,4", [3, 2]),
        # A 130-card code label, whose ranks pass 127.
        ("2,1^60,3,1^70,2,3,4^6", [1, 1, 2]),
        # A 12-card code label read at slots 0, 9 and 10, so flipped.
        ("2^3,1^10,3,1^2", [1, 1, 1]),
    ],
)
def test_units_decode_to_the_product_of_their_label_tables(source, units):
    d1 = parse_deck(source)
    d2 = sample_uniform_rearrangement(d1, 64)
    tables = _LabelTables(d1, d2, _SAMPLE_TABLE_MAX_MULT)
    assert [len(unit) for unit in tables.units] == units

    def digit(lab, index):
        """`lab`'s table row in row `index` of its unit: a mixed-radix
        digit, the first label slowest."""
        unit = next(unit for unit in tables.units if lab in unit)
        later = unit[unit.index(lab) + 1 :]
        size = len(tables.tables[lab])
        return index // math.prod(len(tables.tables[x]) for x in later) % size

    def inserted(lab, codes):
        """`lab`'s target at each slot in each column of its code rows,
        by inserting slot q at place q - c_q among the first q + 1, the
        slots and sorted targets both taken in reverse when the label is
        flipped."""
        out = np.empty(codes.shape, dtype=np.int64)
        targets = np.sort(tables.targets[lab])
        for col, column in enumerate(codes.T.tolist()):
            order = []
            for q, c in enumerate(column):
                assert 0 <= c <= q
                order.insert(q - c, q)
            out[order, col] = targets[::-1] if lab in tables.flipped else targets
        return out[::-1] if lab in tables.flipped else out

    slot = [d1.cards[:i].count(c) for i, c in enumerate(d1.cards)]
    gen = substream(64, 0)
    for unit in tables.units:
        if unit[0] not in tables.tables:
            assert len(tables.targets[unit[0]]) > _SAMPLE_TABLE_MAX_MULT
            continue
        sizes = [len(tables.tables[lab]) for lab in unit]
        rows = math.prod(sizes)
        assert rows <= 2**15
        u = np.arange(rows)
        assert list(zip(*(digit(lab, u) for lab in unit))) == list(
            itertools.product(*map(range, sizes))
        )
        # Every row of this unit, with the other units drawn at random,
        # must score the member its digits decode to.
        buf = np.empty((tables.height, rows), dtype=np.int16)
        tables._draw(gen, buf)
        buf[tables.first_row[unit[0]]] = u
        decoded = {
            c: inserted(c, buf[r : r + len(tables.targets[c])])
            for c, r in tables.first_row.items()
            if c not in tables.tables
        }
        images = np.empty((d1.n, rows), dtype=np.int64)
        for i, c in enumerate(d1.cards):
            r = tables.first_row[c]
            if c in tables.tables:
                images[i] = tables.tables[c][digit(c, buf[r]), slot[i]]
            else:
                images[i] = decoded[c][slot[i]]
        # Each member maps the source positions onto the target positions.
        assert (np.sort(images, axis=0) == np.arange(d1.n)[:, None]).all()
        want = (images[:-1] > images[1:]).sum(axis=0)
        np.testing.assert_array_equal(tables.descents(buf), want)


# (source, flipped code labels, code runs as first and last code rows)
@pytest.mark.parametrize(
    "source, flipped, code_runs",
    [
        # RedBlack1: B is read at its slot 0, so it is flipped.
        ("R^26,B^26", {"B"}, [(0, 25), (26, 51)]),
        ("2^2,1^9", {"1"}, [(1, 9)]),
        ("1^9,2^2", set(), [(0, 8)]),
        # Read at slots 0 and 8: a tie keeps the label unflipped.
        ("2,1^8,2", set(), [(1, 8)]),
        # Read at slots 3 and 4 of 9.
        ("1^4,2^2,1^5", {"1"}, [(5, 8), (0, 4)]),
        ("1^2,2,1^2,2,1^2,2,1^2", set(), [(0, 1), (2, 3), (4, 5), (6, 7)]),
        ("2^3,1^10,3,1^2", {"1"}, [(3, 12), (1, 2)]),
    ],
)
def test_code_labels_read_nearer_their_first_slot_are_flipped(
    source, flipped, code_runs
):
    d1 = parse_deck(source)
    d2 = sample_uniform_rearrangement(d1, 75)
    tables = _LabelTables(d1, d2, _SAMPLE_TABLE_MAX_MULT)
    assert tables.flipped == flipped
    assert tables.code_runs == code_runs
    for lab in tables.labels:
        if lab not in tables.tables:
            step = -1 if lab in flipped else 1
            assert (np.diff(tables.targets[lab]) * step > 0).all()
    if source == "R^26,B^26":
        # Both labels are read at their last coded slot: no decode steps.
        assert [slots for _, _, slots, _ in tables.decodes] == [[25], [25]]


@pytest.mark.parametrize(
    "source, target",
    [
        (*_MIXED_PAIR,),
        ("1^3,2,1^5,2", "2,1^4,2,1^4"),
        ("2^2,1^8", "1^3,2,1^5,2"),
        ("1^4,2,1^4", "2,1^8"),
    ],
)
def test_every_draw_of_small_code_labels_scores_the_exact_polynomial(
    source, target
):
    # `_draw` fed every combination of the values its generator calls can
    # return (each code label here is one radix group) draws each member
    # once, so the scored histogram is the exact polynomial.
    d1, d2 = parse_deck(source), parse_deck(target)
    tables = _LabelTables(d1, d2, _SAMPLE_TABLE_MAX_MULT)
    calls = []

    class Replay:
        """A generator whose `integers` calls return `draws` in turn, and
        record their bounds and shapes when there are none."""

        def __init__(self, draws=()):
            self.draws = iter(draws)

        def integers(self, low, high, size, dtype=np.int64):
            out = next(self.draws, None)
            if out is None:
                calls.append((high, size[0]))
                return np.zeros(size, dtype=dtype)
            assert out.shape == size and 0 <= out.min() and out.max() < high
            return out.astype(dtype)

    tables._draw(Replay(), np.empty((tables.height, 1), dtype=np.int16))
    bounds = [high for high, rows in calls for _ in range(rows)]
    total = math.prod(bounds)
    rem = np.arange(total)
    digits = []
    for bound in reversed(bounds):
        digits.append(rem % bound)
        rem //= bound
    digits.reverse()
    draws, start = [], 0
    for _, rows in calls:
        draws.append(np.stack(digits[start : start + rows]))
        start += rows
    buf = np.empty((tables.height, total), dtype=np.int16)
    tables._draw(Replay(draws), buf)
    counts = np.bincount(tables.descents(buf), minlength=d1.n)
    assert tuple(counts) == exact_descent_polynomial(d1, d2).coefficients


@pytest.mark.parametrize("kind", ["fixed-source", "fixed-target"])
def test_sample_buffer_is_no_wider_than_one_value_per_draw_row(monkeypatch, kind):
    # RedBlack1 (fixed-source) and AliceBob1 (fixed-target) pairs draw 8
    # random values per member into 52 code rows, so a call draws more
    # columns than it has draw rows to spare; the score batch gives way.
    anchor = parse_deck("R^26,B^26")
    other = sample_uniform_rearrangement(anchor, 76)
    d1, d2 = (anchor, other) if kind == "fixed-source" else (other, anchor)
    tables = _LabelTables(d1, d2, _SAMPLE_TABLE_MAX_MULT)
    assert tables.values == 8
    shapes = set()
    descents = _LabelTables.descents

    def spy(self, rows):
        shapes.add(rows.base.shape)
        return descents(self, rows)

    monkeypatch.setattr(_LabelTables, "descents", spy)
    sizes = [_BLOCK_SAMPLES, 777]
    tables.sample_counts(sizes, [substream(76, PURPOSE_HISTOGRAM, b) for b in range(2)])
    ((height, columns),) = shapes
    batch = min(-(-_SCORE_CELLS // tables.width), _SCORE_COLUMNS)
    assert height == tables.height
    assert columns <= batch + _DRAW_CELLS // tables.width


def test_histogram_of_a_label_above_127_cards_tracks_exact_moments():
    # The 250-card label is read at 19 interleaved slots, each of whose
    # ranks passes 127 about half the time, so the sampler runs end to end
    # on an int16 decode.  The exact decode check above is the sharper
    # test of that dtype: moments barely move when ranks wrap.
    d1 = parse_deck(",".join(["1^25,2"] * 10))
    d2 = sample_uniform_rearrangement(d1, 70)
    moments = descent_moments(d1, d2)
    samples = 20_000
    hist = mc_descent_histogram(d1, d2, samples, seed=71)
    degrees = np.arange(d1.n)
    mean = degrees @ hist.counts / samples
    variance = (degrees - mean) ** 2 @ hist.counts / samples
    assert abs(mean - moments.mean) < 5 * moments.sigma / math.sqrt(samples)
    assert variance == pytest.approx(float(moments.variance), rel=0.1)


def test_histogram_big_label_path():
    # One label above the bijection-table limit forces the general sampler.
    d1 = parse_deck("1^8,2^2")
    d2 = parse_deck("2,1^4,2,1^4")
    poly = exact_descent_polynomial(d1, d2)
    m = poly.cardinality
    samples = 100_000
    hist = mc_descent_histogram(d1, d2, samples, seed=8)
    assert sum(hist.counts) == samples
    tvd = (
        sum(
            abs(Fraction(c, samples) - Fraction(e, m))
            for c, e in zip(hist.counts, poly.coefficients)
        )
        / 2
    )
    assert tvd < Fraction(15, 1000)


def test_histogram_estimates_and_gauge():
    d1 = parse_deck("1,1,2,2")
    d2 = parse_deck("1,2,2,1")
    hist = mc_descent_histogram(d1, d2, 4000, seed=9)
    est = hist.coefficient_estimates()
    assert sum(est) == 4
    assert hist.counts[0] == 0 and hist.relative_gauge(0) is None
    g = hist.relative_gauge(1)
    assert g == pytest.approx(1 / math.sqrt(hist.counts[1]))


def test_histogram_rejects_bad_inputs():
    d = parse_deck("1,2")
    with pytest.raises(ValueError):
        mc_descent_histogram(d, d, 0, seed=0)
    with pytest.raises(SignatureMismatchError):
        mc_descent_histogram(parse_deck("1,1"), parse_deck("1,2"), 10, seed=0)


# ---------------------------------------------------------------------------
# Histogram cache


def test_histogram_cache_roundtrip(tmp_path):
    d1 = parse_deck("1,1,2,2")
    d2 = parse_deck("2,1,1,2")
    first = mc_descent_histogram(d1, d2, 3000, seed=10, cache_dir=tmp_path)
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    again = mc_descent_histogram(d1, d2, 3000, seed=10, cache_dir=tmp_path)
    assert again.counts == first.counts
    # A different seed is a different cache entry.
    other = mc_descent_histogram(d1, d2, 3000, seed=11, cache_dir=tmp_path)
    assert other.counts != first.counts
    assert len(list(tmp_path.iterdir())) == 2


def test_full_cache_hit_builds_no_tables(tmp_path, monkeypatch):
    d1, d2 = map(parse_deck, _MIXED_PAIR)
    first = mc_descent_histogram(d1, d2, 3000, seed=10, cache_dir=tmp_path)

    def refuse(*args):
        raise AssertionError("a full cache hit built label tables")

    monkeypatch.setattr(tables_mod, "_LabelTables", refuse)
    again = mc_descent_histogram(d1, d2, 3000, seed=10, cache_dir=tmp_path)
    assert again.counts == first.counts


def test_histogram_cache_store_load_validation(tmp_path):
    key = cache_mod.HistogramKey("1^2,2^2", "2,1^2,2", 500, 3, 16)
    cache_mod.store(tmp_path, key, [1, 2, 3, 4], 16)
    assert cache_mod.load(tmp_path, key) == ((1, 2, 3, 4), 16)
    other = cache_mod.HistogramKey("1^2,2^2", "2,1^2,2", 500, 4, 16)
    assert cache_mod.load(tmp_path, other) is None


def test_histogram_cache_key_digest_and_file_are_pinned(tmp_path):
    key = cache_mod.HistogramKey("1^2,2^2", "2,1,2,1", 1000, 7, 4, 3)
    assert key.digest() == "baaa40877ae21622fb3c7590"
    cache_mod.store(tmp_path, key, [1, 2, 3, 4], 2)
    (path,) = tmp_path.iterdir()
    assert path.name == "hist_baaa40877ae21622fb3c7590.txt"
    assert path.read_text() == (
        "riffmix histogram v2\n"
        "source=1^2,2^2\n"
        "target=2,1,2,1\n"
        "samples=1000\n"
        "seed=7\n"
        "streams=4\n"
        "sampler=3\n"
        "completed=2\n"
        "counts=1,2,3,4\n"
    )
    assert cache_mod.load(tmp_path, key) == ((1, 2, 3, 4), 2)


def test_histogram_cache_skips_other_samplers(tmp_path):
    d1 = parse_deck("1,1,2,2")
    d2 = parse_deck("2,1,1,2")
    fresh = mc_descent_histogram(d1, d2, 3000, seed=10, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    text = path.read_text()
    version = f"sampler={SAMPLER_VERSION}\n"
    counts = "counts=" + ",".join(map(str, fresh.counts))
    assert version in text and counts in text
    stale = [
        # The same run drawn by another sampler version.
        text.replace(version, f"sampler={SAMPLER_VERSION + 1}\n"),
        # A file of the first format, which had no sampler field.
        text.replace(version, "").replace(
            cache_mod.FORMAT_TAG, "riffmix histogram v1"
        ),
    ]
    for body in stale:
        path.write_text(body.replace(counts, "counts=7,7,7,7"))
        again = mc_descent_histogram(d1, d2, 3000, seed=10, cache_dir=tmp_path)
        assert again.counts == fresh.counts
        assert path.read_text() == text


def test_histogram_cache_redraws_impossible_counts(tmp_path):
    d1 = parse_deck("1,1,2,2")
    d2 = parse_deck("2,1,1,2")
    fresh = mc_descent_histogram(d1, d2, 3000, seed=10, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    text = path.read_text()
    counts = "counts=" + ",".join(map(str, fresh.counts))
    done = "completed=1\n"
    assert counts in text and done in text
    impossible = [
        # A negative count, with the right total.
        text.replace(counts, "counts=-5,3005,0,0"),
        # A total other than the samples of the completed block.
        text.replace(counts, "counts=-5,0,0,9"),
        text.replace(counts, "counts=7,7,7,7"),
        # Counts in a file that completed no block.
        text.replace(done, "completed=0\n"),
    ]
    for body in impossible:
        path.write_text(body)
        again = mc_descent_histogram(d1, d2, 3000, seed=10, cache_dir=tmp_path)
        assert again.counts == fresh.counts
        assert path.read_text() == text


def test_histogram_resume_matches_uninterrupted(tmp_path, monkeypatch):
    check_resume(tmp_path, monkeypatch, "1,2,1,2,1", "1,1,2,2,1")


def test_code_label_histogram_resume_matches_uninterrupted(tmp_path, monkeypatch):
    # The 9-card label is read at its slot 0, so it is flipped.
    check_resume(tmp_path, monkeypatch, "2^2,1^9", "1^3,2,1^5,2,1")


def check_resume(tmp_path, monkeypatch, source, target):
    d1, d2 = parse_deck(source), parse_deck(target)
    # More blocks than one checkpoint holds, the last one partial.
    samples = (_CHECKPOINT_BLOCKS + 1) * _BLOCK_SAMPLES + 123
    straight = mc_descent_histogram(d1, d2, samples, seed=12)

    real_store = cache_mod.store
    flushes = []

    def crash_after_first_flush(directory, key, counts, completed):
        real_store(directory, key, counts, completed)
        flushes.append(completed)
        if len(flushes) == 1:
            raise RuntimeError("simulated crash")

    monkeypatch.setattr(cache_mod, "store", crash_after_first_flush)
    with pytest.raises(RuntimeError):
        mc_descent_histogram(d1, d2, samples, seed=12, cache_dir=tmp_path)
    monkeypatch.setattr(cache_mod, "store", real_store)
    assert flushes == [_CHECKPOINT_BLOCKS]

    resumed = mc_descent_histogram(d1, d2, samples, seed=12, cache_dir=tmp_path)
    assert resumed.counts == straight.counts
