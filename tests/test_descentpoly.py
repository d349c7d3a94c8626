"""Exact descent polynomials, family sweeps, histograms, and conversions."""

import itertools
import math
from fractions import Fraction

import pytest

from riffmix import (
    CapExceededError,
    InconsistentProbabilitiesError,
    SignatureMismatchError,
    deck_text,
    descent_distribution_under_a_shuffle,
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
    sequence_to_permutation,
    shuffle_weights,
)
from riffmix import cache as cache_mod
from riffmix.descentpoly import _counts_plain, _counts_vectorized
from riffmix.rng import substream


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


def test_exact_polynomial_cap():
    d = parse_deck("1^8,2^8")
    with pytest.raises(CapExceededError):
        exact_descent_polynomial(d, d, cap=10**6)


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


def test_family_row_count_and_sums():
    anchor = parse_deck("1^3,2^4")
    fam = descent_polynomial_family(anchor)
    assert len(fam.codes) == math.comb(7, 3)
    m = math.factorial(3) * math.factorial(4)
    assert all(int(row.sum()) == m for row in fam.counts)


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
    with pytest.raises(CapExceededError):
        descent_polynomial_family(parse_deck("1^5,2^5"), cap=1000)


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


def test_histogram_thread_count_never_changes_counts():
    d1 = parse_deck("1^4,2^4")
    d2 = parse_deck("2,1,2,1,1,2,2,1")
    base = mc_descent_histogram(d1, d2, 20000, seed=6, threads=1)
    for threads in (2, 5):
        again = mc_descent_histogram(d1, d2, 20000, seed=6, threads=threads)
        assert again.counts == base.counts


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


def test_histogram_cache_store_load_validation(tmp_path):
    key = cache_mod.HistogramKey("1^2,2^2", "2,1^2,2", 500, 3, 16)
    cache_mod.store(tmp_path, key, [1, 2, 3, 4], 16)
    assert cache_mod.load(tmp_path, key) == ((1, 2, 3, 4), 16)
    other = cache_mod.HistogramKey("1^2,2^2", "2,1^2,2", 500, 4, 16)
    assert cache_mod.load(tmp_path, other) is None


def test_histogram_resume_matches_uninterrupted(tmp_path, monkeypatch):
    d1 = parse_deck("1,2,1,2,1")
    d2 = parse_deck("1,1,2,2,1")
    straight = mc_descent_histogram(d1, d2, 8000, seed=12)

    real_store = cache_mod.store
    flushes = []

    def crash_after_first_flush(directory, key, counts, completed):
        real_store(directory, key, counts, completed)
        flushes.append(completed)
        if len(flushes) == 1:
            raise RuntimeError("simulated crash")

    monkeypatch.setattr(cache_mod, "store", crash_after_first_flush)
    with pytest.raises(RuntimeError):
        mc_descent_histogram(
            d1, d2, 8000, seed=12, cache_dir=tmp_path, checkpoint_every=200
        )
    monkeypatch.setattr(cache_mod, "store", real_store)
    assert flushes == [200]

    resumed = mc_descent_histogram(
        d1, d2, 8000, seed=12, cache_dir=tmp_path, checkpoint_every=200
    )
    assert resumed.counts == straight.counts
