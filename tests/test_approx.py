"""Tests for exact descent moments, normal estimates, and tail fits."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from riffmix import (
    CapExceededError,
    DegenerateDistributionError,
    DescentHistogram,
    DescentMoments,
    PairStatistics,
    SignatureMismatchError,
    descent_moments,
    descents,
    enumerate_transitions,
    exact_descent_polynomial,
    label_positions,
    mc_descent_histogram,
    normal_coefficient_estimate,
    normal_error_bound_applies,
    normal_polynomial_estimate,
    parse_deck,
    sample_uniform_rearrangement,
    tail_extrapolate,
    transition_cardinality,
)
from riffmix.rng import substream


def brute_moments(d1, d2):
    """Exact moments by enumerating every transition permutation."""
    counts = [descents(p) for p in enumerate_transitions(d1, d2)]
    total = len(counts)
    mean = Fraction(sum(counts), total)
    second = Fraction(sum(d * d for d in counts), total)
    return mean, second - mean * mean


def random_pair(tokens: str, seed: int):
    d1 = parse_deck(tokens)
    gen = substream(seed, 901)
    return d1, sample_uniform_rearrangement(d1, gen)


SMALL_PAIRS = [
    ("1,1", 1),
    ("1,1,2", 2),
    ("1,2,2", 3),
    ("1,1,2,2", 4),
    ("1,1,1,2", 5),
    ("1,2,3,1,2", 6),
    ("1,1,2,2,3", 7),
    ("1,1,1,2,2,2", 8),
    ("1,2,1,2,1,2", 9),
    ("1,1,2,2,3,3", 10),
    ("1,1,1,1,2,2,3", 11),
    ("1,2,3,1,2,3,1", 12),
]


class TestMoments:
    def test_matches_brute_force_on_small_pairs(self):
        for tokens, seed in SMALL_PAIRS:
            d1, d2 = random_pair(tokens, seed)
            mean, var = brute_moments(d1, d2)
            mom = descent_moments(d1, d2)
            assert mom.mean == mean, (tokens, d2.tokens())
            assert mom.variance == var, (tokens, d2.tokens())
            assert mom.n == d1.n

    def test_single_label_deck_matches_eulerian_moments(self):
        d = parse_deck("1,1,1,1")
        mean, var = brute_moments(d, d)
        mom = descent_moments(d, d)
        assert (mom.mean, mom.variance) == (mean, var)
        assert mom.mean == Fraction(3, 2)

    def test_fair_coin_pair(self):
        d = parse_deck("1,1")
        mom = descent_moments(d, d)
        assert mom.mean == Fraction(1, 2)
        assert mom.variance == Fraction(1, 4)

    def test_distinct_labels_have_zero_variance(self):
        d1 = parse_deck("1,2,3,4")
        d2 = parse_deck("3,1,4,2")
        mom = descent_moments(d1, d2)
        assert mom.variance == 0
        (perm,) = enumerate_transitions(d1, d2)
        assert mom.mean == descents(perm)

    def test_signature_mismatch_rejected(self):
        with pytest.raises(SignatureMismatchError):
            descent_moments(parse_deck("1,1,2"), parse_deck("1,2,2"))

    def test_sigma_is_float_sqrt_of_variance(self):
        d1, d2 = random_pair("1,1,2,2", 14)
        mom = descent_moments(d1, d2)
        assert mom.sigma == math.sqrt(float(mom.variance))


class TestStatsReuse:
    def test_shared_statistics_give_identical_moments(self):
        d1 = parse_deck("1,1,2,2,3,3")
        d2 = parse_deck("3,1,2,3,1,2")
        stats = PairStatistics(d2)
        plain = descent_moments(d1, d2)
        shared = descent_moments(d1, d2, stats)
        assert (shared.mean, shared.variance) == (plain.mean, plain.variance)

    def test_statistics_for_other_target_rejected(self):
        d1 = parse_deck("1,1,2,2")
        d2 = parse_deck("2,1,2,1")
        other = parse_deck("1,2,1,2")
        with pytest.raises(ValueError):
            descent_moments(d1, d2, PairStatistics(other))


class TestPairStatistics:
    def setup_method(self):
        self.deck = parse_deck("2,1,3,2,1,2,3,1")
        self.stats = PairStatistics(self.deck)
        self.positions = label_positions(self.deck)

    def test_below_and_above_count_strictly(self):
        for lab, pos_list in self.positions.items():
            for pos in range(0, self.deck.n + 2):
                below = sum(1 for p in pos_list if p < pos)
                above = sum(1 for p in pos_list if p > pos)
                assert self.stats.below(lab, pos) == below
                assert self.stats.above(lab, pos) == above

    def test_descending_pairs_oracle(self):
        for a in self.positions:
            for b in self.positions:
                want = sum(
                    1
                    for x in self.positions[a]
                    for y in self.positions[b]
                    if x > y
                )
                assert self.stats.descending_pairs(a, b) == want

    def test_descending_triples_oracle(self):
        labels = list(self.positions)
        for a in labels:
            for b in labels:
                for c in labels:
                    want = sum(
                        1
                        for x in self.positions[a]
                        for y in self.positions[b]
                        for z in self.positions[c]
                        if x > y > z
                    )
                    assert self.stats.descending_triples(a, b, c) == want

    def test_product_sum_oracle(self):
        def factor(spec, pos):
            side, lab = spec
            if side == "below":
                return sum(1 for p in self.positions[lab] if p < pos)
            return sum(1 for p in self.positions[lab] if p > pos)

        ids = list(self.positions)
        specs = [
            ("below", ids[0]),
            ("above", ids[1]),
            ("below", ids[2]),
            ("above", ids[0]),
        ]
        for over in self.positions:
            for f1 in specs:
                for f2 in specs:
                    want = sum(
                        factor(f1, y) * factor(f2, y)
                        for y in self.positions[over]
                    )
                    assert self.stats.product_sum(over, f1, f2) == want


class TestNormalEstimate:
    def test_total_mass_tracks_cardinality(self):
        d1 = parse_deck("1^6,2^6")
        d2 = sample_uniform_rearrangement(d1, substream(31, 901))
        mom, est = normal_polynomial_estimate(d1, d2)
        total = transition_cardinality(d1, d2)
        assert len(est) == d1.n
        assert abs(sum(est) - total) < 1e-3 * total
        assert mom == descent_moments(d1, d2)

    def test_accurate_near_the_mode(self):
        d1 = parse_deck("1^6,2^6")
        d2 = sample_uniform_rearrangement(d1, substream(31, 901))
        exact = exact_descent_polynomial(d1, d2).coefficients
        _, est = normal_polynomial_estimate(d1, d2)
        mode = max(range(len(exact)), key=exact.__getitem__)
        for d in (mode - 1, mode, mode + 1):
            rel = abs(est[d] - exact[d]) / exact[d]
            assert rel < 0.06, (d, rel)

    def test_matches_gaussian_cell_formula(self):
        d1 = parse_deck("1,1,2,2,3")
        d2 = sample_uniform_rearrangement(d1, substream(17, 901))
        mom = descent_moments(d1, d2)
        total = transition_cardinality(d1, d2)
        mu, sigma = float(mom.mean), mom.sigma

        def phi(x):
            return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

        for d in range(d1.n):
            cell = phi((d + 0.5 - mu) / sigma) - phi((d - 0.5 - mu) / sigma)
            got = normal_coefficient_estimate(d, mom, total)
            assert got == pytest.approx(total * cell, rel=1e-12)

    def test_degenerate_distribution_raises(self):
        d1 = parse_deck("1,2,3,4")
        d2 = parse_deck("2,4,1,3")
        mom = descent_moments(d1, d2)
        with pytest.raises(DegenerateDistributionError):
            normal_coefficient_estimate(1, mom, 1)

    def test_degree_out_of_range_rejected(self):
        d1, d2 = random_pair("1,1,2,2", 21)
        mom = descent_moments(d1, d2)
        total = transition_cardinality(d1, d2)
        for bad in (-1, d1.n):
            with pytest.raises(ValueError):
                normal_coefficient_estimate(bad, mom, total)


class TestErrorBoundFlag:
    def test_false_for_playable_decks(self):
        for tokens in ("1,1,2,2", "1^6,2^6", "R^26,B^26", "1^13,2^13,3^13,4^13"):
            d1 = parse_deck(tokens)
            d2 = sample_uniform_rearrangement(d1, substream(5, 901))
            assert not normal_error_bound_applies(descent_moments(d1, d2))

    def test_true_for_huge_variance(self):
        mom = DescentMoments(n=10**9, mean=Fraction(1), variance=Fraction(10**10))
        assert normal_error_bound_applies(mom)

    def test_threshold_is_strict(self):
        # 441 ** 3 equals 294 ** 2 * (63 / 2) ** 2 exactly.
        on_edge = DescentMoments(n=100, mean=Fraction(63, 2), variance=Fraction(441))
        past_edge = DescentMoments(n=100, mean=Fraction(63, 2), variance=Fraction(442))
        assert not normal_error_bound_applies(on_edge)
        assert normal_error_bound_applies(past_edge)


def synthetic_histogram(counts, samples=None):
    """Histogram over a fixed 12-card pair with hand-picked counts."""
    d1 = parse_deck("1^6,2^6")
    d2 = parse_deck("2,1,2,1,2,1,2,1,2,1,2,1")
    assert len(counts) == d1.n
    return DescentHistogram(
        source=d1,
        target=d2,
        counts=tuple(counts),
        samples=samples if samples is not None else sum(counts),
        seed=0,
    )


class TestTailFit:
    def test_flat_counts_give_exact_constant_fit(self):
        hist = synthetic_histogram([0, 0, 800, 800, 800, 800, 800, 800, 0, 0, 0, 0])
        fit = tail_extrapolate(hist, degree=2, min_count=400)
        assert fit.window == (2, 7)
        assert fit.residual_rms == 0.0
        assert fit.coefficients[1] == 0
        assert fit.coefficients[2] == 0
        level = float(hist.coefficient_estimates()[2])
        for d in range(12):
            assert fit.predict(d) == pytest.approx(level, rel=1e-12)

    def test_predict_is_exp_of_log_predict(self):
        hist = synthetic_histogram([0, 0, 500, 900, 1400, 1600, 1300, 800, 450, 0, 0, 0])
        fit = tail_extrapolate(hist, degree=2, min_count=400)
        for d in range(12):
            assert fit.predict(d) == pytest.approx(math.exp(fit.log_predict(d)))

    def test_residual_rms_recomputes(self):
        hist = synthetic_histogram([0, 0, 500, 900, 1400, 1600, 1300, 800, 450, 0, 0, 0])
        fit = tail_extrapolate(hist, degree=2, min_count=400)
        est = hist.coefficient_estimates()
        lo, hi = fit.window
        sq = [
            (math.log(float(est[d])) - fit.log_predict(d)) ** 2
            for d in range(lo, hi + 1)
            if hist.counts[d] > 0
        ]
        assert fit.residual_rms == pytest.approx(math.sqrt(sum(sq) / len(sq)))

    def test_log_quadratic_counts_recovered(self):
        center, peak, width = 6, 12.0, 4.5
        counts = [0] * 12
        for d in range(2, 11):
            counts[d] = round(math.exp(peak - ((d - center) / width) ** 2 * 4.0))
        hist = synthetic_histogram(counts)
        fit = tail_extrapolate(hist, degree=2, min_count=400)
        est = hist.coefficient_estimates()
        lo, hi = fit.window
        for d in range(lo, hi + 1):
            assert fit.predict(d) == pytest.approx(float(est[d]), rel=0.02)

    def test_auto_window_prefers_longest_run(self):
        hist = synthetic_histogram([0, 500, 500, 300, 450, 450, 450, 0, 0, 0, 0, 0])
        fit = tail_extrapolate(hist, degree=1, min_count=400)
        assert fit.window == (4, 6)

    def test_auto_window_tie_takes_lowest_start(self):
        hist = synthetic_histogram([0, 500, 500, 450, 0, 450, 450, 500, 0, 0, 0, 0])
        fit = tail_extrapolate(hist, degree=1, min_count=400)
        assert fit.window == (1, 3)

    def test_explicit_window_overrides_auto(self):
        hist = synthetic_histogram([0, 0, 500, 900, 1400, 1600, 1300, 800, 450, 0, 0, 0])
        fit = tail_extrapolate(hist, degree=1, min_count=400, window=(4, 7))
        assert fit.window == (4, 7)

    def test_window_out_of_range_rejected(self):
        hist = synthetic_histogram([0, 0, 500, 900, 1400, 1600, 1300, 800, 450, 0, 0, 0])
        for bad in ((-1, 5), (3, 12), (7, 4)):
            with pytest.raises(ValueError):
                tail_extrapolate(hist, degree=1, window=bad)

    def test_no_populated_window_raises(self):
        hist = synthetic_histogram([0, 10, 20, 30, 20, 10, 5, 1, 0, 0, 0, 0])
        with pytest.raises(CapExceededError):
            tail_extrapolate(hist, degree=1, min_count=400)

    def test_too_few_points_for_degree_raises(self):
        hist = synthetic_histogram([0, 0, 500, 900, 1400, 1600, 1300, 800, 450, 0, 0, 0])
        with pytest.raises(CapExceededError):
            tail_extrapolate(hist, degree=4, window=(3, 6))

    def test_zero_count_degrees_inside_window_are_skipped(self):
        hist = synthetic_histogram([0, 0, 500, 900, 0, 1600, 1300, 800, 450, 0, 0, 0])
        fit = tail_extrapolate(hist, degree=2, min_count=400, window=(2, 8))
        assert fit.window == (2, 8)
        assert math.isfinite(fit.residual_rms)

    def test_sampled_histogram_extrapolates_toward_exact(self):
        d1 = parse_deck("1^6,2^6")
        d2 = parse_deck("2,1,2,1,2,1,2,1,2,1,2,1")
        hist = mc_descent_histogram(d1, d2, samples=200_000, seed=97)
        exact = exact_descent_polynomial(d1, d2).coefficients
        fit = tail_extrapolate(hist, degree=2, min_count=400)
        probe = fit.window[0] - 1
        assert exact[probe] > 0
        rel = abs(fit.predict(probe) - exact[probe]) / exact[probe]
        assert rel < 0.5, (probe, rel)
