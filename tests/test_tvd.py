"""Tests for total variation distance, scenarios, and sampling estimators."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from riffmix import (
    ALPHA_TABLE,
    BACKENDS,
    CapExceededError,
    FIXED_SOURCE,
    FIXED_TARGET,
    Scenario,
    bayer_diaconis_tvd,
    custom_scenario,
    exact_tvd_curve,
    exact_tvd_small,
    mc_tvd,
    mc_tvd_curve,
    parse_deck,
    riffles_to_packets,
    scenario,
    scenario_names,
)


def riffle_result(cards, digits, a):
    """Apply the shuffle encoded by target-position digits, by hand."""
    counts = [digits.count(v) for v in range(a)]
    packets = []
    start = 0
    for size in counts:
        packets.append(list(cards[start : start + size]))
        start += size
    return tuple(packets[v].pop(0) for v in digits)


def brute_tvd(s, a):
    """Sum max(0, 1/N - P(X)) with P from full digit enumeration."""
    anchor = s.anchor.cards
    n = len(anchor)
    arrangements = sorted(set(itertools.permutations(anchor)))
    big_n = len(arrangements)
    total = Fraction(0)
    for other in arrangements:
        if s.kind == FIXED_SOURCE:
            src, dst = anchor, other
        else:
            src, dst = other, anchor
        hits = sum(
            1
            for digits in itertools.product(range(a), repeat=n)
            if riffle_result(src, digits, a) == dst
        )
        total += max(Fraction(0), Fraction(1, big_n) - Fraction(hits, a**n))
    return total


class TestBayerDiaconis:
    def test_reference_values_for_a_standard_deck(self):
        assert float(bayer_diaconis_tvd(52, 5)) == pytest.approx(
            0.9237329293962945, abs=1e-15
        )
        assert float(bayer_diaconis_tvd(52, 6)) == pytest.approx(
            0.6135495965656284, abs=1e-15
        )

    def test_zero_shuffles_leave_almost_full_distance(self):
        # One packet keeps the deck fixed, so only the identity order
        # carries probability and the distance is 1 - 1/N.
        assert bayer_diaconis_tvd(52, 0) == 1 - Fraction(1, math.factorial(52))

    def test_single_card_is_always_mixed(self):
        assert bayer_diaconis_tvd(1, 3) == 0

    def test_nonincreasing_in_shuffle_count(self):
        vals = [bayer_diaconis_tvd(52, k) for k in range(11)]
        assert all(x >= y for x, y in zip(vals, vals[1:]))
        assert vals[-1] < Fraction(1, 20)

    def test_agrees_with_exact_sum_for_distinct_decks(self):
        for n in (2, 3, 4):
            deck = ",".join(str(i) for i in range(1, n + 1))
            s = custom_scenario(deck, FIXED_SOURCE)
            for k in (1, 2, 3):
                assert bayer_diaconis_tvd(n, k) == exact_tvd_small(
                    s, riffles_to_packets(k)
                )

    def test_riffles_to_packets_doubles(self):
        assert [riffles_to_packets(k) for k in range(6)] == [1, 2, 4, 8, 16, 32]


class TestExactTvd:
    def test_two_card_goldens(self):
        for kind in (FIXED_SOURCE, FIXED_TARGET):
            assert exact_tvd_small(custom_scenario("1,2", kind), 2) == Fraction(1, 4)

    def test_three_distinct_cards_golden_sequence(self):
        s = custom_scenario("1,2,3", FIXED_SOURCE)
        got = [exact_tvd_small(s, a) for a in (1, 2, 4, 8, 16)]
        assert got == [
            Fraction(5, 6),
            Fraction(1, 3),
            Fraction(7, 48),
            Fraction(13, 192),
            Fraction(25, 768),
        ]

    def test_single_card_deck(self):
        assert exact_tvd_small(custom_scenario("1", FIXED_SOURCE), 4) == 0

    def test_matches_digit_enumeration_oracle(self):
        cases = [
            ("1,1,2", FIXED_SOURCE, 2),
            ("1,1,2", FIXED_SOURCE, 3),
            ("1,1,2", FIXED_TARGET, 2),
            ("1,2,3", FIXED_TARGET, 2),
            ("1,1,2,2", FIXED_SOURCE, 2),
            ("1,1,2,2", FIXED_TARGET, 3),
            ("1,1,1,2", FIXED_SOURCE, 2),
        ]
        for tokens, kind, a in cases:
            s = custom_scenario(tokens, kind)
            assert exact_tvd_small(s, a) == brute_tvd(s, a), (tokens, kind, a)

    def test_repeated_label_golden(self):
        s = custom_scenario("1,1,2,2", FIXED_SOURCE)
        assert exact_tvd_small(s, 2) == Fraction(7, 24)

    def test_packet_count_must_be_positive(self):
        with pytest.raises(ValueError):
            exact_tvd_small(custom_scenario("1,2", FIXED_SOURCE), 0)

    def test_arrangement_cap_enforced(self):
        with pytest.raises(CapExceededError):
            exact_tvd_small(scenario("Bridge1"), 2)

    def test_transition_cap_enforced(self):
        s = custom_scenario("1,1,2,2,3", FIXED_SOURCE)
        with pytest.raises(CapExceededError):
            exact_tvd_small(s, 2, transition_cap=2)


class TestScenarioRegistry:
    def test_registry_contents(self):
        names = scenario_names()
        assert names == (
            "BayerDiaconis",
            "Blackjack1",
            "Blackjack2",
            "Bridge1",
            "Bridge2",
            "RedBlack1",
            "RedBlack2",
            "AliceBob1",
            "AliceBob2",
        )
        for name in names:
            s = scenario(name)
            assert s.name == name
            assert s.anchor.n == 52
            assert s.kind in (FIXED_SOURCE, FIXED_TARGET)

    def test_arrangement_counts(self):
        fact52 = math.factorial(52)
        assert scenario("BayerDiaconis").arrangements == fact52
        assert scenario("Blackjack1").arrangements == fact52 // 24**13
        assert scenario("Bridge1").arrangements == fact52 // math.factorial(13) ** 4
        assert scenario("RedBlack1").arrangements == math.comb(52, 26)
        assert scenario("AliceBob2").arrangements == math.comb(52, 26)

    def test_paired_variants_share_composition_not_order(self):
        for base in ("Blackjack", "Bridge", "RedBlack", "AliceBob"):
            one = scenario(base + "1").anchor
            two = scenario(base + "2").anchor
            assert one.signature == two.signature
            assert one.cards != two.cards

    def test_lookup_is_case_insensitive(self):
        assert scenario("blackjack1").name == "Blackjack1"
        assert scenario("BRIDGE2").name == "Bridge2"

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(KeyError, match="BayerDiaconis"):
            scenario("nope")

    def test_pair_orientation(self):
        other = parse_deck("2,1")
        src = custom_scenario("1,2", FIXED_SOURCE)
        dst = custom_scenario("1,2", FIXED_TARGET)
        assert src.pair(other) == (src.anchor, other)
        assert dst.pair(other) == (other, dst.anchor)

    def test_custom_scenario_names(self):
        s = custom_scenario("1,1,2", FIXED_SOURCE)
        assert s.name == "custom-1^2+2"
        named = custom_scenario("1,1,2", FIXED_SOURCE, name="warmup")
        assert named.name == "warmup"

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            custom_scenario("1,2", "sideways")
        with pytest.raises(ValueError):
            Scenario("x", "sideways", parse_deck("1,2"))


class TestMcTvd:
    def test_exact_backend_tracks_exact_value(self):
        s = custom_scenario("1,1,2,2", FIXED_SOURCE)
        exact = float(exact_tvd_small(s, 2))
        err96 = ALPHA_TABLE[0][0] / math.sqrt(400)
        for seed in (3, 4, 5):
            est = mc_tvd(s, a=2, k=400, seed=seed)
            assert abs(est.value - exact) < err96

    def test_deterministic_and_seed_sensitive(self):
        s = custom_scenario("1,1,2,2", FIXED_SOURCE)
        one = mc_tvd(s, a=2, k=200, seed=9)
        two = mc_tvd(s, a=2, k=200, seed=9)
        other = mc_tvd(s, a=2, k=200, seed=10)
        assert one.value == two.value
        assert one.value != other.value

    def test_thread_count_does_not_change_the_result(self):
        s = custom_scenario("1,1,2,2", FIXED_SOURCE)
        assert (
            mc_tvd(s, a=2, k=400, seed=3, threads=1).value
            == mc_tvd(s, a=2, k=400, seed=3, threads=2).value
        )

    def test_estimate_record_fields(self):
        s = custom_scenario("1,1,2,2", FIXED_SOURCE)
        est = mc_tvd(s, a=2, k=50, seed=3)
        assert est.scenario == s.name
        assert est.method == "mc-exact-backend"
        assert (est.a, est.k, est.seed) == (2, 50, 3)
        assert est.hist_samples is None
        for (alpha, prob), (got_alpha, got_err, got_prob) in zip(
            ALPHA_TABLE, est.alpha_bounds
        ):
            assert got_alpha == alpha
            assert got_prob == prob
            assert got_err == pytest.approx(alpha / math.sqrt(50))

    def test_alpha_table_values(self):
        assert ALPHA_TABLE[0] == (pytest.approx(math.sqrt(10)), 0.04)
        assert ALPHA_TABLE[1] == (pytest.approx(10 * math.sqrt(10)), 4e-6)

    def test_histogram_backend_agrees_with_exact_backend(self):
        s = custom_scenario("1,1,2,2", FIXED_SOURCE)
        plain = mc_tvd(s, a=2, k=50, seed=3)
        hist = mc_tvd(s, a=2, k=50, seed=3, backend="mc-histogram", hist_samples=20000)
        assert hist.method == "mc-histogram"
        assert hist.hist_samples == 20000
        assert abs(hist.value - plain.value) < 0.05

    def test_normal_backend_on_two_cards(self):
        s = custom_scenario("1,2", FIXED_SOURCE)
        est = mc_tvd(s, a=2, k=100, seed=1, backend="normal-approx")
        again = mc_tvd(s, a=2, k=100, seed=1, backend="normal-approx")
        assert est.method == "normal"
        assert est.value == again.value
        assert abs(est.value - 0.25) < 0.32

    def test_extrapolated_histogram_backend_runs(self):
        s = custom_scenario("1^6,2^6", FIXED_SOURCE)
        plain = mc_tvd(
            s, a=4, k=60, seed=7, backend="mc-histogram", hist_samples=150_000
        )
        fitted = mc_tvd(
            s,
            a=4,
            k=60,
            seed=7,
            backend="mc-histogram",
            hist_samples=150_000,
            extrapolate=True,
            fit_degree=2,
        )
        assert 0.0 <= fitted.value <= 1.0
        assert fitted.value != plain.value

    def test_unknown_backend_rejected(self):
        s = custom_scenario("1,2", FIXED_SOURCE)
        with pytest.raises(ValueError, match="backend"):
            mc_tvd(s, a=2, k=5, seed=1, backend="quantum")

    def test_sample_count_must_be_positive(self):
        s = custom_scenario("1,2", FIXED_SOURCE)
        with pytest.raises(ValueError):
            mc_tvd(s, a=2, k=0, seed=1)

    def test_backends_tuple_is_frozen(self):
        assert BACKENDS == ("exact-oracle", "mc-histogram", "normal-approx")


class TestCurves:
    """The sequence forms equal one single-packet-count call per entry."""

    PACKETS = [1, 2, 4, 8, 3]

    @pytest.mark.parametrize(
        "deck, kind, cap",
        [
            ("1^2,2^2,3", FIXED_TARGET, 10**8),  # permutation sweep
            ("1^3,2^3", FIXED_SOURCE, 100),  # per-arrangement enumeration
        ],
    )
    def test_exact_routes(self, deck, kind, cap):
        s = custom_scenario(deck, kind)
        curve = exact_tvd_curve(s, self.PACKETS, transition_cap=cap)
        assert curve == [
            exact_tvd_small(s, a, transition_cap=cap) for a in self.PACKETS
        ]

    @pytest.mark.parametrize(
        "deck, kind, options",
        [
            ("1^2,2^2,3", FIXED_TARGET, {}),
            ("1^6,2^6", FIXED_SOURCE,
             {"backend": "mc-histogram", "hist_samples": 3000}),
            ("1^6,2^6", FIXED_SOURCE,
             {"backend": "mc-histogram", "hist_samples": 3000,
              "extrapolate": True, "fit_degree": 2, "window": (2, 7)}),
            ("1^3,2^3,3^3", FIXED_TARGET, {"backend": "normal-approx"}),
            ("1,2,3", FIXED_SOURCE, {"backend": "normal-approx"}),
        ],
    )
    def test_sampling_routes(self, deck, kind, options):
        s = custom_scenario(deck, kind)
        # Each histogram costs about 0.1 s whatever its size, so k is small.
        curve = mc_tvd_curve(s, self.PACKETS, k=6, seed=11, **options)
        singles = [mc_tvd(s, a, k=6, seed=11, **options) for a in self.PACKETS]
        assert curve == singles
        assert [est.a for est in curve] == self.PACKETS

    def test_zero_variance_pairs_are_exact_point_masses(self):
        # Distinct cards have a deterministic descent count, so the normal
        # backend's point mass is the exact transition polynomial.
        s = custom_scenario("1,2,3", FIXED_SOURCE)
        (est,) = mc_tvd_curve(s, [2], k=30, seed=4, backend="normal-approx")
        exact = mc_tvd(s, 2, k=30, seed=4)
        assert est.value == exact.value
