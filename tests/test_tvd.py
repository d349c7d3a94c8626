"""Tests for total variation distance, scenarios, and sampling estimators."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
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
    descent_polynomial_family,
    digit_transition_counts,
    enumerate_arrangements,
    exact_descent_polynomial,
    exact_tvd_curve,
    mc_descent_histogram,
    mc_tvd_curve,
    parse_deck,
    riffles_to_packets,
    sample_uniform_rearrangement,
    scenario,
    scenario_names,
)
from riffmix.rng import PURPOSE_TVD, substream
from riffmix.shuffle import shuffle_weights
from riffmix.tvd import (
    _deck_fingerprint,
    _exact_excess,
    _gaps,
    _scaled_weights,
    _terms,
    distinct_scenario,
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
        # The digit-enumeration oracle shares no code with the Eulerian rows.
        for n in (2, 3, 4):
            for k in (1, 2, 3):
                assert bayer_diaconis_tvd(n, k) == brute_tvd(
                    distinct_scenario(n), 2**k
                ), (n, k)

    def test_riffles_to_packets_doubles(self):
        assert [riffles_to_packets(k) for k in range(6)] == [1, 2, 4, 8, 16, 32]


class TestExactTvd:
    def test_two_card_goldens(self):
        for kind in (FIXED_SOURCE, FIXED_TARGET):
            (got,) = exact_tvd_curve(custom_scenario("1,2", kind), [2])
            assert got == Fraction(1, 4)

    def test_three_distinct_cards_golden_sequence(self):
        s = custom_scenario("1,2,3", FIXED_SOURCE)
        got = [exact_tvd_curve(s, [a])[0] for a in (1, 2, 4, 8, 16)]
        assert got == [
            Fraction(5, 6),
            Fraction(1, 3),
            Fraction(7, 48),
            Fraction(13, 192),
            Fraction(25, 768),
        ]

    def test_single_card_deck(self):
        assert exact_tvd_curve(custom_scenario("1", FIXED_SOURCE), [4])[0] == 0

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
            assert exact_tvd_curve(s, [a])[0] == brute_tvd(s, a), (tokens, kind, a)

    def test_repeated_label_golden(self):
        s = custom_scenario("1,1,2,2", FIXED_SOURCE)
        assert exact_tvd_curve(s, [2])[0] == Fraction(7, 24)

    def test_packet_count_must_be_positive(self):
        with pytest.raises(ValueError):
            exact_tvd_curve(custom_scenario("1,2", FIXED_SOURCE), [0])

    def test_arrangement_cap_enforced(self):
        with pytest.raises(CapExceededError):
            exact_tvd_curve(scenario("Bridge1"), [2])

    def test_transition_cap_enforced(self):
        # Not a block deck, so the sweep enumerates its transition sets.
        s = custom_scenario("1,2,1,2,3", FIXED_SOURCE)
        with pytest.raises(CapExceededError):
            exact_tvd_curve(s, [2], transition_cap=2)

    @pytest.mark.parametrize(
        "deck, kind, a",
        [
            ("1^10,2", FIXED_SOURCE, 2),
            ("1^10,2", FIXED_SOURCE, 3),
            ("1^2,2^9", FIXED_TARGET, 2),
            ("1^2,2^2,3", FIXED_SOURCE, 2),
            ("1^2,2^2,3", FIXED_TARGET, 3),
            ("1^3,2,3^3", FIXED_SOURCE, 2),
            ("1,2^3,3^2", FIXED_TARGET, 2),
        ],
    )
    def test_block_decks_take_the_dp_so_no_transition_cap_applies(
        self, deck, kind, a
    ):
        # Block decks of any size take the DP over all counterparts, which
        # enumerates no transition: the 11-card decks' pairs have 10! or
        # more members, and the others are small enough for the sweep.
        s = custom_scenario(deck, kind)
        n, count = s.anchor.n, s.arrangements
        walk = digit_transition_counts(s.anchor, a)
        want = Fraction(0)
        for other in enumerate_arrangements(s.anchor):
            if kind == FIXED_SOURCE:
                hits = walk.get(other, 0)
            else:
                hits = digit_transition_counts(other, a).get(s.anchor, 0)
            want += max(Fraction(0), Fraction(1, count) - Fraction(hits, a**n))
        assert exact_tvd_curve(s, [a], transition_cap=0) == [want]

    def test_transition_cap_refuses_enumerated_decks_above_the_sweep(self):
        s = custom_scenario("1^5,2,1^5", FIXED_SOURCE)
        with pytest.raises(CapExceededError):
            exact_tvd_curve(s, [2], transition_cap=10**6)

    def test_distinct_decks_enumerate_nothing_so_no_cap_applies(self):
        (value,) = exact_tvd_curve(scenario("BayerDiaconis"), [2**7])
        assert value == bayer_diaconis_tvd(52, 7)
        s = custom_scenario("1,2,3", FIXED_SOURCE)
        assert exact_tvd_curve(s, [2], arrangement_cap=1, transition_cap=0) == [
            Fraction(1, 3)
        ]


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
        exact = float(exact_tvd_curve(s, [2])[0])
        err96 = ALPHA_TABLE[0][0] / math.sqrt(400)
        for seed in (3, 4, 5):
            est = mc_tvd_curve(s, [2], k=400, seed=seed)[0]
            assert abs(est.value - exact) < err96

    def test_deterministic_and_seed_sensitive(self):
        s = custom_scenario("1,1,2,2", FIXED_SOURCE)
        one = mc_tvd_curve(s, [2], k=200, seed=9)[0]
        two = mc_tvd_curve(s, [2], k=200, seed=9)[0]
        other = mc_tvd_curve(s, [2], k=200, seed=10)[0]
        assert one.value == two.value
        assert one.value != other.value

    def test_exact_backend_value_is_fsum_of_independent_draws(self):
        # All k arrangements come from one substream, and each value is
        # the correctly rounded sum of the k exact terms, over k.
        s = custom_scenario("1^3,2^2,3", FIXED_SOURCE)
        packets, k = [2, 4, 8], 300
        gen = substream(21, PURPOSE_TVD)
        terms = []
        for _ in range(k):
            d1, d2 = s.pair(sample_uniform_rearrangement(s.anchor, gen))
            poly = exact_descent_polynomial(d1, d2)
            terms.append(
                [float(max(0, 1 - s.arrangements * poly.probability(a)))
                 for a in packets]
            )
        curve = mc_tvd_curve(s, packets, k=k, seed=21)
        assert [est.value for est in curve] == [
            math.fsum(column) / k for column in zip(*terms)
        ]

    def test_estimate_record_fields(self):
        s = custom_scenario("1,1,2,2", FIXED_SOURCE)
        est = mc_tvd_curve(s, [2], k=50, seed=3)[0]
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
        plain = mc_tvd_curve(s, [2], k=50, seed=3)[0]
        (hist,) = mc_tvd_curve(
            s, [2], k=50, seed=3, backend="mc-histogram", hist_samples=20000
        )
        assert hist.method == "mc-histogram"
        assert hist.hist_samples == 20000
        assert abs(hist.value - plain.value) < 0.05

    def test_normal_backend_on_two_cards(self):
        s = custom_scenario("1,2", FIXED_SOURCE)
        est = mc_tvd_curve(s, [2], k=100, seed=1, backend="normal-approx")[0]
        again = mc_tvd_curve(s, [2], k=100, seed=1, backend="normal-approx")[0]
        assert est.method == "normal"
        assert est.value == again.value
        assert abs(est.value - 0.25) < 0.32

    @pytest.mark.parametrize(
        "name, values",
        [
            ("Bridge1", [1.0, 0.9194253348304668, 0.7147033196242567,
                         0.4089128991765505]),
            ("Blackjack1", [0.9, 0.016881159317583376, 0.10757006312757536,
                            0.07403272046968834]),
        ],
    )
    def test_normal_backend_values_are_pinned(self, name, values):
        # Floats, compared exactly: the moments are exact and the curve
        # is evaluated in a fixed order, so no bit may move.
        curve = mc_tvd_curve(
            scenario(name), [8, 16, 32, 64], k=40, seed=77, backend="normal-approx"
        )
        assert [est.value for est in curve] == values
        # Every distinct arrangement of these 52-card decks is far from the
        # regime where the normal curve's error bound is proven.
        assert [est.unproven for est in curve] == [40] * 4

    @pytest.mark.parametrize(
        "name, values",
        [
            ("Bridge2", [1.0, 0.0, 0.009372302088757242, 0.013464313655332063,
                         0.009194194624759561, 0.005242126253125803]),
            ("AliceBob2", [1.0, 0.0, 0.0, 0.0, 0.0002898234367427283,
                           0.0005759061073245198]),
            ("Blackjack2", [1.0, 0.738436550757435, 0.5448347185976302,
                            0.26243921528966385, 0.12654876514108862,
                            0.06262720759996962]),
        ],
    )
    def test_normal_backend_values_up_to_256_packets_are_pinned(self, name, values):
        # The interleaved scenarios, two fixed-target with shared target
        # statistics and one fixed-source with fresh ones, compared exactly.
        curve = mc_tvd_curve(
            scenario(name), [8, 16, 32, 64, 128, 256], k=40, seed=11,
            backend="normal-approx",
        )
        assert [est.value for est in curve] == values
        assert [est.unproven for est in curve] == [40] * 6

    @pytest.mark.parametrize(
        "deck, kind, options, values",
        [
            # Integer vectors.
            ("1^2,2^2,3", FIXED_TARGET, {},
             [1.0, 0.6770833333333334, 0.2962239583333333,
              0.12837727864583334, 0.4218106995884774]),
            ("1^3,2^3", FIXED_SOURCE, {},
             [1.0, 0.25, 0.1201171875, 0.058827718098958336,
              0.1616369455875629]),
            # Fraction vectors.
            ("1^6,2^6", FIXED_SOURCE,
             {"backend": "mc-histogram", "hist_samples": 3000},
             [1.0, 1.0, 0.19411443074544268, 0.03867400822540124,
              0.5328913275415333]),
            # Float vectors.
            ("1^6,2^6", FIXED_SOURCE,
             {"backend": "mc-histogram", "hist_samples": 3000,
              "extrapolate": True, "fit_degree": 2, "window": (2, 7)},
             [1.0, 0.3586206732153741, 0.1818787618541848,
              0.0383106716054765, 0.47770969875351993]),
        ],
    )
    def test_sampled_values_are_pinned(self, deck, kind, options, values):
        # Each coefficient vector type is scored by its own arithmetic;
        # the floats are compared exactly, so no bit may move.
        curve = mc_tvd_curve(
            custom_scenario(deck, kind), [1, 2, 4, 8, 3], k=6, seed=11, **options
        )
        assert [est.value for est in curve] == values

    def test_only_the_normal_backend_counts_unproven_curves(self):
        s = custom_scenario("1,1,2", FIXED_SOURCE)
        (est,) = mc_tvd_curve(s, [2], k=20, seed=1, backend="exact-oracle")
        assert est.unproven is None
        # Distinct cards: one transition per pair, a point mass, not a curve.
        s = custom_scenario("1,2,3", FIXED_SOURCE)
        (est,) = mc_tvd_curve(s, [2], k=20, seed=1, backend="normal-approx")
        assert est.unproven == 0

    def test_extrapolated_histogram_backend_runs(self):
        s = custom_scenario("1^6,2^6", FIXED_SOURCE)
        plain = mc_tvd_curve(
            s, [4], k=60, seed=7, backend="mc-histogram", hist_samples=150_000
        )[0]
        fitted = mc_tvd_curve(
            s,
            [4],
            k=60,
            seed=7,
            backend="mc-histogram",
            hist_samples=150_000,
            extrapolate=True,
            fit_degree=2,
        )[0]
        assert 0.0 <= fitted.value <= 1.0
        assert fitted.value != plain.value

    def test_uninformed_counts_arrangements_with_no_coefficient_below_a(self):
        s = custom_scenario("1^4,2^4", FIXED_SOURCE)
        packets = [1, 2, 3, 64]
        est = mc_tvd_curve(
            s, packets, k=20, seed=12, backend="mc-histogram", hist_samples=30
        )
        # Recount from the histograms the backend drew, one per distinct
        # arrangement, with their seeds.
        gen = substream(12, PURPOSE_TVD)
        distinct = {sample_uniform_rearrangement(s.anchor, gen) for _ in range(20)}
        want = [0] * len(packets)
        for counterpart in distinct:
            seed = (_deck_fingerprint(counterpart) ^ 12) & ((1 << 63) - 1)
            counts = mc_descent_histogram(*s.pair(counterpart), 30, seed).counts
            for e, a in enumerate(packets):
                want[e] += not any(counts[:a])
        assert [e.uninformed for e in est] == want
        # One packet informs only the identity; 64 packets every histogram.
        assert want[0] == len(distinct) - (s.anchor in distinct)
        assert 0 < want[2] < want[0] and want[3] == 0
        # Other backends leave it unset.
        exact = mc_tvd_curve(s, packets, k=3, seed=12)
        assert {e.uninformed for e in exact} == {None}

    def test_histograms_too_sparse_to_fit_keep_their_estimates(self):
        # No window of 12 degrees holds the 13 points a degree-11 fit needs.
        s = custom_scenario("1^6,2^6", FIXED_SOURCE)
        options = {"backend": "mc-histogram", "hist_samples": 3000}
        plain = mc_tvd_curve(s, [2, 4], k=6, seed=11, **options)
        fitted = mc_tvd_curve(
            s, [2, 4], k=6, seed=11, extrapolate=True, fit_degree=11, **options
        )
        assert [est.value for est in fitted] == [est.value for est in plain]
        assert [est.unfitted for est in fitted] == [6, 6]
        assert [est.unfitted for est in plain] == [None, None]
        with pytest.raises(CapExceededError):
            mc_tvd_curve(
                s, [2], k=6, seed=11, extrapolate=True, fit_degree=11,
                window=(0, 11), **options,
            )

    def test_unknown_backend_rejected(self):
        s = custom_scenario("1,2", FIXED_SOURCE)
        with pytest.raises(ValueError, match="backend"):
            mc_tvd_curve(s, [2], k=5, seed=1, backend="quantum")

    def test_sample_count_must_be_positive(self):
        s = custom_scenario("1,2", FIXED_SOURCE)
        with pytest.raises(ValueError):
            mc_tvd_curve(s, [2], k=0, seed=1)

    def test_backends_tuple_is_frozen(self):
        assert BACKENDS == ("exact-oracle", "mc-histogram", "normal-approx")


class TestCurves:
    """The sequence forms equal one single-packet-count call per entry."""

    PACKETS = [1, 2, 4, 8, 3]

    @pytest.mark.parametrize(
        "deck, kind, cap",
        [
            ("1^2,2^2,3", FIXED_TARGET, 10**8),
            ("1^3,2^3", FIXED_SOURCE, 100),  # below 6!, above its 36 transitions
            ("1,2,1,2,3,3", FIXED_SOURCE, 10**8),
            ("1,2,2,1,3", FIXED_TARGET, 10**8),
        ],
    )
    def test_exact_routes(self, deck, kind, cap):
        s = custom_scenario(deck, kind)
        curve = exact_tvd_curve(s, self.PACKETS, transition_cap=cap)
        assert curve == [
            exact_tvd_curve(s, [a], transition_cap=cap)[0] for a in self.PACKETS
        ]
        # The block decks take the DP over all counterparts and the others
        # the sweep; the sweep's rows, as a multiset, are the
        # per-arrangement rows for every deck.
        role = "source" if kind == FIXED_SOURCE else "target"
        family = descent_polynomial_family(s.anchor, role=role)
        assert Counter(map(tuple, family.counts.tolist())) == Counter(
            exact_descent_polynomial(*s.pair(c), cap=cap).coefficients
            for c in enumerate_arrangements(s.anchor)
        )

    @pytest.mark.parametrize(
        "deck, kind",
        [
            ("1,2,3,4,5", FIXED_TARGET),  # Eulerian closed form
            ("1^5,2^6", FIXED_SOURCE),  # per-arrangement block DP
        ],
    )
    def test_exact_routes_picked_by_the_deck(self, deck, kind):
        s = custom_scenario(deck, kind)
        assert exact_tvd_curve(s, self.PACKETS) == [
            exact_tvd_curve(s, [a])[0] for a in self.PACKETS
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
        curve = mc_tvd_curve(s, self.PACKETS, k=6, seed=11, **options)
        singles = [
            mc_tvd_curve(s, [a], k=6, seed=11, **options)[0] for a in self.PACKETS
        ]
        assert curve == singles
        assert [est.a for est in curve] == self.PACKETS

    def test_zero_variance_pairs_are_exact_point_masses(self):
        # Distinct cards have a deterministic descent count, so the normal
        # backend's point mass is the exact transition polynomial.
        s = custom_scenario("1,2,3", FIXED_SOURCE)
        (est,) = mc_tvd_curve(s, [2], k=30, seed=4, backend="normal-approx")
        exact = mc_tvd_curve(s, [2], k=30, seed=4)[0]
        assert est.value == exact.value


@pytest.mark.parametrize(
    "n, shuffles",
    [(5, range(6)), (12, range(9)), (52, (3, 5, 8, 20)), (52, (70,))],
)
def test_exact_terms_are_the_fraction_terms_bit_for_bit(n, shuffles):
    # Exact vectors are scored as gap / a^n, which rounds once.  Each term
    # must be the float of the Fraction gap / a^n, as they were scored
    # before, also where a^n is above the float range (2^(70 * 52)).
    weighted = [shuffle_weights(n, 2**s) for s in shuffles]
    gen = random.Random(25 * n + len(weighted))
    for case in range(300):
        # Entries of up to as many digits as n!, and a count that puts
        # N * P near 1 at one packet count, so that gaps carry many bits.
        size = 10 ** gen.randrange(1, len(str(math.factorial(n))) + 1)
        row = [gen.randrange(size) for _ in range(n)]
        if case % 2:
            row = [Fraction(c, gen.randrange(1, 10**4)) for c in row]
        row[0] += 1  # every weight is positive at degree 0, so P > 0
        weights, denom = gen.choice(weighted)
        total = sum(c * w for c, w in zip(row, weights))
        share = Fraction(gen.randrange(20, 180), 100)
        count = max(1, math.floor(share * denom / total))
        want = [
            float(Fraction(gap, d)) if gap > 0 else 0.0
            for gap, (_, d) in zip(_gaps(row, weighted, count), weighted)
        ]
        got = _terms(row, weighted, _scaled_weights(weighted), count)
        assert [t.hex() for t in got] == [t.hex() for t in want], (row, count)


@pytest.mark.parametrize("n, shuffles", [(5, range(6)), (52, range(1, 11))])
def test_float_terms_take_each_weight_over_a_n_once_per_curve(n, shuffles):
    # Float vectors are summed against weights divided by a^n once per
    # curve; each term must be the one of dividing them for every pair.
    weighted = [shuffle_weights(n, 2**s) for s in shuffles]
    scaled = _scaled_weights(weighted)
    gen = random.Random(n)
    for case in range(200):
        row = [gen.random() * 10 ** gen.randrange(0, 60) for _ in range(n)]
        for d in gen.sample(range(n), gen.randrange(n)):
            row[d] = 0.0
        row[0] = gen.random()  # every weight is positive at degree 0
        ps = []
        for weights, denom in weighted:
            p = 0.0
            for c, w in zip(row, weights):
                p += c * (w / denom)
            ps.append(p)
        # A count that puts N * P near 1 at one packet count.
        count = max(1, int(gen.uniform(0.2, 1.8) / gen.choice(ps)))
        want = [max(0.0, 1 - count * p) for p in ps]
        got = _terms(row, weighted, scaled, count)
        assert [t.hex() for t in got] == [t.hex() for t in want], case


@pytest.mark.parametrize(
    "deck, kind",
    [
        ("1^2,2^2,3^2,4^2,5", FIXED_SOURCE),
        ("1^2,2^2,3^2,4^2,5", FIXED_TARGET),
        ("1,2,1,2,3", FIXED_SOURCE),
        (",".join(map(str, range(1, 53))), FIXED_SOURCE),
    ],
)
def test_exact_pairs_divide_to_the_fraction_floats(deck, kind):
    # The CLI scores each exact value as one true division of its int
    # pair; that must be the float of `exact_tvd_curve`'s Fraction.
    s = custom_scenario(deck, kind)
    packets = [1, 2, 3, 4, 8, 16, 64, 2**40]
    got = [num / den for num, den in _exact_excess(s, packets)]
    want = [float(v) for v in exact_tvd_curve(s, packets)]
    assert [v.hex() for v in got] == [v.hex() for v in want]
