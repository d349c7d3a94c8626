"""Acceptance checks for the package, one per shipped guarantee.

Each test prints a single PASS or FAIL line on the real stdout so the
outcome is visible in captured runs.  The long workstation-scale check
is opt-in via RIFFMIX_RUN_LONG=1.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from riffmix import (
    FIXED_SOURCE,
    PairStatistics,
    custom_scenario,
    descent_moments,
    descents,
    deck_text,
    enumerate_arrangements,
    enumerate_transitions,
    eulerian_row,
    exact_descent_polynomial,
    exact_tvd_curve,
    mc_descent_histogram,
    mc_tvd_curve,
    parse_deck,
    probabilities_to_polynomial,
    probability_from_coefficients,
    riffles_to_packets,
    sample_uniform_rearrangement,
    scenario,
    tail_extrapolate,
)
from riffmix.cli import ResultRow, main
from riffmix.descentpoly import descent_polynomial_family, digit_transition_counts
from riffmix.hardness import (
    balanced_complement_classes,
    matching_witness_ok,
    mincuts_witness_ok,
    random_matching_instance,
    reduce_matching_to_riffle,
    reduce_matching_to_riffle_bracketed,
    reduce_riffle_to_mincuts,
    riffle_witness_ok,
    solve_matching,
    solve_mincuts,
    solve_riffle,
    strided_descent_counts,
    strided_total,
)
from riffmix.rng import substream


@pytest.fixture
def announce(capsys):
    """Print one line on the real stdout, bypassing capture."""

    def emit(line: str) -> None:
        with capsys.disabled():
            print(line, flush=True)

    return emit


@contextmanager
def criterion(num: int, label: str, budget: float, emit):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        emit(f"acceptance {num:2d} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    emit(f"acceptance {num:2d} ({label}): PASS ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget}s"


def random_deck_pair(gen, n_max, labels=None):
    """A random composition deck and a uniform rearrangement of it.

    With `labels` fixed, the deck gets exactly that many distinct labels;
    otherwise the label count is drawn uniformly too.
    """
    n_min = labels if labels else 2
    n = int(gen.integers(n_min, n_max + 1))
    label_count = labels if labels else int(gen.integers(1, n + 1))
    cuts = sorted(gen.choice(range(1, n), size=label_count - 1, replace=False))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    tokens = ",".join(f"{lab + 1}^{size}" for lab, size in enumerate(sizes))
    d1 = parse_deck(tokens)
    return d1, sample_uniform_rearrangement(d1, gen)


@pytest.fixture(scope="module")
def two_label_battery():
    """Every ordered pair of two-label arrangements with up to 10 cards.

    Returns (records, build_seconds) where each record holds one source
    deck and the coefficient rows for all of its targets.
    """
    start = time.perf_counter()
    records = []
    decode_cache = {}
    for n in range(2, 11):
        for ones in range(1, n):
            anchor = parse_deck(f"1^{ones},2^{n - ones}")
            for source in enumerate_arrangements(anchor):
                fam = descent_polynomial_family(source, role="source")
                rows = []
                for code, row in zip(fam.codes, fam.counts):
                    key = (fam.labels, n, int(code))
                    target = decode_cache.get(key)
                    if target is None:
                        target = fam.decode(int(code))
                        decode_cache[key] = target
                    rows.append((target, row))
                records.append((source, rows))
    return records, time.perf_counter() - start


class TestAcceptance:
    def test_01_reference_distance_row(self, capsys, announce):
        with criterion(1, "closed-form distance row", 1.0, announce):
            code = main(["bd", "--n", "52", "--shuffles", "1..10"])
            out = capsys.readouterr().out
            assert code == 0
            rows = [ResultRow.from_csv(line) for line in out.splitlines()[2:]]
            want = (1.0, 1.0, 1.0, 1.0, 0.924, 0.614, 0.334, 0.167, 0.085, 0.043)
            assert len(rows) == 10
            for row, value in zip(rows, want):
                assert abs(row.value - value) <= 0.0005, (row.shuffles, row.value)

    def test_02_coefficients_to_probabilities_round_trip(self, announce):
        with criterion(2, "coefficient/probability round trip", 10.0, announce):
            gen = substream(42, 902)
            for _ in range(500):
                d1, d2 = random_deck_pair(gen, n_max=8)
                poly = exact_descent_polynomial(d1, d2)
                n = d1.n
                probs = [
                    probability_from_coefficients(poly.coefficients, a)
                    for a in range(1, n + 1)
                ]
                assert probabilities_to_polynomial(probs, n) == poly.coefficients

    def test_03_oracle_battery(self, two_label_battery, announce):
        records, build_seconds = two_label_battery
        with criterion(3, "exact oracle battery", 120.0 - build_seconds, announce):
            pair_count = 0
            for source, rows in records:
                n = source.n
                denom = 2**n
                walk = digit_transition_counts(source, 2)
                product = math.prod(math.factorial(c) for c in source.counts.values())
                for target, row in rows:
                    coeffs = tuple(int(c) for c in row)
                    assert sum(coeffs) == product
                    assert probability_from_coefficients(coeffs, 2) == Fraction(
                        walk.get(target, 0), denom
                    )
                    pair_count += 1
            assert pair_count == 250932

            gen = substream(73, 903)
            for _ in range(100):
                d1, d2 = random_deck_pair(gen, n_max=9, labels=3)
                poly = exact_descent_polynomial(d1, d2)
                product = math.prod(math.factorial(c) for c in d1.counts.values())
                assert sum(poly.coefficients) == product
                walk = digit_transition_counts(d1, 2)
                assert probability_from_coefficients(
                    poly.coefficients, 2
                ) == Fraction(walk.get(d2, 0), 2**d1.n)

    def test_04_moment_formulas(self, two_label_battery, announce):
        records, _ = two_label_battery
        with criterion(4, "exact descent moments", 120.0, announce):
            stats_cache = {}
            for source, rows in records:
                for target, row in rows:
                    st = stats_cache.get(target)
                    if st is None:
                        st = PairStatistics(target)
                        stats_cache[target] = st
                    mom = descent_moments(source, target, st)
                    total = 0
                    s1 = 0
                    s2 = 0
                    for d, c in enumerate(row):
                        c = int(c)
                        total += c
                        s1 += d * c
                        s2 += d * d * c
                    mean = Fraction(s1, total)
                    assert mom.mean == mean
                    assert mom.variance == Fraction(s2, total) - mean * mean

            for n0 in range(1, 6):
                d1 = parse_deck(f"(1,2)^{n0}")
                d2 = parse_deck(f"1^{n0},2^{n0}")
                mom = descent_moments(d1, d2)
                assert mom.variance == 0
                witness = next(iter(enumerate_transitions(d1, d2)))
                assert mom.mean == descents(witness)

    def test_05_sampling_estimator_calibration(self, announce):
        with criterion(5, "estimator deviation bound", 300.0, announce):
            s = custom_scenario("1^6,2^6", FIXED_SOURCE)
            exact = float(exact_tvd_curve(s, [4])[0])
            k = 10**4
            bound = math.sqrt(10) / math.sqrt(k)
            hits = 0
            for i in range(100):
                est = mc_tvd_curve(s, [4], k=k, seed=500 + i)[0]
                hits += abs(est.value - exact) <= bound
            assert hits >= 90, f"{hits}/100 runs inside the bound"

    def test_06_histogram_convergence(self, announce):
        with criterion(6, "histogram convergence", 60.0, announce):
            d1 = parse_deck("1^5,2^5")
            d2 = parse_deck("(1,2)^5")
            poly = exact_descent_polynomial(d1, d2)
            total = poly.cardinality
            assert poly.coefficients == (0, 3, 191, 2011, 5647, 5037, 1409, 101, 1, 0)
            distances = []
            for samples in (10**3, 10**4, 10**5, 10**6):
                hist = mc_descent_histogram(d1, d2, samples=samples, seed=601)
                distances.append(
                    0.5
                    * sum(
                        abs(c / samples - e / total)
                        for c, e in zip(hist.counts, poly.coefficients)
                    )
                )
            assert all(x > y for x, y in zip(distances, distances[1:])), distances
            assert distances[-1] < 0.005, distances

    def test_07_tail_extrapolation(self, announce):
        with criterion(7, "log-scale tail extrapolation", 60.0, announce):
            d1 = parse_deck("1^8,2^8")
            d2 = sample_uniform_rearrangement(d1, 7001)
            assert deck_text(d2) == "1,2,1,2^2,1^5,2,1,2^4"
            exact = exact_descent_polynomial(d1, d2, cap=2_000_000_000)
            hist = mc_descent_histogram(d1, d2, samples=10**6, seed=701)
            window = (5, 11)
            assert all(hist.counts[d] >= 400 for d in range(window[0], window[1] + 1))
            fit = tail_extrapolate(hist, degree=4, window=window)
            probe = window[0] - 2
            rel = abs(fit.predict(probe) - exact.coefficients[probe]) / exact.coefficients[probe]
            assert rel <= 0.25, f"relative error {rel:.3f} at degree {probe}"

    def test_08_hardness_battery(self, announce):
        with criterion(8, "reduction battery", 300.0, announce):
            yes = 0
            for i in range(200):
                inst = random_matching_instance(9000 + i, m_max=4, t_max=6)
                want, witness = solve_matching(inst)
                if want:
                    assert matching_witness_ok(inst, witness)
                riffle = reduce_matching_to_riffle(inst)
                bracketed = reduce_matching_to_riffle_bracketed(inst)
                cuts = reduce_riffle_to_mincuts(riffle)
                for solver, reduced, check in (
                    (solve_riffle, riffle, riffle_witness_ok),
                    (solve_riffle, bracketed, riffle_witness_ok),
                    (solve_mincuts, cuts, mincuts_witness_ok),
                ):
                    got, w = solver(reduced)
                    assert got == want, (i, inst.text())
                    if got:
                        assert check(reduced, w), (i, inst.text())
                yes += want
            assert yes == 85

    @pytest.mark.skipif(
        os.environ.get("RIFFMIX_RUN_LONG") != "1",
        reason="workstation-scale run; set RIFFMIX_RUN_LONG=1 to enable",
    )
    def test_09_desk_scale_spot_check(self, announce):
        with criterion(9, "desk-scale distance spot check", 4 * 3600.0, announce):
            s = scenario("Blackjack1")
            est = mc_tvd_curve(
                s,
                [riffles_to_packets(5)],
                k=10**3,
                seed=0,
                backend="mc-histogram",
                hist_samples=10**7,
            )[0]
            assert 0.185 <= est.value <= 0.26, est.value

    def test_10_structure_explorers(self, announce):
        with criterion(10, "structure explorers", 60.0, announce):
            for n in range(1, 5):
                for h in range(1, 4):
                    counts = strided_descent_counts(n, h)
                    assert sum(counts) == strided_total(n, h) == math.factorial(n) ** h
                    if h == 1:
                        row = tuple(eulerian_row(n))
                        assert counts == row + (0,) * (len(counts) - len(row))
            for n in range(1, 7):
                classes, sequences = balanced_complement_classes(n)
                assert sequences == math.comb(2 * n, n)
                assert classes == 1

    def test_11_full_size_exact_term_rows(self, announce):
        # Block-target scenarios take the label DP per arrangement, so the
        # exact-term estimator answers at 52 cards.
        with criterion(11, "full-size exact-term rows", 60.0, announce):
            want = {
                "Bridge1": (1.0, 0.9938, 0.7410, 0.4105, 0.1048),
                "AliceBob1": (1.0, 0.7182, 0.3089, 0.1337, 0.0293),
            }
            packets = [riffles_to_packets(k) for k in (3, 4, 5, 6, 8)]
            for name, row in want.items():
                est = mc_tvd_curve(scenario(name), packets, k=400, seed=42)
                assert tuple(round(e.value, 4) for e in est) == row, name
