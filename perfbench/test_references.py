"""Cross-check the benchmark's exact routes against an independent oracle.

The exact rows in `references.json` came from `riffmix tvd --method exact`,
which sums descent polynomials from the permutation sweep.  Here the same
distances at one and two riffles (a = 2 and a = 4) are rebuilt from
`digit_transition_counts`, which enumerates every a^n digit sequence of
the shuffle instead.  The per-pair vectorized route, which the benchmark
reaches through `--method mc-exact` on an 11-card deck, is checked the
same way pair by pair.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_references.py
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from riffmix.deck import arrangement_count, enumerate_arrangements, parse_deck
from riffmix.descentpoly import digit_transition_counts, exact_descent_polynomial

REFERENCES = json.loads((Path(__file__).parent / "references.json").read_text())
EXACT = {
    cmd: rows for cmd, rows in REFERENCES.items() if "--method exact" in cmd
}


def digit_tvd(deck_expr: str, a: int) -> Fraction:
    """Distance from uniform of an a-way shuffle of a sorted deck."""
    deck = parse_deck(deck_expr)
    counts = digit_transition_counts(deck, a, cap=a**deck.n)
    arrangements = arrangement_count(deck)
    uniform = Fraction(1, arrangements)
    total = uniform * (arrangements - len(counts))  # decks never reached
    for c in counts.values():
        p = Fraction(c, a**deck.n)
        if uniform > p:
            total += uniform - p
    return total


def test_the_sweep_route_has_references():
    assert len(EXACT) == 1


@pytest.mark.parametrize("cmd", sorted(EXACT))
@pytest.mark.parametrize("shuffles", [1, 2])
def test_exact_reference_matches_digit_enumeration(cmd, shuffles):
    args = cmd.split()
    deck = args[args.index("--deck") + 1]
    assert args[args.index("--kind") + 1] == "fixed-source"
    row = EXACT[cmd][shuffles - 1].split(",")
    assert int(row[1]) == shuffles
    assert row[3] == repr(float(digit_tvd(deck, 2**shuffles)))


@pytest.mark.parametrize("a", [2, 4])
def test_vectorized_pairs_match_digit_enumeration(a):
    deck = parse_deck("1^3,2^8")
    counts = digit_transition_counts(deck, a, cap=a**deck.n)
    # Every 15th of the 165 arrangements keeps the test quick.
    for target in list(enumerate_arrangements(deck))[::15]:
        p = exact_descent_polynomial(deck, target).probability(a)
        assert p == Fraction(counts.get(target, 0), a**deck.n)
