"""Tests for the hardness reductions, solvers, and exploration tools."""

from __future__ import annotations

import itertools
import math

import pytest

from riffmix import (
    CapExceededError,
    Permutation,
    deck_text,
    descents,
    enumerate_transitions,
    eulerian_row,
    parse_deck,
)
from riffmix.hardness import (
    MatchingInstance,
    MinCutsInstance,
    RiffleInstance,
    balanced_class_count_formula,
    balanced_complement_classes,
    matching_witness_ok,
    mincuts_witness_ok,
    parse_instance,
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


def brute_matching(inst):
    """Try every subset of m triples directly."""
    for subset in itertools.combinations(inst.triples, inst.m):
        seen = set()
        for triple in subset:
            seen.update(
                (axis, value) for axis, value in enumerate(triple)
            )
        if len(seen) == 3 * inst.m:
            return True
    return inst.m == 0


def distinct_schedules(sizes):
    """Every distinct sequence that takes index i exactly sizes[i] times,
    in lex order."""
    if not any(sizes):
        yield ()
        return
    for idx, size in enumerate(sizes):
        if size:
            rest = sizes[:idx] + (size - 1,) + sizes[idx + 1 :]
            for tail in distinct_schedules(rest):
                yield (idx,) + tail


def brute_riffle(inst):
    """Try every interleaving of the packets directly."""
    sizes = tuple(p.n for p in inst.packets)
    if sum(sizes) != inst.deck.n:
        return False
    for schedule in distinct_schedules(sizes):
        ptrs = [0] * len(inst.packets)
        out = []
        for idx in schedule:
            out.append(inst.packets[idx].cards[ptrs[idx]])
            ptrs[idx] += 1
        if tuple(out) == inst.deck.cards:
            return True
    return False


def brute_mincuts(inst):
    """Scan every transition permutation for one within budget."""
    try:
        perms = enumerate_transitions(inst.source, inst.target)
    except Exception:
        return False
    return any(descents(p) <= inst.budget for p in perms)


class TestInstanceText:
    def test_roundtrips(self):
        mi = MatchingInstance(m=2, triples=((1, 2, 1), (2, 1, 2), (1, 1, 1)))
        ri = reduce_matching_to_riffle(mi)
        mc = reduce_riffle_to_mincuts(ri)
        for inst in (mi, ri, mc):
            assert parse_instance(inst.text()) == inst

    def test_matching_text_shape(self):
        mi = MatchingInstance(m=1, triples=((1, 1, 1),))
        assert mi.text() == "3dm m=1 triples=(1,1,1)"

    def test_bad_lines_rejected(self):
        for line in ("", "what", "3dm", "riffle packets="):
            with pytest.raises(ValueError):
                parse_instance(line)

    def test_triples_must_fit_universe(self):
        with pytest.raises(ValueError):
            MatchingInstance(m=2, triples=((1, 3, 1),))
        with pytest.raises(ValueError, match="duplicate triples"):
            MatchingInstance(m=2, triples=((1, 2, 1), (1, 2, 1)))

    def test_negative_universe_rejected_and_empty_one_covered(self):
        with pytest.raises(ValueError, match="m must be nonnegative"):
            parse_instance("3dm m=-1 triples=")
        with pytest.raises(ValueError, match="m must be nonnegative"):
            MatchingInstance(m=-1, triples=())
        empty = parse_instance("3dm m=0 triples=")
        ok, witness = solve_matching(empty)
        assert ok and list(witness) == []
        assert matching_witness_ok(empty, witness)


class TestReductions:
    def test_single_triple_plain_reduction(self):
        mi = MatchingInstance(m=1, triples=((1, 1, 1),))
        ri = reduce_matching_to_riffle(mi)
        assert len(ri.packets) == 1
        assert ri.packets[0].cards == ("x1", "y1", "z1", "L")
        assert ri.deck.cards == ("x1", "y1", "z1", "L")

    def test_single_triple_bracketed_reduction(self):
        mi = MatchingInstance(m=1, triples=((1, 1, 1),))
        ri = reduce_matching_to_riffle_bracketed(mi)
        run = ("[", "c", "]", "[", "c", "c", "]", "[", "c", "c", "c", "]", "c")
        assert ri.packets[0].cards == run
        assert ri.deck.cards == run

    def test_bracketed_reduction_golden(self):
        mi = parse_instance("3dm m=2 triples=(1,1,1);(2,2,2);(1,2,1)")
        ri = reduce_matching_to_riffle_bracketed(mi)
        assert [deck_text(p) for p in ri.packets] == [
            "[,c,],[,c^3,],[,c^5,],c",
            "[,c^2,],[,c^4,],[,c^6,],c",
            "[,c,],[,c^4,],[,c^5,],c",
        ]
        # Every run once and m fillers, then the junk: the surplus copy
        # of x1, y2 and z1 each, and a filler for the surplus triple.
        assert deck_text(ri.deck) == (
            "[,c,],[,c^2,],[,c^3,],[,c^4,],[,c^5,],[,c^6,],c^2,"
            "[,c,],[,c^4,],[,c^5,],c"
        )

    def test_bracketed_brackets_match_without_nesting(self):
        for seed in range(6):
            mi = random_matching_instance(4000 + seed, m_max=3, t_max=5)
            ri = reduce_matching_to_riffle_bracketed(mi)
            for deck in (*ri.packets, ri.deck):
                depth = 0
                for tok in deck.cards:
                    if tok == "[":
                        depth += 1
                        assert depth == 1
                    elif tok == "]":
                        depth -= 1
                        assert depth == 0
                assert depth == 0

    def test_riffle_deck_cards_match_when_every_element_occurs(self):
        # The target deck is sized by the universe, so an element that no
        # triple mentions shows up in the deck but in no packet.  Those
        # instances are unsatisfiable; when coverage is complete the deck
        # must use exactly the packet cards.
        for seed in range(8):
            mi = random_matching_instance(4100 + seed, m_max=3, t_max=5)
            mentioned = {
                (axis, value)
                for triple in mi.triples
                for axis, value in enumerate(triple)
            }
            covers_universe = len(mentioned) == 3 * mi.m
            for reducer in (reduce_matching_to_riffle, reduce_matching_to_riffle_bracketed):
                ri = reducer(mi)
                pooled = sorted(c for p in ri.packets for c in p.cards)
                if covers_universe:
                    assert pooled == sorted(ri.deck.cards)
                elif pooled != sorted(ri.deck.cards):
                    assert solve_matching(mi)[0] is False

    def test_mincuts_reduction_golden(self):
        ri = RiffleInstance(
            packets=(parse_deck("1"), parse_deck("2")), deck=parse_deck("1,2")
        )
        mc = reduce_riffle_to_mincuts(ri)
        assert mc.source.cards == ("1", "L", "2")
        assert mc.target.cards == ("1", "2", "L")
        assert mc.budget == 1

    def test_mincuts_separator_avoids_used_labels(self):
        ri = RiffleInstance(
            packets=(parse_deck("L,L2"), parse_deck("Lx")),
            deck=parse_deck("L,Lx,L2"),
        )
        mc = reduce_riffle_to_mincuts(ri)
        assert mc.source.cards == ("L", "L2", "L3", "Lx")
        assert mc.target.cards == ("L", "Lx", "L2", "L3")


class TestSolvers:
    def test_riffle_goldens(self):
        yes = RiffleInstance(
            packets=(parse_deck("1,1"), parse_deck("2")), deck=parse_deck("1,2,1")
        )
        ok, schedule = solve_riffle(yes)
        assert ok
        assert riffle_witness_ok(yes, schedule)

        no = RiffleInstance(packets=(parse_deck("2,1"),), deck=parse_deck("1,2"))
        assert solve_riffle(no) == (False, None)

    def test_riffle_witness_rejects_wrong_schedules(self):
        inst = RiffleInstance(
            packets=(parse_deck("1,1"), parse_deck("2")), deck=parse_deck("1,2,1")
        )
        assert not riffle_witness_ok(inst, (0, 0, 1))
        assert not riffle_witness_ok(inst, (0, 1))
        assert not riffle_witness_ok(inst, (0, 1, 2))

    def test_mincuts_budget_golden(self):
        d1, d2 = parse_deck("1,1,2,2"), parse_deck("1,2,2,1")
        assert solve_mincuts(MinCutsInstance(d1, d2, 0)) == (False, None)
        ok, witness = solve_mincuts(MinCutsInstance(d1, d2, 1))
        assert ok
        assert mincuts_witness_ok(MinCutsInstance(d1, d2, 1), witness)

    def test_mincuts_witness_rejects_overspent_permutation(self):
        d1, d2 = parse_deck("1,1,2,2"), parse_deck("1,2,2,1")
        inst = MinCutsInstance(d1, d2, 0)
        steep = Permutation((4, 1, 3, 2))
        assert not mincuts_witness_ok(inst, steep)

    def test_matching_witness_checks(self):
        inst = MatchingInstance(m=2, triples=((1, 2, 1), (2, 1, 2), (1, 1, 1)))
        ok, witness = solve_matching(inst)
        assert ok
        assert matching_witness_ok(inst, witness)
        assert not matching_witness_ok(inst, ((1, 2, 1), (1, 1, 1)))

    def test_solvers_match_brute_force(self):
        for seed in range(25):
            inst = random_matching_instance(5000 + seed, m_max=3, t_max=5)
            want = brute_matching(inst)
            got, witness = solve_matching(inst)
            assert got == want, inst.text()
            if got:
                assert matching_witness_ok(inst, witness)

    def test_reduction_chain_preserves_the_answer(self):
        for seed in range(25):
            inst = random_matching_instance(5100 + seed, m_max=3, t_max=5)
            want, _ = solve_matching(inst)
            plain = reduce_matching_to_riffle(inst)
            bracketed = reduce_matching_to_riffle_bracketed(inst)
            cuts = reduce_riffle_to_mincuts(plain)
            assert solve_riffle(plain)[0] == want, inst.text()
            assert solve_riffle(bracketed)[0] == want, inst.text()
            assert solve_mincuts(cuts)[0] == want, inst.text()

    def test_distinct_schedules_match_permutation_set(self):
        cases = [
            sizes
            for length in (1, 2, 3)
            for sizes in itertools.product(range(5), repeat=length)
            if sum(sizes) <= 8
        ]
        cases += [(1,) * 8, (2, 2, 2, 2), (1, 2, 3, 2), (0, 3, 0, 1)]
        for sizes in cases:
            order = [idx for idx, size in enumerate(sizes) for _ in range(size)]
            got = list(distinct_schedules(sizes))
            assert len(got) == len(set(got)), sizes
            assert set(got) == set(itertools.permutations(order)), sizes

    def test_riffle_solver_matches_interleaving_scan(self):
        for seed in range(12):
            inst = random_matching_instance(5200 + seed, m_max=2, t_max=4)
            ri = reduce_matching_to_riffle(inst)
            if ri.deck.n > 12:
                continue
            assert solve_riffle(ri)[0] == brute_riffle(ri), inst.text()

    def test_mincuts_solver_matches_transition_scan(self):
        cases = [
            ("1,1,2,2", "1,2,2,1", 0),
            ("1,1,2,2", "1,2,2,1", 1),
            ("1,2,3", "3,2,1", 1),
            ("1,2,3", "3,2,1", 2),
            ("1,1,2", "2,1,1", 1),
        ]
        for d1, d2, budget in cases:
            inst = MinCutsInstance(parse_deck(d1), parse_deck(d2), budget)
            assert solve_mincuts(inst)[0] == brute_mincuts(inst), (d1, d2, budget)

    def test_node_caps_raise(self):
        mi = MatchingInstance(m=2, triples=((1, 2, 1), (2, 1, 2), (1, 1, 1)))
        ri = reduce_matching_to_riffle(mi)
        with pytest.raises(CapExceededError):
            solve_riffle(ri, node_cap=1)
        with pytest.raises(CapExceededError):
            solve_mincuts(reduce_riffle_to_mincuts(ri), node_cap=1)

    def test_random_instances_are_reproducible(self):
        one = random_matching_instance(77, m_max=4, t_max=6)
        two = random_matching_instance(77, m_max=4, t_max=6)
        assert one == two


class TestBalancedClasses:
    def brute_classes(self, n):
        """Components of the complement-a-balanced-block graph, by BFS."""
        seqs = [
            tuple(seq)
            for seq in itertools.product((0, 1), repeat=2 * n)
            if sum(seq) == n
        ]
        seen = set()
        components = 0
        for start in seqs:
            if start in seen:
                continue
            components += 1
            frontier = [start]
            seen.add(start)
            while frontier:
                cur = frontier.pop()
                for i in range(2 * n):
                    for j in range(i + 1, 2 * n + 1):
                        block = cur[i:j]
                        if sum(block) * 2 != len(block):
                            continue
                        nxt = cur[:i] + tuple(1 - v for v in block) + cur[j:]
                        if nxt not in seen:
                            seen.add(nxt)
                            frontier.append(nxt)
        return components, len(seqs)

    def test_matches_bfs_oracle(self):
        for n in (1, 2, 3, 4):
            assert balanced_complement_classes(n) == self.brute_classes(n)

    def test_goldens(self):
        for n in (1, 2, 3, 4, 5):
            classes, total = balanced_complement_classes(n)
            assert classes == 1
            assert total == math.comb(2 * n, n)

    def test_formula_candidate_values(self):
        got = [balanced_class_count_formula(n) for n in (1, 2, 3, 4)]
        assert got == [2.0, 5.0, 12.0, 28.0]

    def test_cap(self):
        with pytest.raises(CapExceededError):
            balanced_complement_classes(11)
        with pytest.raises(ValueError):
            balanced_complement_classes(0)


class TestStridedDescents:
    def brute_counts(self, n, h):
        """Filter all permutations of 1..n*h for residue preservation."""
        size = n * h
        counts = [0] * size
        for images in itertools.permutations(range(1, size + 1)):
            if any((images[p] - p - 1) % h for p in range(size)):
                continue
            counts[descents(Permutation(images))] += 1
        return tuple(counts)

    def test_small_goldens(self):
        assert strided_descent_counts(2, 2) == (1, 1, 2, 0)
        assert strided_total(2, 2) == 4

    def test_matches_permutation_filter(self):
        for n, h in ((2, 2), (3, 2), (2, 3), (1, 4), (4, 1), (2, 4)):
            assert strided_descent_counts(n, h) == self.brute_counts(n, h), (n, h)

    def test_single_class_is_plain_descent_table(self):
        for n in (3, 4, 5, 6):
            assert strided_descent_counts(n, 1) == tuple(eulerian_row(n)) + (0,) * (
                n - len(eulerian_row(n))
            )

    def test_totals(self):
        for n, h in ((2, 2), (3, 2), (2, 3), (4, 2)):
            assert sum(strided_descent_counts(n, h)) == strided_total(n, h)
            assert strided_total(n, h) == math.factorial(n) ** h

    def test_caps_and_validation(self):
        with pytest.raises(CapExceededError):
            strided_descent_counts(7, 2)
        with pytest.raises(CapExceededError):
            strided_descent_counts(3, 2, cap=5)
        with pytest.raises(ValueError):
            strided_descent_counts(0, 2)
