"""Decision problems around interleavings, with reductions and solvers.

Three problems appear here.

RIFFLE: given packets (small decks) and a combined deck, can the packets
be interleaved, each kept in order, to produce the deck exactly?

MIN CUTS: given two decks over the same cards and a budget `d`, is there
a permutation carrying one onto the other with at most `d` descents?
Such a permutation is exactly one realizable by a single shuffle with
d + 1 packets.

Matching triples: given ground sets {1..m} for three coordinates and a
triple list, can `m` triples cover each coordinate value exactly once?
This classic complete problem reduces to RIFFLE (with unbounded label
alphabets, and with a fixed 3-token alphabet via bracket encoding), and
RIFFLE reduces to MIN CUTS, which pins down why exact computation of
transition probabilities cannot stay polynomial in general.

Everything here is exhaustive and intended for small instances; solvers
carry node caps and return verifiable witnesses.

The module also holds two small structure explorers: equivalence classes
of balanced two-label decks under balanced-block complementation, and
descent counts of permutations that fix positions modulo a stride.
"""

from __future__ import annotations

import itertools
import math
import numbers
from bisect import bisect_right, insort
from typing import TYPE_CHECKING, NamedTuple

from .deck import (
    Deck,
    Permutation,
    _frozen,
    deck_text,
    descents,
    is_transition,
    label_positions,
    parse_deck,
)
from .descentpoly import exact_descent_polynomial
from .errors import CapExceededError
from .rng import PURPOSE_INSTANCE_GEN, substream
from .shuffle import eulerian_row

if TYPE_CHECKING:
    import numpy as np

# ---------------------------------------------------------------------------
# Instance types and text round-tripping


class MatchingInstance:
    """Exact cover by triples over three copies of {1..m}; immutable,
    compared and hashed by its fields."""

    m: int
    triples: tuple[tuple[int, int, int], ...]

    def __init__(self, m: int, triples: tuple[tuple[int, int, int], ...]) -> None:
        if m < 0:
            raise ValueError(f"m must be nonnegative, got {m}")
        for t in triples:
            if len(t) != 3 or any(not 1 <= v <= m for v in t):
                raise ValueError(f"triple {t} out of range 1..{m}")
        if len(set(triples)) != len(triples):
            raise ValueError("duplicate triples")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "triples", triples)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.triples) == (other.m, other.triples)

    def __hash__(self) -> int:
        return hash((self.m, self.triples))

    def __repr__(self) -> str:
        return f"MatchingInstance(m={self.m!r}, triples={self.triples!r})"

    __setattr__ = __delattr__ = _frozen

    def text(self) -> str:
        body = ";".join(f"({x},{y},{z})" for x, y, z in self.triples)
        return f"3dm m={self.m} triples={body}"


class RiffleInstance(NamedTuple):
    """Can `packets` interleave, each in order, into `deck`?"""

    packets: tuple[Deck, ...]
    deck: Deck

    def text(self) -> str:
        body = ";".join(deck_text(p) for p in self.packets)
        return f"riffle packets={body} deck={deck_text(self.deck)}"


class MinCutsInstance(NamedTuple):
    """Is there a transition from `source` to `target` with at most
    `budget` descents?"""

    source: Deck
    target: Deck
    budget: int

    def text(self) -> str:
        return (
            f"mincuts d1={deck_text(self.source)} "
            f"d2={deck_text(self.target)} d={self.budget}"
        )


def parse_instance(line: str) -> MatchingInstance | RiffleInstance | MinCutsInstance:
    """Parse the single-line text form produced by the instance types."""
    parts = line.split()
    if not parts:
        raise ValueError("empty instance line")
    fields: dict[str, str] = {}
    for part in parts[1:]:
        key, _, val = part.partition("=")
        fields[key] = val
    kind = parts[0]
    try:
        if kind == "3dm":
            m = int(fields["m"])
            triples = []
            body = fields["triples"]
            if body:
                for chunk in body.split(";"):
                    chunk = chunk.strip("()")
                    x, y, z = (int(v) for v in chunk.split(","))
                    triples.append((x, y, z))
            return MatchingInstance(m, tuple(triples))
        if kind == "riffle":
            packets = tuple(parse_deck(e) for e in fields["packets"].split(";"))
            return RiffleInstance(packets, parse_deck(fields["deck"]))
        if kind == "mincuts":
            return MinCutsInstance(
                parse_deck(fields["d1"]), parse_deck(fields["d2"]), int(fields["d"])
            )
    except KeyError as exc:
        raise ValueError(f"instance line is missing field {exc.args[0]}") from None
    raise ValueError(f"unknown instance kind {kind!r}")


def random_matching_instance(
    gen_or_seed: np.random.Generator | int, m_max: int = 4, t_max: int = 6
) -> MatchingInstance:
    """Random instance with m <= m_max and at most t_max distinct triples.
    An integer `gen_or_seed` (Python's or numpy's) is a seed."""
    gen = gen_or_seed
    if isinstance(gen, numbers.Integral):
        gen = substream(int(gen), PURPOSE_INSTANCE_GEN)
    m = int(gen.integers(1, m_max + 1))
    t = int(gen.integers(1, t_max + 1))
    t = min(t, m**3)
    flat = gen.choice(m**3, size=t, replace=False)
    triples = []
    for v in sorted(int(f) for f in flat):
        x, rest = divmod(v, m * m)
        y, z = divmod(rest, m)
        triples.append((x + 1, y + 1, z + 1))
    return MatchingInstance(m, tuple(triples))


# ---------------------------------------------------------------------------
# Reductions


def _junk_runs(m: int, occurrences: dict[int, int], prefix: str) -> list[str]:
    """Leftover copies of each coordinate token: one per extra occurrence."""
    out = []
    for i in range(1, m + 1):
        extra = max(occurrences.get(i, 0) - 1, 0)
        out.extend([f"{prefix}{i}"] * extra)
    return out


def reduce_matching_to_riffle(inst: MatchingInstance) -> RiffleInstance:
    """One packet per triple; the deck forces a chosen subset of packets
    to spell out a perfect cover, with surplus cards in a junk suffix.

    A packet for triple (x, y, z) reads x-token, y-token, z-token, then a
    shared filler token.  The deck opens with every coordinate token once
    per axis and `m` fillers (satisfiable only by packets forming an
    exact cover), followed by the remaining copies of each token in
    sorted order and the remaining fillers.
    """
    m = inst.m
    occ_x: dict[int, int] = {}
    occ_y: dict[int, int] = {}
    occ_z: dict[int, int] = {}
    for x, y, z in inst.triples:
        occ_x[x] = occ_x.get(x, 0) + 1
        occ_y[y] = occ_y.get(y, 0) + 1
        occ_z[z] = occ_z.get(z, 0) + 1
    packets = tuple(
        Deck((f"x{x}", f"y{y}", f"z{z}", "L")) for x, y, z in inst.triples
    )
    deck_tokens: list[str] = []
    deck_tokens += [f"x{i}" for i in range(1, m + 1)]
    deck_tokens += [f"y{i}" for i in range(1, m + 1)]
    deck_tokens += [f"z{i}" for i in range(1, m + 1)]
    deck_tokens += ["L"] * m
    deck_tokens += _junk_runs(m, occ_x, "x")
    deck_tokens += _junk_runs(m, occ_y, "y")
    deck_tokens += _junk_runs(m, occ_z, "z")
    deck_tokens += ["L"] * max(len(inst.triples) - m, 0)
    return RiffleInstance(packets, Deck(tuple(deck_tokens)))


def _bracket_run(index: int) -> list[str]:
    """Token run encoding coordinate value `index` over a 3-token alphabet."""
    return ["["] + ["c"] * index + ["]"]


def reduce_matching_to_riffle_bracketed(
    inst: MatchingInstance,
) -> RiffleInstance:
    """Same reduction compressed onto three tokens.

    Coordinate tokens become bracketed unary runs: the x-value i maps to
    [c^i], the y-value to [c^(m+i)], the z-value to [c^(2m+i)], and the
    filler to a bare c.  Brackets in every deck built here are properly
    matched with no nesting, which keeps runs unambiguous.
    """
    offset = {"x": 0, "y": inst.m, "z": 2 * inst.m}

    def encode(deck: Deck) -> Deck:
        out: list[str] = []
        for tok in deck.cards:
            if tok == "L":
                out.append("c")
            else:
                out += _bracket_run(offset[tok[0]] + int(tok[1:]))
        return Deck(tuple(out))

    plain = reduce_matching_to_riffle(inst)
    return RiffleInstance(
        tuple(encode(p) for p in plain.packets), encode(plain.deck)
    )


def _separator_token(used: set[str]) -> str:
    if "L" not in used:
        return "L"
    k = 2
    while f"L{k}" in used:
        k += 1
    return f"L{k}"


def reduce_riffle_to_mincuts(inst: RiffleInstance) -> MinCutsInstance:
    """Interleaving feasibility as a descent-budget question.

    The source deck lists the packets in order with a fresh separator
    token between them; the target is the combined deck followed by all
    separators.  A transition within budget p-1 (p packets) must keep
    each packet ascending, which is exactly an interleaving.
    """
    used = set(inst.deck.cards)
    for p in inst.packets:
        used.update(p.cards)
    sep = _separator_token(used)
    source_cards: list[str] = []
    for idx, p in enumerate(inst.packets):
        if idx:
            source_cards.append(sep)
        source_cards.extend(p.cards)
    seps = len(inst.packets) - 1
    target_cards = list(inst.deck.cards) + [sep] * seps
    return MinCutsInstance(
        Deck(tuple(source_cards)),
        Deck(tuple(target_cards)),
        len(inst.packets) - 1,
    )


# ---------------------------------------------------------------------------
# Solvers (exhaustive, witness-producing)


def solve_matching(
    inst: MatchingInstance,
) -> tuple[bool, tuple[tuple[int, int, int], ...] | None]:
    """Depth-first search for an exact cover, one x-value at a time."""
    m = inst.m
    by_x: dict[int, list[tuple[int, int, int]]] = {}
    for t in inst.triples:
        by_x.setdefault(t[0], []).append(t)
    chosen: list[tuple[int, int, int]] = []
    used_y = [False] * (m + 1)
    used_z = [False] * (m + 1)

    def rec(x: int) -> bool:
        if x > m:
            return True
        for t in by_x.get(x, ()):
            if used_y[t[1]] or used_z[t[2]]:
                continue
            used_y[t[1]] = used_z[t[2]] = True
            chosen.append(t)
            if rec(x + 1):
                return True
            chosen.pop()
            used_y[t[1]] = used_z[t[2]] = False
        return False

    if rec(1):
        return True, tuple(chosen)
    return False, None


def matching_witness_ok(
    inst: MatchingInstance, witness: tuple[tuple[int, int, int], ...]
) -> bool:
    if len(witness) != inst.m:
        return False
    if any(t not in inst.triples for t in witness):
        return False
    for axis in range(3):
        if sorted(t[axis] for t in witness) != list(range(1, inst.m + 1)):
            return False
    return True


def solve_riffle(
    inst: RiffleInstance, node_cap: int = 500_000
) -> tuple[bool, tuple[int, ...] | None]:
    """Search interleavings by advancing one packet pointer at a time.

    The witness is the packet index drawn at each deck position.  States
    that already failed are remembered.  Raises `CapExceededError` past
    `node_cap` explored states.
    """
    packets = [p.cards for p in inst.packets]
    deck = inst.deck.cards
    if sum(len(p) for p in packets) != len(deck):
        return False, None
    combined: dict[str, int] = {}
    for p in packets:
        for c in p:
            combined[c] = combined.get(c, 0) + 1
    goal: dict[str, int] = {}
    for c in deck:
        goal[c] = goal.get(c, 0) + 1
    if combined != goal:
        return False, None
    t = len(packets)
    failed: set[tuple[int, ...]] = set()
    visited = 0
    schedule: list[int] = []

    def rec(ptrs: tuple[int, ...], pos: int) -> bool:
        nonlocal visited
        if pos == len(deck):
            return True
        if ptrs in failed:
            return False
        visited += 1
        if visited > node_cap:
            raise CapExceededError(
                f"interleaving search exceeded {node_cap} states"
            )
        want = deck[pos]
        for q in range(t):
            i = ptrs[q]
            if i < len(packets[q]) and packets[q][i] == want:
                schedule.append(q)
                nxt = ptrs[:q] + (i + 1,) + ptrs[q + 1 :]
                if rec(nxt, pos + 1):
                    return True
                schedule.pop()
        failed.add(ptrs)
        return False

    if rec((0,) * t, 0):
        return True, tuple(schedule)
    return False, None


def riffle_witness_ok(inst: RiffleInstance, schedule: tuple[int, ...]) -> bool:
    ptrs = [0] * len(inst.packets)
    if len(schedule) != inst.deck.n:
        return False
    for pos, q in enumerate(schedule):
        if not 0 <= q < len(inst.packets):
            return False
        cards = inst.packets[q].cards
        if ptrs[q] >= len(cards) or cards[ptrs[q]] != inst.deck.cards[pos]:
            return False
        ptrs[q] += 1
    return all(
        ptrs[q] == inst.packets[q].n for q in range(len(inst.packets))
    )


def solve_mincuts(
    inst: MinCutsInstance, node_cap: int = 2_000_000
) -> tuple[bool, Permutation | None]:
    """Branch and bound over target positions, in source order.

    Chooses the target position of each source card left to right,
    spending budget on every descent.  A greedy ascending completion is
    attempted at every node for an early yes; states that failed at a
    given budget are remembered so they are not re-explored with less.
    Raises `CapExceededError` past `node_cap` explored nodes.
    """
    src = inst.source
    tgt = inst.target
    if src.signature != tgt.signature or inst.budget < 0:
        return False, None
    n = src.n
    pools = {lab: list(pos) for lab, pos in label_positions(tgt).items()}
    order = src.cards
    failed: dict[tuple, int] = {}
    visited = 0
    images: list[int] = []

    def state_key(last: int) -> tuple:
        return (last,) + tuple(tuple(pools[lab]) for lab in pools)

    def greedy_complete(i: int, last: int) -> list[int] | None:
        """Ascending completion from position i onward, or None.

        Positions taken along the way all exceed the running maximum, so
        scanning each sorted pool past that maximum never revisits them.
        """
        cur = last
        out: list[int] = []
        for j in range(i, n):
            pool = pools[order[j]]
            idx = bisect_right(pool, cur)
            if idx == len(pool):
                return None
            cur = pool[idx]
            out.append(cur)
        return out

    def rec(i: int, last: int, budget: int) -> bool:
        nonlocal visited
        if i == n:
            return True
        key = state_key(last)
        prior = failed.get(key)
        if prior is not None and budget <= prior:
            return False
        visited += 1
        if visited > node_cap:
            raise CapExceededError(
                f"descent-budget search exceeded {node_cap} nodes"
            )
        done = greedy_complete(i, last)
        if done is not None:
            images.extend(done)
            return True
        pool = pools[order[i]]
        candidates = [p for p in pool if p > last]
        if budget > 0:
            candidates += [p for p in pool if p < last]
        for cand in candidates:
            cost = 0 if cand > last else 1
            pool.remove(cand)
            images.append(cand)
            if rec(i + 1, cand, budget - cost):
                return True
            images.pop()
            insort(pool, cand)
        old = failed.get(key)
        if old is None or budget > old:
            failed[key] = budget
        return False

    if rec(0, 0, inst.budget):
        return True, Permutation(tuple(images))
    return False, None


def mincuts_witness_ok(inst: MinCutsInstance, perm: Permutation) -> bool:
    return (
        is_transition(perm, inst.source, inst.target)
        and descents(perm) <= inst.budget
    )


# ---------------------------------------------------------------------------
# Structure explorers

# Class exploration walks all C(2n, n) balanced sequences; it is allowed
# up to this n.
_CLASSES_MAX_N = 10


def _balanced_sequences(n: int) -> list[tuple[int, ...]]:
    """All 0/1 sequences of length 2n with n ones, lexicographic."""
    out = []
    for ones in itertools.combinations(range(2 * n), n):
        seq = [0] * (2 * n)
        for i in ones:
            seq[i] = 1
        out.append(tuple(seq))
    return out


def balanced_complement_classes(n: int) -> tuple[int, int]:
    """Classes of balanced two-label decks under one complementation step.

    Two sequences are related when one arises from the other by taking a
    consecutive block with equally many of both labels and swapping the
    labels inside it.  Returns (class count, sequence count).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > _CLASSES_MAX_N:
        raise CapExceededError(f"class exploration supports n <= {_CLASSES_MAX_N}")
    seqs = _balanced_sequences(n)
    index = {s: i for i, s in enumerate(seqs)}
    parent = list(range(len(seqs)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    length = 2 * n
    for s_idx, seq in enumerate(seqs):
        prefix = [0] * (length + 1)
        for i, v in enumerate(seq):
            prefix[i + 1] = prefix[i] + (1 if v else -1)
        for i in range(length):
            for j in range(i + 2, length + 1, 2):
                if prefix[j] != prefix[i]:
                    continue
                flipped = (
                    seq[:i]
                    + tuple(1 - v for v in seq[i:j])
                    + seq[j:]
                )
                union(s_idx, index[flipped])
    roots = {find(i) for i in range(len(seqs))}
    return len(roots), len(seqs)


def balanced_class_count_formula(n: int) -> float:
    """Closed-form candidate for the class count; reported alongside the
    enumerated value, not asserted."""
    return (n + 3) * 2.0 ** (n - 2)


def strided_descent_counts(
    n: int, h: int, cap: int = 10**7
) -> tuple[int, ...]:
    """Descent counts of permutations of 1..n*h preserving position
    residue classes modulo h.

    Such permutations are exactly the products of one bijection per
    residue class (class r maps positions r, r+h, ... to values with the
    same residues).  Returns counts by descent number, length n*h.
    With h = 1 this is the unrestricted descent table.
    """
    if n < 1 or h < 1:
        raise ValueError("need n >= 1 and h >= 1")
    if n * h > 12:
        raise CapExceededError("strided exploration supports n*h <= 12")
    work = math.factorial(n) ** h
    if work > cap:
        raise CapExceededError(
            f"strided exploration needs {work} products, above the cap of {cap}"
        )
    if h == 1:
        return eulerian_row(n)
    # The deck 1,...,h repeated n times gives each residue class its own
    # label, so its maps onto itself are the residue-preserving ones.
    deck = Deck(tuple(str(r + 1) for r in range(h)) * n)
    return exact_descent_polynomial(deck, deck, cap=cap).coefficients


def strided_total(n: int, h: int) -> int:
    """Number of residue-preserving permutations: (n!)^h."""
    return math.factorial(n) ** h


__all__ = [
    "MatchingInstance",
    "MinCutsInstance",
    "RiffleInstance",
    "balanced_class_count_formula",
    "balanced_complement_classes",
    "matching_witness_ok",
    "mincuts_witness_ok",
    "parse_instance",
    "random_matching_instance",
    "reduce_matching_to_riffle",
    "reduce_matching_to_riffle_bracketed",
    "reduce_riffle_to_mincuts",
    "riffle_witness_ok",
    "solve_matching",
    "solve_mincuts",
    "solve_riffle",
    "strided_descent_counts",
    "strided_total",
]
