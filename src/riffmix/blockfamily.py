"""Descent polynomials of block-deck pairs, by one DP.

A block deck keeps each label's cards together.  When the source or the
target of a pair is one, the anchor, the descent polynomial of the pair
follows from a walk that enumerates nothing, at any size: `pair_row`,
and `block_row`, which picks the walk of a pair or says it has none.
`exact_tvd_curve` needs, for a block anchor, the multiset of descent
polynomials over all counterpart arrangements: with `role="source"` the
anchor is the source and the counterparts are targets, with
`role="target"` the other way round.  `family_rows` finds it without
listing an arrangement or a transition.

A member of a transition set maps source positions to target positions;
its descents are read in source order.  The walk builds the counterpart
one choice at a time and keeps, for each partial counterpart, one
polynomial per rank of the last target position among the positions
still free.  `pair_row` takes the one choice its counterpart makes at
each step.  `family_rows` takes every choice; the rest of the walk
compares positions only by rank, so partial counterparts with equal
(free counts, polynomials) share every continuation: they merge, and
only their multiplicities add.  Each counterpart is reached by exactly
one sequence of choices.

A polynomial is one int holding its coefficient at degree d in bits
[d * width, (d + 1) * width).  Every coefficient counts distinct partial
members, so it is at most the transition cardinality prod_v m_v!, which
fixes the width; sums and products of such counts then take no carry.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from functools import lru_cache

from .deck import Deck, deck_text, label_positions, transition_cardinality


def is_block(deck: Deck) -> bool:
    """Whether each label's cards sit together in `deck`, as in
    `1^4,...,13^4` or `1,2,...,52`."""
    cards = deck.cards
    return 1 + sum(map(operator.ne, cards, cards[1:])) == len(deck.counts)


@lru_cache(maxsize=64)
def _label_table(m: int, width: int) -> tuple[tuple[int, ...], ...]:
    """V[t][j]: the packed descent polynomial of the orders of a label's
    m positions that end at one of its j lowest, with one descent more
    when the order starts at one of its t lowest.  A card just before the
    label whose target lies above exactly t of the label's positions
    descends into the first card exactly then.

    Orders are first counted by their (first, last) ranks in T[i][l],
    built one entry at a time over relative ranks: the new last entry
    takes rank u among the k + 1 so far, the first entry's rank i moves
    up when i >= u, and the step descends when the old last rank l is at
    least u.  That takes O(m^3) steps, not m! orders.
    """
    table = [[1]]
    for k in range(1, m):
        grown = [[0] * (k + 1) for _ in range(k + 1)]
        for i, row in enumerate(table):
            # below[u] sums the polynomials whose last rank l is below u.
            below = list(itertools.accumulate(row, initial=0))
            total = below[-1]
            for u in range(k + 1):
                grown[i + (i >= u)][u] += below[u] + ((total - below[u]) << width)
        table = grown
    return tuple(
        tuple(
            itertools.accumulate(
                (
                    sum(row[j] for row in table[t:])
                    + (sum(row[j] for row in table[:t]) << width)
                    for j in range(m)
                ),
                initial=0,
            )
        )
        for t in range(m + 1)
    )


def _label_steps(
    vector: tuple[int, ...],
    table: tuple[tuple[int, ...], ...],
    gap_sets: Iterable[tuple[int, ...]],
) -> Iterator[tuple[int, ...]]:
    """The vector after a label of a block source, whose `_label_table`
    is `table`, takes every free rank but the gaps, for each gap set of
    `gap_sets` in turn.

    Entry r of `vector` is the polynomial whose last target position has
    rank r among the F = len(vector) - 1 free ones; r = 0 is below every
    position.  The label, of m cards, takes every free rank but F - m gaps
    c_0 < ... < c_{F-m-1} (c_{-1} = -1 and c_{F-m} = F bracket them).  Its
    positions numbered c_{b-1} - b + 1 up to c_b - b - 1 from 0 sit above
    b gaps, so its orders ending at one of them add up at rank b of the
    new vector.  Entry r meets the label as a card above
    r - #(gaps below r) of its positions, which picks the row of `table`.
    """
    free = len(vector) - 1
    nonzero = [(r, p) for r, p in enumerate(vector) if p]
    for gaps in gap_sets:
        rows = [(p, table[r - bisect_left(gaps, r)]) for r, p in nonzero]
        new = [0] * (len(gaps) + 1)
        lo = 0
        for b, c in enumerate(gaps + (free,)):
            hi = c - b
            if hi > lo:
                new[b] = sum(p * (row[hi] - row[lo]) for p, row in rows)
                lo = hi
        yield tuple(new)


def _card_step(below: list[int], base: int, c: int, width: int) -> tuple[int, ...]:
    """The vector after a source card takes a target position of a label
    whose c free positions lie at ranks base .. base + c - 1.

    Entry r of the vector before is the polynomial whose last target
    position has rank r among the free ones; `below` holds its running
    sums.  Taking rank g adds a descent when r is above g, and leaves g
    free ranks below the new last position.
    """
    total = below[-1]
    new = [0] * (len(below) - 1)
    for g in range(base, base + c):
        new[g] = below[g] + ((total - below[g]) << width)
    return tuple(new)


def _source_walk(anchor: Deck, width: int) -> dict[int, int]:
    """Packed polynomial -> count of target decks, for block source `anchor`.

    The labels are taken in source order, each choosing its gaps among
    the free ranks (`_label_steps`); the first label starts from
    P = (1, 0, ...), and the last one takes every free rank.
    """
    states: dict = {(1,) + (0,) * anchor.n: 1}
    for m in anchor.counts.values():
        table = _label_table(m, width)
        grown: dict = {}
        for vector, times in states.items():
            free = len(vector) - 1
            gap_sets = itertools.combinations(range(free), free - m)
            for key in _label_steps(vector, table, gap_sets):
                grown[key] = grown.get(key, 0) + times
        states = grown
    return {vector[0]: times for vector, times in states.items()}


def _source_pair(d1: Deck, d2: Deck, width: int) -> int:
    """The packed polynomial of block source `d1` and target `d2`: each
    label's gaps are the free target positions of the labels after it."""
    positions = label_positions(d2)
    free = list(range(1, d1.n + 1))
    vector = (1,) + (0,) * d1.n
    for lab, m in d1.counts.items():
        mine = set(positions[lab])
        gaps = tuple(r for r, p in enumerate(free) if p not in mine)
        (vector,) = _label_steps(vector, _label_table(m, width), [gaps])
        free = [p for p in free if p not in mine]
    return vector[0]


def _target_walk(anchor: Deck, width: int) -> dict[int, int]:
    """Packed polynomial -> count of source decks, for block target `anchor`.

    The source positions are taken in order, each choosing a label with
    free target positions left (`_card_step`).  A state is the vector of
    polynomials and the free count c_v of each label with any left, in
    the anchor's block order: its free positions lie at ranks
    base_v .. base_v + c_v - 1.  Which labels are left does not matter to
    the rest of the walk, only their counts in order, so a label is
    dropped from the state with its last position.
    """
    n = anchor.n
    states = {(tuple(anchor.counts.values()), (1,) + (0,) * n): 1}
    for _ in range(n):
        grown: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (free, vector), times in states.items():
            below = list(itertools.accumulate(vector))
            base = 0
            for v, c in enumerate(free):
                new = _card_step(below, base, c, width)
                key = (free[:v] + (c - 1,) * (c > 1) + free[v + 1 :], new)
                grown[key] = grown.get(key, 0) + times
                base += c
        states = grown
    return {vector[0]: times for (_, vector), times in states.items()}


def _target_pair(d1: Deck, d2: Deck, width: int) -> int:
    """The packed polynomial of source `d1` and block target `d2`: each
    source card takes its own label."""
    labels = list(d2.counts)
    free = list(d2.counts.values())
    vector = (1,) + (0,) * d1.n
    for lab in d1.cards:
        v = labels.index(lab)
        below = list(itertools.accumulate(vector))
        vector = _card_step(below, sum(free[:v]), free[v], width)
        free[v] -= 1
    return vector[0]


def _walks(d1: Deck, d2: Deck, role: str):
    """The walk and pair functions of `role`, after checking that the
    deck of the pair (d1, d2) in that role is a block deck."""
    if role == "source":
        anchor, walks = d1, (_source_walk, _source_pair)
    elif role == "target":
        anchor, walks = d2, (_target_walk, _target_pair)
    else:
        raise ValueError(f"role must be 'source' or 'target', got {role!r}")
    if not is_block(anchor):
        raise ValueError(f"not a block deck: {deck_text(anchor)}")
    return walks


def _row(poly: int, n: int, width: int) -> tuple[int, ...]:
    """The n coefficients of a packed polynomial."""
    mask = (1 << width) - 1
    return tuple((poly >> (d * width)) & mask for d in range(n))


def pair_row(d1: Deck, d2: Deck, role: str) -> tuple[int, ...]:
    """Descent coefficients of the pair carrying `d1` onto `d2`, whose
    source (`role="source"`) or target (`role="target"`) is a block deck.

    The row sums to the transition cardinality prod_v m_v!.  Raises
    `SignatureMismatchError` when the decks hold different cards.
    """
    _, pair = _walks(d1, d2, role)
    width = transition_cardinality(d1, d2).bit_length()
    return _row(pair(d1, d2, width), d1.n, width)


def _member_row(d1: Deck, d2: Deck) -> tuple[int, ...]:
    """Descent coefficients of a pair of distinct cards: the descents of
    its one member, read in source order."""
    at = {lab: p for p, lab in enumerate(d2.cards)}
    images = [at[lab] for lab in d1.cards]
    row = [0] * d1.n
    row[sum(map(operator.gt, images, images[1:]))] = 1
    return tuple(row)


@lru_cache(maxsize=4096)
def block_row(d1: Deck, d2: Deck) -> tuple[int, ...] | None:
    """Descent coefficients of the pair carrying `d1` onto `d2` by the
    walk over its target, when that is a block deck, else over its
    source, when that is one (`pair_row`); None when neither is, and the
    pair must be enumerated.  A pair of distinct cards, a block deck
    either way, has one member and is read off it (`_member_row`).
    Memoized by deck pair.  Raises `SignatureMismatchError` when the
    decks hold different cards.
    """
    if transition_cardinality(d1, d2) == 1:
        return _member_row(d1, d2)
    if is_block(d2):
        return pair_row(d1, d2, "target")
    if is_block(d1):
        return pair_row(d1, d2, "source")
    return None


def family_rows(anchor: Deck, role: str) -> dict[tuple[int, ...], int]:
    """Descent coefficient row -> number of counterparts of block deck
    `anchor` that have it, `anchor` being the source (`role="source"`)
    or the target (`role="target"`) of every pair.

    The multiplicities sum to the arrangement count, and each row to the
    transition cardinality prod_v m_v!.
    """
    walk, _ = _walks(anchor, anchor, role)
    width = transition_cardinality(anchor, anchor).bit_length()
    return {
        _row(poly, anchor.n, width): times
        for poly, times in walk(anchor, width).items()
    }
