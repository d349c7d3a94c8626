"""Descent polynomials of every counterpart of a block deck, by one DP.

`exact_tvd_curve` needs, for a block anchor (each label's cards
together), the multiset of descent polynomials over all counterpart
arrangements: with `role="source"` the anchor is the source and the
counterparts are targets, with `role="target"` the other way round.
`family_rows` finds it without listing an arrangement or a transition.

A member of a transition set maps source positions to target positions;
its descents are read in source order.  The walk builds counterparts
one choice at a time and keeps, for each partial counterpart, one
polynomial per rank of the last target position among the positions
still free.  The rest of the walk compares positions only by rank, so
partial counterparts with equal (free counts, polynomials) share every
continuation: they merge, and only their multiplicities add.  Each
counterpart is reached by exactly one sequence of choices.

A polynomial is one int holding its coefficient at degree d in bits
[d * width, (d + 1) * width), as `blockdp` packs its states.  Every
coefficient counts distinct partial members, so it is at most the
transition cardinality prod_v m_v!, which fixes the width; sums and
products of such counts then take no carry.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from functools import lru_cache

from .blockdp import is_block
from .deck import Deck, deck_text, transition_cardinality


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


def _source_walk(anchor: Deck, width: int) -> dict[int, int]:
    """Packed polynomial -> count of target decks, for block source `anchor`.

    The labels are taken in source order.  A state is the vector P of
    polynomials by the rank r of the last target position among the F
    free ones (r = 0..F); the first label starts from P = (1, 0, ...),
    whose r = 0 is below every position.  A label of m cards takes every
    free rank but F - m gaps c_0 < ... < c_{F-m-1} (c_{-1} = -1 and
    c_{F-m} = F bracket them).  Its positions numbered c_{b-1} - b + 1
    up to c_b - b - 1 from 0 sit above b gaps, so its orders ending at
    one of them add up at rank b of the new vector.  Entry r of P meets
    the label as a card above r - #(gaps below r) of its positions, which
    picks the row of `_label_table`.
    """
    *walked, last = anchor.counts.values()
    # The last label takes every free rank, so it only closes a vector:
    # P[r] meets it above r of its positions.  The label before it keeps
    # each closed polynomial instead of its vector.
    closing = [row[-1] for row in _label_table(last, width)]
    if not walked:
        return {closing[0]: 1}
    states: dict = {(1,) + (0,) * anchor.n: 1}
    for e, m in enumerate(walked, start=1):
        table = _label_table(m, width)
        grown: dict = {}
        for vector, times in states.items():
            free = len(vector) - 1
            nonzero = [(r, p) for r, p in enumerate(vector) if p]
            for gaps in itertools.combinations(range(free), free - m):
                rows = [(p, table[r - bisect_left(gaps, r)]) for r, p in nonzero]
                new = [0] * (free - m + 1)
                lo = 0
                for b, c in enumerate(gaps + (free,)):
                    hi = c - b
                    if hi > lo:
                        new[b] = sum(p * (row[hi] - row[lo]) for p, row in rows)
                        lo = hi
                if e < len(walked):
                    key = tuple(new)
                else:
                    key = sum(map(operator.mul, new, closing))
                grown[key] = grown.get(key, 0) + times
        states = grown
    return states


def _target_walk(anchor: Deck, width: int) -> dict[int, int]:
    """Packed polynomial -> count of source decks, for block target `anchor`.

    The source positions are taken in order, each choosing a label with
    free target positions left.  A state is the vector P of polynomials
    by the rank r of the last target position among the F free ones, and
    the free count c_v of each label with any left, in the anchor's block
    order: its free positions lie at ranks base_v .. base_v + c_v - 1.
    Taking rank g adds a descent when r > g and leaves g free ranks below
    the new last position.  Which labels are left does not matter to the
    rest of the walk, only their counts in order, so a label is dropped
    from the state with its last position.
    """
    n = anchor.n
    states = {(tuple(anchor.counts.values()), (1,) + (0,) * n): 1}
    for _ in range(n):
        grown: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (free, vector), times in states.items():
            below = list(itertools.accumulate(vector))
            total = below[-1]
            base = 0
            for v, c in enumerate(free):
                new = [0] * (len(vector) - 1)
                for g in range(base, base + c):
                    new[g] = below[g] + ((total - below[g]) << width)
                key = (free[:v] + (c - 1,) * (c > 1) + free[v + 1 :], tuple(new))
                grown[key] = grown.get(key, 0) + times
                base += c
        states = grown
    return {vector[0]: times for (_, vector), times in states.items()}


def family_rows(anchor: Deck, role: str) -> dict[tuple[int, ...], int]:
    """Descent coefficient row -> number of counterparts of block deck
    `anchor` that have it, `anchor` being the source (`role="source"`)
    or the target (`role="target"`) of every pair.

    The multiplicities sum to the arrangement count, and each row to the
    transition cardinality prod_v m_v!.
    """
    if not is_block(anchor):
        raise ValueError(f"not a block deck: {deck_text(anchor)}")
    n = anchor.n
    width = transition_cardinality(anchor, anchor).bit_length()
    if role == "source":
        packed = _source_walk(anchor, width)
    elif role == "target":
        packed = _target_walk(anchor, width)
    else:
        raise ValueError(f"role must be 'source' or 'target', got {role!r}")
    mask = (1 << width) - 1
    return {
        tuple((poly >> (d * width)) & mask for d in range(n)): times
        for poly, times in packed.items()
    }
