"""Exact counts of block pairs, by a DP over labels.

count(a) = a^n * P_a(d1 -> d2) is the number of digit words x in
[0, a)^n on target positions that read `d2` in (digit, position) order
as `d1` (`descentpoly.digit_transition_counts`).  When either deck is a
block deck, keeping each label's cards together, count(1..n) follow from
a DP that enumerates nothing: `target_counts` when `d2` is one,
`source_counts` when `d1` is.  They determine the descent coefficients
(`descentpoly._coefficients_from_counts`).
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left
from collections.abc import Iterable
from functools import lru_cache

from .deck import Deck, label_positions


def is_block(deck: Deck) -> bool:
    """Whether each label's cards sit together in `deck`, as in
    `1^4,...,13^4` or `1,2,...,52`."""
    cards = deck.cards
    return 1 + sum(map(operator.ne, cards, cards[1:])) == len(deck.counts)


def _pack(values: Iterable[int], width: int) -> int:
    """One int holding `values` in slots of `width` bytes, the first lowest."""
    raw = b"".join(v.to_bytes(width, "little") for v in values)
    return int.from_bytes(raw, "little")


def _slots(packed: int, n: int, width: int) -> list[bytes]:
    """The `n` slots of `width` bytes of a packed int, the first lowest."""
    raw = packed.to_bytes(n * width, "little")
    return [raw[i : i + width] for i in range(0, len(raw), width)]


@lru_cache(maxsize=256)
def _step_kernels(m: int, n: int, width: int) -> tuple[tuple[int, ...], ...]:
    """U_e and V_e of `source_counts` for e = 0..m-1, each packed
    over δ = 0..n-1; pairs sharing a block deck share them."""
    return (
        tuple(
            _pack((d ** (m - 1 - e) * (d + 1) ** e for d in range(n)), width)
            for e in range(m)
        ),
        tuple(
            _pack(
                (d ** (m - 1 - e) * (d - 1) ** e if d else 0 for d in range(n)), width
            )
            for e in range(m)
        ),
    )


def source_counts(d1: Deck, d2: Deck) -> list[int]:
    """count(1..n) when `d1` is a block deck.

    The labels are then read in `d1`'s order: every key (x_p, p) of a
    label is above the largest key (D, j) of the label before.  The DP
    takes the labels in that order, over states (D, j).  Let a label lie
    at target positions p_0 < ... < p_{m-1}, k of them below j.  Its
    digits whose largest key is (D + δ, p_i) are above D at positions
    below j and at least D above j, at most D + δ before p_i and below
    D + δ after it.  They number U_e(δ) = δ^(m-1-e) (δ+1)^e when i >= k
    (e = i - k, δ >= 0), and V_e(δ) = δ^(m-1-e) (δ-1)^e when i < k
    (e = k - 1 - i, δ >= 1).  States are summed by k first, then
    convolved over D.

    A state is one int whose bytes [D*width, (D+1)*width) hold its
    count at D, so that multiplying it by a packed kernel convolves over
    D; the mask drops D >= n, which no count(a) with a <= n reads.  A
    kept slot counts words with digits below n on the c positions read so
    far, fewer than 2^(c * bit_length(n)) <= 2^(8 * width), so it takes no
    carry: products carry only upward, into the slots the mask drops.
    Whole-byte slots are widened by copying bytes.
    """
    n = d1.n
    tgt = label_positions(d2)
    last = list(d1.counts)[-1]
    # Before the first label, (D, j) = (0, 0) bounds nothing.
    states, width, read = {0: 1}, 1, 0
    for lab in d1.counts:
        pos = tgt[lab]
        m = len(pos)
        by_k: dict[int, int] = {}
        for j, row in states.items():
            k = bisect_left(pos, j)
            by_k[k] = by_k.get(k, 0) + row
        # Widen the slots for the label's m positions: the high zero
        # bytes joined after each slot.
        read += m
        old, width = width, -(-read * n.bit_length() // 8)
        mask, pad = (1 << 8 * n * width) - 1, bytes(width - old)
        by_k = {
            k: int.from_bytes(pad.join(_slots(row, n, old)), "little")
            for k, row in by_k.items()
        }
        up, down = _step_kernels(m, n, width)
        kernels = {
            k: [up[i - k] if i >= k else down[k - 1 - i] for i in range(m)]
            for k in by_k
        }
        if lab == last:
            # Only the sum over the last label's positions is read.
            states = {0: sum(row * sum(kernels[k]) for k, row in by_k.items()) & mask}
        else:
            states = {
                p: sum(row * kernels[k][i] for k, row in by_k.items()) & mask
                for i, p in enumerate(pos)
            }
    total = sum(states.values())
    return list(
        itertools.accumulate(
            int.from_bytes(slot, "little") for slot in _slots(total, n, width)
        )
    )


def target_counts(d1: Deck, d2: Deck) -> list[int]:
    """count(1..n) when `d2` is a block deck, in O(n^3).

    Reading `d2` at one digit visits its blocks in order, so the cards
    read at each digit are a piece of `d1` whose labels follow `d2`'s
    block order.  A word is a cut of `d1` into a such pieces, some empty,
    each taking some of each label's target positions left over: a
    piece d1[i:j] with c_v cards of label v, u_v of them before i, is
    read in prod_v C(n_v - u_v, c_v) ways.  With N_b the weighted number
    of cuts into b nonempty pieces, count(a) = sum_b N_b C(a, b).

    The DP runs over cut positions j, packing N_b of d1[:j] into slot b
    of one int as `source_counts` packs its states.  N_b counts words
    over b digits and "unread" on the n target positions, fewer than
    (n + 1)^n, so slots take no carry.
    """
    n = d1.n
    cards = d1.cards
    rank = {lab: r for r, lab in enumerate(d2.counts)}
    bits = n * (n + 1).bit_length()
    seen: dict[str, int] = {}
    before = []
    for c in cards:
        before.append(seen.get(c, 0))
        seen[c] = before[-1] + 1
    cuts = [1]
    for j in range(1, n + 1):
        # Every last piece d1[i:j] in block order, i falling.
        weight, held, total = 1, {}, 0
        for i in reversed(range(j)):
            v = cards[i]
            if i < j - 1 and rank[v] > rank[cards[i + 1]]:
                break
            held[v] = held.get(v, 0) + 1
            # C(r, c) = C(r - 1, c - 1) * r / c, r = n_v - u_v.
            weight = weight * (d1.counts[v] - before[i]) // held[v]
            total += cuts[i] * weight
        cuts.append(total << bits)
    slot = (1 << bits) - 1
    totals = [(cuts[n] >> bits * b) & slot for b in range(1, n + 1)]
    return [
        sum(t * math.comb(a, b) for b, t in enumerate(totals, start=1))
        for a in range(1, n + 1)
    ]
