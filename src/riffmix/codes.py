"""Insertion codes: the bijections of a label's source slots onto its
target positions, one small integer per slot.

Inserted in order, slot q of an m-card label lands at rank q - c_q among
the first q + 1, so its code c_q, in 0..q, counts the earlier slots whose
target is larger.  Codes and bijections match one to one.  Codes are
drawn exactly, as mixed-radix digits of a few bounded integers, and
decoded only at the slots a caller reads.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

import numpy as np

# Slots are drawn in radix groups whose code bases multiply to at most
# this, so that one int32 draw holds every code of a group.
RADIX_MAX = (1 << 31) - 1


@lru_cache(maxsize=None)
def radix_groups(m: int) -> tuple[tuple[int, int, int], ...]:
    """Slots 1..m-1 of an m-card label, split greedily into groups
    lo..hi-1 whose code bases q + 1 multiply to a `bound` of at most
    `RADIX_MAX`, as (lo, hi, bound).  Slot 0's code is always 0."""
    groups = []
    lo, bound = 1, 1
    for q in range(1, m):
        if bound * (q + 1) > RADIX_MAX:
            groups.append((lo, q, bound))
            lo, bound = q, 1
        bound *= q + 1
    if lo < m:
        groups.append((lo, m, bound))
    return tuple(groups)


def draw_codes(gen: np.random.Generator, codes: np.ndarray) -> None:
    """Fill the `(labels, m, columns)` code rows `codes` with uniform
    codes: one bounded int32 per label and column from each radix group,
    split by `peel`.  Bounded integers are exact and mixed radix is a
    bijection, so the codes are exactly uniform and independent."""
    k, m, b = codes.shape
    codes[:, 0] = 0
    for lo, hi, bound in radix_groups(m):
        values = gen.integers(0, bound, (k, b), dtype=np.int32)
        peel(values, codes[:, lo:hi], lo + 1)


def peel(values: np.ndarray, codes: np.ndarray, base: int) -> None:
    """Write the mixed-radix digits of `values` into the code rows
    `codes[:, j]`, the least significant first, digit j in base
    `base + j`.  Each digit costs one division by a scalar; the last is
    what remains."""
    last = codes.shape[1] - 1
    for j in range(last):
        quot = values // (base + j)
        codes[:, j] = values - quot * (base + j)
        values = quot
    codes[:, last] = values


def insertion_targets(
    codes: np.ndarray, slots: list[int], targets: np.ndarray, out: np.ndarray
) -> None:
    """Write into `out` the targets of the ascending `slots` of a label
    with sorted `targets`, in each column of its code rows `codes`.

    Slot q lands at rank q - c_q, and each later slot k with
    k - c_k <= rank moves it up one.  With t = k - rank before slot k,
    that test reads t <= c_k, t grows by one when it fails, and
    rank = m - t at the end.  t stays in 1..m, so the scratch is int8 up
    to 127 cards.  Code rows are cast by assignment and the comparison
    added as int8 bytes, since numpy's mixed-type loops are slower.
    """
    m, b = codes.shape
    dtype = np.int8 if m <= 127 else np.int16
    t = np.empty((len(slots), b), dtype=dtype)
    t[...] = codes[slots]
    t += 1
    code = np.empty(b, dtype=dtype)
    grows = np.empty(t.shape, dtype=bool)
    steps = grows.view(np.int8)
    for k in range(slots[0] + 1, m):
        p = bisect_left(slots, k)
        code[...] = codes[k]
        np.greater(t[:p], code, out=grows[:p])
        t[:p] += steps[:p]
    out[...] = np.take(targets, m - t)
