"""Insertion codes: radix groups and their exact mixed-radix draws."""

import math

import numpy as np
import pytest

from riffmix.codes import RADIX_MAX, peel, radix_groups


def test_radix_groups_of_a_26_card_label():
    # Slots 1..25 (bases 2..26) in four int32 draws.
    assert radix_groups(26) == (
        (1, 12, math.factorial(12)),
        (12, 19, math.factorial(19) // math.factorial(12)),
        (19, 25, math.factorial(25) // math.factorial(19)),
        (25, 26, 26),
    )


@pytest.mark.parametrize("m", range(2, 11))
def test_radix_groups_draw_every_code_tuple_once(m):
    groups = radix_groups(m)
    # The groups cover slots 1..m-1 in order, each bound is the product
    # of its code bases q + 1, and one int32 draw holds it.
    assert [lo for lo, _, _ in groups] == [1] + [hi for _, hi, _ in groups[:-1]]
    assert groups[-1][1] == m
    for lo, hi, bound in groups:
        assert bound == math.prod(range(lo + 1, hi + 1)) <= RADIX_MAX
    # Up to 10 cards the codes are one group.  Peel every value it can
    # take, check each code against its slot, and index the code tuples
    # in a mixed radix whose most significant digit is slot 1: each index
    # must come up once.
    ((lo, hi, bound),) = groups
    weights = [math.prod(range(q + 2, m + 1)) for q in range(1, m)]
    seen = np.zeros(bound, dtype=bool)
    for start in range(0, bound, 1 << 18):
        values = np.arange(start, min(start + (1 << 18), bound), dtype=np.int32)
        codes = np.empty((1, m - 1, len(values)), dtype=np.int16)
        peel(values[None], codes, 2)
        index = np.zeros(len(values), dtype=np.int64)
        for q, (row, weight) in enumerate(zip(codes[0], weights), start=1):
            assert row.min() >= 0 and row.max() <= q
            index += row.astype(np.int64) * weight
        seen[index] = True
    assert seen.all()
