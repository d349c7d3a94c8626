"""Tests for the deterministic stream plumbing."""

from __future__ import annotations

import math

import pytest

from riffmix.rng import STREAMS, KahanSum, quotas, substream


def test_substream_is_reproducible_and_path_sensitive():
    a = substream(42, 7).integers(0, 1 << 30, size=8)
    b = substream(42, 7).integers(0, 1 << 30, size=8)
    c = substream(42, 8).integers(0, 1 << 30, size=8)
    d = substream(43, 7).integers(0, 1 << 30, size=8)
    assert list(a) == list(b)
    assert list(a) != list(c)
    assert list(a) != list(d)


def test_quotas_partition_the_total_contiguously():
    for total, parts in ((10, 3), (0, 5), (7, 7), (3, 8), (10**6, STREAMS)):
        q = quotas(total, parts)
        assert len(q) == parts
        assert sum(q) == total
        assert max(q) - min(q) <= 1
        # Larger quotas come first, so stream boundaries are stable.
        assert q == sorted(q, reverse=True)


def test_kahan_sum_stays_near_fsum():
    # Terms of the size the estimators accumulate: values in [0, 1).
    values = [(i * 0.1) % 1.0 for i in range(100_000)]
    acc = KahanSum()
    naive = 0.0
    for v in values:
        acc.add(v)
        naive += v
    want = math.fsum(values)
    assert abs(acc.total - want) <= abs(naive - want)
    assert acc.total == pytest.approx(want, rel=1e-14)
