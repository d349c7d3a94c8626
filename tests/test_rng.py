"""Tests for the deterministic stream plumbing."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riffmix
from riffmix.rng import STREAMS, KahanSum, quotas, substream, substreams


def assert_same_streams(seed, path, indices):
    """`substreams` gives `substream`'s generators, state and draws alike."""
    batch = list(substreams(seed, path, indices))
    assert len(batch) == len(indices)
    for gen, i in zip(batch, indices):
        ref = substream(seed, *path, i)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert list(gen.integers(0, 1 << 62, size=4)) == list(
            ref.integers(0, 1 << 62, size=4)
        )
        assert gen.random() == ref.random()


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


SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5, 2**130)
PATHS = ((1,), (2, 7), (2**33,))


@pytest.mark.parametrize("seed, path", itertools.product(SEEDS, PATHS))
def test_substreams_match_substream_on_pinned_grid(seed, path):
    assert_same_streams(seed, path, [0, 1, 511, 1023])


def test_substreams_match_substream_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**160 - 1),
        st.lists(st.integers(0, 2**70), min_size=1, max_size=3),
        st.lists(st.integers(0, 2**32 - 1), max_size=5),
    )
    def check(seed, path, indices):
        assert_same_streams(seed, tuple(path), indices)

    check()


def test_substreams_run_in_order_over_all_streams():
    assert_same_streams(9, (1,), list(range(STREAMS)))
    assert list(substreams(9, (1,), [])) == []


@pytest.mark.parametrize(
    "seed, path, indices",
    [(-1, (1,), [0]), (-(2**70), (1,), [0]), (3, (-1,), [0]),
     (3, (1,), [-1]), (3, (1,), [2**32])],
)
def test_substreams_reject_negative_words_and_wide_indices(seed, path, indices):
    # Raised at the call, before any generator is drawn; `substream`
    # (SeedSequence) rejects the negative words too.
    with pytest.raises(ValueError):
        substreams(seed, path, indices)
    if max(indices) < 2**32:
        with pytest.raises(ValueError):
            substream(seed, *path, *indices)


def test_importing_the_cli_leaves_numpy_random_unloaded():
    probe = (
        "import sys, numpy\n"
        "if 'numpy.random' in sys.modules: sys.exit(3)\n"
        "import riffmix.cli\n"
        "sys.exit(int('numpy.random' in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(riffmix.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", probe], env=env, timeout=120)
    if res.returncode == 3:
        pytest.skip("this numpy loads numpy.random on import")
    assert res.returncode == 0
