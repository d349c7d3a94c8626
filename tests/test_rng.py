"""Tests for the deterministic stream plumbing."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import riffmix
from riffmix.rng import PermutationStream, substream


def test_substream_is_reproducible_and_path_sensitive():
    a = substream(42, 7).integers(0, 1 << 30, size=8)
    b = substream(42, 7).integers(0, 1 << 30, size=8)
    c = substream(42, 8).integers(0, 1 << 30, size=8)
    d = substream(43, 7).integers(0, 1 << 30, size=8)
    assert list(a) == list(b)
    assert list(a) != list(c)
    assert list(a) != list(d)


@pytest.mark.parametrize(
    "seed, path, indices",
    [(-1, (1,), [0]), (-(2**70), (1,), [0]), (3, (-1,), [0]), (3, (1,), [-1])],
)
def test_substream_rejects_negative_words(seed, path, indices):
    # SeedSequence rejects a negative seed or path word, and so does the
    # pure-Python copy of its stream.
    with pytest.raises(ValueError):
        substream(seed, *path, *indices)
    with pytest.raises(ValueError):
        PermutationStream(seed, *path, *indices)


# Sizes around the mask boundaries of the rejection draws; consecutive
# calls consume odd numbers of 32-bit draws, so the spare half of a
# 64-bit output carries over from one call to the next.
_SIZES = (0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 52, 65)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 1, 2**130])
@pytest.mark.parametrize(
    "path",
    [(), (2,), (4, 2**32), (2**40 - 1, 0, 2**33 + 5), (2**32 - 1, 1, 2**64)],
)
def test_permutation_stream_is_the_generators_stream(seed, path):
    # numpy is the oracle: the same seed and path give the same lists.
    ours = PermutationStream(seed, *path)
    theirs = substream(seed, *path)
    for n in _SIZES + _SIZES[::-1]:
        assert ours.permutation(n) == theirs.permutation(n).tolist(), n


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
