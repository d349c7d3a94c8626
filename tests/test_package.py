"""The package's public surface."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import riffmix
import riffmix.descentpoly
import riffmix.hardness


def test_every_export_resolves_once():
    assert [name for name, n in Counter(riffmix.__all__).items() if n > 1] == []
    for name in riffmix.__all__:
        assert hasattr(riffmix, name), name


def test_submodule_exports_are_reexported():
    exported = set(riffmix.__all__)
    for module in (riffmix.descentpoly, riffmix.hardness):
        assert set(module.__all__) <= exported, module.__name__


def test_importing_the_cli_leaves_unused_layers_unloaded():
    # The package re-exports these modules' names on first use, and the
    # CLI imports them inside the commands that run them.
    probe = (
        "import sys, riffmix.cli\n"
        "lazy = ('riffmix.approx', 'riffmix.hardness', 'riffmix.shuffle')\n"
        "print([m for m in lazy if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(riffmix.__file__).parents[1]))
    res = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
