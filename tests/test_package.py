"""The package's public surface."""

from __future__ import annotations

from collections import Counter

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
