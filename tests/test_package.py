"""The package's public surface."""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import riffmix
import riffmix.descentpoly
import riffmix.hardness
from riffmix.deck import Deck


def test_every_export_resolves_once():
    assert [name for name, n in Counter(riffmix.__all__).items() if n > 1] == []
    for name in riffmix.__all__:
        assert hasattr(riffmix, name), name


def test_submodule_exports_are_reexported():
    exported = set(riffmix.__all__)
    for module in (riffmix.descentpoly, riffmix.hardness):
        assert set(module.__all__) <= exported, module.__name__


def _loaded_modules(code: str) -> list[str]:
    """The modules `_probe` lists after running `code`, which may print
    nothing else to stdout."""
    return _probe(code).split()


# Modules outside the package whose loading `_probe` reports: numpy, and
# standard modules that cost start-up time.
_WATCHED = ("dataclasses", "decimal", "fractions", "inspect", "numpy")


def _probe(code: str) -> str:
    """The stdout of a fresh interpreter that runs `code`, then prints
    the `riffmix` modules, and those of `_WATCHED`, that it holds."""
    probe = code + (
        "\nimport sys\n"
        "print(' '.join(sorted(m for m in sys.modules"
        f" if m.startswith('riffmix.') or m in {_WATCHED!r})))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(riffmix.__file__).parents[1]))
    env.pop("RIFFMIX_CACHE_DIR", None)
    res = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def _command_modules(argv: list[str], exit_code: int) -> list[str]:
    """The `riffmix` modules loaded by one CLI command, whose output is
    discarded; the command must exit with `exit_code`."""
    code = (
        "import contextlib, io, riffmix.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = riffmix.cli.main({argv!r})\n"
        f"assert rc == {exit_code}, rc\n"
    )
    return _loaded_modules(code)


def test_importing_the_cli_leaves_unused_layers_unloaded():
    # The package re-exports these modules' names on first use, and the
    # CLI imports them inside the commands that run them.
    loaded = _loaded_modules("import riffmix.cli")
    lazy = ("riffmix.approx", "riffmix.hardness", "riffmix.shuffle")
    assert [m for m in lazy if m in loaded] == []
    # The handlers of the other subcommands load only when those run.
    handlers = ("riffmix.cli_explore", "riffmix.cli_hardness", "riffmix.cli_poly")
    assert [m for m in handlers if m in loaded] == []
    # Records are named tuples or plain classes, so no command below
    # loads `dataclasses`, nor the `inspect` it imports.
    slow = ("dataclasses", "inspect")
    # Commands that score in ints or floats alone build no `Fraction`, so
    # they load neither `fractions` nor the `decimal` it imports.
    exact_types = ("decimal", "fractions")
    # Set-up alone (a scenario resolved, then an empty shuffle range) and
    # the normal backend run no descent-polynomial engine.  numpy loads only
    # where a vectorized engine runs, so these leave it unloaded.
    engines = (
        "riffmix.blockfamily",
        "riffmix.cache",
        "riffmix.codes",
        "riffmix.descentpoly",
        "riffmix.tables",
    )
    bridge = ["tvd", "--scenario", "Bridge1"]
    for argv, exit_code in (
        (bridge + ["--shuffles", "1..0"], 2),
        (bridge + ["--shuffles", "3", "--method", "mc-normal", "--k", "2"], 0),
    ):
        loaded = _command_modules(argv, exit_code)
        assert [m for m in engines if m in loaded] == [], argv
        assert "riffmix.tvd" in loaded
        assert "numpy" not in loaded, argv
        assert [m for m in slow if m in loaded] == [], argv
        # The normal backend keeps its moments as int pairs, and fits no
        # histogram tail.
        assert [m for m in exact_types if m in loaded] == [], argv
        assert "riffmix.tailfit" not in loaded, argv
    # On a block deck, in either kind, the exact backend runs the block-deck
    # walk and scores its int rows without fractions: it loads neither the
    # enumeration module, nor the table engine, nor the histogram cache.
    for kind in ("fixed-source", "fixed-target"):
        argv = ["tvd", "--deck", "1^3,2^8", "--kind", kind]
        argv += ["--shuffles", "2", "--method", "mc-exact", "--k", "2"]
        loaded = _command_modules(argv, 0)
        used = ("riffmix.blockfamily", "riffmix.shuffle")
        assert [m for m in used if m not in loaded] == [], kind
        unused = (
            "riffmix.cache",
            "riffmix.codes",
            "riffmix.descentpoly",
            "riffmix.tables",
            "numpy",
        )
        assert [m for m in unused + slow + exact_types if m in loaded] == [], kind
    # A deck that is not a block deck leaves pairs to enumerate.
    argv = ["tvd", "--deck", "1,2,1,2,3", "--kind", "fixed-source"]
    argv += ["--shuffles", "2", "--method", "mc-exact", "--k", "2"]
    assert "riffmix.descentpoly" in _command_modules(argv, 0)
    # The closed form, which needs no polynomial engine, and a README
    # polynomial small enough to enumerate in pure Python.
    argv = ["bd", "--n", "52", "--shuffles", "5..8"]
    loaded = _command_modules(argv, 0)
    unused = ("riffmix.blockfamily", "riffmix.descentpoly", "numpy")
    assert [m for m in unused + slow + exact_types if m in loaded] == []
    argv = ["poly", "--source", "1^2,2^2", "--target", "1,2,1,2", "--format", "text"]
    loaded = _command_modules(argv, 0)
    assert "riffmix.cli_poly" in loaded
    assert [m for m in ("numpy",) + slow if m in loaded] == []
    # The histogram backend runs the table engine, but not the walk.
    argv = ["tvd", "--deck", "1^2,2^2", "--kind", "fixed-source", "--shuffles", "2"]
    argv += ["--method", "mc-hist", "--k", "2", "--hist-samples", "100"]
    loaded = _command_modules(argv, 0)
    assert "riffmix.tables" in loaded
    assert "numpy" in loaded
    assert [m for m in ("riffmix.approx", "riffmix.blockfamily") if m in loaded] == []
    # The n! sweep is vectorized; it runs on a deck that is not a block deck.
    argv = ["tvd", "--deck", "1,2,1,2,3", "--kind", "fixed-source"]
    argv += ["--shuffles", "1", "--method", "exact"]
    assert "numpy" in _command_modules(argv, 0)
    # A block deck's counterparts take one pure-Python DP, in either kind.
    for kind in ("fixed-source", "fixed-target"):
        argv = ["tvd", "--deck", "1^2,2^2,3^2,4^2,5", "--kind", kind]
        argv += ["--shuffles", "1..4", "--method", "exact"]
        loaded = _command_modules(argv, 0)
        assert "riffmix.blockfamily" in loaded
        unused = ("riffmix.descentpoly", "riffmix.tables", "numpy")
        assert [m for m in unused + slow + exact_types if m in loaded] == [], kind
    # Instance reductions and complementation classes are integer
    # combinatorics.
    for argv in (
        ["explore", "classes", "--n", "2"],
        ["hardness", "reduce", "--instance", "3dm m=1 triples=(1,1,1)", "--chain"],
    ):
        loaded = _command_modules(argv, 0)
        assert "riffmix.hardness" in loaded
        assert [m for m in ("numpy",) + slow if m in loaded] == [], argv


def _command_output(argv: list[str]) -> tuple[str, str, list[str]]:
    """The stdout, stderr and loaded modules (as in `_loaded_modules`) of
    one CLI command, which must exit with 0."""
    code = (
        "import contextlib, io, json, riffmix.cli\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        f"    rc = riffmix.cli.main({argv!r})\n"
        "assert rc == 0, (rc, err.getvalue())\n"
        "print(json.dumps([out.getvalue(), err.getvalue()]))\n"
    )
    first, modules = _probe(code).splitlines()
    out, err = json.loads(first)
    return out, err, modules.split()


def test_fully_cached_histograms_load_no_sampler(tmp_path):
    sampler = ("numpy", "riffmix.codes", "riffmix.tables")
    # The 8-card label is drawn as insertion codes; the other deck's labels
    # all take permutation tables.
    for deck in ("1^8,2^2", "1^2,2^2,3^2"):
        cache_dir = tmp_path / deck
        argv = ["tvd", "--deck", deck, "--kind", "fixed-source"]
        argv += ["--shuffles", "1..3", "--method", "mc-hist", "--k", "3"]
        argv += ["--hist-samples", "200", "--cache-dir", str(cache_dir)]
        written = _command_output(argv)
        assert [m for m in sampler if m not in written[2]] == [], deck
        # Each printed line is kept, the uninformed count on stderr too.
        assert "no estimated coefficient" in written[1], deck
        files = sorted(cache_dir.iterdir())
        assert len(files) >= 2, deck
        read = _command_output(argv)
        assert read[:2] == written[:2], deck
        assert [m for m in sampler if m in read[2]] == [], deck
        assert "riffmix.cache" in read[2]
        # One histogram missing: the sampler loads again to redraw it.
        files[0].unlink()
        missed = _command_output(argv)
        assert missed[:2] == written[:2], deck
        assert [m for m in sampler if m not in missed[2]] == [], deck
        assert sorted(cache_dir.iterdir()) == files


def test_module_entry_point_imports_the_cli_once():
    # Under `python -m riffmix.cli` the CLI runs as `__main__`; the handler
    # modules' `from .cli import ...` must not import it again.
    env = dict(os.environ, PYTHONPATH=str(Path(riffmix.__file__).parents[1]))
    env.pop("RIFFMIX_CACHE_DIR", None)
    for argv in (
        ["tvd", "--deck", "1^2,2^2", "--kind", "fixed-source", "--shuffles", "1"],
        ["poly", "--source", "1^2,2^2", "--target", "1,2,1,2"],
        ["hardness", "reduce", "--instance", "3dm m=1 triples=(1,1,1)"],
        ["explore", "classes", "--n", "2"],
    ):
        res = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "riffmix.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout, argv
        imported = [
            line.rsplit("|", 1)[1].strip()
            for line in res.stderr.splitlines()
            if line.startswith("import time:")
        ]
        assert "riffmix.tvd" in imported, argv
        assert "riffmix.cli" not in imported, argv


def test_cached_poly_estimate_loads_no_numpy(tmp_path):
    argv = ["poly", "--source", "1^2,2^2", "--target", "1,2,1,2"]
    argv += ["--method", "mc", "--l", "100", "--cache-dir", str(tmp_path)]
    written = _command_output(argv)
    assert "numpy" in written[2]
    (path,) = tmp_path.iterdir()
    text = path.read_text()
    read = _command_output(argv)
    assert read[:2] == written[:2]
    assert "numpy" not in read[2]
    assert path.read_text() == text


def test_every_traced_layer_resolves():
    # perfbench/tracer.py wraps each layer's entry point by module and
    # name; a target that does not resolve reads as a blank layer metric.
    # Two targets name functions deleted before the tracer was revised.
    tracer = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text())
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    unresolved = {
        (module, name)
        for _, module, name, _ in targets
        if not callable(
            getattr(importlib.import_module(f"riffmix.{module}"), name, None)
        )
    }
    assert unresolved <= {("tvd", "mc_tvd"), ("tvd", "exact_tvd_small")}
    assert ("descentpoly", "mc_descent_histogram") in {t[1:3] for t in targets}


_DECK = Deck(("1", "2", "1"))
_OTHER = Deck(("2", "1", "1"))

# Each record class by module and name, with the fields of one instance in
# declaration order.  The family's arrays are given as tuples, so it hashes.
_RECORDS = (
    ("deck", "Deck", {"cards": ("1", "2", "1")}),
    ("deck", "Permutation", {"images": (2, 3, 1)}),
    ("tvd", "Scenario", {"name": "x", "kind": "fixed-target", "anchor": _DECK}),
    (
        "tvd",
        "TvdEstimate",
        {
            "scenario": "x",
            "method": "normal",
            "a": 8,
            "value": 0.25,
            "k": 10,
            "seed": 3,
            "alpha_bounds": ((10.0, 1.0, 0.04),),
            "hist_samples": None,
            "unproven": 2,
            "unfitted": None,
            "uninformed": None,
        },
    ),
    (
        "cli",
        "ResultRow",
        {
            "scenario": "x",
            "shuffles": 3,
            "method": "exact",
            "value": 0.5,
            "k": None,
            "l": None,
            "seed": 1,
            "err96": None,
            "err999996": None,
        },
    ),
    (
        "approx",
        "DescentMoments",
        {"n": 3, "mean": Fraction(2, 3), "variance": Fraction(2, 9)},
    ),
    (
        "tailfit",
        "TailFit",
        {
            "window": (1, 4),
            "degree": 2,
            "center": Fraction(5, 2),
            "coefficients": (Fraction(1), Fraction(-1, 2)),
            "residual_rms": 0.125,
            "min_count": 400,
        },
    ),
    (
        "cache",
        "HistogramKey",
        {
            "source_text": "1^2,2",
            "target_text": "2,1^2",
            "samples": 100,
            "seed": 7,
            "streams": 1,
            "sampler": 5,
        },
    ),
    (
        "descentpoly",
        "DescentPolynomial",
        {"source": _DECK, "target": _OTHER, "coefficients": (1, 1, 0)},
    ),
    (
        "descentpoly",
        "DescentHistogram",
        {
            "source": _DECK,
            "target": _OTHER,
            "counts": (5, 5, 0),
            "samples": 10,
            "seed": 2,
        },
    ),
    (
        "descentpoly",
        "PolynomialFamily",
        {
            "anchor": _DECK,
            "role": "source",
            "labels": ("1", "2"),
            "codes": (2, 1, 4),
            "counts": ((1, 1, 0), (2, 0, 0), (1, 1, 0)),
        },
    ),
    ("hardness", "MatchingInstance", {"m": 2, "triples": ((1, 1, 1), (2, 2, 2))}),
    ("hardness", "RiffleInstance", {"packets": (_DECK, _OTHER), "deck": _DECK}),
    ("hardness", "MinCutsInstance", {"source": _DECK, "target": _OTHER, "budget": 1}),
)


@pytest.mark.parametrize(
    "module, name, fields", _RECORDS, ids=[name for _, name, _ in _RECORDS]
)
def test_records_behave_as_frozen_dataclasses(module, name, fields):
    cls = getattr(importlib.import_module(f"riffmix.{module}"), name)
    # The table lists every field, in order.
    assert list(cls.__annotations__) == list(fields)
    record, twin = cls(**fields), cls(**fields)
    assert record == twin and record is not twin
    # As the dataclass hash was: set and dict orders stay the same.
    assert hash(record) == hash(twin) == hash(tuple(fields.values()))
    body = ", ".join(f"{key}={value!r}" for key, value in fields.items())
    assert repr(record) == f"{name}({body})"
    for key, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, key, value)
        assert getattr(record, key) is value


def test_no_module_imports_dataclasses():
    # Importing `dataclasses` loads `inspect` and costs every command
    # start-up time; the import-set test covers only the commands it runs.
    offenders = []
    for path in sorted(Path(riffmix.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(n.split(".")[0] == "dataclasses" for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
