"""Run one `riffmix` command with spans recorded around its layers.

Usage: python perfbench/tracer.py SPANS_OUT riffmix-args...

The wrapped functions are the public entry points of each layer (see
`TARGETS`).  Each is replaced in every `riffmix` module that holds it by
name, so `tvd`'s imported `mc_descent_histogram` and `descentpoly`'s
imported `substream` are traced as well as the defining module's copy.
A target that no longer exists is listed as unmeasured instead of
stopping the command.

Spans are kept in memory as compact arrays and written as one JSON file
when the command ends, whether it returns or raises.  The command's exit
code is the one `python -m riffmix.cli` would give.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
from array import array
from time import perf_counter

# (span name, module, function, which call attributes to record)
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("tvd.mc_tvd", "tvd", "mc_tvd", None),
    ("tvd.exact_tvd_small", "tvd", "exact_tvd_small", None),
    ("descentpoly.hist", "descentpoly", "mc_descent_histogram", "hist"),
    ("descentpoly.sweep", "descentpoly", "descent_polynomial_family", "sweep"),
    ("descentpoly.exact", "descentpoly", "exact_descent_polynomial", "exact"),
    ("descentpoly.eval", "descentpoly", "probability_from_coefficients", None),
    ("approx.moments", "approx", "descent_moments", "key"),
    ("approx.normal", "approx", "normal_coefficient_estimate", None),
    ("deck.sample", "deck", "sample_uniform_rearrangement", None),
    ("rng.substream", "rng", "substream", None),
    ("cache.load", "cache", "load", "load"),
    ("cache.store", "cache", "store", None),
)


def _call_key(sig: inspect.Signature | None, args: tuple, kwargs: dict):
    """A hashable identity for one call's arguments (for repeat counts)."""
    try:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        items = tuple(bound.arguments.items())
    except (TypeError, AttributeError):
        items = (args, tuple(sorted(kwargs.items())))
    try:
        hash(items)
        return items
    except TypeError:
        return repr(items)


def _bound_arg(sig, args, kwargs, name):
    try:
        return sig.bind(*args, **kwargs).arguments.get(name)
    except (TypeError, AttributeError):
        return None


def _attrs(kind: str, sig, args: tuple, kwargs: dict, result) -> dict:
    """What the per-layer metrics need to know about one call."""
    if kind == "load":
        key = _bound_arg(sig, args, kwargs, "key")
        return {
            "completed": None if result is None else int(result[1]),
            "streams": getattr(key, "streams", None),
        }
    attrs = {"key": _call_key(sig, args, kwargs)}
    if kind == "hist":
        attrs["samples"] = _bound_arg(sig, args, kwargs, "samples")
    elif kind == "sweep":
        counts = getattr(result, "counts", None)
        attrs["maps"] = None if counts is None else int(counts.sum())
    elif kind == "exact":
        coeffs = getattr(result, "coefficients", None)
        attrs["perms"] = None if coeffs is None else int(sum(coeffs))
    return attrs


class Tracer:
    """In-memory span store: one row per call of a wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.kind = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self.unmeasured: list[str] = []
        self.bad_attrs: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, record: str | None):
        ix = len(self.names)
        self.names.append(name)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        attrs = self.attrs
        bad = self.bad_attrs
        lock = self._lock
        stack_of = self._stack
        sig = None
        if record is not None:
            try:
                sig = inspect.signature(fn)
            except (TypeError, ValueError):
                pass

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            with lock:
                sid = len(kind)
                kind.append(ix)
                parent.append(stack[-1] if stack else -1)
                start.append(0.0)
                end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if record is not None:
                # A changed return type must not break the command; the
                # layer's attribute metrics are reported as unmeasured.
                try:
                    attrs[sid] = _attrs(record, sig, args, kwargs, result)
                except (TypeError, ValueError, IndexError, AttributeError):
                    bad.add(name)
            return result

        return traced

    def install(self) -> None:
        """Patch every target in every loaded `riffmix` module."""
        for name, modname, attr, rec in TARGETS:
            try:
                module = importlib.import_module(f"riffmix.{modname}")
            except ImportError:
                self.unmeasured.append(name)
                continue
            orig = getattr(module, attr, None)
            if not callable(orig):
                self.unmeasured.append(name)
                continue
            wrapped = self.wrap(name, orig, rec)
            for modkey, mod in list(sys.modules.items()):
                if mod is None or not (
                    modkey == "riffmix" or modkey.startswith("riffmix.")
                ):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def dump(self, path: str) -> None:
        """Write the spans as JSON; call keys become small integer ids."""
        key_ids: dict = {}
        for sid, a in self.attrs.items():
            if "key" in a:
                a["key"] = key_ids.setdefault(
                    (self.kind[sid], a["key"]), len(key_ids)
                )
        data = {
            "names": self.names,
            "unmeasured": self.unmeasured + sorted(self.bad_attrs),
            "kind": self.kind.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "attrs": {str(sid): a for sid, a in self.attrs.items()},
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import riffmix.cli as cli  # loads every layer module

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
