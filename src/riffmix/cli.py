"""Command-line interface.

Subcommands:

- `bd`: exact distance from uniform for decks of distinct cards, over a
  range of riffle counts (closed form over descent numbers).
- `tvd`: distance from uniform for a scenario (named or custom deck),
  exact summation or the sampling estimator with a choice of backend.
- `poly`: descent coefficients of one transition, exact, sampled, or
  normal-approximated (handler in `cli_poly`).
- `hardness`: generate, reduce, and solve small decision instances
  (handlers in `cli_hardness`).
- `explore`: structure explorers (complementation classes, strided
  descent tables; handlers in `cli_explore`).

`main` imports a handler module only when its subcommand runs, so the
other commands never compile it, and fills in the arguments of that
subcommand alone; usage and help text still cover every subcommand.

Output is CSV (versioned, machine-stable) or aligned text.  Exit codes:
0 on success, 2 on usage errors, 3 when a cap or feasibility check
refuses the computation.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import TYPE_CHECKING, NamedTuple

from .deck import Deck, parse_deck
from .errors import RiffmixError
from .tvd import (
    Scenario,
    custom_scenario,
    distinct_scenario,
    exact_tvd_curve,
    mc_tvd_curve,
    riffles_to_packets,
    scenario,
    scenario_names,
)

if TYPE_CHECKING:
    from collections.abc import Callable, Sequence

CSV_TAG = "# riffmix csv v1"
RESULT_HEADER = "scenario,shuffles,method,value,k,l,seed,err96,err999996"
POLY_HEADER = "degree,coefficient,method,gauge"


class ResultRow(NamedTuple):
    """One distance value, with enough context to reproduce it."""

    scenario: str
    shuffles: int
    method: str
    value: float
    k: int | None = None
    l: int | None = None
    seed: int | None = None
    err96: float | None = None
    err999996: float | None = None

    def to_csv(self) -> str:
        def fmt(v) -> str:
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(v)
            text = str(v)
            if "," in text:
                raise ValueError(f"field {text!r} would corrupt the CSV row")
            return text

        return ",".join(
            fmt(v)
            for v in (
                self.scenario,
                self.shuffles,
                self.method,
                self.value,
                self.k,
                self.l,
                self.seed,
                self.err96,
                self.err999996,
            )
        )

    @classmethod
    def from_csv(cls, line: str) -> "ResultRow":
        parts = line.split(",")
        if len(parts) != 9:
            raise ValueError(f"expected 9 fields, got {len(parts)}")

        def opt_int(s: str) -> int | None:
            return int(s) if s else None

        def opt_float(s: str) -> float | None:
            return float(s) if s else None

        return cls(
            scenario=parts[0],
            shuffles=int(parts[1]),
            method=parts[2],
            value=float(parts[3]),
            k=opt_int(parts[4]),
            l=opt_int(parts[5]),
            seed=opt_int(parts[6]),
            err96=opt_float(parts[7]),
            err999996=opt_float(parts[8]),
        )


def _emit_rows(rows: list[ResultRow], fmt: str) -> None:
    if fmt == "csv":
        print(CSV_TAG)
        print(RESULT_HEADER)
        for row in rows:
            print(row.to_csv())
        return
    print(f"{'scenario':<24}{'shuffles':>9}{'method':>20}{'value':>14}")
    for row in rows:
        extra = ""
        if row.err96 is not None:
            extra = f"  (within {row.err96:.4g} w.p. 0.96)"
        print(
            f"{row.scenario:<24}{row.shuffles:>9}{row.method:>20}"
            f"{row.value:>14.6f}{extra}"
        )


def _parse_range(text: str, flag: str) -> list[int]:
    lo, dots, hi = text.partition("..")
    try:
        lo_i, hi_i = int(lo), int(hi if dots else lo)
    except ValueError:
        raise ValueError(f"{flag} expects N or lo..hi, got {text!r}") from None
    if hi_i < lo_i:
        raise ValueError(f"empty range {text!r}")
    return list(range(lo_i, hi_i + 1))


def _parse_window(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"--window expects lo..hi, got {text!r}") from None


def _seed(args: argparse.Namespace) -> int:
    """The `--seed` value; seeds address random streams, so they are
    non-negative."""
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.seed


def _deck_arg(text: str) -> Deck:
    """Parse a deck argument, expanding bare strings character-wise.

    `1122` is shorthand for `1,1,2,2`; anything containing grammar
    punctuation is parsed as a full expression.
    """
    if len(text) > 1 and not any(ch in text for ch in ",^()"):
        text = ",".join(text)
    return parse_deck(text)


# ---------------------------------------------------------------------------
# bd


def _exact_rows(s: Scenario, shuffles: list[int], **caps: int) -> list[ResultRow]:
    """One `exact_tvd_curve` row per riffle count of `shuffles`."""
    values = exact_tvd_curve(s, [riffles_to_packets(k) for k in shuffles], **caps)
    return [
        ResultRow(scenario=s.name, shuffles=k, method="exact", value=float(v))
        for k, v in zip(shuffles, values)
    ]


def cmd_bd(args: argparse.Namespace) -> int:
    shuffles = _parse_range(args.shuffles, "--shuffles")
    _emit_rows(_exact_rows(distinct_scenario(args.n), shuffles), args.format)
    return 0


# ---------------------------------------------------------------------------
# tvd


def _resolve_scenario(args: argparse.Namespace):
    if args.scenario:
        return scenario(args.scenario)
    if not args.deck or not args.kind:
        raise ValueError("need either --scenario or both --deck and --kind")
    return custom_scenario(_deck_arg(args.deck), args.kind)


def cmd_tvd(args: argparse.Namespace) -> int:
    s = _resolve_scenario(args)
    window = _parse_window(args.window) if args.window else None
    shuffles = _parse_range(args.shuffles, "--shuffles")
    if args.method == "exact":
        rows = _exact_rows(
            s,
            shuffles,
            arrangement_cap=args.arrangement_cap,
            transition_cap=args.transition_cap,
        )
        _emit_rows(rows, args.format)
        return 0
    packets = [riffles_to_packets(k) for k in shuffles]
    backend = {
        "mc-exact": "exact-oracle",
        "mc-hist": "mc-histogram",
        "mc-normal": "normal-approx",
    }[args.method]
    estimates = mc_tvd_curve(
        s,
        packets,
        k=args.k,
        seed=_seed(args),
        backend=backend,
        transition_cap=args.transition_cap,
        hist_samples=args.hist_samples,
        extrapolate=args.extrapolate,
        fit_degree=args.fit_degree,
        min_count=args.min_count,
        window=window,
        cache_dir=args.cache_dir,
    )
    rows = [
        ResultRow(
            scenario=s.name,
            shuffles=k,
            method=est.method,
            value=est.value,
            k=est.k,
            l=est.hist_samples,
            seed=est.seed,
            err96=est.alpha_bounds[0][1],
            err999996=est.alpha_bounds[1][1],
        )
        for k, est in zip(shuffles, estimates)
    ]
    _emit_rows(rows, args.format)
    if estimates[0].unproven is not None:
        print(
            f"mc-normal: {estimates[0].unproven} distinct sampled arrangements "
            f"(of k={args.k} draws) have a normal curve outside its proven "
            "error regime (variance^3 <= 294^2 * mean^2)",
            file=sys.stderr,
        )
    if estimates[0].unfitted is not None:
        print(
            f"mc-hist: {estimates[0].unfitted} distinct sampled arrangements "
            f"(of k={args.k} draws) have a histogram too sparse for a "
            f"degree-{args.fit_degree} tail fit; they keep their unpatched "
            "estimates",
            file=sys.stderr,
        )
    if any(est.uninformed for est in estimates):
        counts = ", ".join(
            f"{est.uninformed} at {k} shuffles" for k, est in zip(shuffles, estimates)
        )
        print(
            f"mc-hist: distinct sampled arrangements (of k={args.k} draws) "
            "with no estimated coefficient below degree a = 2^shuffles, whose "
            f"term is 1 by construction however small the true term: {counts}",
            file=sys.stderr,
        )
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def _handler(module: str, name: str) -> Callable[[argparse.Namespace], int]:
    """The handler `name` of the sibling module `module`, which is imported
    only when the handler runs."""

    def run(args: argparse.Namespace) -> int:
        return getattr(importlib.import_module(f".{module}", __package__), name)(args)

    return run


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=("csv", "text"),
        default="csv",
        help="output format (default csv)",
    )


def _fill_bd(p_bd: argparse.ArgumentParser) -> None:
    p_bd.add_argument("--n", type=int, required=True, help="deck size")
    p_bd.add_argument(
        "--shuffles",
        required=True,
        help="riffle count or range, e.g. 7 or 1..10",
    )
    _add_format(p_bd)
    p_bd.set_defaults(func=cmd_bd)


def _fill_tvd(p_tvd: argparse.ArgumentParser) -> None:
    p_tvd.add_argument(
        "--scenario",
        help="named scenario: " + ", ".join(scenario_names()),
    )
    p_tvd.add_argument("--deck", help="custom anchor deck expression")
    p_tvd.add_argument(
        "--kind",
        choices=("fixed-source", "fixed-target"),
        help="which side the custom deck anchors",
    )
    p_tvd.add_argument("--shuffles", required=True, help="e.g. 5 or 1..10")
    p_tvd.add_argument(
        "--method",
        choices=("exact", "mc-exact", "mc-hist", "mc-normal"),
        default="exact",
    )
    p_tvd.add_argument("--k", type=int, default=1000, help="sample count")
    p_tvd.add_argument("--seed", type=int, default=0)
    p_tvd.add_argument(
        "--hist-samples",
        type=int,
        default=10**6,
        help="histogram size per sampled arrangement (mc-hist)",
    )
    p_tvd.add_argument(
        "--extrapolate",
        action="store_true",
        help="patch unreliable degrees with a log-scale tail fit (mc-hist)",
    )
    p_tvd.add_argument("--fit-degree", type=int, default=4)
    p_tvd.add_argument("--min-count", type=int, default=400)
    p_tvd.add_argument("--window", help="fit window, e.g. 18..30")
    p_tvd.add_argument("--cache-dir", default=None)
    p_tvd.add_argument("--arrangement-cap", type=int, default=10**6)
    p_tvd.add_argument("--transition-cap", type=int, default=10**8)
    _add_format(p_tvd)
    p_tvd.set_defaults(func=cmd_tvd)


def _fill_poly(p_poly: argparse.ArgumentParser) -> None:
    p_poly.add_argument("--source", required=True)
    p_poly.add_argument("--target", required=True)
    p_poly.add_argument(
        "--method", choices=("exact", "mc", "normal"), default="exact"
    )
    p_poly.add_argument("--l", type=int, default=10**6, help="sample count (mc)")
    p_poly.add_argument("--seed", type=int, default=0)
    p_poly.add_argument("--cap", type=int, default=10**8)
    p_poly.add_argument("--cache-dir", default=None)
    _add_format(p_poly)
    p_poly.set_defaults(func=_handler("cli_poly", "cmd_poly"))


def _fill_hardness(p_hard: argparse.ArgumentParser) -> None:
    hard_sub = p_hard.add_subparsers(dest="hardness_command", required=True)

    def add_gen_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--count", type=int, default=20)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--m-max", type=int, default=4)
        p.add_argument("--t-max", type=int, default=6)

    p_gen = hard_sub.add_parser("gen", help="random matching instances")
    add_gen_args(p_gen)
    p_gen.set_defaults(func=_handler("cli_hardness", "cmd_hardness_gen"))

    p_red = hard_sub.add_parser("reduce", help="apply reductions")
    p_red.add_argument(
        "--instance", help="instance line (default: read stdin)"
    )
    p_red.add_argument(
        "--encoding", choices=("tokens", "brackets"), default="tokens"
    )
    p_red.add_argument(
        "--chain",
        action="store_true",
        help="also print the descent-budget form of the reduced instance",
    )
    p_red.set_defaults(func=_handler("cli_hardness", "cmd_hardness_reduce"))

    p_solve = hard_sub.add_parser("solve", help="solve one instance")
    p_solve.add_argument(
        "--instance", help="instance line (default: read stdin)"
    )
    p_solve.add_argument(
        "--mincuts",
        nargs=3,
        metavar=("D1", "D2", "D"),
        help="shorthand: source deck, target deck, descent budget",
    )
    p_solve.add_argument("--node-cap", type=int, default=2_000_000)
    p_solve.set_defaults(func=_handler("cli_hardness", "cmd_hardness_solve"))

    p_bat = hard_sub.add_parser(
        "battery", help="cross-check reductions on random instances"
    )
    add_gen_args(p_bat)
    p_bat.add_argument("--node-cap", type=int, default=2_000_000)
    p_bat.set_defaults(func=_handler("cli_hardness", "cmd_hardness_battery"))


def _fill_explore(p_exp: argparse.ArgumentParser) -> None:
    exp_sub = p_exp.add_subparsers(dest="explore_command", required=True)

    p_cls = exp_sub.add_parser(
        "classes", help="balanced-complementation classes"
    )
    p_cls.add_argument("--n", required=True, help="half-size, e.g. 4 or 1..6")
    p_cls.set_defaults(func=_handler("cli_explore", "cmd_explore_classes"))

    p_mod = exp_sub.add_parser("modh", help="strided descent tables")
    p_mod.add_argument("--n", type=int, required=True)
    p_mod.add_argument("--h", type=int, required=True)
    p_mod.add_argument("--cap", type=int, default=10**7)
    p_mod.set_defaults(func=_handler("cli_explore", "cmd_explore_modh"))


# Each subcommand's help line, and the function that adds its arguments.
_SUBCOMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None]]] = {
    "bd": ("distance from uniform for distinct cards, closed form", _fill_bd),
    "tvd": ("distance from uniform for a scenario", _fill_tvd),
    "poly": ("descent coefficients of one transition", _fill_poly),
    "hardness": ("decision instances", _fill_hardness),
    "explore": ("structure explorers", _fill_explore),
}


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The `riffmix` parser, every subcommand registered with its help.

    When `argv` starts with a subcommand's name, only that subcommand gets
    its arguments: parsing `argv` reads no other, and each `add_argument`
    costs start-up time.  Otherwise every subcommand is filled in, so
    usage, help and error text are those of the whole parser.
    """
    top = argparse.ArgumentParser(
        prog="riffmix",
        description=(
            "How many riffle shuffles mix a deck, when cards repeat or "
            "only part of the order matters."
        ),
    )
    sub = top.add_subparsers(dest="command", required=True)
    only = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    for name, (help_text, fill) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if only in (None, name):
            fill(p)
    return top


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except RiffmixError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except KeyError as exc:
        print(str(exc.args[0]) if exc.args else str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    # Under `python -m riffmix.cli` this module runs as `__main__`.  The
    # handler modules' `from .cli import ...` then finds it under its own
    # name instead of compiling and running it again as `riffmix.cli`.
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
