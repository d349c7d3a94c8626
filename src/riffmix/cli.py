"""Command-line interface.

Subcommands:

- `bd`: exact distance from uniform for decks of distinct cards, over a
  range of riffle counts (closed form over descent numbers).
- `tvd`: distance from uniform for a scenario (named or custom deck),
  exact summation or the sampling estimator with a choice of backend.
- `poly`: descent coefficients of one transition, exact, sampled, or
  normal-approximated.
- `hardness`: generate, reduce, and solve small decision instances.
- `explore`: structure explorers (complementation classes, strided
  descent tables).

Output is CSV (versioned, machine-stable) or aligned text.  Exit codes:
0 on success, 2 on usage errors, 3 when a cap or feasibility check
refuses the computation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction

from .approx import (
    descent_moments,
    normal_coefficient_estimate,
    normal_error_bound_applies,
)
from .deck import Deck, deck_text, parse_deck, transition_cardinality
from .descentpoly import (
    exact_descent_polynomial,
    mc_descent_histogram,
)
from .errors import RiffmixError
from .hardness import (
    MatchingInstance,
    MinCutsInstance,
    RiffleInstance,
    balanced_class_count_formula,
    balanced_complement_classes,
    eulerian_row,
    matching_witness_ok,
    mincuts_witness_ok,
    parse_instance,
    random_matching_instance,
    reduce_matching_to_riffle,
    reduce_matching_to_riffle_bracketed,
    reduce_riffle_to_mincuts,
    riffle_witness_ok,
    solve_matching,
    solve_mincuts,
    solve_riffle,
    strided_descent_counts,
    strided_total,
)
from .rng import substream, PURPOSE_INSTANCE_GEN
from .tvd import (
    bayer_diaconis_tvd,
    custom_scenario,
    exact_tvd_curve,
    mc_tvd_curve,
    riffles_to_packets,
    scenario,
    scenario_names,
)

CSV_TAG = "# riffmix csv v1"
RESULT_HEADER = "scenario,shuffles,method,value,k,l,seed,err96,err999996"
POLY_HEADER = "degree,coefficient,method,gauge"


@dataclass(frozen=True)
class ResultRow:
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


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    return [int(text)]


def _parse_window(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    return int(lo), int(hi)


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


def cmd_bd(args: argparse.Namespace) -> int:
    rows = []
    for k in _parse_range(args.shuffles):
        val = bayer_diaconis_tvd(args.n, k)
        rows.append(
            ResultRow(
                scenario=f"bd:{args.n}",
                shuffles=k,
                method="exact",
                value=float(val),
            )
        )
    _emit_rows(rows, args.format)
    return 0


# ---------------------------------------------------------------------------
# tvd


def _resolve_scenario(args: argparse.Namespace):
    if args.scenario:
        return scenario(args.scenario)
    if not args.deck or not args.kind:
        raise RiffmixError(
            "need either --scenario or both --deck and --kind"
        )
    return custom_scenario(_deck_arg(args.deck), args.kind)


def cmd_tvd(args: argparse.Namespace) -> int:
    s = _resolve_scenario(args)
    window = _parse_window(args.window) if args.window else None
    shuffles = _parse_range(args.shuffles)
    packets = [riffles_to_packets(k) for k in shuffles]
    if args.method == "exact":
        values = exact_tvd_curve(
            s,
            packets,
            arrangement_cap=args.arrangement_cap,
            transition_cap=args.transition_cap,
        )
        rows = [
            ResultRow(scenario=s.name, shuffles=k, method="exact", value=float(v))
            for k, v in zip(shuffles, values)
        ]
        _emit_rows(rows, args.format)
        return 0
    backend = {
        "mc-exact": "exact-oracle",
        "mc-hist": "mc-histogram",
        "mc-normal": "normal-approx",
    }[args.method]
    estimates = mc_tvd_curve(
        s,
        packets,
        k=args.k,
        seed=args.seed,
        backend=backend,
        transition_cap=args.transition_cap,
        hist_samples=args.hist_samples,
        extrapolate=args.extrapolate,
        fit_degree=args.fit_degree,
        min_count=args.min_count,
        window=window,
        cache_dir=args.cache_dir,
        threads=args.threads,
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
    return 0


# ---------------------------------------------------------------------------
# poly


def cmd_poly(args: argparse.Namespace) -> int:
    d1 = _deck_arg(args.source)
    d2 = _deck_arg(args.target)
    n = d1.n
    entries: list[tuple[int, str, str, str]] = []
    if args.method == "exact":
        poly = exact_descent_polynomial(d1, d2, cap=args.cap)
        for d, c in enumerate(poly.coefficients):
            entries.append((d, str(c), "exact", ""))
        compact = ",".join(str(c) for c in poly.coefficients)
    elif args.method == "mc":
        hist = mc_descent_histogram(
            d1,
            d2,
            samples=args.l,
            seed=args.seed,
            cache_dir=args.cache_dir,
            threads=args.threads,
        )
        est = hist.coefficient_estimates()
        for d in range(n):
            g = hist.relative_gauge(d)
            entries.append(
                (
                    d,
                    repr(float(est[d])),
                    "mc",
                    "" if g is None else f"{g:.4g}",
                )
            )
        compact = ",".join(repr(float(e)) for e in est)
    else:
        moments = descent_moments(d1, d2)
        if moments.variance == 0:
            print(
                "descent count is deterministic "
                f"(always {moments.mean}); a normal curve does not apply",
                file=sys.stderr,
            )
            return 3
        m = transition_cardinality(d1, d2)
        flagged = normal_error_bound_applies(moments)
        for d in range(n):
            c = normal_coefficient_estimate(d, moments, m)
            entries.append((d, repr(c), "normal", "" if flagged else "unproven"))
        compact = ",".join(e[1] for e in entries)
    if args.format == "csv":
        print(CSV_TAG)
        print(POLY_HEADER)
        for d, c, method, gauge in entries:
            print(f"{d},{c},{method},{gauge}")
    else:
        print(f"source: {deck_text(d1)}")
        print(f"target: {deck_text(d2)}")
        print(f"coefficients (degree 0..{n - 1}): {compact}")
        shown = [e for e in entries if e[3]]
        if shown:
            print("gauges:")
            for d, _, _, gauge in shown:
                print(f"  degree {d}: {gauge}")
    return 0


# ---------------------------------------------------------------------------
# hardness


def _gen_instances(args: argparse.Namespace) -> list[MatchingInstance]:
    gen = substream(args.seed, PURPOSE_INSTANCE_GEN)
    return [
        random_matching_instance(gen, m_max=args.m_max, t_max=args.t_max)
        for _ in range(args.count)
    ]


def cmd_hardness_gen(args: argparse.Namespace) -> int:
    for inst in _gen_instances(args):
        print(inst.text())
    return 0


def _read_instance_lines(args: argparse.Namespace) -> list[str]:
    if args.instance:
        return [args.instance]
    return [line.strip() for line in sys.stdin if line.strip()]


def cmd_hardness_reduce(args: argparse.Namespace) -> int:
    for line in _read_instance_lines(args):
        inst = parse_instance(line)
        if not isinstance(inst, MatchingInstance):
            if isinstance(inst, RiffleInstance):
                print(reduce_riffle_to_mincuts(inst).text())
                continue
            raise RiffmixError(f"cannot reduce {type(inst).__name__}")
        if args.encoding == "brackets":
            riffle = reduce_matching_to_riffle_bracketed(inst)
        else:
            riffle = reduce_matching_to_riffle(inst)
        print(riffle.text())
        if args.chain:
            print(reduce_riffle_to_mincuts(riffle).text())
    return 0


def _solve_any(line: str, node_cap: int) -> tuple[str, str]:
    inst = parse_instance(line)
    if isinstance(inst, MatchingInstance):
        ok, witness = solve_matching(inst)
        if ok and not matching_witness_ok(inst, witness):
            raise AssertionError("matching witness failed verification")
        body = (
            ";".join(f"({x},{y},{z})" for x, y, z in witness) if ok else ""
        )
        return ("yes", body) if ok else ("no", "")
    if isinstance(inst, RiffleInstance):
        ok, schedule = solve_riffle(inst, node_cap=node_cap)
        if ok and not riffle_witness_ok(inst, schedule):
            raise AssertionError("interleaving witness failed verification")
        return ("yes", ",".join(map(str, schedule))) if ok else ("no", "")
    ok, perm = solve_mincuts(inst, node_cap=node_cap)
    if ok and not mincuts_witness_ok(inst, perm):
        raise AssertionError("transition witness failed verification")
    return ("yes", str(perm)) if ok else ("no", "")


def cmd_hardness_solve(args: argparse.Namespace) -> int:
    if args.mincuts:
        d1, d2, budget = args.mincuts
        inst = MinCutsInstance(_deck_arg(d1), _deck_arg(d2), int(budget))
        lines = [inst.text()]
    else:
        lines = _read_instance_lines(args)
    for line in lines:
        answer, witness = _solve_any(line, args.node_cap)
        print(f"{answer} witness={witness}" if witness else answer)
    return 0


def cmd_hardness_battery(args: argparse.Namespace) -> int:
    disagreements = 0
    for i, inst in enumerate(_gen_instances(args)):
        expect, witness = solve_matching(inst)
        if expect and not matching_witness_ok(inst, witness):
            raise AssertionError("matching witness failed verification")
        answers = {"matching": expect}
        riffle = reduce_matching_to_riffle(inst)
        got, sched = solve_riffle(riffle, node_cap=args.node_cap)
        if got and not riffle_witness_ok(riffle, sched):
            raise AssertionError("interleaving witness failed verification")
        answers["riffle"] = got
        bracketed = reduce_matching_to_riffle_bracketed(inst)
        got_b, sched_b = solve_riffle(bracketed, node_cap=args.node_cap)
        if got_b and not riffle_witness_ok(bracketed, sched_b):
            raise AssertionError("interleaving witness failed verification")
        answers["riffle-brackets"] = got_b
        cuts = reduce_riffle_to_mincuts(riffle)
        got_c, perm = solve_mincuts(cuts, node_cap=args.node_cap)
        if got_c and not mincuts_witness_ok(cuts, perm):
            raise AssertionError("transition witness failed verification")
        answers["mincuts"] = got_c
        agree = len(set(answers.values())) == 1
        disagreements += 0 if agree else 1
        status = "ok" if agree else "MISMATCH " + str(answers)
        print(
            f"instance={i} m={inst.m} t={len(inst.triples)} "
            f"answer={'yes' if expect else 'no'} {status}"
        )
    print(f"battery count={args.count} disagreements={disagreements}")
    return 0 if disagreements == 0 else 1


# ---------------------------------------------------------------------------
# explore


def cmd_explore_classes(args: argparse.Namespace) -> int:
    for n in _parse_range(args.n):
        classes, seqs = balanced_complement_classes(n)
        formula = balanced_class_count_formula(n)
        print(
            f"n={n} classes={classes} sequences={seqs} "
            f"formula-candidate={formula:g}"
        )
    return 0


def cmd_explore_modh(args: argparse.Namespace) -> int:
    counts = strided_descent_counts(args.n, args.h, cap=args.cap)
    total = strided_total(args.n, args.h)
    shown = list(counts)
    while len(shown) > 1 and shown[-1] == 0:
        shown.pop()
    print(f"n={args.n} h={args.h} total={total}")
    print("descents=" + ",".join(str(c) for c in shown))
    if args.h == 1:
        print(
            "unrestricted-reference="
            + ",".join(str(c) for c in eulerian_row(args.n))
        )
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="riffmix",
        description=(
            "How many riffle shuffles mix a deck, when cards repeat or "
            "only part of the order matters."
        ),
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("csv", "text"),
            default="csv",
            help="output format (default csv)",
        )

    p_bd = sub.add_parser(
        "bd", help="distance from uniform for distinct cards, closed form"
    )
    p_bd.add_argument("--n", type=int, required=True, help="deck size")
    p_bd.add_argument(
        "--shuffles",
        required=True,
        help="riffle count or range, e.g. 7 or 1..10",
    )
    add_format(p_bd)
    p_bd.set_defaults(func=cmd_bd)

    p_tvd = sub.add_parser(
        "tvd", help="distance from uniform for a scenario"
    )
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
    p_tvd.add_argument("--threads", type=int, default=1)
    p_tvd.add_argument("--cache-dir", default=None)
    p_tvd.add_argument("--arrangement-cap", type=int, default=10**6)
    p_tvd.add_argument("--transition-cap", type=int, default=10**8)
    add_format(p_tvd)
    p_tvd.set_defaults(func=cmd_tvd)

    p_poly = sub.add_parser(
        "poly", help="descent coefficients of one transition"
    )
    p_poly.add_argument("--source", required=True)
    p_poly.add_argument("--target", required=True)
    p_poly.add_argument(
        "--method", choices=("exact", "mc", "normal"), default="exact"
    )
    p_poly.add_argument("--l", type=int, default=10**6, help="sample count (mc)")
    p_poly.add_argument("--seed", type=int, default=0)
    p_poly.add_argument("--cap", type=int, default=10**8)
    p_poly.add_argument("--threads", type=int, default=1)
    p_poly.add_argument("--cache-dir", default=None)
    add_format(p_poly)
    p_poly.set_defaults(func=cmd_poly)

    p_hard = sub.add_parser("hardness", help="decision instances")
    hard_sub = p_hard.add_subparsers(dest="hardness_command", required=True)

    def add_gen_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--count", type=int, default=20)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--m-max", type=int, default=4)
        p.add_argument("--t-max", type=int, default=6)

    p_gen = hard_sub.add_parser("gen", help="random matching instances")
    add_gen_args(p_gen)
    p_gen.set_defaults(func=cmd_hardness_gen)

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
    p_red.set_defaults(func=cmd_hardness_reduce)

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
    p_solve.set_defaults(func=cmd_hardness_solve)

    p_bat = hard_sub.add_parser(
        "battery", help="cross-check reductions on random instances"
    )
    add_gen_args(p_bat)
    p_bat.add_argument("--node-cap", type=int, default=2_000_000)
    p_bat.set_defaults(func=cmd_hardness_battery)

    p_exp = sub.add_parser("explore", help="structure explorers")
    exp_sub = p_exp.add_subparsers(dest="explore_command", required=True)

    p_cls = exp_sub.add_parser(
        "classes", help="balanced-complementation classes"
    )
    p_cls.add_argument("--n", required=True, help="half-size, e.g. 4 or 1..6")
    p_cls.set_defaults(func=cmd_explore_classes)

    p_mod = exp_sub.add_parser("modh", help="strided descent tables")
    p_mod.add_argument("--n", type=int, required=True)
    p_mod.add_argument("--h", type=int, required=True)
    p_mod.add_argument("--cap", type=int, default=10**7)
    p_mod.set_defaults(func=cmd_explore_modh)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    sys.exit(main())
