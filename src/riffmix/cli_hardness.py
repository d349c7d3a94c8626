"""The `hardness` subcommands: generate, reduce, solve and cross-check
small decision instances.  `cli.main` imports this module only when one of
them runs."""

from __future__ import annotations

import argparse
import sys

from .cli import _deck_arg, _seed
from .errors import RiffmixError
from .hardness import (
    MatchingInstance,
    MinCutsInstance,
    RiffleInstance,
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
)
from .rng import PURPOSE_INSTANCE_GEN, substream


def _gen_instances(args: argparse.Namespace) -> list[MatchingInstance]:
    for flag, value, least in (
        ("--count", args.count, 0),
        ("--m-max", args.m_max, 1),
        ("--t-max", args.t_max, 1),
    ):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    gen = substream(_seed(args), PURPOSE_INSTANCE_GEN)
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


def _solve(inst, node_cap: int) -> tuple[bool, object]:
    """Solve one instance of any kind, verifying a yes answer's witness."""
    if isinstance(inst, MatchingInstance):
        ok, witness = solve_matching(inst)
        checked, what = matching_witness_ok, "matching"
    elif isinstance(inst, RiffleInstance):
        ok, witness = solve_riffle(inst, node_cap=node_cap)
        checked, what = riffle_witness_ok, "interleaving"
    else:
        ok, witness = solve_mincuts(inst, node_cap=node_cap)
        checked, what = mincuts_witness_ok, "transition"
    if ok and not checked(inst, witness):
        raise AssertionError(f"{what} witness failed verification")
    return ok, witness


def _solve_any(line: str, node_cap: int) -> tuple[str, str]:
    inst = parse_instance(line)
    ok, witness = _solve(inst, node_cap)
    if not ok:
        return "no", ""
    if isinstance(inst, MatchingInstance):
        return "yes", ";".join(f"({x},{y},{z})" for x, y, z in witness)
    if isinstance(inst, RiffleInstance):
        return "yes", ",".join(map(str, witness))
    return "yes", str(witness)


def cmd_hardness_solve(args: argparse.Namespace) -> int:
    if args.mincuts:
        d1, d2, budget = args.mincuts
        try:
            budget = int(budget)
        except ValueError:
            raise ValueError(
                f"--mincuts expects an integer descent budget D, got {budget!r}"
            ) from None
        inst = MinCutsInstance(_deck_arg(d1), _deck_arg(d2), budget)
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
        riffle = reduce_matching_to_riffle(inst)
        forms = {
            "matching": inst,
            "riffle": riffle,
            "riffle-brackets": reduce_matching_to_riffle_bracketed(inst),
            "mincuts": reduce_riffle_to_mincuts(riffle),
        }
        answers = {
            name: _solve(form, args.node_cap)[0] for name, form in forms.items()
        }
        expect = answers["matching"]
        agree = len(set(answers.values())) == 1
        disagreements += 0 if agree else 1
        status = "ok" if agree else "MISMATCH " + str(answers)
        print(
            f"instance={i} m={inst.m} t={len(inst.triples)} "
            f"answer={'yes' if expect else 'no'} {status}"
        )
    print(f"battery count={args.count} disagreements={disagreements}")
    return 0 if disagreements == 0 else 1
