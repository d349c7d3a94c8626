"""The `explore` subcommands: balanced-complementation classes and strided
descent tables.  `cli.main` imports this module only when one of them
runs."""

from __future__ import annotations

import argparse

from .cli import _parse_range
from .hardness import (
    balanced_class_count_formula,
    balanced_complement_classes,
    strided_descent_counts,
    strided_total,
)
from .shuffle import eulerian_row


def cmd_explore_classes(args: argparse.Namespace) -> int:
    for n in _parse_range(args.n, "--n"):
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
