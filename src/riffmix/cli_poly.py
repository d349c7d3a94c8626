"""The `poly` subcommand: descent coefficients of one transition, exact,
sampled, or normal-approximated.  `cli.main` imports this module only when
the subcommand runs."""

from __future__ import annotations

import argparse
import sys

from .cli import CSV_TAG, POLY_HEADER, _deck_arg, _seed
from .deck import deck_text
from .descentpoly import exact_descent_polynomial, mc_descent_histogram


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
            seed=_seed(args),
            cache_dir=args.cache_dir,
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
        from .approx import normal_error_bound_applies, normal_polynomial_estimate

        moments, est = normal_polynomial_estimate(d1, d2)
        if moments.variance == 0:
            print(
                "descent count is deterministic "
                f"(always {moments.mean}); a normal curve does not apply",
                file=sys.stderr,
            )
            return 3
        gauge = "" if normal_error_bound_applies(moments) else "unproven"
        for d, c in enumerate(est):
            entries.append((d, repr(c), "normal", gauge))
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
