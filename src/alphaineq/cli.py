"""Command-line interface.

Subcommands: ``constants``, ``eval``, ``sweep``, ``falsify``, ``quad-test``.
Exit codes: 0 when every evaluated inequality holds, 1 when at least one
violation was found (slack below -slack_tol), 2 on configuration or runtime
errors, including a sweep in which every row raised and one in which a
listed inequality would get no row.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import numpy as np

from .alphanum import AlphaContext
from .harness import (
    ID_ALIASES,
    INEQUALITY_IDS,
    _axes,
    evaluate_single,
    SweepConfig,
    emit_report,
    falsify,
    parse_function_spec,
    render_report,
    run_sweep,
)
from .inequalities import ostrowski_constants
from .quadrature import MomentFunctional, fractal_integral_numeric


def create_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphaineq",
        description="Verify local fractional calculus inequalities and report slack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print the Ostrowski moment constants M, N")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--s", type=float, required=True)

    p = sub.add_parser("eval", help="evaluate one inequality at one parameter point")
    p.add_argument("--ineq", required=True, choices=sorted({*INEQUALITY_IDS, *ID_ALIASES}))
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--fn", required=True, help="function spec, e.g. poly:0,0,0,1")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("sweep", help="run a sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("falsify", help="randomized search for a counterexample")
    p.add_argument("--ineq", required=True)
    p.add_argument("--family", required=True, help="function spec used as the candidate family")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--adversarial", action="store_true", help="re-draw signed coefficients per trial")

    p = sub.add_parser("quad-test", help="moment self-check of the numeric functional")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--max-grade", type=int, default=10)

    return parser


def _cmd_constants(args: argparse.Namespace) -> int:
    const = ostrowski_constants(args.s, AlphaContext(args.alpha))
    print(f"M({args.s:g}, {args.alpha:g}) = {const.M:.17g}")
    print(f"N({args.s:g}, {args.alpha:g}) = {const.N:.17g}")
    return 0


@np.errstate(over="ignore", invalid="ignore")  # as in a sweep, the row shows an overflow or a NaN
def _cmd_eval(args: argparse.Namespace) -> int:
    ctx = AlphaContext(args.alpha)
    spec = parse_function_spec(args.fn)
    series = spec.realize(ctx)
    functional = MomentFunctional(ctx)
    rep = evaluate_single(
        args.ineq, series, functional, args.a, args.b, args.x, args.s, args.p, args.q, fn=spec.canonical()
    )
    sys.stdout.write(render_report([rep], args.format))
    return 0 if rep.holds else 1


def _check_every_id_gets_rows(cfg: SweepConfig) -> None:
    """Raise ``ValueError`` when a listed id would get no row, naming it and the empty field."""
    if not cfg.inequalities:
        raise ValueError("inequalities is empty: the sweep would verify nothing")
    fields = ("alphas", "functions", "intervals", "s_values", "pq_pairs", "x_fractions")
    for ineq in cfg.inequalities:
        for name, values in zip(fields, (cfg.alphas, cfg.functions, cfg.intervals, *_axes(cfg, ineq))):
            if not values:
                raise ValueError(f"{ineq} would get no row: {name} is empty")


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = SweepConfig.from_json(args.config)
    _check_every_id_gets_rows(cfg)
    rows = run_sweep(cfg)
    if args.out:
        emit_report(rows, args.format, args.out)
    else:
        sys.stdout.write(render_report(rows, args.format))
    if rows and all(r.notes.startswith("error:") for r in rows):
        print(f"error: every one of the {len(rows)} rows raised; see the notes column", file=sys.stderr)
        return 2
    return 0 if all(r.holds for r in rows) else 1


def _cmd_falsify(args: argparse.Namespace) -> int:
    family = parse_function_spec(args.family)
    cfg = SweepConfig(
        alphas=(args.alpha,),
        functions=(family,),
        inequalities=(args.ineq,),
    )
    witness = falsify(args.ineq, family, cfg, args.trials, args.seed, adversarial=args.adversarial)
    if witness is None:
        print(f"no counterexample in {args.trials} trials")
        return 0
    sys.stdout.write(render_report([witness], "csv"))
    return 1


def _cmd_quad_test(args: argparse.Namespace) -> int:
    functional = MomentFunctional(AlphaContext(args.alpha), max_grade=args.max_grade)
    worst = 0.0
    print("grade  closed-form         numeric             relerr")
    for k in range(args.max_grade + 1):
        closed = functional.moment(k)
        numeric = fractal_integral_numeric(lambda t, k=k: t ** (k * args.alpha), functional)
        rel = abs(numeric - closed) / closed
        worst = max(worst, rel)
        print(f"{k:>5}  {closed:.17g}  {numeric:.17g}  {rel:.3e}")
    print(f"worst relative error: {worst:.3e}")
    return 0 if worst <= 1e-10 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = create_parser()
    args = parser.parse_args(argv)
    handlers = {
        "constants": _cmd_constants,
        "eval": _cmd_eval,
        "sweep": _cmd_sweep,
        "falsify": _cmd_falsify,
        "quad-test": _cmd_quad_test,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, ArithmeticError, RuntimeError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
