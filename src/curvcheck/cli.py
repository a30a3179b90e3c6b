"""Command line front end.

Three subcommands:

* ``check <config.json>`` loads a suite config, runs every check, and emits
  the report (text table by default, ``--format json`` for the machine
  format).  Exit code 0 when all checks pass, 1 when any check fails or
  errors, 2 on config, command-line or output problems.
* ``parse-expr "<expr>" --dims m,n`` parses one expression and prints its
  canonical form; syntax errors produce a caret diagnostic on stderr.
* ``version`` prints the tool name and version.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import replace

from . import __version__
from .checks import run_suite
from .config import load_config
from .errors import ConfigSchemaError, CurvcheckError, ExprSyntaxError, IoError
from .exprdsl import parse, unparse
from .report import emit
from .rng import SEED_LIMIT

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvcheck",
        description="Numerical verification of connection and curvature identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the checks declared in a config file")
    check.add_argument("config", help="path to a JSON suite config")
    check.add_argument(
        "--format",
        choices=("json", "text"),
        default="text",
        help="report format (default: text)",
    )
    check.add_argument("--out", default=None, help="write the report to this file")
    check.add_argument(
        "--seed", type=int, default=None, help="override the config's suite seed"
    )
    check.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run checks on this many processes forked after the config loads "
        "(default: 1, in this process)",
    )

    expr = sub.add_parser(
        "parse-expr", help="parse one expression and print its canonical form"
    )
    expr.add_argument("expr", help="expression source text")
    expr.add_argument(
        "--dims",
        default="3,3",
        help="base,fiber dimension bounds for variable indices (default: 3,3)",
    )

    sub.add_parser("version", help="print the tool version")
    return parser


def _fail(message: str) -> int:
    print(f"curvcheck: {message}", file=sys.stderr)
    return 2


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--dims needs the form m,n, got {text!r}")
    try:
        m, n = (int(part.strip()) for part in parts)
    except ValueError:
        raise ValueError(f"--dims needs two integers, got {text!r}") from None
    if m < 1 or n < 1:
        raise ValueError(f"--dims needs m >= 1 and n >= 1, got {text!r}")
    return m, n


def _run_check_command(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        return _fail(f"--jobs must be at least 1, got {args.jobs}")
    if args.seed is not None and not 0 <= args.seed < SEED_LIMIT:
        return _fail(f"--seed must be non-negative and below 2^64, got {args.seed}")
    try:
        config = load_config(args.config)
    except (IoError, ConfigSchemaError) as exc:
        return _fail(str(exc))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    # What is loaded (modules, config, trees, programs) lives until exit, so
    # freezing it spares every later collection a traversal of it: in the
    # checks, in forked workers (whose pages then stay shared) and at exit.
    # Frozen garbage is never freed: load_config must leave no cycles.
    gc.freeze()
    report = run_suite(config, jobs=args.jobs)
    try:
        emit(report, args.format, args.out)
    except IoError as exc:
        return _fail(str(exc))
    return 0 if report.verdict == "pass" else 1


def _run_parse_expr_command(args: argparse.Namespace) -> int:
    try:
        dims = _parse_dims(args.dims)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        tree = parse(args.expr, dims)
    except ExprSyntaxError as exc:
        print(args.expr, file=sys.stderr)
        print(" " * exc.offset + "^", file=sys.stderr)
        print(f"curvcheck: {exc}", file=sys.stderr)
        return 2
    except CurvcheckError as exc:
        return _fail(str(exc))
    print(unparse(tree))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "check":
        return _run_check_command(args)
    if args.command == "parse-expr":
        return _run_parse_expr_command(args)
    print(f"curvcheck {__version__}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
