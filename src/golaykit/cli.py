"""Command-line surface for planning, generating, verifying and searching.

Machine-readable JSON goes to standard output, human summaries to
standard error, and the exit code is a stable contract:

    0  success                 3  seed missing from the registry
    1  search exhausted        4  verification failed
    2  shape infeasible        5  node budget exceeded
    64 usage error, or an --out path that cannot be written
    65 input rejected: a file that cannot be read or is not UTF-8, a
       bad document, or a construction refusing its inputs
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import construct, planner, seeds, verify
from .errors import (GolayKitError, MissingSeed, NotComplementary, ParseError,
                     VerificationFailed)
from .search import SearchStatus
from .tensor import Alphabet

EXIT_OK = 0
EXIT_EXHAUSTED = 1
EXIT_INFEASIBLE = 2
EXIT_MISSING_SEED = 3
EXIT_VERIFY_FAILED = 4
EXIT_BUDGET = 5
EXIT_USAGE = 64
EXIT_PARSE = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code this tool promises."""

    def error(self, message):
        raise _UsageError(message)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(obj) -> None:
    """Print obj as JSON.  Once the reader has closed stdout, it points
    at os.devnull: no later write, nor the flush at exit, fails, and the
    command ends with its own exit code."""
    try:
        print(json.dumps(obj, indent=2, sort_keys=False), flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except OSError:  # a stdout with no file descriptor
            sys.stdout = os.fdopen(devnull, "w")


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise _UsageError(f"shape must look like 9x10, got {text!r}")
    if not dims or any(d < 1 for d in dims):
        raise _UsageError(f"shape dimensions must be positive: {text!r}")
    return dims


def _count(least: int):
    """An argparse type for integers >= `least`; argparse reports a bad
    value through `_Parser.error`, so it exits with the usage code."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value

    return parse


_positive = _count(1)
_non_negative = _count(0)


def _load_registry(path: str | None) -> seeds.SeedRegistry:
    if path is None:
        return seeds.load_bundled()
    try:
        registry = seeds.load_registry(path)
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    if registry.rejects:
        _say(f"note: {len(registry.rejects)} seed records rejected at load")
    return registry


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        raise ParseError(f"{path} nests too deeply to parse") from None


def _check_out(path: str | None) -> None:
    """Refuse, before any work, an --out whose directory is missing or
    not writable; `_write_json` still reports a write that fails."""
    folder = os.path.dirname(path or "") or "."
    if path and not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise _UsageError(f"cannot write --out {path}: {folder} is not a "
                          f"writable directory")


def _write_json(path: str, obj) -> None:
    try:
        Path(path).write_text(json.dumps(obj, indent=2) + "\n")
    except OSError as e:
        raise _UsageError(f"cannot write --out {path}: {e}") from None


def _plan(args, registry: seeds.SeedRegistry | None = None
          ) -> planner.FeasibilityReport:
    """The report for --alphabet/--role/--shape; a quad is planned
    against `registry`, loaded from --seeds when not given."""
    alphabet = Alphabet(args.alphabet)
    shape = _parse_shape(args.shape)
    if args.role == "pair":
        return planner.plan_pair(alphabet, shape)
    if registry is None:
        registry = _load_registry(args.seeds)
    return planner.plan_quad(alphabet, shape, registry)


def cmd_plan(args) -> int:
    _check_out(args.out)
    report = _plan(args)
    if report.feasible and args.out:
        _write_json(args.out, planner.recipe_to_obj(report.recipe))
        _say(f"recipe written to {args.out}")
    _emit(planner.report_to_obj(report))
    if not report.feasible:
        _say(f"infeasible: {report.reason}")
        return EXIT_INFEASIBLE
    shape = "x".join(str(s) for s in report.shape)
    _say(f"feasible: {args.alphabet} {args.role} {shape}")
    return EXIT_OK


def cmd_generate(args) -> int:
    _check_out(args.out)
    if args.recipe:  # parsed, sizes and all, before any seed is read
        recipe = planner.recipe_from_obj(_load_json(args.recipe))
    elif not (args.alphabet and args.role and args.shape):
        raise _UsageError(
            "generate needs --recipe or --alphabet/--role/--shape")
    registry = _load_registry(args.seeds)
    if not args.recipe:
        report = _plan(args, registry)
        if not report.feasible:
            _emit(planner.report_to_obj(report))
            _say(f"infeasible: {report.reason}")
            return EXIT_INFEASIBLE
        recipe = report.recipe
    out_set = planner.execute(recipe, registry)
    doc = construct.set_to_obj(out_set)
    if args.out:
        _write_json(args.out, doc)
        _say(f"set written to {args.out}")
    else:
        _emit(doc)
    shapes = ["x".join(map(str, a.shape)) for a in out_set.arrays]
    shape = (f"shape {shapes[0]}" if len(set(shapes)) == 1
             else f"member shapes {', '.join(shapes)}")
    _say(f"verified {out_set.role} of {shape}, "
         f"alphabet {out_set.alphabet.value}, "
         f"total weight {out_set.total_weight()}")
    return EXIT_OK


def cmd_verify(args) -> int:
    doc = _load_json(args.path)
    gs = construct.set_from_obj(doc, verify=False)
    verdict = verify.is_gca_set(gs.arrays)
    poly_ok = verify.gca_check_polynomial(gs.arrays)
    deviation = verify.spectrum_flatness(gs.arrays, grid=args.grid)
    _emit({
        "complementary": verdict.is_complementary,
        "polynomial_route": poly_ok,
        "total_weight": verdict.total_weight,
        "max_sidelobe_norm": verdict.max_sidelobe_norm,
        "spectrum_deviation": deviation,
        "grid": args.grid,
        "members": len(gs.arrays),
        "shape": list(gs.shape),
        "shapes": [list(a.shape) for a in gs.arrays],
    })
    ok = verdict.is_complementary and poly_ok
    _say("complementary" if ok else
         f"NOT complementary (max sidelobe norm {verdict.max_sidelobe_norm})")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_spectrum(args) -> int:
    doc = _load_json(args.path)
    gs = construct.set_from_obj(doc, verify=False)
    deviation = verify.spectrum_flatness(gs.arrays, grid=args.grid)
    _emit({
        "spectrum_deviation": deviation,
        "grid": args.grid,
        "members": len(gs.arrays),
        "shape": list(gs.shape),
        "shapes": [list(a.shape) for a in gs.arrays],
    })
    return EXIT_OK


_STATUS_EXIT = {
    SearchStatus.FOUND: EXIT_OK,
    SearchStatus.EXHAUSTED: EXIT_EXHAUSTED,
    SearchStatus.BUDGET_EXCEEDED: EXIT_BUDGET,
}


def cmd_seed_search(args) -> int:
    if args.kind == "pair":
        if not args.shape:
            raise _UsageError("seed search --kind pair needs --shape")
        alphabet = Alphabet(args.alphabet)
        shape = _parse_shape(args.shape)
        status, record, nodes = seeds.search_golay_pair(
            alphabet, shape, budget=args.budget)
    elif args.kind == "base":
        if args.m is None:
            raise _UsageError("seed search --kind base needs --m")
        status, record, nodes = seeds.search_base_sequences(
            args.m, budget=args.budget)
    else:
        raise _UsageError(f"unknown seed kind {args.kind!r}")
    _emit({
        "status": status.value,
        "nodes": nodes,
        "record": seeds.record_to_obj(record) if record else None,
    })
    _say(f"search {status.value} after {nodes} nodes")
    return _STATUS_EXIT[status]


def cmd_coverage(args) -> int:
    if args.kind == "golay-count" and not args.alphabet:
        raise _UsageError("coverage --kind golay-count needs --alphabet")
    alphabet = Alphabet(args.alphabet) if args.alphabet else None
    report = planner.coverage_scan(args.kind, args.limit, alphabet)
    _emit(report)
    if args.kind == "quad-sum-coverage":
        _say(f"uncovered within {args.limit}: {report['uncovered']}")
    else:
        _say(f"{report['count']} reachable lengths within {args.limit}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="golaykit",
        description="Construct, plan and verify complementary array sets "
                    "with exact integer arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def alphabet_arg(p, required=True):
        p.add_argument("--alphabet", choices=["binary", "quaternary"],
                       required=required)

    p = sub.add_parser("plan", help="decide feasibility, emit a recipe")
    alphabet_arg(p)
    p.add_argument("--role", choices=["pair", "quad"], required=True)
    p.add_argument("--shape", required=True, metavar="AxB")
    p.add_argument("--seeds", metavar="PATH")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("generate", help="execute a recipe into arrays")
    p.add_argument("--recipe", metavar="PATH")
    alphabet_arg(p, required=False)
    p.add_argument("--role", choices=["pair", "quad"])
    p.add_argument("--shape", metavar="AxB")
    p.add_argument("--seeds", metavar="PATH")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="check a stored set for complementarity")
    p.add_argument("path", metavar="SET.json")
    p.add_argument("--grid", type=_positive, default=16)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="power-spectrum flatness diagnostic")
    p.add_argument("path", metavar="SET.json")
    p.add_argument("--grid", type=_positive, default=16)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("seed", help="seed registry operations")
    seed_sub = p.add_subparsers(dest="seed_command", metavar="action")
    ps = seed_sub.add_parser("search", help="exhaustive seed search")
    ps.add_argument("--kind", choices=["pair", "base"], required=True)
    ps.add_argument("--alphabet", choices=["binary", "quaternary"],
                    default="binary")
    ps.add_argument("--shape", metavar="N")
    ps.add_argument("--m", type=_positive, metavar="N")
    ps.add_argument("--budget", type=_non_negative, metavar="N")
    ps.set_defaults(func=cmd_seed_search)

    p = sub.add_parser("coverage", help="bulk reachability scans")
    p.add_argument("--kind", choices=["quad-sum-coverage", "golay-count"],
                   required=True)
    p.add_argument("--limit", type=_positive, required=True)
    p.add_argument("--alphabet", choices=["binary", "quaternary"])
    p.set_defaults(func=cmd_coverage)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except _UsageError as e:
        _say(f"usage error: {e}")
        return EXIT_USAGE
    except ParseError as e:
        _say(f"parse error: {e}")
        return EXIT_PARSE
    except MissingSeed as e:
        _say(str(e))
        return EXIT_MISSING_SEED
    except (VerificationFailed, NotComplementary) as e:
        _say(f"verification error: {e}")
        return EXIT_VERIFY_FAILED
    except GolayKitError as e:
        _say(f"input rejected: {e}")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
