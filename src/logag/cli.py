"""Batch command-line interface.

Subcommands::

    logag check THEORY --query TERM [--query TERM ...] [--level N]
    logag trace THEORY [--max-level N] [--format text|json] [--query TERM ...]
    logag args {enumerate|structures|translate|verify} RULES [--indexing FILE]

Exit codes: 0 every query holds / every check passes, 1 some query fails,
2 usage or parse error or any other engine error (inconsistent base facts,
a bad indexing file), 3 a capacity limit was exceeded or the input nests
too deeply, 4 an internal error: a defect of the engine, not of the input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arguments import (
    default_indexing,
    enumerate_arguments,
    enumerate_structures,
    maximal_structures,
    parse_indexing,
    parse_rules,
    translate,
    verify,
    wffs,
)
from .config import DEFAULT_LIMITS, Limits
from .errors import CapacityError, EngineError, ParseError
from .grading import OPLUS, OTIMES, Canon, graded_consequences, telescope_n, trace_to_dict
from .terms import parse_term, parse_theory, render, theory_to_text

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


def count(text: str) -> int:
    """A level or a cap: a non-negative int, or a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="logag")
    caps = argparse.ArgumentParser(add_help=False)
    caps.add_argument("--atom-cap", type=count, default=DEFAULT_LIMITS.atom_cap)
    caps.add_argument("--depth-cap", type=count, default=DEFAULT_LIMITS.depth_cap)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", parents=[caps], help="decide graded consequence of query terms"
    )
    check.add_argument("theory")
    check.add_argument("--query", action="append", required=True)
    check.add_argument("--level", type=count, default=1)
    check.add_argument("--otimes", choices=list(OTIMES), default="sum")
    check.add_argument("--oplus", choices=list(OPLUS), default="max")
    check.add_argument("--format", choices=["text", "json"], default="text")

    trace = sub.add_parser(
        "trace", parents=[caps], help="print the per-level telescoping trace"
    )
    trace.add_argument("theory")
    trace.add_argument("--max-level", type=count, default=4)
    trace.add_argument("--otimes", choices=list(OTIMES), default="sum")
    trace.add_argument("--oplus", choices=list(OPLUS), default="max")
    trace.add_argument("--format", choices=["text", "json"], default="text")
    trace.add_argument("--query", action="append", default=[])

    args_cmd = sub.add_parser("args", parents=[caps], help="argument-system operations")
    args_cmd.add_argument("action", choices=["enumerate", "structures", "translate", "verify"])
    args_cmd.add_argument("rules")
    args_cmd.add_argument("--indexing")
    return parser


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}", 1, 1) from exc
    except UnicodeDecodeError as exc:
        before = exc.object[: exc.start].decode("utf-8")
        line, column = before.count("\n") + 1, len(before) - before.rfind("\n")
        raise ParseError(f"cannot read {path}: not UTF-8 text", line, column) from exc


def _limits(ns) -> Limits:
    return Limits(atom_cap=ns.atom_cap, depth_cap=ns.depth_cap)


def _term_line(rendered: list[str]) -> str:
    return " ; ".join(rendered) if rendered else "(none)"


def _print_trace_text(doc: dict, out) -> None:
    """The fields of ``trace_to_dict``'s document, one line per set."""
    for level in doc["levels"]:
        print(f"== level {level['index']} ==", file=out)
        print(f"  base       : {_term_line(level['base'])}", file=out)
        print(f"  -> level {level['index'] + 1}:", file=out)
        print(f"  expansion  : {_term_line(level['expansion'])}", file=out)
        kernel_text = _term_line(["{" + ", ".join(k) + "}" for k in level["kernels"]])
        print(f"  kernels    : {kernel_text}", file=out)
        print(f"  survivors  : {_term_line(level['survivors'])}", file=out)
        print(f"  supported  : {_term_line(level['supported'])}", file=out)
        print(f"  fixpoint   : {'yes' if level['fixpoint'] else 'no'}", file=out)


def _cmd_check(ns, out) -> int:
    theory = parse_theory(_read(ns.theory))
    queries = [parse_term(q) for q in ns.query]
    canon = Canon(ns.otimes, ns.oplus, ns.level)
    holds = graded_consequences(theory, canon, queries, _limits(ns))
    answers = [(q, holds[q]) for q in queries]
    if ns.format == "json":
        doc = {
            "theory": theory.name,
            "canon": {"otimes": canon.otimes, "oplus": canon.oplus, "level": canon.level},
            "results": [{"query": render(q), "holds": ok} for q, ok in answers],
        }
        print(json.dumps(doc, indent=2), file=out)
    else:
        for q, ok in answers:
            print(f"{'YES' if ok else 'NO '}  {render(q)}", file=out)
    return EXIT_OK if all(ok for _, ok in answers) else EXIT_NO


def _cmd_trace(ns, out) -> int:
    theory = parse_theory(_read(ns.theory))
    queries = [parse_term(q) for q in ns.query]
    canon = Canon(ns.otimes, ns.oplus, ns.max_level)
    doc = trace_to_dict(telescope_n(theory, canon, queries, _limits(ns)))
    if ns.format == "json":
        print(json.dumps(doc, indent=2), file=out)
    else:
        _print_trace_text(doc, out)
    return EXIT_OK


def _cmd_args(ns, out) -> int:
    rules = parse_rules(_read(ns.rules))
    limits = _limits(ns)
    if ns.action == "enumerate":
        args = enumerate_arguments(rules, limits)

        def shape(a, depth=0):
            lead = "  " * depth
            tag = f" [{a.rule_label}]" if a.rule_label else ""
            lines = [f"{lead}{render(a.root)}{tag}"]
            for c in a.children:
                lines.extend(shape(c, depth + 1))
            return lines

        for i, a in enumerate(args, start=1):
            print(f"p{i}:", file=out)
            for line in shape(a, 1):
                print(line, file=out)
        print(f"total: {len(args)} arguments", file=out)
        return EXIT_OK

    if ns.action == "structures":
        args = enumerate_arguments(rules, limits)
        label_of = {a: f"p{i}" for i, a in enumerate(args, start=1)}
        structures = enumerate_structures(rules, limits, args)
        maximal = maximal_structures(structures)
        for i, s in enumerate(structures, start=1):
            names = ", ".join(label_of[a] for a in s.sorted_arguments())
            flag = " (maximal)" if s in maximal else ""
            print(f"T{i}{flag}: {{{names}}}", file=out)
            print(f"  wffs: {_term_line(sorted(render(w) for w in wffs(s)))}", file=out)
        print(f"total: {len(structures)} structures", file=out)
        return EXIT_OK

    # Built only for the actions that use it: it caps the defaults at 12.
    idx = parse_indexing(_read(ns.indexing), rules) if ns.indexing else default_indexing(rules, limits)
    if ns.action == "translate":
        theory = translate(rules, idx, limits)
        out.write(theory_to_text(theory))
        return EXIT_OK

    # verify
    all_ok = True
    for i, (_, r1, r2) in enumerate(verify(rules, idx, limits), start=1):
        all_ok = all_ok and r1.passed and r2.passed
        print(
            f"T{i} (level {r1.level}): supported-formulas check "
            f"{'PASS' if r1.passed else 'FAIL'}, classical-bound check "
            f"{'PASS' if r2.passed else 'FAIL'}",
            file=out,
        )
        for w, ok in r1.results:
            if not ok:
                print(f"  missing consequence: {render(w)}", file=out)
        for u, base in r2.failures:
            print(f"  unforced consequence: {render(u)}", file=out)
    return EXIT_OK if all_ok else EXIT_NO


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if ns.command == "check":
            return _cmd_check(ns, out)
        if ns.command == "trace":
            return _cmd_trace(ns, out)
        return _cmd_args(ns, out)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return EXIT_CAPACITY
    except Exception as exc:
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
