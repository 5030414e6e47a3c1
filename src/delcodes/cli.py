"""Command-line front end covering the full workflow.

Subcommands mirror the working stages: vt (inspect a VT class), check
(validate a code file), max (exact maximum search), gen (emit an LP
model), solve (built-in exact solver), verify (replay an external
solution), bounds (the size sandwich). Every command supports --json for
a machine-readable report carrying the same facts as the plain output.

Exit status: 0 on success, 1 for domain failures (invalid inputs, failed
checks, infeasible or unsolved models), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json as jsonlib
import os
import sys
from typing import Iterator, Sequence, TextIO

from . import __version__
from .constraints import build_model
from .ilp import (
    InfeasibleModelError,
    read_lp,
    read_solution,
    solve_builtin,
    verify_solution,
    write_lp,
    write_solution,
)
from .sdecc import (
    SdeccResult,
    SearchOptions,
    bounds,
    is_sdecc,
    max_sdecc_exact,
)
from .vt import is_perfect, parse_code, vt0_size, vt1_size, vt_code

_Handled = tuple[int, dict, list[str]]


@contextlib.contextmanager
def _open_text(path: str) -> Iterator[TextIO]:
    """path opened as UTF-8 text; bytes that do not decode fail naming it."""
    try:
        with open(path, encoding="utf-8") as source:
            yield source
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_text(path: str) -> str:
    with _open_text(path) as source:
        return source.read()


def _cmd_vt(args: argparse.Namespace) -> _Handled:
    code = vt_code(args.n, args.a)
    data: dict = {
        "command": "vt",
        "n": args.n,
        "a": args.a,
        "size": len(code),
    }
    lines = [f"|VT_{args.a}({args.n})| = {len(code)}"]
    if args.formula:
        if args.a == 0:
            formula = vt0_size(args.n)
        elif args.a == 1:
            formula = vt1_size(args.n)
        else:
            raise ValueError(
                f"closed formulas cover a=0 and a=1 only, got a={args.a}"
            )
        data["formula_size"] = formula
        lines.append(f"formula size = {formula}")
    if args.perfect:
        perfect = is_perfect(code)
        data["perfect"] = perfect
        lines.append(f"perfect: {'yes' if perfect else 'no'}")
    if args.list:
        words = [str(w) for w in code]
        data["codewords"] = words
        lines.extend(words)
    return 0, data, lines


def _cmd_check(args: argparse.Namespace) -> _Handled:
    code = parse_code(_read_text(args.code))
    result = is_sdecc(code)
    data: dict = {
        "command": "check",
        "n": code.n,
        "size": len(code),
        "ok": result.ok,
        "witness": _witness(result),
    }
    if result.ok:
        lines = [
            f"valid single-deletion code: {len(code)} words of length {code.n}"
        ]
        return 0, data, lines
    x, y = result.first_pair
    shared = "(the empty word)" if result.shared is None else result.shared
    lines = [f"INVALID: {x} and {y} share deleted word {shared}"]
    return 1, data, lines


def _witness(result: SdeccResult) -> dict | None:
    """The first conflicting pair and their shared deleted word, if any."""
    if result.ok:
        return None
    x, y = result.first_pair
    # the empty word, shared by two length-1 words, has no Word
    shared = "" if result.shared is None else str(result.shared)
    return {"first": str(x), "second": str(y), "shared": shared}


def _search_options(args: argparse.Namespace) -> SearchOptions:
    incumbent = None
    if getattr(args, "incumbent", None):
        incumbent = parse_code(_read_text(args.incumbent))
    return SearchOptions(
        node_limit=args.node_limit,
        time_limit=args.time_limit,
        incumbent=incumbent,
    )


def _cmd_max(args: argparse.Namespace) -> _Handled:
    result = max_sdecc_exact(args.n, _search_options(args))
    witness = [str(w) for w in result.witness]
    data = {
        "command": "max",
        "n": args.n,
        "size": result.size,
        "status": result.proof_status,
        "nodes": result.nodes,
        "witness": witness,
    }
    if result.proof_status == "optimal":
        lines = [f"M({args.n}) = {result.size} (optimal)"]
    else:
        lines = [f"M({args.n}) >= {result.size} (bound-limited)"]
    lines.extend(witness)
    return 0, data, lines


def _parse_c6(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected p,q got {text!r}")
    try:
        p, q = (int(s) for s in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers p,q got {text!r}")
    if p < 0 or q < 0 or p + q == 0:
        raise argparse.ArgumentTypeError(
            f"need p, q >= 0 with p + q >= 1, got {text!r}"
        )
    return p, q


def _cmd_gen(args: argparse.Namespace) -> _Handled:
    families = {s.strip() for s in args.families.split(",") if s.strip()}
    if not families:
        raise ValueError("--families must name at least one family")
    c6_params = tuple(args.c6) if args.c6 else None
    model = build_model(args.n, families, c6_params=c6_params)
    with open(args.out, "w", encoding="utf-8", newline="\n") as sink:
        nbytes = write_lp(model, sink)
    data = {
        "command": "gen",
        "n": args.n,
        "families": list(model.metadata["families"]),
        "rows": len(model.constraints),
        "variables": len(model.variable_names),
        "bytes": nbytes,
        "path": args.out,
    }
    lines = [
        f"wrote {args.out}: {len(model.constraints)} rows, "
        f"{len(model.variable_names)} variables, {nbytes} bytes"
    ]
    return 0, data, lines


def _cmd_solve(args: argparse.Namespace) -> _Handled:
    with _open_text(args.model) as source:
        model = read_lp(source)
    solution = solve_builtin(model, _search_options(args))
    if solution.solver_status == "unknown":
        raise ValueError(
            "no feasible solution found within the search budget"
        )
    selected = [str(w) for w in model.selected_words(solution)]
    data = {
        "command": "solve",
        "model": args.model,
        "objective": solution.objective,
        "status": solution.solver_status,
        "source": solution.source,
        "selected": selected,
    }
    lines = [f"objective {solution.objective} ({solution.solver_status})"]
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as sink:
            write_solution(solution, sink)
        data["solution_path"] = args.out
        lines.append(f"wrote {args.out}")
    return 0, data, lines


def _cmd_verify(args: argparse.Namespace) -> _Handled:
    with _open_text(args.model) as source:
        model = read_lp(source)
    with _open_text(args.solution) as source:
        solution = read_solution(source, model, strict=args.strict)
    report = verify_solution(model, solution)
    data: dict = {
        "command": "verify",
        "ok": report.ok,
        "objective": report.objective,
        "selected": len(report.words),
        "checked": report.checked,
        "violated": list(report.violated),
        "foreign": list(report.foreign_names),
        "code_ok": report.code_result.ok,
        "witness": _witness(report.code_result),
    }
    lines = report.render().splitlines()
    return (0 if report.ok else 1), data, lines


def _cmd_bounds(args: argparse.Namespace) -> _Handled:
    record = bounds(args.n)
    data = {
        "command": "bounds",
        "n": record.n,
        "lower_ratio": record.lower_ratio,
        "lower_vt": record.lower_vt,
        "known_M": record.known_M,
        "known_upper": record.known_upper,
        "upper_kk": record.upper_kk,
    }
    show = lambda v: "unknown" if v is None else str(v)
    lines = [
        f"n = {record.n}",
        f"lower, counting:     {record.lower_ratio}",
        f"lower, VT_0 size:    {record.lower_vt}",
        f"known maximum:       {show(record.known_M)}",
        f"known upper bound:   {show(record.known_upper)}",
        f"upper, formula:      {record.upper_kk}",
    ]
    return 0, data, lines


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="delcodes",
        description="Single-deletion code construction, search, and models.",
    )
    top.add_argument("--json", action="store_true", help="machine-readable output")
    top.add_argument(
        "--version", action="version", version=f"delcodes {__version__}"
    )
    sub = top.add_subparsers(dest="command", required=True, metavar="command")

    def flag_json(p: argparse.ArgumentParser) -> None:
        # accepted after the subcommand too; SUPPRESS keeps the top-level
        # value when the flag is absent here
        p.add_argument(
            "--json",
            action="store_true",
            default=argparse.SUPPRESS,
            help="machine-readable output",
        )

    def flag_budgets(p: argparse.ArgumentParser) -> None:
        p.add_argument("--time-limit", type=float, default=None, metavar="S")
        p.add_argument("--node-limit", type=int, default=None, metavar="K")

    p = sub.add_parser("vt", help="inspect one VT residue class")
    p.add_argument("--n", type=int, required=True, help="word length")
    p.add_argument("--a", type=int, required=True, help="syndrome residue")
    p.add_argument("--list", action="store_true", help="print the codewords")
    p.add_argument(
        "--formula", action="store_true", help="also evaluate the size formula"
    )
    p.add_argument(
        "--perfect", action="store_true", help="report surface perfectness"
    )
    flag_json(p)
    p.set_defaults(handler=_cmd_vt)

    p = sub.add_parser("check", help="validate a code file")
    p.add_argument("--code", required=True, help="code file, one word per line")
    flag_json(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("max", help="exact maximum code size with witness")
    p.add_argument("--n", type=int, required=True, help="word length")
    flag_budgets(p)
    p.add_argument(
        "--incumbent", default=None, metavar="PATH", help="warm-start code file"
    )
    flag_json(p)
    p.set_defaults(handler=_cmd_max)

    p = sub.add_parser("gen", help="write a constraint model in LP format")
    p.add_argument("--n", type=int, required=True, help="word length")
    p.add_argument(
        "--families",
        required=True,
        help="comma-separated family ids from c0..c6 (c0 is required)",
    )
    p.add_argument(
        "--c6",
        action="append",
        type=_parse_c6,
        metavar="P,Q",
        help="prefix/suffix lengths for c6; repeatable; default preset",
    )
    p.add_argument("--out", required=True, help="output LP path")
    flag_json(p)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("solve", help="solve an LP model with the built-in solver")
    p.add_argument("--model", required=True, help="LP file this tool wrote")
    flag_budgets(p)
    p.add_argument(
        "--out", default=None, metavar="PATH", help="write the solution file"
    )
    flag_json(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("verify", help="replay a solution file against a model")
    p.add_argument("--model", required=True, help="LP file")
    p.add_argument("--solution", required=True, help="name value lines")
    p.add_argument(
        "--strict",
        action="store_true",
        help="reject values farther than 1e-6 from 0/1",
    )
    flag_json(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("bounds", help="size bounds for one length")
    p.add_argument("--n", type=int, required=True, help="word length")
    flag_json(p)
    p.set_defaults(handler=_cmd_bounds)

    return top


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # a handler builds many long-lived objects, which the cyclic collector
    # would rescan many times for little garbage; cycles left behind are
    # collected once it runs again
    enabled = gc.isenabled()
    gc.disable()
    try:
        status, data, lines = args.handler(args)
    except (ValueError, OSError, InfeasibleModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()
    try:
        if args.json:
            print(jsonlib.dumps(data, indent=2, sort_keys=True))
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; devnull keeps the exit-time flush silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
