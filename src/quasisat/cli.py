"""Command-line front end: solve one sentence or run a labeled corpus."""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .formulas import Formula
from .intervals import DomainError, rat, rat_str
from .parser import ParseError, parse
from .solver import IterationRecord, Verdict, quasi_decide

EXIT_DECIDED = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="quasisat",
        description="Quasi-decision procedure for robust bounded "
                    "first-order sentences over the reals.")
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=20,
                        help="maximum number of refinement iterations")
    common.add_argument("--epsilon", type=_rational, default=Fraction(1),
                        help="initial refinement parameter (rational)")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--certificate", action="store_true",
                        help="report the robustness margin / separation bound")
    common.add_argument("--trace", action="store_true",
                        help="include the per-iteration trace")

    solve = sub.add_parser("solve", parents=[common],
                           help="decide one sentence")
    solve.add_argument("input", help="a sentence, or a path to a file "
                                     "containing one")

    corpus = sub.add_parser("corpus", parents=[common],
                            help="run a directory of labeled sentences")
    corpus.add_argument("directory", help="directory of .sent files with "
                                          ".expect sidecars")
    return top


def _load_sentence(source: str) -> Formula:
    path = Path(source)
    text = path.read_text() if path.is_file() else source
    return parse(text)


def _tri_text(result: frozenset) -> str:
    return "".join(sorted(("T" if v else "F" for v in result), reverse=True))


def _trace_json(records: list[IterationRecord]) -> list[dict]:
    return [{"iteration": r.iteration,
             "eps": rat_str(r.eps),
             "result": _tri_text(r.result),
             "complexes": r.complexes,
             "cells_evaluated": r.cells_evaluated,
             "faces_evaluated": r.faces_evaluated,
             "degrees": r.degrees}
            for r in records]


def _report(verdict: Verdict, args) -> None:
    if args.format == "json":
        payload = {
            "outcome": verdict.outcome,
            "iterations": verdict.iterations,
            "final_eps": rat_str(verdict.final_eps),
        }
        if args.certificate:
            payload["certificate"] = (None if verdict.certificate is None
                                      else rat_str(verdict.certificate))
        if args.trace:
            payload["trace"] = _trace_json(verdict.trace)
        print(json.dumps(payload, indent=2))
        return
    print(f"{verdict.outcome} (iterations: {verdict.iterations}, "
          f"final epsilon: {rat_str(verdict.final_eps)})")
    if args.certificate:
        cert = ("none" if verdict.certificate is None
                else rat_str(verdict.certificate))
        kind = ("robustness margin" if verdict.outcome == "TRUE"
                else "separation bound")
        print(f"certificate ({kind}): {cert}")
    if args.trace:
        for r in verdict.trace:
            extra = (f"  cells evaluated: {r.cells_evaluated}"
                     f"  faces evaluated: {r.faces_evaluated}")
            if r.complexes:
                degs = ", ".join("failure" if d is None else str(d)
                                 for d in r.degrees)
                extra += f"  complexes: {r.complexes}  degrees: [{degs}]"
            print(f"  iteration {r.iteration}: eps {rat_str(r.eps)} "
                  f"-> {{{_tri_text(r.result)}}}{extra}")


def _solve(args) -> int:
    try:
        sentence = _load_sentence(args.input)
        verdict = quasi_decide(sentence, budget=args.budget, eps=args.epsilon)
    except (ParseError, DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _report(verdict, args)
    return EXIT_DECIDED if verdict.outcome != "UNKNOWN" else EXIT_UNKNOWN


def _parse_expect(text: str) -> tuple[str, int | None]:
    parts = text.strip().split()
    if len(parts) != 2 or parts[0] != "EXPECT":
        raise ValueError(f"malformed sidecar line: {text.strip()!r}")
    label, _, budget = parts[1].partition("@")
    if label not in ("TRUE", "FALSE", "UNKNOWN"):
        raise ValueError(f"unknown expected label: {label!r}")
    return label, int(budget) if budget else None


def _corpus(args) -> int:
    root = Path(args.directory)
    files = sorted(root.glob("*.sent"))
    if not files:
        print(f"error: no .sent files in {root}", file=sys.stderr)
        return EXIT_ERROR
    failures = 0
    for path in files:
        sidecar = path.with_suffix(".expect")
        if not sidecar.is_file():
            print(f"error: missing sidecar {sidecar}", file=sys.stderr)
            return EXIT_ERROR
        try:
            expected, budget = _parse_expect(sidecar.read_text())
            sentence = parse(path.read_text())
            verdict = quasi_decide(sentence,
                                   budget=budget or args.budget,
                                   eps=args.epsilon)
        except (ParseError, DomainError, ValueError) as exc:
            print(f"FAIL  {path.name}: {exc}")
            failures += 1
            continue
        ok = verdict.outcome == expected
        print(f"{'PASS' if ok else 'FAIL'}  {path.name}: expected {expected}, "
              f"got {verdict.outcome} (iteration {verdict.iterations})")
        if not ok:
            failures += 1
    print(f"{len(files) - failures}/{len(files)} passed")
    return EXIT_ERROR if failures else EXIT_DECIDED


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "solve":
        return _solve(args)
    return _corpus(args)


if __name__ == "__main__":
    sys.exit(main())
