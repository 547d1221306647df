"""Command-line front end: solve one sentence or run a labeled corpus."""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .formulas import Formula
from .intervals import rat_str
from .parser import parse
from .solver import IterationRecord, Verdict, quasi_decide

EXIT_DECIDED = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_ERROR on a usage error, where argparse exits 2,
    the UNKNOWN code; the subcommand parsers are of this class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="quasisat",
        description="Quasi-decision procedure for robust bounded "
                    "first-order sentences over the reals.")
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=20,
                        help="maximum number of refinement iterations")
    common.add_argument("--epsilon", type=_rational, default=Fraction(1),
                        help="initial refinement parameter (rational)")

    solve = sub.add_parser("solve", parents=[common],
                           help="decide one sentence")
    solve.add_argument("input", help="a sentence, or a path to a file "
                                     "containing one")
    solve.add_argument("--format", choices=("text", "json"), default="text")
    solve.add_argument("--certificate", action="store_true",
                       help="report the robustness margin / separation bound")
    solve.add_argument("--trace", action="store_true",
                       help="include the per-iteration trace")

    corpus = sub.add_parser("corpus", parents=[common],
                            help="run a directory of labeled sentences")
    corpus.add_argument("directory", help="directory of .sent files with "
                                          ".expect sidecars")
    return top


def _load_sentence(source: str) -> Formula:
    path = Path(source)
    try:
        is_file = path.is_file()
    except OSError:  # e.g. an inline sentence longer than a file name
        is_file = False
    text = path.read_text() if is_file else source
    return parse(text)


def _cert_text(c: Fraction) -> str:
    """A printable margin no larger than the certificate c: min(c, 2**64),
    after rounding c down to a dyadic of 64 significant bits, and to a
    multiple of 2**-4096 (0 below it), when its numerator or denominator
    is over 256 bits.  A smaller margin is still sound, and Python
    refuses to print an integer of over 4300 digits."""
    n, d = c.numerator, c.denominator
    if max(n.bit_length(), d.bit_length()) > 256:
        # c / 2**e < 2**65
        e = max(n.bit_length() - d.bit_length() - 64, -4096)
        m = n // (d << e) if e >= 0 else (n << -e) // d
        if m.bit_length() > 64:
            m, e = m >> 1, e + 1
        c = Fraction(m) * Fraction(2) ** e
    return rat_str(min(c, Fraction(2 ** 64)))


def _tri_text(result: frozenset) -> str:
    return "".join(sorted(("T" if v else "F" for v in result), reverse=True))


def _trace_json(records: list[IterationRecord]) -> list[dict]:
    return [{name: getattr(r, name) for name in IterationRecord._fields}
            | {"eps": rat_str(r.eps), "result": _tri_text(r.result)} for r in records]


def _report(verdict: Verdict, args) -> None:
    if args.format == "json":
        payload = {
            "outcome": verdict.outcome,
            "iterations": verdict.iterations,
            "final_eps": rat_str(verdict.final_eps),
        }
        if args.certificate:
            payload["certificate"] = (None if verdict.certificate is None
                                      else _cert_text(verdict.certificate))
        if args.trace:
            payload["trace"] = _trace_json(verdict.trace)
        print(json.dumps(payload, indent=2))
        return
    print(f"{verdict.outcome} (iterations: {verdict.iterations}, "
          f"final epsilon: {rat_str(verdict.final_eps)})")
    if args.certificate:
        cert = ("none" if verdict.certificate is None
                else _cert_text(verdict.certificate))
        kind = ("robustness margin" if verdict.outcome == "TRUE"
                else "separation bound")
        print(f"certificate ({kind}): {cert}")
    if args.trace:
        for r in verdict.trace:
            extra = (f"  precision: {r.precision}"
                     f"  cells evaluated: {r.cells_evaluated}"
                     f"  cells plausible: {r.cells_plausible}"
                     f"  faces evaluated: {r.faces_evaluated}"
                     f"  zero faces: {r.zero_faces}")
            if r.complexes:
                degs = ", ".join("failure" if d is None else str(d)
                                 for d in r.degrees)
                extra += (f"  complexes: {r.complexes}  degrees: [{degs}]"
                          f"  degree subdivisions: {r.degree_subdivisions}")
            print(f"  iteration {r.iteration}: eps {rat_str(r.eps)} "
                  f"-> {{{_tri_text(r.result)}}}{extra}")


def _solve(args) -> int:
    try:
        sentence = _load_sentence(args.input)
        verdict = quasi_decide(sentence, budget=args.budget, eps=args.epsilon)
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _report(verdict, args)
    return EXIT_DECIDED if verdict.outcome != "UNKNOWN" else EXIT_UNKNOWN


def _parse_expect(text: str) -> tuple[str, int | None]:
    """The label and budget of a sidecar line `EXPECT LABEL[@budget]`;
    None when the line names no budget."""
    parts = text.strip().split()
    if len(parts) != 2 or parts[0] != "EXPECT":
        raise ValueError(f"malformed sidecar line: {text.strip()!r}")
    label, at, budget = parts[1].partition("@")
    if label not in ("TRUE", "FALSE", "UNKNOWN"):
        raise ValueError(f"unknown expected label: {label!r}")
    if at and not (budget.isdecimal() and int(budget) > 0):
        raise ValueError(f"malformed sidecar line: {text.strip()!r}: "
                         "the budget after @ must be a positive integer")
    return label, int(budget) if at else None


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
                                   budget=budget if budget is not None else args.budget,
                                   eps=args.epsilon)
        except (ValueError, OSError, RecursionError) as exc:
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
