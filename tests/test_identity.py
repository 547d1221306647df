"""Verdicts against a checked-in golden: the outcome, iteration count and
certificate of every corpus sentence at budget 20 and of every seed-1
item of the three benchmark workloads (`bench/workloads.py`), and each
workload item's distance bracket against its perturbed copy at the
workloads' tolerance.

A change that moves any of them shows up as a diff of
`identity_golden.json`.  `trace_golden.json` pins every
`IterationRecord` field of the same runs: per sentence, the summed cell,
face, complex and subdivision counts and a sha256 of the whole trace as
canonical JSON.  To record new goldens, run this file:

    PYTHONPATH=src python tests/test_identity.py

It first prints what moved: each changed verdict line with its
certificate ratio, a summary, and per workload the changed trace lines
and the deltas of their summed counts.

The same sentences also hold the frontier that a block without
parameters carries from one iteration to the next to a reference that
builds the check tree anew at every iteration, and so carries nothing.
"""
from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

from quasisat import solver
from quasisat.cli import _trace_json
from quasisat.distance import distance_enclosure
from quasisat.intervals import rat_str
from quasisat.parser import parse
from quasisat.solver import TRI_TF, IterationRecord, prec_for, quasi_decide

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
GOLDEN = TESTS / "identity_golden.json"
TRACE_GOLDEN = TESTS / "trace_golden.json"
# the IterationRecord counts that a trace golden line sums
SUMMED = ("cells_evaluated", "cells_plausible", "faces_evaluated", "zero_faces",
          "complexes", "degree_subdivisions")


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def sentences() -> list[tuple[str, str, int, str | None]]:
    """(id, sentence text, budget, perturbed copy or None) for every
    sentence of the golden."""
    out = [(f"corpus/{sent.stem}", sent.read_text(), 20, None)
           for sent in sorted((ROOT / "corpus").glob("*.sent"))]
    for name, build in _workloads().WORKLOADS.items():
        out += [(f"{name}/{item.id}", item.text, item.budget, item.perturbed)
                for item in build(ROOT, 1)]
    return out


@functools.lru_cache(maxsize=1)
def decided() -> dict[str, tuple]:
    """(formula, verdict, perturbed copy or None) for every sentence of
    the goldens, decided once per session."""
    out = {}
    for key, text, budget, perturbed in sentences():
        f = parse(text)
        out[key] = f, quasi_decide(f, budget=budget), perturbed
    return out


def verdicts() -> dict[str, list]:
    tol = _workloads().DISTANCE_TOL
    out = {}
    for key, (f, v, perturbed) in decided().items():
        cert = None if v.certificate is None else rat_str(v.certificate)
        out[key] = [v.outcome, v.iterations, cert]
        if perturbed is not None:
            d = distance_enclosure(f, parse(perturbed), tol)
            out[key].append([rat_str(d.lo), rat_str(d.hi)])
    return out


def traces() -> dict[str, list]:
    """The summed counts of every sentence's trace and a sha256 of the
    trace as canonical JSON, every field of every record."""
    out = {}
    for key, (_, v, _) in decided().items():
        text = json.dumps(_trace_json(v.trace), sort_keys=True, separators=(",", ":"))
        out[key] = ([sum(getattr(r, name) for r in v.trace) for name in SUMMED]
                    + [hashlib.sha256(text.encode()).hexdigest()])
    return out


def dumps(table: dict[str, list]) -> str:
    """One sentence a line, so that a changed verdict is a one-line diff."""
    lines = [f"  {json.dumps(key)}: {json.dumps(row)}" for key, row in table.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_verdicts_and_certificates_match_the_golden():
    want = json.loads(GOLDEN.read_text())
    got = verdicts()
    assert list(got) == list(want)
    changed = {key: (want[key], got[key]) for key in want if got[key] != want[key]}
    assert not changed


def test_iteration_records_match_the_trace_golden():
    want = json.loads(TRACE_GOLDEN.read_text())
    got = traces()
    assert list(got) == list(want)
    changed = {key: (want[key], got[key]) for key in want if got[key] != want[key]}
    assert not changed


def test_iteration_records_keep_their_field_types():
    for key, (_, v, _) in decided().items():
        for r in v.trace:
            assert type(r.eps) is Fraction, key
            assert type(r.result) is frozenset, key
            assert all(type(getattr(r, name)) is int
                       for name in ("iteration", "precision") + SUMMED), key
            assert all(d is None or type(d) is int for d in r.degrees), key


def test_the_recorder_reports_what_moved():
    old = {"w/a": ["TRUE", 3, "1/4"], "w/b": ["FALSE", 1, "1/2"], "v/c": ["UNKNOWN", 9, None]}
    new = {"w/a": ["TRUE", 2, "1/2"], "w/b": ["FALSE", 1, "1/2"], "v/c": ["UNKNOWN", 9, None]}
    hashes = ["h"] * 3
    old_trace = {"w/a": [5, 1, 2, 0, 1, 0, "h"], "w/b": [1] * 6 + ["h"], "v/c": hashes}
    new_trace = {"w/a": [7, 1, 2, 1, 1, 0, "g"], "w/b": [1] * 6 + ["h"], "v/c": hashes}
    assert moved(old, new, old_trace, new_trace) == [
        "w/a: ['TRUE', 3, '1/4'] -> ['TRUE', 2, '1/2']  (certificate x2)",
        "1 lines changed: 0 verdicts changed, 1 decided earlier, 0 later, "
        "1 certificates up, 0 down",
        "w: 1 trace lines changed, cells_evaluated +2, cells_plausible +0, "
        "faces_evaluated +0, zero_faces +1, complexes +0, degree_subdivisions +0"]


def fresh_tree_run(f, budget: int) -> tuple[list[IterationRecord], Fraction | None]:
    """The iterations of `quasi_decide` with the check tree built anew at
    each one, so that no block starts from an earlier frontier: the trace
    and the last certificate."""
    trace, eps, cert = [], Fraction(1), None
    for i in range(1, budget + 1):
        record = IterationRecord(i, eps, TRI_TF, precision=prec_for(eps))
        record.result, cert = solver._compile(f, (), [])[1]((), record)
        trace.append(record)
        if len(record.result) == 1:
            break
        eps /= 2
    return trace, cert


def test_carried_frontiers_change_nothing_but_cells_evaluated():
    """Every record field but `cells_evaluated`, and the verdict, are
    those of the reference that carries nothing; in all the carry
    evaluates fewer blocks."""
    fields = [k for k in IterationRecord._fields if k != "cells_evaluated"]
    carried = fresh = 0
    for key, text, budget, _ in sentences():
        f, v, _ = decided()[key]
        trace, cert = fresh_tree_run(f, budget)
        assert [[getattr(r, k) for k in fields] for r in v.trace] == \
            [[getattr(r, k) for k in fields] for r in trace], key
        assert v.certificate == (cert if v.outcome != "UNKNOWN" else None), key
        carried += sum(r.cells_evaluated for r in v.trace)
        fresh += sum(r.cells_evaluated for r in trace)
    assert carried < fresh


def moved(old: dict[str, list], new: dict[str, list], old_trace: dict[str, list],
          new_trace: dict[str, list]) -> list[str]:
    """What a re-recording moves: each changed verdict line as `key: old ->
    new` with the new/old certificate ratio, a summary of verdicts,
    iterations and certificates, and per workload the changed trace lines
    and the deltas of their summed counts."""
    out, verdicts_changed, earlier, later, up, down = [], 0, 0, 0, 0, 0
    for key, row in new.items():
        was = old.get(key)
        if row == was:
            continue
        line = f"{key}: {was} -> {row}"
        if was is not None:
            verdicts_changed += was[0] != row[0]
            earlier += row[1] < was[1]
            later += row[1] > was[1]
            if was[2] is not None and row[2] is not None and was[2] != row[2]:
                ratio = Fraction(row[2]) / Fraction(was[2])
                up, down = up + (ratio > 1), down + (ratio < 1)
                line += f"  (certificate x{float(ratio):.3g})"
        out.append(line)
    out.append(f"{len(out)} lines changed: {verdicts_changed} verdicts changed, "
               f"{earlier} decided earlier, {later} later, "
               f"{up} certificates up, {down} down")
    workloads: dict[str, list] = {}
    for key, row in new_trace.items():
        was = old_trace.get(key)
        if row != was:
            counts = workloads.setdefault(key.split("/")[0], [0] + [0] * len(SUMMED))
            counts[0] += 1
            for i, (a, b) in enumerate(zip(was or [0] * len(SUMMED), row[:len(SUMMED)])):
                counts[i + 1] += b - a
    for name, (lines, *deltas) in workloads.items():
        out.append(f"{name}: {lines} trace lines changed, "
                   + ", ".join(f"{field} {d:+d}" for field, d in zip(SUMMED, deltas)))
    return out


if __name__ == "__main__":
    tables = verdicts(), traces()
    olds = [json.loads(path.read_text()) if path.exists() else {}
            for path in (GOLDEN, TRACE_GOLDEN)]
    print("\n".join(moved(olds[0], tables[0], olds[1], tables[1])))
    GOLDEN.write_text(dumps(tables[0]))
    TRACE_GOLDEN.write_text(dumps(tables[1]))
    print(f"wrote {GOLDEN} and {TRACE_GOLDEN}")
