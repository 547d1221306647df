"""Shared fixtures and the acceptance-summary terminal hook."""
from __future__ import annotations

import time
from pathlib import Path

import pytest
from hypothesis import settings

# a failing draw, a MemoryError included, prints the @reproduce_failure
# blob that replays it
settings.register_profile("quasisat", print_blob=True)
settings.load_profile("quasisat")

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

_acceptance_reports: dict[str, str] = {}


def corpus_entries() -> list[tuple[str, str, str, int]]:
    """(name, sentence text, expected label, expect budget) per corpus file."""
    from quasisat.cli import _parse_expect

    out = []
    for sent in sorted(CORPUS_DIR.glob("*.sent")):
        label, budget = _parse_expect(sent.with_suffix(".expect").read_text())
        out.append((sent.stem, sent.read_text(), label, 20 if budget is None else budget))
    return out


@pytest.fixture(scope="session")
def corpus_runs():
    """Budget-20 verdicts (with wall time) for every corpus sentence.

    The epsilon-halving trace at budget b is a prefix of the budget-20
    trace, so one run per sentence answers questions about all budgets.
    """
    from quasisat.parser import parse
    from quasisat.solver import quasi_decide

    runs = {}
    for name, text, label, budget in corpus_entries():
        t0 = time.monotonic()
        verdict = quasi_decide(parse(text), budget=20)
        runs[name] = (verdict, label, time.monotonic() - t0)
    return runs


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    _acceptance_reports[name] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_reports:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance_reports):
        label = name.removeprefix("test_").replace("_", " ")
        terminalreporter.write_line(f"{label}: {_acceptance_reports[name]}")
