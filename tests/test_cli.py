"""Command-line interface: exit codes, output formats, corpus runner."""
import json
import shlex
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quasisat import cli, solver
from quasisat.cli import main
from quasisat.solver import IterationRecord

from conftest import CORPUS_DIR
from test_parser import DEEP_FORMULAS

TRUE_S = "exists x in [0,1] . x - 1/2 = 0"
FALSE_S = "exists x in [0,1] . x - 2 = 0"
UNKNOWN_S = "exists x in [0,2] . x - 1 = 0 and x - 1 = 0"
# at eps 1 the root sits on the face between the grid's two cells
JOINED_S = "exists x in [0,2] . x - 1 = 0"
# TRUE with a margin of about 2^1000000, resp. about 3^-100000
HUGE_S = "exists x in [2,3] . x^1000000 - 5 >= 0"
TINY_S = "exists x in [1/3,1/2] . x^100000 >= 0"


def test_exit_codes(capsys):
    assert main(["solve", TRUE_S]) == 0
    assert "TRUE" in capsys.readouterr().out
    assert main(["solve", FALSE_S]) == 0
    assert "FALSE" in capsys.readouterr().out
    assert main(["solve", UNKNOWN_S, "--budget", "3"]) == 2
    assert "UNKNOWN" in capsys.readouterr().out


def test_parse_error_exits_one(capsys):
    assert main(["solve", "exists x in [0,1] . x +"]) == 1
    err = capsys.readouterr().err
    assert "1:" in err


def test_out_of_class_sentence_exits_one(capsys):
    assert main(["solve", "exists x in [0,1], y in [0,1] . x - y = 0"]) == 1
    assert capsys.readouterr().err


def test_json_output_round_trips(capsys):
    assert main(["solve", TRUE_S, "--format", "json", "--certificate",
                 "--trace"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "TRUE"
    num, den = doc["certificate"].split("/")
    assert int(num) > 0 and int(den) > 0
    assert doc["trace"][0]["eps"] == "1/1"
    assert doc["trace"][0]["precision"] == 3  # 2^3 >= 8/eps
    assert doc["trace"][0]["cells_evaluated"] >= 1
    assert doc["trace"][0]["cells_plausible"] >= 1
    assert doc["trace"][0]["faces_evaluated"] >= 0
    assert all(r["degree_subdivisions"] == 0 for r in doc["trace"])
    assert doc["trace"][-1]["result"] == "T"
    assert doc["trace"][-1]["degrees"] == [1]
    assert main(["solve", JOINED_S, "--format", "json", "--trace"]) == 0
    (record,) = json.loads(capsys.readouterr().out)["trace"]
    assert record["cells_plausible"] == 2 and record["zero_faces"] == 1


def test_json_trace_keys_are_the_iteration_record_fields(capsys):
    """A counter added to `IterationRecord` shows up in the JSON trace."""
    assert main(["solve", TRUE_S, "--format", "json", "--trace"]) == 0
    trace = json.loads(capsys.readouterr().out)["trace"]
    assert [list(r) for r in trace] == [list(IterationRecord.__slots__)] * len(trace)


def test_certificate_text_output(capsys):
    assert main(["solve", TRUE_S, "--certificate"]) == 0
    out = capsys.readouterr().out
    assert "certificate" in out and "/" in out


@pytest.mark.parametrize("text, cert", [(HUGE_S, "18446744073709551616/1"), (TINY_S, "0/1")])
def test_certificates_too_long_to_print_print_a_smaller_margin(capsys, text, cert):
    assert main(["solve", text, "--certificate"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"certificate (robustness margin): {cert}"
    assert main(["solve", text, "--certificate", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"] == cert


@given(st.integers(min_value=1, max_value=2 ** 700), st.integers(min_value=1, max_value=2 ** 700))
def test_printed_certificate_is_a_lower_bound_of_64_bits(n, d):
    """Up to 256 bits the printed margin is min(c, 2**64) exactly; past
    them it is c rounded down to 64 significant bits, then capped."""
    c = Fraction(n, d)
    num, den = map(int, cli._cert_text(c).split("/"))
    got = Fraction(num, den)
    if max(c.numerator.bit_length(), c.denominator.bit_length()) <= 256:
        assert got == min(c, 2 ** 64)
    else:
        assert got <= c
        assert got == 2 ** 64 or (got.numerator.bit_length() <= 64 and c - got < c / 2 ** 63)


def test_epsilon_flag(capsys):
    assert main(["solve", TRUE_S, "--epsilon", "1/4", "--format",
                 "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["final_eps"] == "1/4"


def test_epsilon_that_is_not_a_rational_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["solve", TRUE_S, "--epsilon", "abc"])
    assert e.value.code == 1
    assert "not a rational: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "corpus"])
def test_a_mistyped_flag_exits_one_not_the_unknown_code(tmp_path, capsys, command):
    """A usage error is an error (1), which a script can tell from an
    UNKNOWN verdict (2); `--help` still exits 0."""
    target = TRUE_S if command == "solve" else str(tmp_path)
    with pytest.raises(SystemExit) as e:
        main([command, "--budgte", "3", target])
    assert e.value.code == 1
    assert "unrecognized arguments: --budgte" in capsys.readouterr().err
    with pytest.raises(SystemExit) as e:
        main([command, "--help"])
    assert e.value.code == 0


def test_sentence_from_file(tmp_path, capsys):
    p = tmp_path / "s.sent"
    p.write_text(TRUE_S + "\n")
    assert main(["solve", str(p)]) == 0
    assert "TRUE" in capsys.readouterr().out


def test_corpus_runner(tmp_path, capsys):
    (tmp_path / "a.sent").write_text(TRUE_S)
    (tmp_path / "a.expect").write_text("EXPECT TRUE\n")
    (tmp_path / "b.sent").write_text(FALSE_S)
    (tmp_path / "b.expect").write_text("EXPECT FALSE\n")
    (tmp_path / "c.sent").write_text(UNKNOWN_S)
    (tmp_path / "c.expect").write_text("EXPECT UNKNOWN@3\n")
    assert main(["corpus", str(tmp_path), "--budget", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "3/3 passed" in out


@pytest.mark.parametrize("flags", [["--trace"], ["--certificate"], ["--format", "json"]])
def test_output_flags_belong_to_solve_only(tmp_path, capsys, flags):
    """The corpus runner prints one line per sentence and reads no output
    flag, so it rejects each with argparse's usage error; `solve` takes
    all three."""
    (tmp_path / "a.sent").write_text(TRUE_S)
    (tmp_path / "a.expect").write_text("EXPECT TRUE\n")
    with pytest.raises(SystemExit) as exit_:
        main(["corpus", str(tmp_path), *flags])
    assert exit_.value.code == 1
    assert "unrecognized arguments: " + " ".join(flags) in capsys.readouterr().err
    assert main(["solve", TRUE_S, "--format", "json", "--certificate", "--trace"]) == 0
    assert json.loads(capsys.readouterr().out).keys() >= {"certificate", "trace"}


def test_corpus_flags_mismatches(tmp_path, capsys):
    (tmp_path / "a.sent").write_text(TRUE_S)
    (tmp_path / "a.expect").write_text("EXPECT FALSE\n")
    assert main(["corpus", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


@pytest.mark.parametrize("suffix", ["@0", "@", "@-2", "@x", "@1.5"])
def test_corpus_sidecar_without_a_positive_budget_fails(tmp_path, capsys, suffix):
    """A budget after @ must be a positive integer: `UNKNOWN@0` or a bare
    `@` is a malformed sidecar, not the default budget."""
    (tmp_path / "a.sent").write_text(UNKNOWN_S)
    (tmp_path / "a.expect").write_text(f"EXPECT UNKNOWN{suffix}\n")
    assert main(["corpus", str(tmp_path), "--budget", "3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  a.sent: malformed sidecar line" in out and "0/1 passed" in out
    with pytest.raises(ValueError, match="positive integer"):
        cli._parse_expect(f"EXPECT UNKNOWN{suffix}")


@pytest.mark.parametrize("line, fault", [
    ("EXPECT TRUE FALSE", "malformed sidecar line: 'EXPECT TRUE FALSE'"),
    ("EXPECT MAYBE", "unknown expected label: 'MAYBE'"),
], ids=["malformed", "unknown_label"])
def test_corpus_bad_sidecar_fails_its_entry(tmp_path, capsys, line, fault):
    (tmp_path / "a.sent").write_text(TRUE_S)
    (tmp_path / "a.expect").write_text(line + "\n")
    (tmp_path / "b.sent").write_text(TRUE_S)
    (tmp_path / "b.expect").write_text("EXPECT TRUE\n")
    assert main(["corpus", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"FAIL  a.sent: {fault}" in out and "PASS  b.sent:" in out
    assert "1/2 passed" in out


def test_corpus_without_sentences_errors(tmp_path, capsys):
    (tmp_path / "a.expect").write_text("EXPECT TRUE\n")
    assert main(["corpus", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: no .sent files in {tmp_path}\n"


def test_corpus_missing_sidecar_errors(tmp_path, capsys):
    (tmp_path / "a.sent").write_text(TRUE_S)
    assert main(["corpus", str(tmp_path)]) == 1


def test_corpus_unreadable_entry_fails_without_traceback(tmp_path, capsys):
    # a directory named like a sentence cannot be read: a FAIL line, and
    # the run goes on to the next entry
    (tmp_path / "a.sent").mkdir()
    (tmp_path / "a.expect").write_text("EXPECT TRUE\n")
    (tmp_path / "b.sent").write_text(TRUE_S)
    (tmp_path / "b.expect").write_text("EXPECT TRUE\n")
    assert main(["corpus", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL  a.sent:" in out and "PASS  b.sent:" in out
    assert "1/2 passed" in out


def test_missing_file_treated_as_inline_sentence(capsys):
    # a path that does not exist is parsed as sentence text and rejected
    assert main(["solve", "/no/such/file.sent"]) == 1
    assert capsys.readouterr().err
    # longer than the file-name limit: the probe fails, the text is inline
    long_s = "exists x in [0,1] . x - 0.5 = 0" + " and x + 1 >= 0" * 18
    assert len(long_s) > 255 and "/" not in long_s
    assert main(["solve", long_s]) == 0
    assert "TRUE" in capsys.readouterr().out


@pytest.mark.parametrize("term", ["+".join(["x"] * 1200),
                                  "(" * 1200 + "x" + ")" * 1200],
                         ids=["sum_1200", "parens_1200"])
def test_deep_terms_exit_one_without_traceback(tmp_path, capsys, term):
    p = tmp_path / "deep.sent"
    p.write_text(f"exists x in [0,2] . {term} - 1 = 0\n")
    assert main(["solve", str(p)]) == 1
    assert "term nested too deeply" in capsys.readouterr().err
    (tmp_path / "deep.expect").write_text("EXPECT TRUE\n")
    assert main(["corpus", str(tmp_path)]) == 1
    assert "FAIL  deep.sent" in capsys.readouterr().out


@pytest.mark.parametrize("text", DEEP_FORMULAS.values(), ids=DEEP_FORMULAS.keys())
def test_deep_formulas_exit_one_without_traceback(tmp_path, capsys, text):
    p = tmp_path / "deep.sent"
    p.write_text(text + "\n")
    assert main(["solve", str(p)]) == 1
    err = capsys.readouterr().err
    assert "formula nested too deeply" in err and "Traceback" not in err


def test_a_sentence_whose_low_precision_enclosures_leave_the_domain_is_solved(capsys):
    """sin(x) on [1/1000,1] excludes zero at the parser's precision but
    not at iteration 1's, which leaves that box undecided, not an error."""
    assert main(["solve", "exists x in [1/1000,1] . 1/sin(x) - 2 = 0"]) == 0
    assert capsys.readouterr().out.startswith("TRUE")


def test_text_trace_prints_a_degree_failure(capsys, monkeypatch):
    monkeypatch.setattr(solver, "degree", lambda *args, **kwargs: None)
    assert main(["solve", TRUE_S, "--budget", "2", "--trace"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("UNKNOWN") and len(lines) == 3
    assert all("complexes: 1  degrees: [failure]" in ln for ln in lines[1:])


def test_recursion_while_solving_is_reported(tmp_path, capsys, monkeypatch):
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "quasi_decide", too_deep)
    assert main(["solve", TRUE_S]) == 1
    assert "error: maximum recursion depth" in capsys.readouterr().err
    (tmp_path / "a.sent").write_text(TRUE_S)
    (tmp_path / "a.expect").write_text("EXPECT TRUE\n")
    assert main(["corpus", str(tmp_path)]) == 1
    assert "FAIL  a.sent: maximum recursion depth" in capsys.readouterr().out


def test_text_trace_reports_work_counters(capsys):
    assert main(["solve", TRUE_S, "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any("cells evaluated:" in ln and "faces evaluated:" in ln
               for ln in lines[1:])
    assert any("degrees: [1]" in ln and "degree subdivisions: 0" in ln
               for ln in lines[1:])
    assert main(["solve", JOINED_S, "--trace"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert "precision: 3" in line
    assert "cells plausible: 2" in line and "zero faces: 1" in line


def test_workers_flag_is_gone(capsys):
    with pytest.raises(SystemExit):
        main(["solve", TRUE_S, "--workers", "2"])


def _readme_solve_examples() -> list[tuple[str, str]]:
    """Each README `quasisat solve` line that a `# ...` line follows,
    with that comment: the first line the command prints."""
    lines = (CORPUS_DIR.parent / "README.md").read_text().splitlines()
    return [(cmd, out[2:]) for cmd, out in zip(lines, lines[1:])
            if cmd.startswith("quasisat solve ") and out.startswith("# ")]


@pytest.mark.parametrize("command, first_line", _readme_solve_examples())
def test_readme_solve_examples_print_what_they_claim(command, first_line, capsys):
    main(shlex.split(command)[1:])
    assert capsys.readouterr().out.splitlines()[0] == first_line


def test_readme_has_solve_examples_with_output():
    assert _readme_solve_examples()
