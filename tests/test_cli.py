"""Command-line interface: exit codes, output formats, corpus runner."""
import json

import pytest

from quasisat.cli import main

TRUE_S = "exists x in [0,1] . x - 1/2 = 0"
FALSE_S = "exists x in [0,1] . x - 2 = 0"
UNKNOWN_S = "exists x in [0,2] . x - 1 = 0 and x - 1 = 0"


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
    assert doc["trace"][0]["cells_evaluated"] >= 1
    assert doc["trace"][0]["faces_evaluated"] >= 0
    assert doc["trace"][-1]["result"] == "T"


def test_certificate_text_output(capsys):
    assert main(["solve", TRUE_S, "--certificate"]) == 0
    out = capsys.readouterr().out
    assert "certificate" in out and "/" in out


def test_epsilon_flag(capsys):
    assert main(["solve", TRUE_S, "--epsilon", "1/4", "--format",
                 "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["final_eps"] == "1/4"


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


def test_corpus_flags_mismatches(tmp_path, capsys):
    (tmp_path / "a.sent").write_text(TRUE_S)
    (tmp_path / "a.expect").write_text("EXPECT FALSE\n")
    assert main(["corpus", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_corpus_missing_sidecar_errors(tmp_path, capsys):
    (tmp_path / "a.sent").write_text(TRUE_S)
    assert main(["corpus", str(tmp_path)]) == 1


def test_missing_file_treated_as_inline_sentence(capsys):
    # a path that does not exist is parsed as sentence text and rejected
    assert main(["solve", "/no/such/file.sent"]) == 1
    assert capsys.readouterr().err


def test_text_trace_reports_work_counters(capsys):
    assert main(["solve", TRUE_S, "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any("cells evaluated:" in ln and "faces evaluated:" in ln
               for ln in lines[1:])


def test_workers_flag_is_gone(capsys):
    with pytest.raises(SystemExit):
        main(["solve", TRUE_S, "--workers", "2"])
