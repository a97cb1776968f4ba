"""CLI: report schema, determinism, frozen outputs, exit codes."""

import json
import subprocess
import sys

from ddisc import TraceReport, build_lambda, parse_presentation
import ddisc.cli as cli

KRONECKER = "vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2\n"

LONG_RELATION = (
    "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
    "arrow a 1 2\narrow b 2 3\narrow c 3 4\n"
    "relation a b c\n"
)


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "ddisc.cli", *argv],
        capture_output=True,
        text=True,
    )


def test_classify_json_report():
    result = run_cli("classify", "--lambda", "2", "2", "1")
    assert result.returncode == 0 and result.stderr == ""
    report = json.loads(result.stdout)
    assert report["schema_version"] == "1"
    assert report["command"] == "classify"
    assert set(report["input"]) == {"sha256", "vertices", "arrows", "relations"}
    c = report["classification"]
    assert c["discreteness"]["verdict"] == "yes"
    assert c["gentle"]["gentle"] is True
    assert c["cycles"] == 1
    assert c["clock"] == {"with": 2, "against": 0, "satisfied": False}
    assert c["normal_form"] == [{"type": "Lambda", "r": 2, "s": 2, "t": 1}]


def test_classify_pretty_rendering():
    result = run_cli("classify", "--lambda", "2", "2", "1", "--pretty")
    assert result.returncode == 0
    assert "normal form: Lambda(2,2,1)" in result.stdout
    assert "clock: 2 with / 0 against (fails)" in result.stdout


def test_reports_are_byte_identical(tmp_path):
    first = run_cli("factors", "--lambda", "2", "3", "1")
    second = run_cli("factors", "--lambda", "2", "3", "1")
    assert first.stdout == second.stdout and first.returncode == 0
    # file input and the inline spec hash to the same canonical text
    built = run_cli("build-lambda", "2", "3", "1")
    path = tmp_path / "l231.txt"
    path.write_text(built.stdout, encoding="utf-8")
    from_file = run_cli("factors", str(path))
    assert from_file.stdout == first.stdout


def test_factors_output_is_n_independent():
    payloads = []
    for n in ("1", "2", "3", "4"):
        result = run_cli("factors", "--lambda", "2", "2", "1", "--n", n)
        assert result.returncode == 0
        payloads.append(json.loads(result.stdout)["factors"])
    assert all(p == payloads[0] for p in payloads)
    assert payloads[0] == [
        {"class": "K", "multiplicity": 1, "rank": 1},
        {"class": "TwoTruncatedCycle(2)", "multiplicity": 1, "rank": 2},
    ]


def test_hom_frozen_row():
    result = run_cli(
        "hom", "--lambda", "2", "2", "0", "--from", "X0", "--to", "X0",
        "--max-shift", "4",
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["hom"]["dims"] == [1, 0, 1, 0, 1]
    pretty = run_cli(
        "hom", "--lambda", "2", "2", "0", "--from", "X0", "--to", "X0",
        "--max-shift", "4", "--pretty",
    )
    assert "1,0,1,0,1" in pretty.stdout


def test_hom_mixed_objects():
    result = run_cli(
        "hom", "--lambda", "2", "2", "1", "--from", "Y-1", "--to", "X0",
        "--max-shift", "3",
    )
    assert result.returncode == 0
    dims = json.loads(result.stdout)["hom"]["dims"]
    assert len(dims) == 4 and all(isinstance(d, int) for d in dims)


def test_series_report_and_verification():
    result = run_cli("series", "--lambda", "1", "2", "1")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    ops = [(s["op"], s["vertex"]) for s in report["series"]["steps"]]
    assert ops == [
        ("split", ""),
        ("strip-source", "-1"),
        ("drop-radical", "0"),
        ("terminal", "1"),
    ]
    assert report["series"]["factors"] == ["K", "K", "K"]
    assert report["series"]["length"] == 3 and report["series"]["rank"] == 3
    assert report["verification"] == {"ok": True, "failures": []}


def test_build_lambda_round_trips():
    result = run_cli("build-lambda", "1", "2", "1")
    assert result.returncode == 0
    assert parse_presentation(result.stdout) == build_lambda(1, 2, 1)


def test_input_errors_exit_1(tmp_path, monkeypatch):
    assert run_cli("classify", str(tmp_path / "missing.txt")).returncode == 1
    assert run_cli("build-lambda", "3", "2", "0").returncode == 1
    assert run_cli("classify", "--lambda", "1", "2").returncode == 1
    bad_obj = run_cli(
        "hom", "--lambda", "2", "2", "0", "--from", "Z9", "--to", "X0",
        "--max-shift", "2",
    )
    assert bad_obj.returncode == 1 and "Z9" in bad_obj.stderr
    both = tmp_path / "p.txt"
    both.write_text(KRONECKER, encoding="utf-8")
    assert run_cli("classify", str(both), "--lambda", "1", "1", "0").returncode == 1
    monkeypatch.setenv("DDISC_MARGIN_CAP", "abc")
    bad_cap = run_cli(
        "hom", "--lambda", "2", "2", "1", "--from", "X0", "--to", "X1",
        "--max-shift", "2",
    )
    assert bad_cap.returncode == 1 and "Traceback" not in bad_cap.stderr
    assert "DDISC_MARGIN_CAP" in bad_cap.stderr and "'abc'" in bad_cap.stderr


def test_unknown_classifications_exit_2(tmp_path):
    kron = tmp_path / "kron.txt"
    kron.write_text(KRONECKER, encoding="utf-8")
    factors = run_cli("factors", str(kron))
    assert factors.returncode == 2 and "unknown" in factors.stderr
    assert run_cli("series", str(kron)).returncode == 2
    hom = run_cli(
        "hom", str(kron), "--from", "X0", "--to", "X0", "--max-shift", "2"
    )
    assert hom.returncode == 2
    # not gentle (length-3 relation): discreteness unknown
    mystery = tmp_path / "mystery.txt"
    mystery.write_text(LONG_RELATION, encoding="utf-8")
    classify = run_cli("classify", str(mystery))
    assert classify.returncode == 2
    assert json.loads(classify.stdout)["classification"]["discreteness"]["verdict"] == "unknown"


def test_definite_no_still_classifies(tmp_path):
    kron = tmp_path / "kron.txt"
    kron.write_text(KRONECKER, encoding="utf-8")
    result = run_cli("classify", str(kron))
    assert result.returncode == 0
    assert json.loads(result.stdout)["classification"]["discreteness"]["verdict"] == "no"


def test_failed_verification_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "verify_trace", lambda pres, trace: TraceReport(False, ("forced",))
    )
    code = cli.main(["series", "--lambda", "1", "2", "1"])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    assert report["verification"] == {"ok": False, "failures": ["forced"]}
