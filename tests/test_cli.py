"""CLI: report schema, determinism, frozen outputs, exit codes."""

import json
import pathlib
import subprocess
import sys

import pytest

from ddisc import TraceReport, build_lambda, parse_presentation
import ddisc.cli as cli

DATA = pathlib.Path(__file__).parent / "data"

# exit code per golden input and command; every other pair exits 0
GOLDEN_NONZERO = {
    ("kronecker", "factors"): 2,
    ("kronecker", "series"): 2,
    ("balanced_square", "factors"): 2,
    ("balanced_square", "series"): 2,
    ("two_cycles", "classify"): 2,
    ("two_cycles", "factors"): 2,
    ("two_cycles", "series"): 2,
}

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


@pytest.mark.parametrize("command", ["classify", "factors", "series"])
@pytest.mark.parametrize("name", sorted(p.stem for p in DATA.glob("*.txt")))
def test_reports_match_golden_files(name, command, capsys):
    # the .out files hold the reports of an earlier release, frozen
    code = cli.main([command, str(DATA / f"{name}.txt")])
    assert code == GOLDEN_NONZERO.get((name, command), 0)
    expected = (DATA / f"{name}.{command}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_optimized_interpreter_prints_the_same_series():
    # checks must not be asserts, which python -O strips
    plain = run_cli("series", "--lambda", "3", "5", "2")
    optimized = subprocess.run(
        [sys.executable, "-O", "-m", "ddisc.cli", "series", "--lambda", "3", "5", "2"],
        capture_output=True,
        text=True,
    )
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout and optimized.stderr == ""


def test_optimized_interpreter_prints_the_same_hom():
    argv = ["hom", "--lambda", "2", "2", "2", "--from", "Y-2", "--to", "X1", "--max-shift", "8"]
    plain = run_cli(*argv)
    optimized = subprocess.run(
        [sys.executable, "-O", "-m", "ddisc.cli", *argv],
        capture_output=True,
        text=True,
    )
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout and optimized.stderr == ""


def test_in_process_calls_share_no_parser_state(capsys):
    assert cli._parser() is cli._parser()
    lam = ["--lambda", "2", "2", "1"]
    assert cli.main(["factors", *lam, "--n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 3
    assert cli.main(["factors", *lam, "--n", "0"]) == 1
    capsys.readouterr()
    assert cli.main(["factors", *lam]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 1
    with pytest.raises(SystemExit) as bad_flag:
        cli.main(["factors", *lam, "--bogus"])
    assert bad_flag.value.code == 1
    assert cli.main(["classify", *lam]) == 0


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
    # well-formed objects outside the index ranges of Lambda(2,2,1) and
    # Lambda(2,2,0), and a recollement depth below 1, are bad arguments too
    for lam, src, dst in [
        ("1", "X7", "X0"),
        ("1", "X0", "X2"),
        ("1", "Y-2", "X0"),
        ("1", "X-1", "X0"),
        ("0", "Y-1", "X0"),
    ]:
        out_of_range = run_cli(
            "hom", "--lambda", "2", "2", lam, "--from", src, "--to", dst,
            "--max-shift", "2",
        )
        assert out_of_range.returncode == 1, (lam, src, dst)
        assert "Traceback" not in out_of_range.stderr
    for depth in ("-3", "0"):
        bad_n = run_cli("factors", "--lambda", "2", "2", "1", "--n", depth)
        assert bad_n.returncode == 1 and "--n" in bad_n.stderr
    not_utf8 = tmp_path / "latin.txt"
    not_utf8.write_bytes(b"vertex 1\nvertex \xff\xfe\n")
    decoded = run_cli("classify", str(not_utf8))
    assert decoded.returncode == 1 and "Traceback" not in decoded.stderr
    assert "latin.txt" in decoded.stderr and "byte offset 16" in decoded.stderr
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n\n", encoding="utf-8")
    for command in ("classify", "factors", "series"):
        result = run_cli(command, str(empty))
        assert result.returncode == 1 and "no vertex declared" in result.stderr
        assert result.stdout == "" and "Traceback" not in result.stderr
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
