"""CLI: report schema, determinism, frozen outputs, exit codes."""

import codecs
import gc
import json
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest

from ddisc import (
    BoundQuiverPresentation,
    TraceReport,
    build_lambda,
    parse_presentation,
    serialize_presentation,
)
from ddisc import classify, infinite_gldim_check, presentation
import ddisc.cli as cli
from test_classify import random_small_presentation, relabel

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
    ("a4_long_relation", "classify"): 2,
    ("a4_long_relation", "factors"): 2,
    ("a4_long_relation", "series"): 2,
    ("sum_kronecker_lambda_2_2_1", "factors"): 2,
    ("sum_kronecker_lambda_2_2_1", "series"): 2,
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
    assert report["schema_version"] == "2"
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


@pytest.mark.parametrize("command", ["classify", "factors", "series", "hom"])
def test_structure_is_computed_once_per_op(command, monkeypatch, capsys):
    # the link table, gentleness, the thread walk, cycles, the clock walk,
    # the components and the Lambda recognizer are cached on the
    # presentation; a gentle input proves finite dimension off its threads,
    # and only hom walks the automaton
    calls = {}

    def counted(module, name):
        compute = getattr(module, name)

        def wrapper(pres):
            calls[name] = calls.get(name, 0) + 1
            return compute(pres)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("_link_table", "_gentleness", "_thread_walk", "_betti", "_clock_walk"):
        counted(classify, name)
    for name in ("_automaton", "_components", "_lambda_descriptor"):
        counted(presentation, name)
    if command == "hom":
        argv = ["hom", "--lambda", "2", "2", "1", "--from", "Y-1", "--to", "X0"]
        argv += ["--max-shift", "4"]
        # one recognition serves both objects and the table
        expected = {"_automaton": 1, "_lambda_descriptor": 1}
    else:
        argv = [command, "--lambda", "2", "3", "1"]
        expected = dict.fromkeys(
            ("_link_table", "_gentleness", "_thread_walk", "_betti", "_clock_walk", "_components"),
            1,
        )
    assert cli.main(argv) == 0
    capsys.readouterr()
    if command == "series":
        # the series is decided on the relation set, so it walks no
        # automaton, and each corner is split into components afresh
        expected.pop("_components")
        calls.pop("_components")
    assert calls == expected


def test_no_op_folds_path_counts_it_does_not_read(monkeypatch, capsys):
    # finite dimension is proved on the automaton's edges and order, and a
    # hom op and the global dimension check read its edges only, so none of
    # them folds the count tables that only ``path_counts`` reads
    def refuse(pres):
        raise AssertionError("path counts folded")

    monkeypatch.setattr(presentation, "_counts_from_states", refuse)
    argv = ["hom", "--lambda", "2", "2", "1", "--from", "Y-1", "--to", "X0"]
    assert cli.main(argv + ["--max-shift", "4"]) == 0
    for name in ("kronecker", "d4_hereditary", "a4_long_relation"):
        code = cli.main(["classify", str(DATA / f"{name}.txt")])
        assert code == GOLDEN_NONZERO.get((name, "classify"), 0)
    capsys.readouterr()
    answers = {
        infinite_gldim_check(parse_presentation(path.read_text(encoding="utf-8")))
        for path in DATA.glob("*.txt")
    }
    assert answers == {"yes", "no"}


def test_a_relation_free_line_has_one_state_per_vertex():
    # counted, not timed: classifying A_n walks an automaton of n states
    # and n - 1 edges and folds no count table
    n = 5000
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(n - 1)]
    pres = BoundQuiverPresentation(presentation.Quiver(map(str, range(n)), arrows))
    assert classify.is_derived_discrete(pres).verdict == "yes"
    edges, order = pres._cache["automaton"]
    assert order == [(str(i), ()) for i in reversed(range(n))] and len(edges) == n
    assert sum(map(len, edges.values())) == n - 1
    assert "path_counts" not in pres._cache


def test_names_perfbench_reads_stay_bound():
    # perfbench's tracer finds these functions by identity wherever ddisc
    # binds them, and tier-1 does not run perfbench; ROADMAP item 17 (the
    # tracer reads code objects), or item 5, retires these pins
    from ddisc import homology, jordan, linalg

    assert callable(linalg.rank) and callable(homology._proj_coords)
    assert jordan.projective_cover is homology.projective_cover
    assert classify.find_isomorphism is presentation.find_isomorphism


def test_lambda_recognizer_builds_nothing(monkeypatch):
    # recognizing a literal compares it with Lambda(r,s,t)'s parts, so no
    # quiver or presentation is built to compare against
    pres = parse_presentation(presentation.serialize_presentation(build_lambda(4, 4, 3)))
    built = []
    for cls in (presentation.Quiver, BoundQuiverPresentation):
        init = cls.__init__

        def counted(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    assert build_lambda(1, 1, 0) is not None and len(built) == 2
    built.clear()
    assert presentation.lambda_descriptor_of(pres) == presentation.LambdaDescriptor(4, 4, 3)
    assert built == []


def test_emitter_matches_json_dumps(capsys):
    # every golden report, and a hom report, re-emitted byte for byte
    texts = [out.read_text(encoding="utf-8") for out in sorted(DATA.glob("*.out"))]
    argv = ["hom", "--lambda", "3", "3", "2", "--from", "X1", "--to", "Y-2"]
    assert cli.main(argv + ["--max-shift", "6"]) == 0
    texts.append(capsys.readouterr().out)
    reports = [json.loads(text) for text in texts if text]
    assert reports[-1]["hom"]["dims"] and len(reports) > 30
    for report, text in zip(reports, filter(None, texts)):
        assert cli._json(report) + "\n" == text
        assert cli._json(report) == json.dumps(report, indent=2, sort_keys=True)
    # a type json would print differently, or not at all, fails loudly
    for odd in (1.5, {"x": [1, 2.0]}, {1: "int key"}, {"s": {1, 2}}):
        with pytest.raises(TypeError):
            cli._json(odd)


def test_ops_leave_no_presentation_to_the_cycle_collector(capsys):
    # a cached value that refers back to its presentation would keep every
    # presentation of an op alive until the cycle collector runs
    def alive():
        return sum(isinstance(o, BoundQuiverPresentation) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = alive()
        for command in ("classify", "factors", "series"):
            assert cli.main([command, "--lambda", "2", "3", "1"]) == 0
        argv = ["hom", "--lambda", "2", "2", "1", "--from", "Y-1", "--to", "X0"]
        assert cli.main(argv + ["--max-shift", "4"]) == 0
        after = alive()
    finally:
        gc.enable()
    capsys.readouterr()
    assert after == before


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


def test_input_errors_exit_1(tmp_path):
    assert run_cli("classify", str(tmp_path / "missing.txt")).returncode == 1
    assert run_cli("build-lambda", "3", "2", "0").returncode == 1
    assert run_cli("classify", "--lambda", "1", "2").returncode == 1
    bad_obj = run_cli(
        "hom", "--lambda", "2", "2", "0", "--from", "Z9", "--to", "X0",
        "--max-shift", "2",
    )
    assert bad_obj.returncode == 1 and "Z9" in bad_obj.stderr
    # a trailing newline is no part of an object name
    newline_obj = run_cli(
        "hom", "--lambda", "2", "2", "1", "--from", "X1\n", "--to", "X0",
        "--max-shift", "2",
    )
    assert newline_obj.returncode == 1 and "'X1\\n'" in newline_obj.stderr
    assert "Traceback" not in newline_obj.stderr
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
    # a shift no table can hold is refused with the bound, not a traceback
    for shift in ("99999999999999999999999", "1000000000000"):
        huge = run_cli(
            "hom", "--lambda", "2", "2", "0", "--from", "X0", "--to", "X1",
            "--max-shift", shift,
        )
        assert huge.returncode == 1 and "Traceback" not in huge.stderr, shift
        assert "--max-shift must be at most 1000000" in huge.stderr
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


@pytest.mark.parametrize("command", ["classify", "factors", "series"])
def test_a_byte_order_mark_changes_no_report(command, tmp_path, capsys):
    # a file saved with a UTF-8 byte order mark reads as the same
    # presentation, so its report, the input's sha256 too, keeps every byte
    for path in sorted(DATA.glob("*.txt")):
        marked = tmp_path / path.name
        marked.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        reports = []
        for source in (path, marked):
            code = cli.main([command, str(source)])
            reports.append((code, capsys.readouterr()))
        assert reports[0] == reports[1], path.name


def test_a_byte_order_mark_keeps_error_offsets(tmp_path, capsys):
    # the offset of a byte that is not UTF-8 counts the mark's three bytes
    marked = tmp_path / "marked.txt"
    marked.write_bytes(codecs.BOM_UTF8 + b"vertex 1\nvertex \xff\n")
    assert cli.main(["classify", str(marked)]) == 1
    assert "not UTF-8 text (byte offset 19)" in capsys.readouterr().err


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


def test_hom_refusals_say_why():
    # a relabeled Lambda(3,3,1) classifies, but X/Y names are keyed to the
    # literal labelling; over Lambda(r,s,t) with r < s there are no such objects
    relabeled = str(DATA / "relabeled_3_3_1.txt")
    for argv, reasons in [
        ([relabeled], ("literal labelling", "`ddisc build-lambda`")),
        (["--lambda", "1", "2", "0"], ("this input is Lambda(1,2,0) with r < s",)),
    ]:
        result = run_cli("hom", *argv, "--from", "X0", "--to", "X0", "--max-shift", "2")
        assert result.returncode == 2 and result.stdout == ""
        assert all(reason in result.stderr for reason in reasons), result.stderr
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "spec,message",
    [
        ("X-0", " is not of the form X<p> or Y<q>"),
        ("X01", " is not of the form X<p> or Y<q>"),
        ("Y-01", " is not of the form X<p> or Y<q>"),
        ("Y-0", " is not of the form X<p> or Y<q>"),
        ("X+1", " is not of the form X<p> or Y<q>"),
        ("X-1", ": index -1 outside 0..1"),
        ("Y0", ": index 0 outside -1..-1"),
        ("X2", ": index 2 outside 0..1"),
    ],
)
def test_hom_object_indices_are_written_as_integers_print(spec, message, capsys):
    # over Lambda(2,2,1): an index other than str(int) of itself names no
    # object, and a well-formed one outside the ranges keeps its message
    for objects in (["--from", spec, "--to", "X0"], ["--from", "X0", "--to", spec]):
        argv = ["hom", "--lambda", "2", "2", "1", *objects, "--max-shift", "2"]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", f"error: object {spec!r}{message}\n")


def test_hom_checks_max_shift_before_it_reads_the_input(tmp_path, capsys):
    # a bad shift exits 1 on every input, also on those whose objects the
    # library refuses (exit 2): a relabeled Lambda(2,2,1) and Lambda(1,2,0)
    relabeled = tmp_path / "relabeled_2_2_1.txt"
    relabeled.write_text(
        presentation.serialize_presentation(
            relabel(build_lambda(2, 2, 1), random.Random(1))
        ),
        encoding="utf-8",
    )
    inputs = [str(relabeled)], ["--lambda", "1", "2", "0"], ["--lambda", "2", "2", "0"]
    cap = cli._MAX_SHIFT
    for shift, message in [
        ("-1", "--max-shift must be nonnegative"),
        (str(cap + 1), f"--max-shift must be at most {cap}"),
    ]:
        for argv in inputs:
            objects = ["--from", "X0", "--to", "X0"]
            code = cli.main(["hom", *argv, *objects, "--max-shift", shift])
            out, err = capsys.readouterr()
            assert (code, out, err) == (1, "", f"error: {message}\n"), argv


def random_presentation_text(rng):
    """A draw of ``random_small_presentation`` with up to two more random
    relations of length 3 or 4, finite dimensional or not, as text."""
    pres = random_small_presentation(rng)
    quiver, relations = pres.quiver, {rel.arrows for rel in pres.relations}
    for _ in range(rng.randint(0, 2)):
        at, word = rng.choice(quiver.vertices), []
        for _ in range(rng.randint(3, 4)):
            outs = quiver.arrows_from(at)
            if not outs:
                break
            word.append(rng.choice(outs))
            at = quiver.target(word[-1])
        if len(word) > 1:
            relations.add(tuple(word))
    return serialize_presentation(BoundQuiverPresentation(quiver, sorted(relations)))


def test_random_presentations_exit_0_1_or_2_and_series_agrees_with_factors(
    tmp_path, capsys
):
    rng = random.Random(3)
    path = tmp_path / "input.txt"
    codes = Counter()
    for _ in range(1000):
        text = random_presentation_text(rng)
        path.write_text(text, encoding="utf-8")
        outs = {}
        for command in ("classify", "factors", "series"):
            code = cli.main([command, str(path)])
            outs[command] = code, capsys.readouterr().out
        triple = tuple(code for code, _ in outs.values())
        assert set(triple) <= {0, 1, 2}, text
        assert (triple[1] == 0) == (triple[2] == 0), text
        if triple[2] == 0:
            factors = json.loads(outs["factors"][1])["factors"]
            series = json.loads(outs["series"][1])["series"]["factors"]
            assert Counter(series) == {f["class"]: f["multiplicity"] for f in factors}, text
        codes[triple] += 1
    assert codes == {(0, 0, 0): 235, (0, 2, 2): 90, (1, 1, 1): 167, (2, 2, 2): 508}


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


def test_a_huge_inline_lambda_is_refused_before_it_is_built():
    cap = cli._MAX_LAMBDA_RANK
    for argv in (
        ["build-lambda", "1", str(cap), "1"],
        ["classify", "--lambda", "1", str(cap + 1), "0"],
    ):
        result = run_cli(*argv)
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr == f"error: Lambda(r,s,t) needs s + t at most {cap}\n"
    # parameters outside the family keep their own message
    result = run_cli("build-lambda", "0", str(2 * cap), "0")
    assert result.returncode == 1 and "need 1 <= r <= s" in result.stderr
    result = run_cli("build-lambda", "1", "2", "1")
    assert result.returncode == 0 and result.stdout.startswith("vertex -1\n")


def test_an_op_searches_components_once_and_builds_no_relation_path(
    monkeypatch, tmp_path, capsys
):
    # the parts of a sum are marked connected when found, and a gentle
    # input is decided on relation names: no Path is made
    connected = tmp_path / "connected.txt"
    connected.write_text(
        presentation.serialize_presentation(build_lambda(2, 5, 2)), encoding="utf-8"
    )
    two_summands = DATA / "sum_relabeled_2_2_1_literal_1_3_0.txt"
    searched, built = [], []
    components, init = presentation._components, presentation.Path.__init__

    def counted_components(pres):
        searched.append(pres)
        return components(pres)

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(presentation, "_components", counted_components)
    monkeypatch.setattr(presentation.Path, "__init__", counted_init)
    for path in (connected, two_summands):
        for command in ("classify", "factors"):
            searched.clear()
            assert cli.main([command, str(path)]) == 0
            assert len(searched) == 1, (path.name, command)
        # a series searches each working copy it edits, but makes no Path
        assert cli.main(["series", str(path)]) == 0
    assert built == []
    capsys.readouterr()
