"""Tests of the benchmark itself: tracer, oracles, deadline and inputs.

    python3 -m pytest perfbench -q
"""

import json
import statistics
import sys

import pytest

import run
import workloads
from tracer import Tracer, read_spans

sys.path.insert(0, str(run.SRC))


@pytest.fixture
def ddisc(tmp_path):
    """A fresh import of ddisc, the same way a benchmark run gets it."""
    mod, _, _, _ = run.setup("hom_grid", 0, 0.01, tmp_path / "setup")
    return mod


def _plan(workload, ops, seed=3):
    plan = workloads.generate(workload, seed, 1)
    return workloads.Plan(plan.inputs, plan.ops[:ops])


def _write(plan, directory):
    directory.mkdir()
    for name, text in plan.inputs.items():
        (directory / f"{name}.txt").write_text(text, encoding="utf-8")
    return directory


def _bindings(fn):
    return [
        (mod.__name__, key)
        for mod in Tracer()._modules()
        for key, value in vars(mod).items()
        if value is fn
    ]


def _wrapped_bindings():
    return [
        (mod.__name__, key)
        for mod in Tracer()._modules()
        for key, value in vars(mod).items()
        if callable(value) and hasattr(value, "__wrapped__")
    ]


# -- tracer ---------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them(ddisc):
    tr = Tracer()
    targets = tr.targets()
    before = {key: _bindings(fn) for key, (_, fn) in targets.items()}
    find_iso = sys.modules["ddisc.presentation"].find_isomorphism
    cover = sys.modules["ddisc.homology"].projective_cover
    assert {m for m, _ in _bindings(find_iso)} >= {
        "ddisc", "ddisc.presentation", "ddisc.classify"
    }
    assert {m for m, _ in _bindings(cover)} >= {"ddisc", "ddisc.homology", "ddisc.jordan"}
    tr.install()
    try:
        for key, (_, fn) in targets.items():
            assert _bindings(fn) == [], f"{fn.__name__} still bound unwrapped"
            for mod_name, attr in before[key]:
                wrapper = vars(sys.modules[mod_name])[attr]
                assert wrapper.__wrapped__ is fn
        assert "linalg.rank" in tr.names and "cli.main" in tr.names
        # methods and private helpers stay as they are
        assert not hasattr(sys.modules["ddisc.homology"]._proj_coords, "__wrapped__")
    finally:
        tr.uninstall()
    for key, (_, fn) in targets.items():
        assert _bindings(fn) == before[key]
    assert _wrapped_bindings() == []


def test_untraced_run_carries_no_wrappers(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("an untraced run installed the tracer")

    monkeypatch.setattr(Tracer, "install", refuse)
    assert run.main(["--workload", "hom_grid", "--seed", "1", "--seconds", "0.2"]) == 0
    assert _wrapped_bindings() == []
    result = capsys.readouterr().out.splitlines()[-1]
    assert '"correct": true' in result


@pytest.mark.parametrize(
    "workload,ops", [("classify_relabeled", 18), ("series_literal_large", 3), ("hom_grid", 8)]
)
def test_traced_and_untraced_outputs_agree(ddisc, tmp_path, workload, ops):
    plan = _plan(workload, ops)
    inputs = _write(plan, tmp_path / "inputs")
    tr = Tracer()
    tr.install()
    try:
        traced = run.measure(ddisc, plan, inputs, 60, 30.0, limit=ops, tracer=tr)
    finally:
        tr.uninstall()
    plain = run.measure(ddisc, plan, inputs, 60, 30.0, limit=ops)
    assert traced.errors == [] and plain.errors == []
    assert traced.attempted == plain.attempted == ops
    assert traced.digests == plain.digests
    # self times partition the traced time, which lies inside the wall time
    assert 0 < sum(tr.self_time) <= traced.wall
    assert sum(tr.layer_self().values()) == pytest.approx(sum(tr.self_time))
    for label in tr.names:
        calls, total, own = tr.stat(label)
        assert calls == 0 or -1e-9 <= own <= total + 1e-9


def test_spans_round_trip(ddisc, tmp_path):
    plan = _plan("hom_grid", 2)
    inputs = _write(plan, tmp_path / "inputs")
    tr = Tracer()
    tr.install()
    try:
        run.measure(ddisc, plan, inputs, 60, 30.0, limit=2, tracer=tr)
    finally:
        tr.uninstall()
    tr.write(tmp_path / "spans")
    names, cols = read_spans(tmp_path / "spans")
    assert names == tr.names
    assert len(cols["start_s"]) == len(tr.span_start) > 0
    assert set(cols["op"]) == {0, 1}
    roots = [i for i, p in enumerate(cols["parent"]) if p == -1]
    assert {names[cols["name"][i]] for i in roots} == {"cli.main", "presentation.parse_presentation",
                                                     "homology.build_string_object",
                                                     "homology.hom_table"}
    for i, parent in enumerate(cols["parent"]):
        assert cols["start_s"][i] <= cols["end_s"][i]
        if parent != -1:
            assert cols["start_s"][parent] <= cols["start_s"][i]
            assert cols["end_s"][i] <= cols["end_s"][parent]


# -- deadline and metrics -------------------------------------------------------------


def test_deadline_turns_a_slow_op_into_a_timeout(ddisc, tmp_path):
    plan = _plan("hom_long", 2)
    inputs = _write(plan, tmp_path / "inputs")
    phase = run.measure(ddisc, plan, inputs, 60, 0.05, limit=2)
    assert phase.attempted == 2
    assert [i for i, _ in phase.errors] == [0, 1]
    assert all("timeout" in msg for _, msg in phase.errors)
    assert max(phase.latencies) < 1.0


def test_tail_percentile_keeps_ten_ops_beyond():
    assert run.tail([4.0, 0.0, 2.0]) == (100.0, 4.0)
    for n in (11, 50, 999, 1000, 5000):
        lat = [float(i) for i in range(n)]
        p, value = run.tail(lat)
        assert sum(x > value for x in lat) >= 10
        assert p == pytest.approx(min(99.0, 100 * (n - 10) / n))
    assert run.tail([float(i) for i in range(1001)]) == (99.0, 990.0)


# -- inputs and oracles -------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_fixed_seed_regenerates_identical_inputs(tmp_path, workload):
    _, a, dir_a, _ = run.setup(workload, 11, 2, tmp_path / "a")
    _, b, dir_b, _ = run.setup(workload, 11, 2, tmp_path / "b")
    assert a.digest() == b.digest()
    assert a.ops == b.ops and a.stops == b.stops
    for name in a.inputs:
        run.input_file(a, dir_a, name)
        run.input_file(b, dir_b, name)
    files = sorted(p.name for p in dir_a.iterdir())
    assert files == sorted(p.name for p in dir_b.iterdir()) and files
    for name in files:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    assert workloads.generate(workload, 12, 2).digest() != a.digest()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_no_op_repeats(workload):
    plan = workloads.generate(workload, 5, 20)
    keys = [(op.command, plan.inputs[op.input], op.args) for op in plan.ops]
    assert len(set(keys)) == len(keys)


def test_gentle_trees_are_gentle_type_a(ddisc):
    import random

    rng = random.Random(0)
    for n in range(3, 14):
        for _ in range(10):
            text = workloads._text(*workloads.gentle_tree(rng, n))
            pres = ddisc.parse_presentation(text)
            assert ddisc.is_gentle(pres).gentle
            assert ddisc.cycle_count(pres) == 0 and pres.relations
            (comp,) = ddisc.lambda_normal_form(pres).components
            assert comp.type_name == f"A{n}"


def test_closed_form_factors():
    assert workloads.closed_form_factors([(2, 2, 1)]) == {"TwoTruncatedCycle(2)": 1, "K": 1}
    assert workloads.closed_form_factors([(1, 3, 2), (2, 2, 0)]) == {
        "K": 5, "TwoTruncatedCycle(2)": 1
    }


def test_oracle_rejects_wrong_answers():
    op = workloads.Op("classify", "c0", expect=workloads._lambda_expect([(2, 3, 1)], 4, 4, 2))
    report = {
        "input": {"vertices": 4, "arrows": 4, "relations": 2},
        "classification": {
            "discreteness": {"verdict": "yes"},
            "normal_form": [{"type": "Lambda", "r": 2, "s": 3, "t": 1}],
        },
    }
    assert workloads.check(op, 0, report) == ""
    assert workloads.check(op, 2, report).startswith("exit code")
    wrong = {**report, "classification": {
        "discreteness": {"verdict": "yes"},
        "normal_form": [{"type": "Lambda", "r": 1, "s": 3, "t": 1}],
    }}
    assert workloads.check(op, 0, wrong).startswith("normal form")
    factors = workloads.Op("factors", "c0", expect=op.expect)
    report["factors"] = [{"class": "K", "multiplicity": 4, "rank": 1}]
    assert workloads.check(factors, 0, report) == ""
    report["factors"] = [{"class": "K", "multiplicity": 3, "rank": 1}]
    assert workloads.check(factors, 0, report).startswith("factors: factors")

    hom = workloads.Op("hom-gf", "g2_1", ("X0", "X0", "5"),
                       workloads._hom_expect(2, 1, "X0", "X0", 5))
    assert workloads.check(hom, 0, None, [1, 0, 1, 0, 1, 0]) == ""
    assert "self table" in workloads.check(hom, 0, None, [0, 1, 0, 1, 0, 1])
    assert "vanishes" in workloads.check(hom, 0, None, [0] * 6)
    assert "periodic" in workloads.check(hom, 0, None, [1, 0, 1, 1, 1, 0])


def test_first_ops_of_every_workload_pass_their_oracle(ddisc, tmp_path):
    for workload, ops in (("classify_relabeled", 40), ("series_literal_large", 6),
                          ("hom_grid", 30), ("hom_long", 1)):
        plan = _plan(workload, ops, seed=21)
        inputs = _write(plan, tmp_path / workload)
        phase = run.measure(ddisc, plan, inputs, 60, 30.0, limit=ops)
        assert phase.errors == [], phase.errors[:3]
        assert statistics.median(phase.latencies) > 0


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_the_declared_metrics(capsys, trace, section):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())[section]
    args = ["--workload", "hom_grid", "--seed", "2", "--seconds", "0.5", "--trace", str(trace)]
    assert run.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    info = json.loads(lines[-2])["run"]
    assert info["seed"] == 2 and info["backend"] == "pure" and info["error_rate"] == 0
