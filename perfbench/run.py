"""Run one ddisc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hom_grid --seed 1 --seconds 25 --trace 0

Imports ddisc from ``src/`` next to this directory, generates the
workload's inputs from the seed, writes them under ``.perfbench/`` and runs
ops in a closed loop (one client, one thread, one process) for the given
number of seconds.  An op is one ``ddisc`` CLI command run in process
through ``ddisc.cli.main(argv)`` with its output captured, or, for the
GF(32003) half of ``hom_grid``, one library ``build_string_object`` +
``hom_table`` call.  Every op is checked against the oracles in
``workloads.py`` and has a deadline enforced with ``SIGALRM``.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run of the
same op list (see ``tracer.py``), and the spans are written to
``.perfbench/trace-<workload>-<seed>.spans``.  The line before it describes
the run: seed, backend, Python version, op counts and the sha256 of the
generated inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5
CAL_EVERY_S = 0.1
CAL_NOMINAL_S = 0.003
RAW_LIMIT = 1.2

# per-op deadline in seconds, about ten times the slowest op seen today
DEADLINE_S = {
    "classify_relabeled": 10.0,
    "series_literal_large": 30.0,
    "hom_grid": 5.0,
    "hom_long": 30.0,
}

# ops in a traced run per second of run length, about half today's
# throughput; a fixed count makes the per-layer counts repeat exactly for
# one seed
TRACE_OPS_PER_S = {
    "classify_relabeled": 60,
    "series_literal_large": 2.4,
    "hom_grid": 20,
    "hom_long": 0.6,
}

# traced functions and the fields reported for each
FUNCTION_METRICS = (
    ("cli.main", ("self_s",)),
    ("presentation.find_isomorphism", ("calls", "self_s")),
    ("presentation.path_basis", ("calls", "self_s")),
    ("presentation.build_lambda", ("calls", "self_s")),
    ("presentation.lambda_descriptor_of", ("calls", "self_s")),
    ("classify.lambda_normal_form", ("calls", "total_s")),
    ("classify.ag_invariant", ("calls", "self_s")),
    ("classify.is_derived_discrete", ("self_s",)),
    ("jordan.idempotent_subalgebra", ("calls", "self_s")),
    ("jordan.is_radical_projective", ("calls", "self_s")),
    ("jordan.strip_series", ("total_s",)),
    ("jordan.verify_trace", ("total_s",)),
    ("homology.resolve", ("calls", "self_s")),
    ("homology.projective_cover", ("calls", "self_s")),
    ("homology.build_string_object", ("self_s",)),
    ("homology.hom_shift_dim", ("calls", "self_s")),
    ("homology.hom_table", ("calls",)),
    ("homology.hom_table_at_margin", ("calls",)),
    ("linalg.rref", ("calls", "self_s")),
    ("linalg.left_nullspace", ("self_s",)),
    ("linalg.mat_mul", ("calls", "self_s")),
)


class OpDeadline(BaseException):
    """Raised by SIGALRM in the main thread when an op overruns its deadline.

    A BaseException, so no ``except Exception`` in the program swallows it.
    """


def _on_alarm(signum, frame):
    raise OpDeadline


def calibration_kernel():
    """Fixed pure-Python work (dicts, tuples, sorting, fractions)."""
    table = {}
    acc = Fraction(0)
    for i in range(600):
        key = (i % 37, f"v{i % 53}")
        table[key] = table.get(key, ()) + (i,)
        acc += Fraction(i % 7 + 1, i % 5 + 1)
    rows = sorted(table.items(), key=lambda kv: (len(kv[1]), kv[0]))
    return len(rows), acc


class SpeedGauge:
    """Converts op times into calibrated seconds.

    A shared machine runs the same Python code up to half again slower for
    seconds at a time.  Between ops, at most every ``CAL_EVERY_S``, the gauge
    times ``calibration_kernel`` (twice, keeping the faster).  An op's time
    is divided by the machine factor, the mean of the readings just before
    and just after it over ``CAL_NOMINAL_S``: a calibrated second is a
    second on a machine where the kernel takes ``CAL_NOMINAL_S``.
    """

    def __init__(self):
        self.readings = [self._read()]
        self.at = time.perf_counter()
        self.pending = []
        self.scaled = []

    @staticmethod
    def _read():
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            calibration_kernel()
            times.append(time.perf_counter() - t0)
        return min(times)

    def add(self, seconds):
        self.pending.append(seconds)
        if time.perf_counter() - self.at >= CAL_EVERY_S:
            self.close()

    def close(self):
        """Take a reading and scale every op timed since the last one."""
        reading = self._read()
        factor = (self.readings[-1] + reading) / 2 / CAL_NOMINAL_S
        self.scaled += [x / factor for x in self.pending]
        self.pending.clear()
        self.readings.append(reading)
        self.at = time.perf_counter()

    def factor(self):
        return statistics.median(self.readings) / CAL_NOMINAL_S

    def elapsed(self):
        """Calibrated seconds so far, ops since the last reading included."""
        return sum(self.scaled) + sum(self.pending) * CAL_NOMINAL_S / self.readings[-1]


@dataclass
class Phase:
    """Outcome of one closed-loop pass over the op list."""

    latencies: list = field(default_factory=list)  # seconds per op
    scaled: list = field(default_factory=list)  # calibrated seconds per op
    errors: list = field(default_factory=list)  # (op index, message)
    digests: list = field(default_factory=list)  # sha256 of each op's output
    machine_factor: float = 1.0

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def wall(self):
        """Seconds spent inside ops; the loop's bookkeeping is excluded."""
        return sum(self.latencies)

    @property
    def scaled_wall(self):
        return sum(self.scaled)


def _run_op(ddisc, cli, op, path):
    """Run one op with stdout and stderr captured; (exit code, stdout, table)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if op.command == "hom-gf":
            src, dst, hmax = op.args
            with open(path, encoding="utf-8") as fh:
                pres = ddisc.parse_presentation(fh.read())
            gf = ddisc.GF(workloads.GF_PRIME)
            x = ddisc.build_string_object(pres, src[0], int(src[1:]), gf)
            y = ddisc.build_string_object(pres, dst[0], int(dst[1:]), gf)
            return 0, "", list(ddisc.hom_table(pres, x, y, int(hmax)).entries)
        return cli.main([op.command, str(path), *op.args]), out.getvalue(), None


def _verify(op, rc, stdout, table, qq_tables):
    report = None
    if stdout:
        try:
            report = json.loads(stdout)
        except ValueError:
            return "output is not JSON"
    try:
        problem = workloads.check(op, rc, report, table)
    except (KeyError, TypeError, IndexError) as e:
        return f"malformed report ({type(e).__name__}: {e})"
    if problem or not op.pair:
        return problem
    dims = table if op.command == "hom-gf" else report["hom"]["dims"]
    other = qq_tables.setdefault(op.pair, dims)
    if other != dims:
        return f"QQ table {other} differs from GF({workloads.GF_PRIME}) table {dims}"
    return ""


def measure(ddisc, plan, inputs_dir, seconds, deadline, *, limit=None, tracer=None):
    """Closed loop over the op list until ``seconds`` of calibrated op time
    pass, finishing the round in progress (a pair in ``hom_grid``), so that
    every run does whole rounds of the same mix.  With ``limit`` the first
    ``limit`` ops run instead.

    Either way the loop also stops after ``RAW_LIMIT * seconds`` plain
    seconds of op time (twice that with ``limit``), so a slow machine or a
    slow program cannot push a run past its time budget.  Writing an op's
    input file, checking its output and calibrating the machine speed
    happen between ops, off the clock.
    """
    cli = sys.modules["ddisc.cli"]
    phase = Phase()
    gauge = SpeedGauge()
    qq_tables = {}
    max_wall = RAW_LIMIT * seconds * (1 if limit is None else 2)
    for i, op in enumerate(plan.ops):
        if i == limit or phase.wall >= max_wall:
            break
        if limit is None and i in plan.stops and gauge.elapsed() >= seconds:
            break
        if tracer is not None:
            tracer.op = i
        path = input_file(plan, inputs_dir, op.input)
        rc, stdout, table, error = None, "", None, ""
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                rc, stdout, table = _run_op(ddisc, cli, op, path)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpDeadline:
            error = f"timeout after {deadline} s"
        except Exception as e:  # an op that raises is a failed op, not a crash
            error = f"raised {type(e).__name__}: {e}"
        phase.latencies.append(time.perf_counter() - t0)
        gauge.add(phase.latencies[-1])
        if not error:
            error = _verify(op, rc, stdout, table, qq_tables)
        if error:
            phase.errors.append((i, f"{op.command} {op.input} {' '.join(op.args)}: {error}"))
        payload = stdout if table is None else json.dumps(table)
        phase.digests.append(hashlib.sha256(f"{rc}\n{payload}".encode()).hexdigest())
    gauge.close()
    phase.scaled = gauge.scaled
    phase.machine_factor = gauge.factor()
    return phase


def tail(latencies):
    """(percentile, value): the highest percentile, at most p99, with at
    least ten ops beyond it, interpolated between the two nearest ops; the
    maximum when there are ten ops or fewer."""
    n = len(latencies)
    if n <= 10:
        return 100.0, max(latencies)
    q = min(0.99, (n - 10) / n)
    ordered = sorted(latencies)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return 100 * q, ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def setup(workload, seed, seconds, rundir):
    """Import ddisc and generate the inputs, SETUP_REPEATS times.

    Every repeat drops ddisc from ``sys.modules`` first, so each one pays
    the import again; the last repeat's modules and plan are the ones used.
    Returns the calibrated time of each repeat.  Input files are written by
    ``measure``, just before their first op.
    """
    gauge = SpeedGauge()
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "ddisc" or m.startswith("ddisc.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        ddisc = importlib.import_module("ddisc")
        importlib.import_module("ddisc.cli")
        plan = workloads.generate(workload, seed, seconds)
        gauge.pending.append(time.perf_counter() - t0)
        gauge.close()
    inputs_dir = rundir / "inputs"
    inputs_dir.mkdir(parents=True)
    return ddisc, plan, inputs_dir, gauge.scaled


def input_file(plan, inputs_dir, name):
    """Path of an input, written on first use."""
    path = inputs_dir / f"{name}.txt"
    if not path.exists():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(plan.inputs[name])
    return path


def backend_name():
    linalg = sys.modules["ddisc.linalg"]
    # a build with a single kernel and no backend switch runs pure Python
    return linalg.backend_name() if hasattr(linalg, "backend_name") else "pure"


def end_to_end_metrics(phase, setup_times):
    """End-to-end metrics, times in calibrated seconds, and the plain
    figures behind them for the run description."""
    ok = phase.attempted - len({i for i, _ in phase.errors})
    p, tail_value = tail(phase.scaled)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (ok / phase.scaled_wall, "1/s"),
        "latency_p50_s": (statistics.median(phase.scaled), "s"),
        "latency_tail_s": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "tail_percentile": p,
        "tail_ops_beyond": sum(x > tail_value for x in phase.scaled),
        "raw_ops_per_s": ok / phase.wall,
        "raw_latency_p50_s": statistics.median(phase.latencies),
        "raw_latency_tail_s": tail(phase.latencies)[1],
        "machine_factor": phase.machine_factor,
    }
    return metrics, raw


def per_layer_metrics(tr, traced, plain):
    """Per-layer metrics of a traced phase; times in calibrated seconds,
    scaled by the phase's median machine factor."""
    out = {}
    factor = traced.machine_factor
    for label, fields in FUNCTION_METRICS:
        calls, total, own = tr.stat(label)
        values = {"calls": (calls, "count"), "total_s": (total / factor, "s"),
                  "self_s": (own / factor, "s")}
        for key in fields:
            out[f"{label}.{key}"] = values[key]
    tables = tr.stat("homology.hom_table")[0]
    margins = tr.stat("homology.hom_table_at_margin")[0]
    out["homology.margins_per_table"] = (margins / tables if tables else 0.0, "margins/table")
    rank = tr.rank
    for kind in ("qq", "gf"):
        out[f"linalg.rank.{kind}.calls"] = (rank[f"{kind}.calls"], "count")
        out[f"linalg.rank.{kind}.self_s"] = (rank[f"{kind}.self_s"] / factor, "s")
    calls = rank["qq.calls"] + rank["gf.calls"]
    out["linalg.rank.trivial_ratio"] = (rank["trivial"] / calls if calls else 0.0, "ratio")
    out["linalg.rank.cells"] = (rank["cells"], "count")
    out["linalg.rank.nnz"] = (rank["nnz"], "count")
    out["linalg.rank.density"] = (rank["nnz"] / rank["cells"] if rank["cells"] else 0.0, "ratio")
    for layer, own in tr.layer_self().items():
        out[f"layer.{layer}.self_s"] = (own / factor, "s")
    out["trace.overhead_ratio"] = (traced.scaled_wall / plain.scaled_wall, "ratio")
    return out


def dominance(workload, tr, wall):
    """Whether the layer a workload is built to exercise dominates its trace."""
    own = {label: tr.stat(label)[2] for label in tr.names}
    if workload == "classify_relabeled":
        claim = "presentation.find_isomorphism has the largest self time"
        holds = max(own, key=own.get) == "presentation.find_isomorphism"
    elif workload == "series_literal_large":
        claim = "jordan.idempotent_subalgebra + presentation.path_basis exceed any other self time"
        lead = own.get("jordan.idempotent_subalgebra", 0) + own.get("presentation.path_basis", 0)
        rest = [v for k, v in own.items()
                if k not in ("jordan.idempotent_subalgebra", "presentation.path_basis")]
        holds = lead > max(rest, default=0.0)
    elif workload == "hom_grid":
        claim = "homology.resolve + projective_cover + hom_shift_dim exceed linalg.rank"
        assembly = sum(own.get(f"homology.{f}", 0)
                       for f in ("resolve", "projective_cover", "hom_shift_dim"))
        holds = assembly > own.get("linalg.rank", 0)
    else:
        claim = "linalg.rank.qq.self_s is above half the traced wall time"
        holds = tr.rank["qq.self_s"] > wall / 2
    return {"claim": claim, "holds": holds}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ddisc" / "__init__.py").is_file():
        print(f"error: no ddisc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    rundir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        ddisc, plan, inputs_dir, setup_times = setup(
            args.workload, args.seed, args.seconds, rundir
        )
        if not ddisc.__file__.startswith(str(SRC)):
            print(f"error: imported ddisc from {ddisc.__file__}", file=sys.stderr)
            return 2
        backend = backend_name()
        if backend != "pure":
            print(f"error: linalg backend is {backend!r}, not 'pure'", file=sys.stderr)
            return 2
        deadline = DEADLINE_S[args.workload]
        # the op list and the interpreter's own objects stay alive for the
        # whole run; keep them out of the garbage collections ops trigger
        gc.collect()
        gc.freeze()
        info = {}
        if args.trace:
            ops = max(1, int(TRACE_OPS_PER_S[args.workload] * args.seconds))
            tr = Tracer()
            tr.install()
            try:
                phase = measure(ddisc, plan, inputs_dir, args.seconds, deadline,
                                limit=ops, tracer=tr)
            finally:
                tr.uninstall()
            plain = measure(ddisc, plan, inputs_dir, args.seconds, deadline,
                            limit=phase.attempted)
            for i, (a, b) in enumerate(zip(phase.digests, plain.digests)):
                if a != b:
                    phase.errors.append((i, "traced and untraced outputs differ"))
            metrics = per_layer_metrics(tr, phase, plain)
            info["dominance"] = dominance(args.workload, tr, phase.wall)
            info["spans"] = len(tr.span_start)
            info["traced_wall_s"] = phase.wall
            info["machine_factor"] = phase.machine_factor
            tr.write(WORK / f"trace-{args.workload}-{args.seed}.spans")
        else:
            phase = measure(ddisc, plan, inputs_dir, args.seconds, deadline)
            metrics, info = end_to_end_metrics(phase, setup_times)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    failed = {i for i, _ in phase.errors}
    counts = {}
    for op in plan.ops[: phase.attempted]:
        counts[op.command] = counts.get(op.command, 0) + 1
    info.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        backend=backend,
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
        inputs_sha256=plan.digest(),
        ops_generated=len(plan.ops),
        ops_attempted=phase.attempted,
        ops_by_command=counts,
        error_rate=len(failed) / phase.attempted,
        setup_samples_s=setup_times,
        deadline_s=deadline,
    )
    for i, message in phase.errors[:20]:
        print(f"op {i} failed: {message}", file=sys.stderr)
    print(json.dumps({"run": info}, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": phase.attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
