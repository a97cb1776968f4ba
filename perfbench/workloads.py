"""Seeded inputs and output oracles for the ddisc benchmark workloads.

Nothing here imports ddisc.  The generators write presentation text
directly, so the program under test only ever sees the generated files,
and the oracles check its reports against closed forms:

* ``Lambda(r,s,t)``, relabeled or literal, has normal form ``(r,s,t)`` and
  factors ``TwoTruncatedCycle(s) + K^t`` when ``r == s``, ``K^(s+t)``
  otherwise; ``series`` must verify and emit the same multiset.
* A gentle tree on n vertices is derived equivalent to ``A_n``.
* The Kronecker quiver and the balanced square are not derived discrete;
  a gentle quiver with two independent cycles is ``unknown``.
* A hom table between string objects over ``Lambda(s,s,t)`` is nonzero
  somewhere and s-periodic from ``h = t`` on; a self table is 1 exactly at
  the multiples of s.

A workload is a list of ops over a dict of named input texts.  Every op
names one input file and one command; no op appears twice in a list.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field

GF_PRIME = 32003

# exit codes of the ddisc CLI
EXIT_OK, EXIT_UNKNOWN = 0, 2

# expected exit code per input kind and command
EXPECT_RC = {
    "lambda": {"classify": EXIT_OK, "factors": EXIT_OK, "series": EXIT_OK},
    "tree": {"classify": EXIT_OK, "factors": EXIT_OK, "series": EXIT_OK},
    "kronecker": {"classify": EXIT_OK, "factors": EXIT_UNKNOWN, "series": EXIT_UNKNOWN},
    "square": {"classify": EXIT_OK, "factors": EXIT_UNKNOWN, "series": EXIT_UNKNOWN},
    "two_cycles": {"classify": EXIT_UNKNOWN, "factors": EXIT_UNKNOWN, "series": EXIT_UNKNOWN},
}


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    ``command`` is a ddisc CLI command, or ``"hom-gf"`` for the library
    ``build_string_object(..., GF(32003))`` + ``hom_table`` call.  ``args``
    are the extra CLI arguments (for ``hom-gf``: source, target, hmax).
    ``expect`` is what the oracle checks; ``pair`` links the QQ and GF
    tables of one ordered pair in ``hom_grid``.
    """

    command: str
    input: str
    args: tuple = ()
    expect: dict = field(default_factory=dict, compare=False, hash=False)
    pair: str = ""


@dataclass
class Plan:
    inputs: dict  # name -> presentation text
    ops: list
    stops: set = field(default_factory=set)  # op indices where a round starts

    def digest(self) -> str:
        """sha256 over the canonical serialization of every generated input."""
        h = hashlib.sha256()
        for op in self.ops:
            row = [op.command, op.input, list(op.args), self.inputs[op.input]]
            h.update(json.dumps(row, sort_keys=True).encode("utf-8") + b"\n")
        return h.hexdigest()


# -- presentation text ----------------------------------------------------------


def _text(vertices, arrows, relations) -> str:
    lines = [f"vertex {v}" for v in vertices]
    lines += [f"arrow {a} {u} {w}" for a, u, w in arrows]
    lines += ["relation " + " ".join(rel) for rel in relations]
    return "\n".join(lines) + "\n"


def lambda_parts(r, s, t, offset=0):
    """Vertices, arrows and relations of Lambda(r,s,t), named as ddisc does.

    A nonzero ``offset`` renames vertex q to q + offset (and arrow ``a<q>``
    to ``a<q+offset>``), which keeps the numeric order of the vertices.
    """
    verts = [str(q + offset) for q in range(-t, s)]
    arrows = [(f"a{q + offset}", str(q + offset), str(q + 1 + offset)) for q in range(-t, 0)]
    arrows += [
        (f"a{p + offset}", str(p + offset), str((p + 1) % s + offset)) for p in range(s)
    ]
    rels = [(f"a{p + offset}", f"a{(p + 1) % s + offset}") for p in range(s - r, s)]
    return verts, arrows, rels


def _relabel(rng, verts, arrows, rels, order=None):
    """Shuffle vertex names, vertex order, arrow names and arrow order.

    Names are drawn from a range much wider than the input, so that even
    the two-vertex controls rarely come out the same twice.  With ``order``,
    vertex i gets the ``order[i]``-th smallest of the drawn names, so the
    names sort in that order whatever the draw.
    """
    vnames = [f"v{i}" for i in rng.sample(range(1000), len(verts))]
    if order is not None:
        vnames.sort()
        vnames = [vnames[i] for i in order]
    vmap = dict(zip(verts, vnames))
    anames = [f"x{i}" for i in rng.sample(range(1000), len(arrows))]
    amap = {a: b for (a, _, _), b in zip(arrows, anames)}
    verts = [vmap[v] for v in verts]
    rng.shuffle(verts)
    arrows = [(amap[a], vmap[u], vmap[w]) for a, u, w in arrows]
    rng.shuffle(arrows)
    rels = [tuple(amap[a] for a in rel) for rel in rels]
    rng.shuffle(rels)
    return verts, arrows, rels


def closed_form_factors(components) -> dict:
    """Factor multiset (label -> multiplicity) of a sum of Lambda(r,s,t)."""
    out = Counter()
    for r, s, t in components:
        if r == s:
            out[f"TwoTruncatedCycle({s})"] += 1
            out["K"] += t
        else:
            out["K"] += s + t
    return dict(+out)


def _lambda_expect(components, nverts, narrows, nrels):
    return {
        "kind": "lambda",
        "verdict": "yes",
        "normal_form": sorted(("Lambda", r, s, t) for r, s, t in components),
        "factors": closed_form_factors(components),
        "size": [nverts, narrows, nrels],
    }


# -- controls -----------------------------------------------------------------


KRONECKER = (["1", "2"], [("a", "1", "2"), ("b", "1", "2")], [])

# non-oriented square, one relation per traversal orientation: the clock
# condition holds, so the algebra is not derived discrete
SQUARE_BALANCED = (
    ["1", "2", "3", "4"],
    [("a", "1", "2"), ("b", "2", "3"), ("c", "4", "3"), ("d", "1", "4")],
    [("a", "b"), ("d", "c")],
)

# two oriented 3-cycles through vertex 0; gentle, finite dimensional, two
# independent cycles
TWO_CYCLES = (
    ["0", "1", "2", "3", "4"],
    [
        ("a", "0", "1"), ("b", "1", "2"), ("c", "2", "0"),
        ("d", "0", "3"), ("e", "3", "4"), ("f", "4", "0"),
    ],
    [("c", "a"), ("f", "d"), ("a", "b"), ("d", "e")],
)


def gentle_tree(rng, n):
    """A random gentle tree on n >= 3 vertices with at least one relation.

    Each new vertex hangs off an existing one through a fresh arrow, keeping
    at most two arrows in and two out at every vertex.  Relations are then
    chosen vertex by vertex so that every arrow has at most one relation and
    at most one nonzero composite on each side (the gentle conditions).
    """
    while True:
        ins = {0: []}
        outs = {0: []}
        arrows = []
        for v in range(1, n):
            while True:
                u = rng.randrange(v)
                into_new = rng.random() < 0.5
                if into_new and len(outs[u]) < 2:
                    a = (f"t{v}", u, v)
                    outs[u].append(a[0])
                    ins[v], outs[v] = [a[0]], []
                    break
                if not into_new and len(ins[u]) < 2:
                    a = (f"t{v}", v, u)
                    ins[u].append(a[0])
                    ins[v], outs[v] = [], [a[0]]
                    break
            arrows.append(a)
        rels = []
        for v in range(n):
            i, o = ins[v], list(outs[v])
            if not i or not o:
                continue
            if len(i) == 1 and len(o) == 1:
                if rng.random() < 0.5:
                    rels.append((i[0], o[0]))
                continue
            # two arrows on one side: pair them off so that each arrow has
            # exactly one relation partner and one nonzero partner
            rng.shuffle(o)
            if len(i) == 2 and len(o) == 2:
                rels += [(i[0], o[0]), (i[1], o[1])]
            elif len(i) == 2:
                rels.append((i[rng.randrange(2)], o[0]))
            else:
                rels.append((i[0], o[0]))
        if rels:
            verts = [str(v) for v in range(n)]
            return verts, [(a, str(u), str(w)) for a, u, w in arrows], rels


# -- workloads ------------------------------------------------------------------


CLASSIFY_N = range(6, 10)  # vertex counts of the relabeled Lambda inputs
CONTROL_EVERY = 2  # one control input per this many rounds


def classify_relabeled(seed: int, rounds: int) -> Plan:
    """Relabeled Lambda(r,s,t), one per vertex count per round, plus controls.

    Each input runs through classify, factors and series.  Rounds keep the
    same order of vertex counts, so runs on different seeds do the same mix.
    """
    rng = random.Random(f"classify_relabeled/{seed}")
    # The search cost of a relabeled input depends on the order in which the
    # program visits its vertices, and is heavy-tailed: drawn per seed, the
    # p99 op time spread by a quarter between seeds.  So the (r, s) sequence
    # and the vertex orders come from one stream that every seed shares; the
    # seed draws the names that realize each order, and everything else.
    shared = random.Random("classify_relabeled/orders")
    inputs, ops = {}, []
    controls = ["tree", "kronecker", "tree", "square", "tree", "two_cycles"]
    # every (r, s) of a vertex count comes up once per cycle
    cycles = {}
    for n in CLASSIFY_N:
        cycles[n] = [(r, s) for s in range(1, n + 1) for r in range(1, s + 1)]
        shared.shuffle(cycles[n])
    stops = set()
    for k in range(rounds):
        stops.add(len(ops))
        batch = []
        for n in CLASSIFY_N:
            r, s = cycles[n][k % len(cycles[n])]
            order = shared.sample(range(n), n)
            parts = _relabel(rng, *lambda_parts(r, s, n - s), order)
            exp = _lambda_expect([(r, s, n - s)], n, n, r)
            batch.append((_text(*parts), exp))
        if k % CONTROL_EVERY == 0:
            which = controls[(k // CONTROL_EVERY) % len(controls)]
            if which == "tree":
                n = rng.choice(CLASSIFY_N)
                parts = gentle_tree(rng, n)
                exp = {
                    "verdict": "yes",
                    "normal_form": [("hereditary", f"A{n}")],
                    "factors": {"K": n},
                }
            else:
                parts = {
                    "kronecker": KRONECKER,
                    "square": SQUARE_BALANCED,
                    "two_cycles": TWO_CYCLES,
                }[which]
                verdict = "unknown" if which == "two_cycles" else "no"
                exp = {"verdict": verdict, "normal_form": [("unknown",)]}
            exp.update(kind=which, size=[len(p) for p in parts])
            batch.append((_text(*_relabel(rng, *parts)), exp))
        for text, exp in batch:
            name = f"c{len(inputs):05d}"
            inputs[name] = text
            ops += [Op(cmd, name, expect=exp) for cmd in ("classify", "factors", "series")]
    return Plan(inputs, ops, stops)


# components of each stratum; each round takes a fresh jittered variant
LARGE_STRATA = (
    ((32, 32, 8),),  # r = s
    ((12, 32, 8),),  # r < s
    ((12, 12, 4), (10, 24, 6)),  # direct sums
    ((40, 40, 24),),
    ((20, 48, 16),),
    ((16, 32, 0),),  # r < s, no tail
    ((24, 24, 8), (16, 40, 12)),
    ((56, 56, 40),),
    ((28, 64, 24),),
)
JITTER = range(-4, 5)


def _jitter(comp, dx):
    """Move t by dx when r = s, else r by dx: n stays, and so does the cost."""
    r, s, t = comp
    if r == s:
        return r, s, t + dx
    return r + dx, s, t


def series_literal_large(seed: int, rounds: int) -> Plan:
    """Literal Lambda(r,s,t) with n = s + t from 32 to about 100, plus sums.

    Every round visits the strata in the same order, each with a jittered
    variant not used before.  A literal input has nothing to relabel, and
    its cost moves with (r, s, t): drawn per seed, the jitter made the tail
    latency spread by a fifth between seeds.  So the variants come from one
    stream that every seed shares; the seed numbers the second summand of
    each sum, which leaves the vertex order, and the work, unchanged.
    """
    shared = random.Random("series_literal_large/variants")
    rng = random.Random(f"series_literal_large/{seed}")
    variants = []
    for stratum in LARGE_STRATA:
        offsets = list(JITTER)
        shared.shuffle(offsets)
        variants.append([tuple(_jitter(c, dx) for c in stratum) for dx in offsets])
    inputs, ops, stops = {}, [], set()
    for k in range(min(rounds, len(JITTER))):
        stops.add(len(ops))
        for per_stratum in variants:
            comps = per_stratum[k]
            verts, arrows, rels = [], [], []
            for i, (r, s, t) in enumerate(comps):
                # later summands move past the earlier ones, keeping the
                # numeric vertex order of each summand
                v, a, rel = lambda_parts(r, s, t, 1000 * i * rng.randint(1, 9))
                verts += v
                arrows += a
                rels += rel
            name = f"l{len(inputs):05d}"
            inputs[name] = _text(verts, arrows, rels)
            exp = _lambda_expect(comps, len(verts), len(arrows), len(rels))
            ops += [Op(cmd, name, expect=exp) for cmd in ("classify", "factors", "series")]
    return Plan(inputs, ops, stops)


def _objects(s, t):
    return [f"X{p}" for p in range(s)] + [f"Y{-q}" for q in range(1, t + 1)]


def _hom_expect(s, t, src, dst, hmax):
    return {"kind": "hom", "s": s, "t": t, "self": src == dst, "hmax": hmax}


GRID_S = range(1, 5)
GRID_T = range(0, 4)


def _interleave(rng, blocks):
    """Merge shuffled blocks so that every prefix mixes them in proportion."""
    keyed = []
    for block in blocks:
        rng.shuffle(block)
        n = len(block)
        keyed += [((i + rng.random()) / n, item) for i, item in enumerate(block)]
    keyed.sort(key=lambda kv: kv[0])
    return [item for _, item in keyed]


def hom_grid(seed: int, rounds: int) -> Plan:
    """Every ordered pair over Lambda(s,s,t), s <= 4, t <= 3, at short shifts.

    A round visits every pair once at an hmax in [2s, 3s + t + 2] not used
    for that pair before; each visit is a QQ op through the CLI followed by
    a GF(32003) op through the library.
    """
    rng = random.Random(f"hom_grid/{seed}")
    inputs = {}
    unused = {}
    for s in GRID_S:
        for t in GRID_T:
            name = f"g{s}_{t}"
            inputs[name] = _text(*lambda_parts(s, s, t))
            for src in _objects(s, t):
                for dst in _objects(s, t):
                    shifts = list(range(2 * s, 3 * s + t + 3))
                    rng.shuffle(shifts)
                    unused[(s, t, src, dst)] = shifts
    ops, stops = [], set()
    for _ in range(rounds):
        blocks = {}
        for (s, t, src, dst), shifts in unused.items():
            if shifts:
                blocks.setdefault((s, t), []).append((s, t, src, dst, shifts.pop()))
        if not blocks:
            break
        for s, t, src, dst, hmax in _interleave(rng, list(blocks.values())):
            name = f"g{s}_{t}"
            exp = _hom_expect(s, t, src, dst, hmax)
            pair = f"{name}:{src}:{dst}:{hmax}"
            cli_args = ("--from", src, "--to", dst, "--max-shift", str(hmax))
            stops.add(len(ops))
            ops.append(Op("hom", name, cli_args, exp, pair))
            ops.append(Op("hom-gf", name, (src, dst, str(hmax)), exp, pair))
    return Plan(inputs, ops, stops)


# (s, t, hmax) per stratum, chosen so that every op costs about the same;
# each round picks the pair and an hmax jitter of up to 2
LONG_STRATA = (
    (2, 1, 64), (3, 2, 72), (4, 0, 88), (5, 1, 96),
    (2, 2, 68), (3, 0, 80), (4, 1, 84), (5, 2, 100),
)


def hom_long(seed: int, rounds: int) -> Plan:
    """Pairs over s = 2..5 at hmax from 62 to 102, QQ only."""
    rng = random.Random(f"hom_long/{seed}")
    inputs = {}
    for s, t, _ in LONG_STRATA:
        inputs[f"h{s}_{t}"] = _text(*lambda_parts(s, s, t))
    ops, stops = [], set()
    seen = set()
    for _ in range(rounds):
        for s, t, h in LONG_STRATA:
            stops.add(len(ops))  # ops cost about the same, so any op may end a run
            objs = _objects(s, t)
            while True:
                src, dst = rng.choice(objs), rng.choice(objs)
                hmax = h + rng.randint(-2, 2)
                if (s, t, src, dst, hmax) not in seen:
                    seen.add((s, t, src, dst, hmax))
                    break
            cli_args = ("--from", src, "--to", dst, "--max-shift", str(hmax))
            ops.append(Op("hom", f"h{s}_{t}", cli_args, _hom_expect(s, t, src, dst, hmax)))
    return Plan(inputs, ops, stops)


# name -> (generator, rounds per second of run length)
WORKLOADS = {
    "classify_relabeled": (classify_relabeled, 30),
    "series_literal_large": (series_literal_large, 0.4),
    "hom_grid": (hom_grid, 1),
    "hom_long": (hom_long, 0.5),
}


def generate(name: str, seed: int, seconds: float) -> Plan:
    """The op list of a workload, long enough that a run cannot exhaust it
    at several times today's throughput."""
    gen, per_second = WORKLOADS[name]
    return gen(seed, max(1, int(per_second * seconds)))


# -- oracles ------------------------------------------------------------------


def _normal_form(entries):
    """A report's normal form as a sorted list of comparable tuples."""
    out = []
    for e in entries:
        if e["type"] == "Lambda":
            out.append(("Lambda", e["r"], e["s"], e["t"]))
        elif e["type"] == "hereditary":
            out.append(("hereditary", e["dynkin"]))
        else:
            out.append(("unknown",))
    return sorted(out)


def check(op: Op, rc: int, report, table=None) -> str:
    """Empty string when the op's output is right, else what is wrong.

    ``report`` is the parsed JSON of a CLI op (None when it printed
    nothing); ``table`` is the dims list of a ``hom-gf`` op.
    """
    exp = op.expect
    if exp["kind"] == "hom":
        return _check_hom(op, rc, report, table)
    expect_rc = EXPECT_RC[exp["kind"]][op.command]
    if rc != expect_rc:
        return f"exit code {rc}, expected {expect_rc}"
    if rc != EXIT_OK and op.command != "classify":
        return ""  # refused with an error message, as expected
    if report is None:
        return "no report"
    size = report["input"]
    if [size["vertices"], size["arrows"], size["relations"]] != exp["size"]:
        return f"input size {size}, expected {exp['size']}"
    if op.command == "classify":
        cls = report["classification"]
        verdict = cls["discreteness"]["verdict"]
        if verdict != exp["verdict"]:
            return f"verdict {verdict}, expected {exp['verdict']}"
        got = _normal_form(cls["normal_form"])
        if got != exp["normal_form"]:
            return f"normal form {got}, expected {exp['normal_form']}"
        return ""
    if op.command == "factors":
        got = {e["class"]: e["multiplicity"] for e in report["factors"]}
    else:
        if not report["verification"]["ok"]:
            return f"series failed verification: {report['verification']['failures']}"
        got = dict(Counter(report["series"]["factors"]))
    if got != exp["factors"]:
        return f"{op.command}: factors {got}, expected {exp['factors']}"
    return ""


def _check_hom(op, rc, report, table):
    exp = op.expect
    if rc != EXIT_OK:
        return f"exit code {rc}, expected 0"
    dims = table if op.command == "hom-gf" else report["hom"]["dims"]
    s, t, hmax = exp["s"], exp["t"], exp["hmax"]
    if len(dims) != hmax + 1:
        return f"{len(dims)} entries, expected {hmax + 1}"
    if not any(dims):
        return "table vanishes everywhere"
    for h in range(t, hmax + 1 - s):
        if dims[h] != dims[h + s]:
            return f"not {s}-periodic from h = {t}: h = {h} gives {dims[h]}, h + s {dims[h + s]}"
    if exp["self"]:
        want = [1 if h % s == 0 else 0 for h in range(hmax + 1)]
        if list(dims) != want:
            return f"self table {dims}, expected {want}"
    return ""
