"""Composition factors, radical drops, series traces and their replay."""

import collections.abc
import contextlib
import copy
import itertools
import pathlib
import random
import sys
from collections import Counter
from unittest import mock

import pytest

import ddisc
import ddisc.cli
from ddisc import (
    K,
    PreconditionError,
    SeriesStep,
    SeriesTrace,
    build_lambda,
    composition_factors,
    connected_components,
    direct_sum,
    grothendieck_rank,
    hom_table,
    idempotent_subalgebra,
    is_n_derived_simple,
    is_radical_projective,
    lambda_normal_form,
    parse_presentation,
    simple_module,
    strip_series,
    two_truncated_cycle,
    verify_trace,
)
from ddisc import jordan, presentation
from ddisc.classify import DerivedEquivClass, LambdaClass
from ddisc.presentation import (
    BoundQuiverPresentation,
    LambdaDescriptor,
    Quiver,
    path_counts,
    serialize_presentation,
    vertex_sort_key,
)
from test_classify import relabel
from test_cli import GOLDEN_NONZERO

DATA = pathlib.Path(__file__).parent / "data"

KRONECKER = "vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2\n"

A2 = "vertex 1\nvertex 2\narrow a 1 2\n"

A3 = "vertex 1\nvertex 2\nvertex 3\narrow a 1 2\narrow b 2 3\n"

A3_REL = "vertex 1\nvertex 2\nvertex 3\narrow a 1 2\narrow b 2 3\nrelation a b\n"

# cycle with an outgoing tail: the only strip available is the sink
CYCLE_OUT_TAIL = (
    "vertex -1\nvertex 0\nvertex 1\n"
    "arrow b0 0 1\narrow b1 1 0\narrow c 0 -1\n"
    "relation b0 b1\nrelation b1 b0\n"
)

# source hub; stripping it disconnects the remainder
STAR_OUT = "vertex 0\nvertex 1\nvertex 2\narrow a 0 1\narrow b 0 2\n"


def multiset(factors):
    return {f.label(): m for f, m in Counter(factors).items()}


# -- factor classes ------------------------------------------------------------


def test_factor_class_labels_and_ranks():
    assert K.label() == "K" and K.rank == 1
    c3 = two_truncated_cycle(3)
    assert c3.label() == "TwoTruncatedCycle(3)" and c3.rank == 3
    assert len({K, two_truncated_cycle(1), two_truncated_cycle(2), c3}) == 4
    with pytest.raises(PreconditionError):
        two_truncated_cycle(0)


@pytest.mark.parametrize(
    "build,expected",
    [
        (lambda: build_lambda(1, 2, 0), {"K": 2}),
        (lambda: build_lambda(1, 1, 0), {"TwoTruncatedCycle(1)": 1}),
        (lambda: build_lambda(3, 3, 0), {"TwoTruncatedCycle(3)": 1}),
        (
            lambda: direct_sum([build_lambda(2, 2, 1), parse_presentation(A3)]),
            {"TwoTruncatedCycle(2)": 1, "K": 4},
        ),
    ],
)
def test_composition_factors_frozen(build, expected):
    pres = build()
    assert multiset(composition_factors(lambda_normal_form(pres))) == expected


def test_composition_factors_conserve_rank():
    for s in range(1, 4):
        for r in range(1, s + 1):
            for t in range(3):
                pres = build_lambda(r, s, t)
                out = composition_factors(lambda_normal_form(pres))
                assert sum(f.rank * m for f, m in out.items()) == s + t


def test_composition_factors_component_order_is_irrelevant():
    cls = lambda_normal_form(
        direct_sum([build_lambda(2, 2, 1), parse_presentation(A3)])
    )
    flipped = DerivedEquivClass(tuple(reversed(cls.components)))
    assert composition_factors(cls) == composition_factors(flipped)


def test_composition_factors_additive_over_direct_sum():
    left = build_lambda(2, 2, 0)
    right = build_lambda(1, 2, 1)
    both = composition_factors(lambda_normal_form(direct_sum([left, right])))
    assert both == composition_factors(lambda_normal_form(left)) + composition_factors(
        lambda_normal_form(right)
    )


def test_composition_factors_refuse_unclassified_input():
    kron = lambda_normal_form(parse_presentation(KRONECKER))
    with pytest.raises(PreconditionError):
        composition_factors(kron)


# -- radical projectivity --------------------------------------------------------


def test_radical_projectivity_witnesses():
    report = is_radical_projective(build_lambda(1, 2, 0), "0")
    assert report.projective and report.cover == ("1",) and report.defect == 0
    report = is_radical_projective(build_lambda(2, 2, 0), "0")
    assert not report.projective and report.defect == 1
    a2 = parse_presentation(A2)
    assert is_radical_projective(a2, "1").cover == ("2",)
    # a sink has zero radical, which is projective with an empty cover
    sink = is_radical_projective(a2, "2")
    assert sink.projective and sink.cover == ()
    # parallel arrows: rad P(1) is two copies of the simple projective P(2)
    kron = is_radical_projective(parse_presentation(KRONECKER), "1")
    assert kron.projective and kron.cover == ("2", "2") and kron.defect == 0
    # rad P(1) is spanned by a, a*b while its cover P(2) has e_2, b, b*c
    a4 = parse_presentation(
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 2\narrow b 2 3\narrow c 3 4\nrelation a b c\n"
    )
    report = is_radical_projective(a4, "1")
    assert not report.projective and report.cover == ("2",) and report.defect == 1


def test_radical_projectivity_is_truthy():
    assert is_radical_projective(build_lambda(1, 2, 0), "0")
    assert not is_radical_projective(build_lambda(2, 2, 0), "0")


# -- corner algebras -------------------------------------------------------------


@pytest.mark.parametrize("r,s,t", [(1, 1, 1), (1, 2, 1), (2, 2, 2), (2, 3, 1)])
def test_dropping_the_tail_end_shortens_the_tail(r, s, t):
    pres = build_lambda(r, s, t)
    keep = [v for v in pres.quiver.vertices if v != str(-t)]
    assert idempotent_subalgebra(pres, keep) == build_lambda(r, s, t - 1)


def test_corner_of_two_vertex_cycle_is_the_field():
    corner = idempotent_subalgebra(build_lambda(1, 2, 0), ["1"])
    assert corner.quiver.vertices == ("1",)
    assert not corner.quiver.arrows and not corner.relations


def test_corner_composite_arrow_through_dropped_vertex():
    corner = idempotent_subalgebra(parse_presentation(A3), ["1", "3"])
    assert corner.quiver.arrows == {"a*b": ("1", "3")}
    assert corner.relations == ()
    # with the through-path relation the corner falls apart entirely
    dead = idempotent_subalgebra(parse_presentation(A3_REL), ["1", "3"])
    assert not dead.quiver.arrows


def test_corner_products_get_names_no_arrow_has():
    # Lambda(1,3,0) twice: an arrow named like the product x*a that dropping
    # vertex 0 creates, and the same arrow named b
    clash = parse_presentation((DATA / "product_name_clash.txt").read_text("utf-8"))
    plain = parse_presentation(
        "vertex 0\nvertex 1\nvertex 2\n"
        "arrow a 0 1\narrow b 1 2\narrow x 2 0\nrelation b x\n"
    )
    corner = idempotent_subalgebra(clash, ["1", "2"])
    assert corner.quiver.arrows == {"x*a": ("1", "2"), "x*a'": ("2", "1")}
    assert [rel.arrows for rel in corner.relations] == [("x*a", "x*a'")]
    with checking_corners() as built:
        traces = [strip_series(pres) for pres in (clash, plain)]
        assert verify_trace(clash, traces[0]).ok
    assert traces[0].steps == traces[1].steps
    assert traces[0].factors == traces[1].factors
    # the series of clash drops vertex 0 first, as the public corner does
    assert_same_presentation(built[0], corner)


def assert_matches_reference(pres):
    """A presentation assembled from another's parts (a frozen corner, a
    connected component) counts like its own text form reparsed, and equals
    the presentation the public constructors build from its arrows and
    relations, down to the order of vertices, arrows and relations."""
    q = pres.quiver
    reparsed = parse_presentation(serialize_presentation(pres))
    assert path_counts(pres) == path_counts(reparsed)
    ref = BoundQuiverPresentation(
        Quiver(q.vertices, [(a, src, tgt) for a, (src, tgt) in q.arrows.items()]),
        [rel.arrows for rel in pres.relations],
    )
    assert pres == ref and pres.relations == ref.relations
    assert q.vertices == ref.quiver.vertices
    assert list(q.arrows.items()) == list(ref.quiver.arrows.items())
    assert list(q._out) == list(q._in) == list(q.vertices)
    for v in q.vertices:
        assert q.arrows_from(v) == ref.quiver.arrows_from(v)
        assert q.arrows_into(v) == ref.quiver.arrows_into(v)
    assert pres._maxrel == ref._maxrel


def assert_same_presentation(got, expected):
    """Equal, down to the order of vertices, arrows and relations."""
    assert got == expected and got.relations == expected.relations
    assert got.quiver.vertices == expected.quiver.vertices
    assert list(got.quiver.arrows.items()) == list(expected.quiver.arrows.items())
    assert got._maxrel == expected._maxrel


@contextlib.contextmanager
def checking_corners():
    """While active, every step that a series or its replay applies is
    checked, and the corner of every strip is listed, frozen.  Both apply
    their steps through ``_apply``, editing one working copy per component
    in place; after each step every piece it leaves, frozen, matches its
    reference, and a strip's corner is the public ``idempotent_subalgebra``
    of the frozen state before the step."""
    built = []
    apply = jordan._apply

    def checked(current, step):
        strip = step.op not in ("split", "terminal")
        before = presentation._freeze(current)
        pieces, factors = apply(current, step)
        frozen = [presentation._freeze(piece) for piece in pieces]
        for piece in frozen:
            assert_matches_reference(piece)
        if strip:
            keep = [v for v in before.quiver.vertices if v != step.vertex]
            assert_same_presentation(frozen[0], idempotent_subalgebra(before, keep))
            built.append(frozen[0])
        return pieces, factors

    with mock.patch.object(jordan, "_apply", checked):
        yield built


def clashing_sum():
    """Three Lambdas whose ids clash, so direct_sum tags them; Lambda(1,1,0)
    is a loop."""
    parts = [build_lambda(2, 3, 1), build_lambda(1, 1, 0), build_lambda(2, 2, 0)]
    return direct_sum(parts)


def sums():
    """Presentations with several connected parts."""
    # literal and relabeled Lambdas; the relabeled ids sort last
    relabeled = relabel(build_lambda(2, 2, 1), random.Random(3))
    yield direct_sum([relabeled, build_lambda(1, 3, 0)])
    for name in ("sum_relabeled_2_2_1_literal_1_3_0", "sum_kronecker_lambda_2_2_1"):
        yield parse_presentation((DATA / f"{name}.txt").read_text())
    yield clashing_sum()
    yield parse_presentation("vertex z\n" + A3_REL + "vertex 0\n")  # isolated vertices
    yield parse_presentation("vertex 5\narrow l 5 5\nrelation l l l\n" + A2)


def test_components_match_their_reference():
    for pres in sums():
        parts = connected_components(pres)
        assert len(parts) > 1
        for part in parts:
            assert_matches_reference(part)
            assert connected_components(part) == (part,)
        firsts = [vertex_sort_key(part.quiver.vertices[0]) for part in parts]
        assert firsts == sorted(firsts)
        # the parts split the vertices, arrows and relations of pres
        q = pres.quiver
        assert sorted(v for p in parts for v in p.quiver.vertices) == sorted(
            q.vertices
        )
        assert sorted(a for p in parts for a in p.quiver.arrows) == list(q.arrows)
        assert sorted(r for p in parts for r in p._relset) == sorted(pres._relset)


def test_a_sum_is_parsed_and_split_checking_each_relation_once(monkeypatch):
    text = serialize_presentation(clashing_sum())
    made, built = [], []
    make_path, init = BoundQuiverPresentation.make_path, Quiver.__init__

    def counted_make_path(self, names):
        made.append(names)
        return make_path(self, names)

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(BoundQuiverPresentation, "make_path", counted_make_path)
    monkeypatch.setattr(Quiver, "__init__", counted_init)
    parts = connected_components(parse_presentation(text))
    assert len(parts) == 3
    assert sum(len(part._relset) for part in parts) == 5
    # the parser checks each relation on its own line and fills the quiver
    # tables itself; the parts reuse what it checked
    assert made == [] and built == []


def test_corner_rejects_unsupported_drops():
    with pytest.raises(PreconditionError):
        idempotent_subalgebra(build_lambda(2, 2, 0), ["1"])
    with pytest.raises(PreconditionError):
        idempotent_subalgebra(build_lambda(1, 2, 1), ["1"])  # two dropped
    with pytest.raises(PreconditionError):
        idempotent_subalgebra(build_lambda(1, 2, 0), ["0", "nope"])


def test_corner_rejects_nonquadratic_shape():
    # one long relation straddling three corner generators needs a cubic
    # relation, which the corner presentation cannot carry
    a5 = parse_presentation(
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\n"
        "arrow a 1 2\narrow b 2 3\narrow c 3 4\narrow d 4 5\n"
        "relation a b c d\n"
    )
    assert is_radical_projective(a5, "2").projective
    with pytest.raises(PreconditionError):
        idempotent_subalgebra(a5, ["1", "3", "4", "5"])


# -- series construction -----------------------------------------------------------


def test_strip_series_frozen_trace():
    trace = strip_series(build_lambda(1, 2, 1))
    assert [(s.op, s.vertex) for s in trace.steps] == [
        ("split", ""),
        ("strip-source", "-1"),
        ("drop-radical", "0"),
        ("terminal", "1"),
    ]
    assert trace.factors == (K, K, K)
    assert trace.steps[2].witness == "rad P(0) is projective with cover 1"


@pytest.mark.parametrize("s", [1, 2, 3])
def test_strip_series_recognizes_cycle_terminals(s):
    trace = strip_series(build_lambda(s, s, 0))
    assert [s.op for s in trace.steps] == ["split", "terminal"]
    assert trace.factors == (two_truncated_cycle(s),)


def test_strip_series_peels_the_tail_first():
    trace = strip_series(build_lambda(2, 2, 2))
    assert [(s.op, s.vertex) for s in trace.steps] == [
        ("split", ""),
        ("strip-source", "-2"),
        ("strip-source", "-1"),
        ("terminal", ""),
    ]
    assert multiset(trace.factors) == {"K": 2, "TwoTruncatedCycle(2)": 1}


def test_strip_series_hereditary_line():
    trace = strip_series(parse_presentation(A3))
    assert trace.factors == (K, K, K)
    assert all(s.op in ("split", "strip-source", "terminal") for s in trace.steps)


def test_strip_series_falls_back_to_the_sink():
    trace = strip_series(parse_presentation(CYCLE_OUT_TAIL))
    assert [(s.op, s.vertex) for s in trace.steps] == [
        ("split", ""),
        ("strip-sink", "-1"),
        ("terminal", ""),
    ]
    assert multiset(trace.factors) == {"K": 1, "TwoTruncatedCycle(2)": 1}


def test_strip_series_splits_after_disconnection():
    trace = strip_series(parse_presentation(STAR_OUT))
    assert [s.op for s in trace.steps] == [
        "split",
        "strip-source",
        "split",
        "terminal",
        "terminal",
    ]
    assert trace.steps[2].parts == 2
    assert trace.factors == (K, K, K)


def test_strip_series_refuses_non_discrete_input():
    with pytest.raises(PreconditionError):
        strip_series(parse_presentation(KRONECKER))


def grid():
    for s in range(1, 4):
        for r in range(1, s + 1):
            for t in range(3):
                yield build_lambda(r, s, t)
    yield parse_presentation(A3)
    yield direct_sum([build_lambda(2, 2, 1), parse_presentation(A3)])
    yield direct_sum([build_lambda(1, 1, 0), build_lambda(3, 3, 0)])


def test_series_factors_agree_with_the_closed_form():
    # two independent code paths: greedy reductions vs the normal form
    for pres in grid():
        trace = strip_series(pres)
        expected = composition_factors(lambda_normal_form(pres))
        assert trace.factor_multiset() == expected, pres


def test_series_length_law():
    for pres in grid():
        trace = strip_series(pres)
        rank = grothendieck_rank(pres)
        assert trace.length() <= rank
        has_big_cycle = any(f.kind == "cycle" and f.rank >= 2 for f in trace.factors)
        assert (trace.length() == rank) == (not has_big_cycle), pres


# -- trace verification ------------------------------------------------------------


def test_verify_trace_accepts_its_own_series():
    for pres in grid():
        report = verify_trace(pres, strip_series(pres))
        assert report.ok and report.failures == (), pres


def terminal_factor(comp):
    """The factor of a retired shape, else None: a lone vertex, or a cycle
    whose consecutive arrow pairs are all relations (with in- and
    out-degree 1 everywhere, those are its only composable pairs)."""
    q = comp.quiver
    if len(q.vertices) == 1 and not q.arrows:
        return K
    one_in_one_out = all(
        len(q.arrows_from(v)) == len(q.arrows_into(v)) == 1 for v in q.vertices
    )
    quadratic = all(len(rel) == 2 for rel in comp.relations)
    if one_in_one_out and quadratic and len(comp.relations) == len(q.vertices):
        return two_truncated_cycle(len(q.vertices))
    return None


def random_order_trace(pres, rng):
    """A series trace taking each strip at random among the applicable ones.

    Built from the public radical projectivity test and corner algebra,
    with the splits and terminals of ``strip_series``; a terminal component
    is retired, never stripped.
    """
    steps, factors = [], []
    stack = [pres]
    at_top = True
    while stack:
        comp = stack.pop()
        parts = connected_components(comp)
        if at_top or len(parts) > 1:
            at_top = False
            steps.append(SeriesStep("split", parts=len(parts)))
            stack.extend(reversed(parts))
            continue
        factor = terminal_factor(comp)
        if factor is not None:
            steps.append(SeriesStep("terminal", factor=factor))
            factors.append(factor)
            continue
        q = comp.quiver
        choices = (
            [("strip-source", v) for v in q.vertices if not q.arrows_into(v)]
            + [("strip-sink", v) for v in q.vertices if not q.arrows_from(v)]
            + [
                ("drop-radical", v)
                for v in q.vertices
                if is_radical_projective(comp, v)
            ]
        )
        assert choices, comp
        op, v = rng.choice(choices)
        steps.append(SeriesStep(op, vertex=v))
        factors.append(K)
        stack.append(idempotent_subalgebra(comp, [w for w in q.vertices if w != v]))
    return SeriesTrace(pres, tuple(steps), tuple(factors))


def test_every_strip_order_gives_the_same_factors():
    # Jordan-Hoelder uniqueness: any order of valid strips verifies and ends
    # in the factor multiset of the normal form; the replay rebuilds every
    # corner of the trace, and each matches its reference
    for s in range(1, 7):
        for r in range(1, min(s, 5) + 1):
            for t in range(4):
                pres = build_lambda(r, s, t)
                expected = composition_factors(lambda_normal_form(pres))
                for seed in range(3):
                    rng = random.Random(f"{r},{s},{t}/{seed}")
                    trace = random_order_trace(pres, rng)
                    with checking_corners() as built:
                        assert verify_trace(pres, trace).ok, (r, s, t, seed)
                    assert len(built) == sum(
                        step.op.startswith(("strip", "drop")) for step in trace.steps
                    )
                    assert trace.factor_multiset() == expected, (r, s, t, seed)


def exceptional_simple(comp, v):
    """Whether S_v is exceptional over ``comp``, a working copy frozen
    first: Hom(S_v, S_v[h]) is k at h = 0 and 0 for 1 <= h <= 2n + 2."""
    if isinstance(comp._relset, set):
        comp = presentation._freeze(comp)
    top = 2 * len(comp.quiver.vertices) + 2
    simple = simple_module(comp, v)
    return hom_table(comp, simple, simple, top).entries == (1,) + (0,) * top


def all_strip_orders(pres, oracle=None):
    """Every order of strips at once, memoized on the corners they reach.

    A strip drops one vertex and keeps the corner on the rest, so each
    connected corner that some order reaches is named by its vertex set.
    The moves at a corner are the strips that the replay's step rule
    accepts, each applied by that rule to a fresh working copy, as a strip
    edits its copy in place; a corner of ``terminal_factor``'s shape is
    retired, never stripped.  Returns the factor multisets that the traces
    of ``pres`` end in, and for each reached corner the multisets its
    traces end in; a corner with none is stuck.  Multisets are frozensets
    of (factor, multiplicity) pairs.

    With ``oracle``, a Counter, every move is checked to strip an
    exceptional simple, and the Counter counts the reached corners, the
    moves and the vertices with an exceptional simple but no move.
    """
    ends = {}

    def plus(*multisets):
        total = Counter()
        for m in multisets:
            total.update(dict(m))
        return frozenset(total.items())

    def sums(parts):
        """The multisets of traces that reduce every one of ``parts``."""
        return {plus(*picks) for picks in itertools.product(*map(visit, parts))}

    def visit(comp):
        q = comp.quiver
        key = frozenset(q.vertices)
        if key not in ends:
            if oracle is not None:
                oracle["corners"] += 1
            factor = terminal_factor(comp)
            if factor is not None:
                ends[key] = {frozenset({(factor, 1)})}
                return ends[key]
            found, moved = set(), set()
            for op in ("strip-source", "strip-sink", "drop-radical"):
                for v in q.vertices:
                    step = SeriesStep(op, v)
                    if not jordan._step_problem(comp, step):
                        moved.add(v)
                        fresh = presentation._thaw(comp)
                        [corner], _ = jordan._apply(fresh, step)
                        parts = connected_components(corner)
                        found |= {plus(m, {(K, 1)}) for m in sums(parts)}
            if oracle is not None:
                for v in q.vertices:
                    if v in moved:
                        oracle["moves"] += 1
                        assert exceptional_simple(comp, v), (sorted(key), v)
                    else:
                        oracle["exceptional, no move"] += exceptional_simple(comp, v)
            ends[key] = found
        return ends[key]

    return sums(connected_components(pres)), ends


def test_every_strip_order_of_small_lambdas_ends_in_the_closed_form():
    # Jordan-Hoelder over every strip order: each corner that any order
    # reaches has exactly one factor multiset, none is stuck, and the
    # input's is the one the normal form gives
    for n in range(1, 9):
        for s in range(1, n + 1):
            for r in range(1, s + 1):
                pres = build_lambda(r, s, n - s)
                top, ends = all_strip_orders(pres)
                expected = composition_factors(lambda_normal_form(pres))
                assert top == {frozenset(expected.items())}, (r, s, n - s)
                assert [key for key, found in ends.items() if not found] == []
                assert all(len(found) == 1 for found in ends.values()), (r, s)


def test_every_strip_takes_off_an_exceptional_simple():
    # a strip at v keeps the corner on e = 1 - e_v, and with no loop at v
    # it is a recollement of D(A) by D(eAe) and D(k) exactly when S_v is
    # exceptional (Cline-Parshall-Scott): every vertex the step rule strips,
    # at every corner that any strip order reaches, passes that check
    oracle = Counter()
    for n in range(1, 8):
        for s in range(1, n + 1):
            for r in range(1, s + 1):
                all_strip_orders(build_lambda(r, s, n - s), oracle)
    # 2,352 corners and 6,012 moves at this writing; recorded, not
    # asserted, as are the 718 vertices whose simple is exceptional but no
    # move strips, such as vertex 2 of Lambda(1,3,0)
    assert oracle["corners"] > 0 and oracle["moves"] > 0, oracle


def test_series_walks_the_automaton_from_scratch_a_fixed_number_of_times(
    monkeypatch,
):
    # every step is decided on the relation set, so neither the series nor
    # its replay walks an automaton, whatever the size of the input
    walks = []
    walk = presentation._automaton

    def counted(pres):
        walks[-1] += 1
        return walk(pres)

    monkeypatch.setattr(presentation, "_automaton", counted)
    for r in (10, 80):
        walks.append(0)
        pres = build_lambda(r, 2 * r, r)
        assert verify_trace(pres, strip_series(pres)).ok
    assert walks == [0, 0]


def test_a_series_and_its_replay_leave_no_count_table(monkeypatch):
    # counted, not timed: no state that a step of the series or its replay
    # is decided on, and no corner it leaves, holds a count table, and a
    # valid trace never asks the counting rule
    corners, decided_on, asked = [], [], []
    build, decide = jordan._corner, jordan.is_radical_projective

    def listed(work, v):
        decided_on.append(set(work._cache))
        corners.append(build(work, v))
        return corners[-1]

    def counted(pres, v):
        asked.append(v)
        return decide(pres, v)

    monkeypatch.setattr(jordan, "_corner", listed)
    monkeypatch.setattr(jordan, "is_radical_projective", counted)
    pres = build_lambda(30, 60, 30)
    trace = strip_series(pres)
    assert verify_trace(pres, trace).ok
    strips = sum(step.op.startswith(("strip", "drop")) for step in trace.steps)
    assert len(corners) == 2 * strips > 0
    # one working copy for the series and one for the replay
    assert len({id(corner) for corner in corners}) == 2
    for keys in decided_on + [set(corner._cache) for corner in corners]:
        assert not {"automaton", "path_counts"} & keys
    assert asked == []


class Tally:
    """Entries written into the counting containers below or copied out of
    them; a lookup is free."""

    entries = 0


def tallied(method, size):
    """``method``, adding ``size(self, *args)`` to the tally at each call."""

    def counted(self, *args, **kwargs):
        Tally.entries += size(self, *args)
        return method(self, *args, **kwargs)

    return counted


def given_items(method):
    """A bulk update, adding the number of items it is given."""

    def counted(self, items=(), *rest):
        items = list(items.items() if isinstance(items, dict) else items)
        Tally.entries += len(items)
        return method(self, items, *rest)

    return counted


def one(self, *args):
    return 1


def whole(self, *args):
    return len(self)


def counting(base, sizes, bulks):
    """A subclass of ``base`` whose methods named in ``sizes`` tally what
    their size function says, and whose bulk updates tally their items."""
    body = {name: tallied(getattr(base, name), size) for name, size in sizes.items()}
    body.update((name, given_items(getattr(base, name))) for name in bulks)
    return type(f"Counting{base.__name__.title()}", (base,), body)


WRITES = ("__setitem__", "__delitem__", "pop")
CountingDict = counting(
    dict,
    {
        **dict.fromkeys(WRITES + ("popitem", "setdefault"), one),
        **dict.fromkeys(("__iter__", "copy", "keys", "values", "items"), whole),
    },
    ("update",),
)
CountingList = counting(
    list,
    {
        **dict.fromkeys(WRITES + ("append", "insert", "remove"), one),
        **dict.fromkeys(("__iter__", "copy", "__add__", "sort"), whole),
        # a slice copies too
        "__getitem__": lambda self, key: len(self) if isinstance(key, slice) else 0,
    },
    ("extend",),
)


class CountingSet(collections.abc.MutableSet):
    """A relation set that tallies like the containers above.  It wraps a
    set rather than subclassing one, so that even a copy made in C walks
    it: ``set(s)`` reads a set subclass without calling its methods."""

    def __init__(self, items):
        self.items = set(items)

    def __contains__(self, item):
        return item in self.items

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        Tally.entries += len(self.items)
        return iter(self.items)

    def add(self, item):
        Tally.entries += 1
        self.items.add(item)

    def discard(self, item):
        Tally.entries += 1
        self.items.discard(item)

    update = given_items(lambda self, items: self.items.update(items))
    difference_update = given_items(
        lambda self, items: self.items.difference_update(items)
    )


def test_a_strip_writes_and_copies_in_proportion_to_the_degree(monkeypatch):
    # counted, not timed: the entries that a strip step writes or copies
    # (arrows, arrow-list items and relation pairs) are bounded by one
    # constant times the degree of the dropped vertex, at both sizes; each
    # run copies its component once, into counting containers here
    thaw, apply = presentation._thaw, jordan._apply
    copies, ratios = [], []

    def counting_thaw(pres):
        work = thaw(pres)
        q = work.quiver
        q.arrows = CountingDict(q.arrows)
        q._out = CountingDict((v, CountingList(a)) for v, a in q._out.items())
        q._in = CountingDict((v, CountingList(a)) for v, a in q._in.items())
        q.vertices = dict.keys(q._out)
        work._relset = CountingSet(work._relset)
        copies[-1] += 1
        return work

    def measured(current, step):
        if step.op in ("split", "terminal"):
            return apply(current, step)
        q = current.quiver
        degree = len(q._in[step.vertex]) + len(q._out[step.vertex])
        Tally.entries = 0
        pieces = apply(current, step)
        ratios[-1].append(Tally.entries / degree)
        return pieces

    monkeypatch.setattr(presentation, "_thaw", counting_thaw)
    monkeypatch.setattr(jordan, "_apply", measured)
    for r in (10, 80):
        copies.append(0)
        ratios.append([])
        pres = build_lambda(r, 2 * r, r)
        assert verify_trace(pres, strip_series(pres)).ok
        assert len(ratios[-1]) == 2 * (3 * r - 1)
    assert copies == [2, 2]
    assert min(min(each) for each in ratios) > 0
    assert max(max(each) for each in ratios) <= 12


def zigzag(n):
    """The relation-free line on 0..n-1 whose arrows alternate direction:
    almost every strip is at a vertex with two neighbours, and splits."""
    arrows = "".join(
        f"arrow a{i} {i} {i + 1}\n" if i % 2 == 0 else f"arrow a{i} {i + 1} {i}\n"
        for i in range(n - 1)
    )
    return parse_presentation("".join(f"vertex {i}\n" for i in range(n)) + arrows)


def test_a_series_and_its_replay_search_components_as_pinned(monkeypatch):
    # counted, not timed: the component searches of a series (its
    # classification included), of its replay on the same start and of its
    # replay on an equal fresh copy; past the first split, only a strip at
    # a vertex with two or more neighbours leaves a component to search.
    # Each run copies each component of its input once, as a split of a
    # working copy hands its lists on to parts that are working copies.
    rng = random.Random(7)
    cases = [
        (build_lambda(2, 5, 2), (2, 0, 1)),
        (build_lambda(3, 3, 2), (1, 0, 1)),
        (build_lambda(4, 9, 3), (2, 0, 1)),
        (relabel(build_lambda(2, 5, 2), rng), (4, 0, 1)),
        (relabel(build_lambda(3, 3, 2), rng), (1, 0, 1)),
        (relabel(build_lambda(1, 4, 1), rng), (3, 0, 1)),
        (
            direct_sum(build_lambda(*d) for d in [(2, 2, 1), (1, 3, 0), (2, 4, 2)]),
            (3, 0, 1),
        ),
        (zigzag(9), (4, 3, 4)),
        (zigzag(400), (200, 199, 200)),
    ]
    searches, copies = [0], [0]
    components, thaw = presentation._components, presentation._thaw

    def counted(pres):
        searches[0] += 1
        parts = components(pres)
        if isinstance(pres._relset, set):
            out = pres.quiver._out
            for part in parts:
                q = part.quiver
                assert isinstance(part._relset, set)
                assert q.vertices == q._out.keys()
                assert all(q._out[v] is out[v] for v in q.vertices)
        return parts

    def counted_thaw(pres):
        copies[0] += 1
        return thaw(pres)

    monkeypatch.setattr(presentation, "_components", counted)
    monkeypatch.setattr(presentation, "_thaw", counted_thaw)
    for pres, expected in cases:
        fresh = parse_presentation(serialize_presentation(pres))
        searches[0] = copies[0] = 0
        trace = strip_series(pres)
        found, copied = [searches[0]], [copies[0]]
        for start in (pres, fresh):
            searches[0] = copies[0] = 0
            assert verify_trace(start, trace).ok
            found.append(searches[0])
            copied.append(copies[0])
        assert tuple(found) == expected, serialize_presentation(pres)
        assert copied == [len(connected_components(fresh))] * 3


def test_a_corner_keeps_the_connected_mark_only_past_a_leaf(monkeypatch):
    searched = []
    components = presentation._components
    monkeypatch.setattr(
        presentation, "_components", lambda p: searched.append(p) or components(p)
    )
    # Lambda(2,5,2) is connected; -2 is a source with one neighbour
    pres = build_lambda(2, 5, 2)
    assert connected_components(pres) == (pres,) and len(searched) == 1
    corner = presentation._corner(pres, "-2")
    assert corner._cache == {"components": ()}
    assert connected_components(corner) == (corner,) and len(searched) == 1
    # from an unmarked copy the corner is not marked either
    assert presentation._corner(presentation._thaw(pres), "-2")._cache == {}
    # 1 is a sink with two neighbours in 0 -> 1 <- 2: the corner splits
    line = zigzag(3)
    connected_components(line)
    corner = presentation._corner(line, "1")
    assert "components" not in corner._cache
    assert [tuple(p.quiver.vertices) for p in connected_components(corner)] == [
        ("0",),
        ("2",),
    ]
    # past a vertex with two neighbours even a connected corner is searched
    cycle = build_lambda(1, 3, 0)
    connected_components(cycle)
    corner = presentation._corner(cycle, "0")
    assert corner._cache == {} and len(connected_components(corner)) == 1


def test_a_corner_never_edits_a_presentation_or_its_components():
    # the parts of a sum share their arrow lists with it; each corner of a
    # part is one copy, edited in place at its later strips
    total = direct_sum([build_lambda(2, 3, 2), zigzag(4), parse_presentation(A3)])
    parts = connected_components(total)
    path_counts(total)
    text = [serialize_presentation(p) for p in (total, *parts)]
    caches = [dict(p._cache) for p in (total, *parts)]
    for part in parts:
        q = part.quiver
        v = next(v for v in q.vertices if not q.arrows_into(v))
        corner = presentation._corner(part, v)
        assert corner is not part and isinstance(corner._relset, set)
        q = corner.quiver
        w = next(w for w in q.vertices if not q.arrows_into(w))
        assert presentation._corner(corner, w) is corner
    assert [serialize_presentation(p) for p in (total, *parts)] == text
    for pres, cache in zip((total, *parts), caches):
        assert pres._cache == cache
        assert all(pres._cache[key] is value for key, value in cache.items())
    assert connected_components(total) is caches[0]["components"]


@pytest.mark.parametrize(
    "pres,series_calls",
    [
        # one drop-radical step, at vertex 0, found at the first try
        (build_lambda(3, 5, 0), 1),
        # two drop-radical steps; the greedy search tries two more vertices
        (relabel(build_lambda(2, 5, 1), random.Random(2)), 4),
    ],
)
def test_a_strip_decides_radical_projectivity_once(monkeypatch, pres, series_calls):
    # the step is decided when chosen or checked, and its corner is built
    # without deciding it again
    calls = []
    decide = jordan._radical_projective

    def counted(comp, v):
        calls.append(v)
        return decide(comp, v)

    monkeypatch.setattr(jordan, "_radical_projective", counted)
    trace = strip_series(pres)
    assert len(calls) == series_calls
    calls.clear()
    assert verify_trace(pres, trace).ok
    drops = [step.vertex for step in trace.steps if step.op == "drop-radical"]
    assert calls == drops


def count_tables(pres):
    """The cached automaton and count tables of ``pres`` and copies of
    their contents."""
    tables = [pres._cache["automaton"], pres._cache["path_counts"]]
    return tables, [[copy.copy(part) for part in pair] for pair in tables]


def test_the_callers_presentations_keep_their_count_tables():
    # a series and its replay leave the count tables of the input and of
    # its cached components as they were, and so does a public corner
    inputs = [
        build_lambda(3, 5, 2),
        direct_sum([build_lambda(2, 3, 1), build_lambda(1, 2, 0)]),
    ]
    for pres in inputs:
        parts = connected_components(pres)
        for p in {pres, *parts}:
            path_counts(p)
        before = {id(p): count_tables(p) for p in {pres, *parts}}
        with checking_corners():
            trace = strip_series(pres)
            assert verify_trace(pres, trace).ok
        assert all(a is b for a, b in zip(connected_components(pres), parts))
        for p in {pres, *parts}:
            tables, contents = before[id(p)]
            now = [p._cache["automaton"], p._cache["path_counts"]]
            assert all(a is b for a, b in zip(now, tables))
            assert count_tables(p)[1] == contents
    ambient = build_lambda(2, 3, 1)
    path_counts(ambient)
    tables, contents = count_tables(ambient)
    idempotent_subalgebra(ambient, [v for v in ambient.quiver.vertices if v != "0"])
    assert ambient._cache["automaton"] is tables[0]
    assert ambient._cache["path_counts"] is tables[1]
    assert count_tables(ambient)[1] == contents


def contents(pres):
    """Everything a strip could edit in place: the vertices, the arrow
    dict in order, each arrow list (the object and its items) and the
    relation set."""
    q = pres.quiver
    lists = [(id(x), tuple(x)) for d in (q._out, q._in) for x in d.values()]
    return q.vertices, list(q.arrows.items()), lists, pres._relset


def test_a_series_and_its_replay_never_edit_the_callers_presentations():
    # the strips edit working copies in place; the input, its cached
    # components and the ambient of a public corner stay as they were
    inputs = [
        build_lambda(3, 5, 2),
        parse_presentation(STAR_OUT),
        direct_sum([build_lambda(2, 3, 1), build_lambda(1, 2, 0)]),
        relabel(build_lambda(2, 5, 1), random.Random(2)),
    ]
    for pres in inputs:
        parts = connected_components(pres)
        before = [contents(p) for p in (pres, *parts)]
        trace = strip_series(pres)
        assert verify_trace(pres, trace).ok
        assert connected_components(pres) == parts
        assert [contents(p) for p in (pres, *parts)] == before
        for v in pres.quiver.vertices:
            keep = [w for w in pres.quiver.vertices if w != v]
            with contextlib.suppress(PreconditionError):
                idempotent_subalgebra(pres, keep)
        assert contents(pres) == before[0]


def test_verify_trace_reports_a_step_it_cannot_check():
    # a drop at a vertex that is not radical-projective words its defect
    # with path counts, which an infinite dimensional start does not have:
    # the replay reports that as the step's failure rather than raising
    pres = parse_presentation(
        "vertex 0\nvertex 1\nvertex 2\narrow a 0 1\narrow b 1 0\n"
        "arrow c 1 2\narrow d 2 1\nrelation c d\n"
    )
    for step, failure in [
        (
            SeriesStep("drop-radical", "1"),
            "step 1: step check failed: relation-free cycle: the path basis"
            " is infinite",
        ),
        (SeriesStep("strip-source", "0"), "step 1: vertex '0' has incoming arrows"),
    ]:
        trace = SeriesTrace(pres, (SPLIT, step), (K,))
        assert verify_trace(pres, trace).failures == (failure,)


def test_verify_trace_rejects_forged_radical_drop():
    pres = build_lambda(2, 2, 0)
    forged = SeriesTrace(
        pres,
        (
            SeriesStep("split", parts=1),
            SeriesStep("drop-radical", vertex="0"),
            SeriesStep("terminal", factor=K),
        ),
        (K, K),
    )
    report = verify_trace(pres, forged)
    assert not report.ok
    assert "not projective" in report.failures[0]


def test_verify_trace_rejects_tampered_factor_record():
    pres = build_lambda(2, 2, 0)
    good = strip_series(pres)
    tampered = SeriesTrace(good.initial, good.steps, (two_truncated_cycle(7),))
    report = verify_trace(pres, tampered)
    assert not report.ok
    assert any("factors differ" in f for f in report.failures)
    assert any("does not match the normal form" in f for f in report.failures)


def test_verify_trace_rejects_wrong_terminal_class():
    pres = build_lambda(2, 2, 0)
    wrong = SeriesTrace(
        pres,
        (
            SeriesStep("split", parts=1),
            SeriesStep("terminal", factor=two_truncated_cycle(3)),
        ),
        (two_truncated_cycle(3),),
    )
    report = verify_trace(pres, wrong)
    assert not report.ok and "not isomorphic" in report.failures[0]
    # shapes close to a 2-truncated cycle: a cycle one relation short, and
    # two disjoint cycles or a cycle with a stem, with n of everything
    four_cycle_missing_one = parse_presentation(
        "vertex p\nvertex q\nvertex u\nvertex w\n"
        "arrow a p q\narrow b q u\narrow c u w\narrow d w p\n"
        "relation a b\nrelation b c\nrelation c d\n"
    )
    two_cycles = direct_sum([build_lambda(2, 2, 0), build_lambda(2, 2, 0)])
    stem_into_cycle = parse_presentation(
        "vertex p\nvertex q\nvertex u\narrow a p q\narrow b q u\narrow c u q\n"
        "relation a b\nrelation b c\nrelation c b\n"
    )
    for pres, size in [
        (build_lambda(2, 3, 0), 3),
        (four_cycle_missing_one, 4),
        (two_cycles, 4),
        (stem_into_cycle, 3),
    ]:
        claimed = two_truncated_cycle(size)
        steps = (SeriesStep("terminal", factor=claimed),)
        forged = SeriesTrace(pres, steps, (claimed,))
        assert verify_trace(pres, forged).failures == (
            f"step 0: not isomorphic to Lambda({size},{size},0)",
        )


def test_verify_trace_rejects_wrong_start_and_bad_shapes():
    l220 = build_lambda(2, 2, 0)
    trace = strip_series(l220)
    assert not verify_trace(build_lambda(1, 1, 0), trace).ok
    short = SeriesTrace(l220, trace.steps[:-1], ())
    assert any("unreduced" in f for f in verify_trace(l220, short).failures)
    long = SeriesTrace(l220, trace.steps + trace.steps[-1:], trace.factors * 2)
    assert any("nothing left" in f for f in verify_trace(l220, long).failures)


SPLIT = SeriesStep("split", parts=1)
L220, L121 = build_lambda(2, 2, 0), build_lambda(1, 2, 1)
# s -> 1 in front of the line 1 -> 2 -> 3 -> 4 with its relation of length 3
A5_LONG_RELATION = parse_presentation(
    "vertex s\nvertex 1\nvertex 2\nvertex 3\nvertex 4\n"
    "arrow e s 1\narrow a 1 2\narrow b 2 3\narrow c 3 4\nrelation a b c\n"
)
ONE_ARROW = parse_presentation("vertex 0\nvertex 1\narrow a 0 1\n")
# 15 basis paths and rad P_2 projective, but the corner dropping 2 has the
# generators x*y and z and no relation: an infinite quadratic presentation
CYCLE_XYZX = parse_presentation(
    "vertex 1\nvertex 2\nvertex 3\n"
    "arrow x 1 2\narrow y 2 3\narrow z 3 1\nrelation x y z x\n"
)
A4_LONG_RELATION = parse_presentation(
    (DATA / "a4_long_relation.txt").read_text("utf-8")
)


@pytest.mark.parametrize(
    "pres, steps, factors, failures",
    [
        (
            L220,
            [SeriesStep("split", parts=2)],
            (),
            ("step 0: claimed 2 components, found 1",),
        ),
        (
            L220,
            [SPLIT, SeriesStep("terminal")],
            (),
            ("step 1: terminal step without a factor",),
        ),
        (
            L220,
            [SPLIT, SeriesStep("terminal", factor=K)],
            (K,),
            ("step 1: terminal K needs a lone vertex with no arrows",),
        ),
        (
            L121,
            [SPLIT, SeriesStep("strip-source", "9")],
            (K,),
            ("step 1: no vertex '9' here",),
        ),
        (
            L121,
            [SPLIT, SeriesStep("strip-source", "0")],
            (K,),
            ("step 1: vertex '0' has incoming arrows",),
        ),
        (
            L121,
            [SPLIT, SeriesStep("strip-sink", "0")],
            (K,),
            ("step 1: vertex '0' has outgoing arrows",),
        ),
        (
            L121,
            [SPLIT, SeriesStep("fold", "0")],
            (K,),
            ("step 1: unknown op 'fold'",),
        ),
        (
            A5_LONG_RELATION,
            [SeriesStep("strip-source", "s")],
            (K,),
            (
                "step 0: corner construction failed: corner algebra is not"
                " quadratic monomial on these generators",
            ),
        ),
        (
            CYCLE_XYZX,
            [SPLIT, SeriesStep("drop-radical", "2")],
            (K,),
            (
                "step 1: corner construction failed: corner algebra is not"
                " quadratic monomial on these generators",
            ),
        ),
        (
            A4_LONG_RELATION,
            [SeriesStep("strip-source", v) for v in "123"]
            + [SeriesStep("terminal", "4", K)],
            (K, K, K, K),
            ("factor check unavailable: normal form has unknown components",),
        ),
        (
            L220,
            [SPLIT, SeriesStep("terminal", factor=two_truncated_cycle(2))],
            (K, K, K),
            (
                "recorded factors differ from the replayed factors",
                "factor multiset does not match the normal form",
                "length 3 exceeds rank 2",
            ),
        ),
        (
            ONE_ARROW,
            [SPLIT, SeriesStep("strip-source", "0"), SeriesStep("strip-source", "1")],
            (K, K),
            (
                "step 2: vertex '1' is a one-vertex component;"
                " only a terminal step retires one",
            ),
        ),
        (
            ONE_ARROW,
            [SPLIT]
            + [SeriesStep("strip-source", v) for v in "01"]
            + [SeriesStep("split")],
            (K, K),
            (
                "step 2: vertex '1' is a one-vertex component;"
                " only a terminal step retires one",
            ),
        ),
        (
            ONE_ARROW,
            [SPLIT, SeriesStep("strip-source", "0"), SeriesStep("drop-radical", "1")],
            (K, K),
            (
                "step 2: vertex '1' is a one-vertex component;"
                " only a terminal step retires one",
            ),
        ),
    ],
)
def test_verify_trace_names_each_rejection(pres, steps, factors, failures):
    trace = SeriesTrace(pres, tuple(steps), factors)
    assert verify_trace(pres, trace).failures == failures


def edited_trace(i, **fields):
    """The series of Lambda(1,2,1) with fields of its step i replaced."""
    pres = build_lambda(1, 2, 1)
    trace = strip_series(pres)
    steps = list(trace.steps)
    steps[i] = steps[i]._replace(**fields)
    return pres, SeriesTrace(pres, tuple(steps), trace.factors)


@pytest.mark.parametrize(
    "i, fields, failure",
    [
        (0, {"vertex": "0"}, "step 0: split names vertex '0'"),
        (
            1,
            {"factor": two_truncated_cycle(5)},
            "step 1: strip-source carries a factor; only a terminal does",
        ),
        (3, {"vertex": "7"}, "step 3: terminal K names vertex '7'"),
        (3, {"parts": 4}, "step 3: terminal claims 4 parts; only a split has parts"),
    ],
)
def test_verify_trace_checks_every_recorded_field(i, fields, failure):
    # the series steps are split, strip-source -1, drop-radical 0, terminal 1
    pres, trace = edited_trace(i, **fields)
    assert verify_trace(pres, trace).failures == (failure,)


def test_terminals_name_no_vertex_or_their_lone_one():
    pres, trace = edited_trace(3, vertex="")
    assert verify_trace(pres, trace).ok
    cycle = two_truncated_cycle(2)
    trace = SeriesTrace(L220, (SPLIT, SeriesStep("terminal", "0", cycle)), (cycle,))
    assert verify_trace(L220, trace).failures == (
        "step 1: terminal TwoTruncatedCycle(2) names vertex '0'",
    )


def test_series_and_verify_apply_every_step_through_one_rule(monkeypatch):
    applied = []
    apply = jordan._apply

    def recorded(current, step):
        applied.append(step)
        return apply(current, step)

    monkeypatch.setattr(jordan, "_apply", recorded)
    pres = build_lambda(2, 3, 1)
    trace = strip_series(pres)
    assert applied == list(trace.steps)
    applied.clear()
    assert verify_trace(pres, trace).ok
    assert applied == list(trace.steps)


def test_series_needs_no_isomorphism_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("isomorphism search on a hot path")

    for module in (ddisc, ddisc.presentation, ddisc.classify):
        for name in ("find_isomorphism", "are_isomorphic"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    rng = random.Random(9)
    triples = [
        (r, s, n - s)
        for n in range(1, 13)
        for s in range(1, n + 1)
        for r in range(1, s + 1)
    ]
    # every normal form, and the series of all n <= 7 plus a sample beyond
    series = [rst for rst in triples if sum(rst[1:]) <= 7]
    series += rng.sample([rst for rst in triples if sum(rst[1:]) > 7], 12)
    for r, s, t in triples:
        pres = relabel(build_lambda(r, s, t), rng)
        nf = lambda_normal_form(pres)
        assert nf.components == (LambdaClass(LambdaDescriptor(r, s, t)),)
        if (r, s, t) in series:
            trace = strip_series(pres)
            assert verify_trace(pres, trace).ok, (r, s, t)
            assert trace.factor_multiset() == composition_factors(nf)


def test_series_needs_no_linear_algebra(monkeypatch, capsys):
    # path counts decide every step, so series and its replay list no path;
    # no command but hom reaches a module, and none reaches linear algebra
    def refuse(*args, **kwargs):
        raise AssertionError(
            "module, linear algebra or path listing on a series or command path"
        )

    banned = [
        value
        for module in (ddisc.linalg, ddisc.homology)
        for name, value in vars(module).items()
        if not name.startswith("_")
        and callable(value)
        and getattr(value, "__module__", None) == module.__name__
    ] + [ddisc.presentation.path_basis]
    ddisc_modules = [
        m for name, m in sys.modules.items() if name.split(".")[0] == "ddisc"
    ]
    for module in ddisc_modules:
        for name, value in list(vars(module).items()):
            if any(value is fn for fn in banned):
                monkeypatch.setattr(module, name, refuse)
    assert ddisc.jordan.projective_cover is refuse
    assert ddisc.presentation.path_basis is refuse
    inputs = [
        build_lambda(1, 4, 2),
        build_lambda(3, 5, 0),
        parse_presentation((DATA / "relabeled_4_7_3.txt").read_text("utf-8")),
        direct_sum(
            [build_lambda(2, 3, 1), relabel(build_lambda(1, 3, 2), random.Random(4))]
        ),
    ]
    for pres in inputs:
        trace = strip_series(pres)
        assert any(step.op == "drop-radical" for step in trace.steps)
        assert verify_trace(pres, trace).ok
        assert trace.factor_multiset() == composition_factors(lambda_normal_form(pres))
    for path in sorted(DATA.glob("*.txt")):
        for command in ("classify", "factors", "series"):
            code = ddisc.cli.main([command, str(path)])
            assert code == GOLDEN_NONZERO.get((path.stem, command), 0), (path, command)
            golden = path.with_name(f"{path.stem}.{command}.out")
            assert capsys.readouterr().out == golden.read_text("utf-8")


# -- simplicity --------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_simplicity_does_not_depend_on_n(n):
    assert is_n_derived_simple(
        lambda_normal_form(parse_presentation("vertex 1\n")), n
    ).simple
    for s in range(1, 6):
        assert is_n_derived_simple(
            lambda_normal_form(build_lambda(s, s, 0)), n
        ).simple
    for pres in (build_lambda(2, 2, 1), build_lambda(1, 2, 0)):
        assert not is_n_derived_simple(lambda_normal_form(pres), n).simple


def test_simplicity_witness_names_the_reduction():
    assert (
        "extension"
        in is_n_derived_simple(lambda_normal_form(build_lambda(2, 2, 1)), 1).witness
    )
    assert (
        "radical"
        in is_n_derived_simple(lambda_normal_form(build_lambda(1, 2, 0)), 1).witness
    )
    assert (
        "source"
        in is_n_derived_simple(lambda_normal_form(parse_presentation(A3)), 1).witness
    )
    sum_cls = lambda_normal_form(
        direct_sum([build_lambda(1, 1, 0), build_lambda(2, 2, 0)])
    )
    assert "components" in is_n_derived_simple(sum_cls, 1).witness


def test_simplicity_refuses_unknown_and_bad_n():
    kron = lambda_normal_form(parse_presentation(KRONECKER))
    with pytest.raises(PreconditionError):
        is_n_derived_simple(kron, 1)
    with pytest.raises(PreconditionError):
        is_n_derived_simple(lambda_normal_form(build_lambda(1, 1, 0)), 0)


def test_a_series_sorts_no_relation_list(monkeypatch):
    # relations are stored as one set; their sorted path view is made on
    # first read, and a series reads it nowhere
    literal = build_lambda(20, 40, 20)
    inputs = [
        literal,
        relabel(build_lambda(4, 9, 3), random.Random(2)),
        direct_sum([build_lambda(2, 3, 1), build_lambda(1, 2, 0)]),
    ]
    expected = build_lambda(20, 40, 19).relations
    made = []
    make = presentation._relation_paths

    def counted(pres):
        made.append(pres)
        return make(pres)

    monkeypatch.setattr(presentation, "_relation_paths", counted)
    for pres in inputs:
        assert verify_trace(pres, strip_series(pres)).ok
    assert made == []
    # a caller who reads a corner's relations gets them made, in order
    corner = idempotent_subalgebra(literal, literal.quiver.vertices[1:])
    assert corner.relations == expected
    assert made == [corner]
