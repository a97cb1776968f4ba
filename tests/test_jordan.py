"""Composition factors, radical drops, series traces and their replay."""

import pathlib
import random
import sys
from collections import Counter

import pytest

import ddisc
from ddisc import (
    K,
    PreconditionError,
    SeriesStep,
    SeriesTrace,
    build_lambda,
    composition_factors,
    direct_sum,
    grothendieck_rank,
    idempotent_subalgebra,
    is_n_derived_simple,
    is_radical_projective,
    lambda_normal_form,
    parse_presentation,
    strip_series,
    two_truncated_cycle,
    verify_trace,
)
from ddisc.classify import DerivedEquivClass, LambdaClass
from ddisc.presentation import LambdaDescriptor
from test_classify import relabel

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


def test_series_needs_no_linear_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("module or linear algebra on the series path")

    banned = [
        value
        for module in (ddisc.linalg, ddisc.homology)
        for name, value in vars(module).items()
        if not name.startswith("_")
        and callable(value)
        and getattr(value, "__module__", None) == module.__name__
    ]
    ddisc_modules = [
        m for name, m in sys.modules.items() if name.split(".")[0] == "ddisc"
    ]
    for module in ddisc_modules:
        for name, value in list(vars(module).items()):
            if any(value is fn for fn in banned):
                monkeypatch.setattr(module, name, refuse)
    assert ddisc.jordan.projective_cover is refuse
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
