"""Classifier: gentleness, clock condition, invariant values, normal forms."""

import itertools
import math
import pathlib
import random
import signal
import sys
from collections import Counter

import pytest

from ddisc import (
    InfiniteDimensionalError,
    PreconditionError,
    build_lambda,
    cartan_matrix,
    connected_components,
    direct_sum,
    parse_presentation,
    serialize_presentation,
    strip_series,
    verify_trace,
)
from ddisc import classify, cli, jordan, presentation
from ddisc.classify import (
    AGInvariant,
    DerivedEquivClass,
    DynkinHereditary,
    LambdaClass,
    UnknownClass,
    _lambda_from_invariant,
    ag_invariant,
    clock_condition,
    cycle_count,
    dynkin_type,
    is_derived_discrete,
    is_gentle,
    lambda_normal_form,
)
from ddisc.presentation import (
    BoundQuiverPresentation,
    LambdaDescriptor,
    Quiver,
    _assert_finite_dimensional,
    _thaw,
    path_counts,
    vertex_sort_key,
)

KRONECKER = "vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2\n"

A3_REL = (
    "vertex 1\nvertex 2\nvertex 3\narrow a 1 2\narrow b 2 3\nrelation a b\n"
)

# non-oriented triangle, one relation; gentle, one cycle, clock fails
TRIANGLE = """
vertex 1
vertex 2
vertex 3
arrow a 1 2
arrow b 3 2
arrow c 3 1
relation c a
"""

# non-oriented square with one relation per traversal orientation; the
# clock condition holds, so this one is not derived discrete
SQUARE_BALANCED = """
vertex 1
vertex 2
vertex 3
vertex 4
arrow a 1 2
arrow b 2 3
arrow c 4 3
arrow d 1 4
relation a b
relation d c
"""


def relabel(pres, rng):
    verts = list(pres.quiver.vertices)
    new = [f"v{i}" for i in range(len(verts))]
    rng.shuffle(new)
    vmap = dict(zip(verts, new))
    names = [f"x{i}" for i in range(len(pres.quiver.arrows))]
    rng.shuffle(names)
    amap = dict(zip(pres.quiver.arrows, names))
    arrows = [
        (amap[a], vmap[src], vmap[tgt])
        for a, (src, tgt) in pres.quiver.arrows.items()
    ]
    rels = [tuple(amap[a] for a in rel.arrows) for rel in pres.relations]
    return BoundQuiverPresentation(Quiver(new, arrows), rels)


# -- gentleness ----------------------------------------------------------------


@pytest.mark.parametrize("r,s,t", [(1, 1, 0), (1, 2, 0), (2, 2, 1), (2, 3, 2)])
def test_lambda_family_is_gentle(r, s, t):
    assert is_gentle(build_lambda(r, s, t)).gentle


def test_gentle_violations_are_reported():
    three_out = parse_presentation(
        "vertex 0\nvertex 1\nvertex 2\nvertex 3\n"
        "arrow a 0 1\narrow b 0 2\narrow c 0 3\n"
    )
    cert = is_gentle(three_out)
    assert not cert.gentle
    assert cert.violations[0][0] == "G1"

    long_rel = parse_presentation(
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 2\narrow b 2 3\narrow c 3 4\nrelation a b c\n"
    )
    assert ("G2", "relation a*b*c has length 3") in is_gentle(long_rel).violations

    two_rels = parse_presentation(
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 2\narrow b 2 3\narrow c 2 4\n"
        "relation a b\nrelation a c\n"
    )
    assert any(v[0] == "G3" for v in is_gentle(two_rels).violations)

    fork = parse_presentation(
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 2\narrow b 2 3\narrow c 2 4\n"
    )
    assert any(v[0] == "G4" for v in is_gentle(fork).violations)


def test_kronecker_is_gentle_but_not_discrete():
    kron = parse_presentation(KRONECKER)
    assert is_gentle(kron).gentle
    assert is_derived_discrete(kron).verdict == "no"


# -- cycle structure -----------------------------------------------------------


def test_cycle_count():
    assert cycle_count(parse_presentation(A3_REL)) == 0
    assert cycle_count(build_lambda(2, 3, 1)) == 1
    assert cycle_count(parse_presentation(KRONECKER)) == 1
    assert cycle_count(direct_sum([build_lambda(1, 1, 0), build_lambda(1, 2, 0)])) == 2


@pytest.mark.parametrize(
    "r,s,t",
    [(r, s, t) for s in (1, 2, 3) for r in range(1, s + 1) for t in (0, 1, 2)],
)
def test_clock_counts_on_lambda(r, s, t):
    rep = clock_condition(build_lambda(r, s, t))
    assert sorted((rep.with_count, rep.against_count)) == sorted((r, 0))
    assert not rep.satisfied
    assert len(rep.cycle) == s


def test_clock_on_kronecker_and_balanced_square():
    rep = clock_condition(parse_presentation(KRONECKER))
    assert (rep.with_count, rep.against_count) == (0, 0)
    assert rep.satisfied

    rep = clock_condition(parse_presentation(SQUARE_BALANCED))
    assert rep.with_count == 1 and rep.against_count == 1
    assert rep.satisfied


def test_clock_on_unbalanced_triangle():
    rep = clock_condition(parse_presentation(TRIANGLE))
    assert sorted((rep.with_count, rep.against_count)) == [0, 1]
    assert not rep.satisfied


def test_clock_preconditions():
    with pytest.raises(PreconditionError):
        clock_condition(parse_presentation(A3_REL))  # no cycle
    with pytest.raises(PreconditionError):
        clock_condition(direct_sum([build_lambda(1, 1, 0), build_lambda(1, 1, 0)]))


# -- Dynkin recognition ----------------------------------------------------------


def test_dynkin_type_paths_and_stars():
    a4 = parse_presentation(
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 2\narrow b 3 2\narrow c 3 4\n"  # orientation must not matter
    )
    assert dynkin_type(a4) == ("A", 4)

    d4 = parse_presentation(
        "vertex 0\nvertex 1\nvertex 2\nvertex 3\n"
        "arrow a 1 0\narrow b 2 0\narrow c 3 0\n"
    )
    assert dynkin_type(d4) == ("D", 4)

    e6 = parse_presentation(
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\n"
        "arrow a 1 2\narrow b 2 3\narrow c 3 4\narrow d 4 5\narrow e 3 6\n"
    )
    assert dynkin_type(e6) == ("E", 6)

    e8 = parse_presentation(
        "\n".join(f"vertex {i}" for i in range(1, 9))
        + "\narrow a 1 2\narrow b 2 3\narrow c 3 4\narrow d 4 5\n"
        + "arrow e 5 6\narrow f 6 7\narrow g 3 8\n"
    )
    assert dynkin_type(e8) == ("E", 8)


def test_dynkin_type_rejections():
    star4 = parse_presentation(
        "vertex 0\nvertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 0\narrow b 2 0\narrow c 3 0\narrow d 4 0\n"
    )
    assert dynkin_type(star4) is None  # degree four hub
    assert dynkin_type(parse_presentation(KRONECKER)) is None  # one cycle
    two_hubs = parse_presentation(
        "\n".join(f"vertex {i}" for i in range(1, 7))
        + "\narrow a 1 2\narrow b 3 2\narrow c 2 5\narrow d 5 4\narrow e 5 6\n"
    )
    assert dynkin_type(two_hubs) is None


def three_armed_tree(arms):
    """A hub h with arms of the given vertex counts, arrows pointing out."""
    names = [[f"{'xyz'[i]}{j}" for j in range(n)] for i, n in enumerate(arms)]
    lines = ["vertex h"] + [f"vertex {v}" for arm in names for v in arm]
    for arm in names:
        lines += [f"arrow e{v} {u} {v}" for u, v in zip(["h"] + arm, arm)]
    return parse_presentation("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "arms, expected",
    [
        ((1, 2, 3), ("E", 7)),
        ((1, 1, 5), ("D", 8)),
        # the Euclidean trees E6~, E7~ and E8~
        ((2, 2, 2), None),
        ((1, 3, 3), None),
        ((1, 2, 5), None),
    ],
)
def test_dynkin_type_of_three_armed_trees(arms, expected):
    tree = three_armed_tree(arms)
    assert dynkin_type(tree) == expected
    if expected is None:
        # hereditary with a non-Dynkin underlying graph
        assert is_derived_discrete(tree).verdict == "no"
        return
    assert is_derived_discrete(tree).verdict == "yes"
    trace = strip_series(tree)
    assert trace.length() == 1 + sum(arms)
    assert verify_trace(tree, trace).ok


@pytest.mark.parametrize(
    "text",
    [
        # a cycle through the branch vertex h, and an arrow d -> e apart
        "vertex h\nvertex a\nvertex b\nvertex c\nvertex d\nvertex e\n"
        "arrow p h a\narrow q a b\narrow r b h\narrow s h c\narrow t d e\n",
        # D4 and a 2-cycle
        "vertex 0\nvertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\n"
        "arrow a 1 0\narrow b 2 0\narrow c 3 0\narrow d 4 5\narrow e 5 4\n",
        # A3 and a 2-cycle
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\n"
        "arrow a 1 2\narrow b 2 3\narrow c 4 5\narrow d 5 4\n",
        # A3 and a loop
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 2\narrow b 2 3\narrow c 4 4\n",
    ],
    ids=["cycle_at_hub", "d4_and_2_cycle", "a3_and_2_cycle", "a3_and_loop"],
)
def test_dynkin_type_needs_the_arrows_to_connect_the_vertices(text):
    # n - 1 arrows that leave a vertex unreached close a cycle elsewhere,
    # where an arm walk could go round for ever
    def timed_out(signum, frame):
        raise TimeoutError("dynkin_type did not return")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        assert dynkin_type(parse_presentation(text)) is None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- discreteness decisions -------------------------------------------------------


@pytest.mark.parametrize(
    "r,s,t",
    [(r, s, t) for s in (1, 2, 3) for r in range(1, s + 1) for t in (0, 1)],
)
def test_lambda_family_is_discrete(r, s, t):
    assert is_derived_discrete(build_lambda(r, s, t)).verdict == "yes"


def test_hereditary_decisions():
    a2 = parse_presentation("vertex 1\nvertex 2\narrow a 1 2\n")
    assert is_derived_discrete(a2).verdict == "yes"
    verdict, reason = is_derived_discrete(a2).components[0]
    assert "A2" in reason

    # non-oriented cycle without relations: hereditary, not Dynkin
    tilde = parse_presentation(
        "vertex 1\nvertex 2\nvertex 3\n"
        "arrow a 1 2\narrow b 3 2\narrow c 3 1\n"
    )
    assert is_derived_discrete(tilde).verdict == "no"


def test_tree_gentle_flag():
    tree = parse_presentation(A3_REL)
    assert is_derived_discrete(tree).verdict == "yes"


def test_discreteness_aggregation():
    mixed = direct_sum(
        [build_lambda(1, 2, 0), parse_presentation(KRONECKER)]
    )
    assert is_derived_discrete(mixed).verdict == "no"
    good = direct_sum([build_lambda(1, 2, 0), parse_presentation(A3_REL)])
    assert is_derived_discrete(good).verdict == "yes"
    nong = parse_presentation(
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 2\narrow b 2 3\narrow c 3 4\nrelation a b c\n"
    )
    assert is_derived_discrete(nong).verdict == "unknown"


def test_discreteness_requires_finite_dimension():
    loop = parse_presentation("vertex 1\narrow a 1 1\n")
    with pytest.raises(InfiniteDimensionalError):
        is_derived_discrete(loop)


def test_balanced_square_is_not_discrete():
    assert is_derived_discrete(parse_presentation(SQUARE_BALANCED)).verdict == "no"


# -- invariant values --------------------------------------------------------------

# hand-derived walks, frozen
PHI_FROZEN = [
    ((1, 1, 0), {(1, 0): 1, (0, 1): 1}),
    ((1, 2, 0), {(1, 0): 1, (1, 2): 1}),
    ((2, 2, 0), {(2, 0): 1, (0, 2): 1}),
    ((1, 1, 1), {(2, 1): 1, (0, 1): 1}),
    ((2, 2, 1), {(3, 1): 1, (0, 2): 1}),
]


@pytest.mark.parametrize("rst,expected", PHI_FROZEN)
def test_invariant_frozen_lambda_values(rst, expected):
    assert ag_invariant(build_lambda(*rst)).as_multiset() == expected


def test_invariant_point_and_lines():
    point = parse_presentation("vertex 1\n")
    assert ag_invariant(point).as_multiset() == {(1, 0): 1}
    a2 = parse_presentation("vertex 1\nvertex 2\narrow a 1 2\n")
    assert ag_invariant(a2).as_multiset() == {(3, 1): 1}
    # one relation on the A_3 line: same class as the hereditary line
    assert ag_invariant(parse_presentation(A3_REL)).as_multiset() == {(4, 2): 1}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_invariant_hereditary_lines(n):
    text = "\n".join(f"vertex {i}" for i in range(1, n + 1)) + "\n"
    text += "\n".join(f"arrow a{i} {i} {i + 1}" for i in range(1, n)) + "\n"
    assert ag_invariant(parse_presentation(text)).as_multiset() == {(n + 1, n - 1): 1}


def test_invariant_full_cycle_pattern():
    # r = s cycles contribute the (0, s) orbit of the relation permutation
    for s in (1, 2, 3, 4):
        for t in (0, 1, 2):
            expected = {(s + t, t): 1, (0, s): 1}
            assert ag_invariant(build_lambda(s, s, t)).as_multiset() == expected


def test_invariant_is_additive_on_sums():
    rng = random.Random(11)
    pool = [
        build_lambda(1, 2, 0),
        build_lambda(2, 2, 1),
        build_lambda(1, 1, 0),
        parse_presentation(A3_REL),
        parse_presentation(TRIANGLE),
    ]
    for _ in range(10):
        left, right = rng.choice(pool), rng.choice(pool)
        total = ag_invariant(direct_sum([left, right])).as_multiset()
        merged = ag_invariant(left).as_multiset()
        for pair, mult in ag_invariant(right).as_multiset().items():
            merged[pair] = merged.get(pair, 0) + mult
        assert total == merged


def test_invariant_is_relabel_invariant():
    rng = random.Random(23)
    for pres in [
        build_lambda(2, 3, 1),
        build_lambda(3, 3, 0),
        parse_presentation(TRIANGLE),
        parse_presentation(A3_REL),
    ]:
        for _ in range(5):
            assert ag_invariant(relabel(pres, rng)) == ag_invariant(pres)


def test_invariant_rejects_non_gentle():
    fork = parse_presentation(
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 2\narrow b 2 3\narrow c 2 4\n"
    )
    with pytest.raises(PreconditionError):
        ag_invariant(fork)


def test_invariant_closed_form():
    # Lambda(r,s,t) -> {(r+t, t), (s-r, s)}: the formula the classifier inverts
    for n in range(1, 31):
        for s in range(1, n + 1):
            for r in range(1, s + 1):
                t = n - s
                expected = tuple(sorted({(r + t, t), (s - r, s)}))
                assert ag_invariant(build_lambda(r, s, t)).pairs == expected


def test_invariant_separates_candidates():
    for n in range(1, 9):
        values = {}
        for s in range(1, n + 1):
            for r in range(1, s + 1):
                inv = ag_invariant(build_lambda(r, s, n - s))
                assert inv not in values, (values[inv], (r, s, n - s))
                values[inv] = (r, s, n - s)


# -- normal forms ------------------------------------------------------------------


@pytest.mark.parametrize(
    "r,s,t", [(r, s, t) for s in (1, 2, 3) for r in range(1, s + 1) for t in (0, 1)]
)
def test_normal_form_literal(r, s, t):
    nf = lambda_normal_form(build_lambda(r, s, t))
    assert nf == DerivedEquivClass((LambdaClass(LambdaDescriptor(r, s, t)),))


def test_normal_form_of_relabeled_lambda():
    rng = random.Random(7)
    pres = relabel(build_lambda(2, 3, 1), rng)
    nf = lambda_normal_form(pres)
    assert nf.components == (LambdaClass(LambdaDescriptor(2, 3, 1)),)


def test_normal_form_via_invariant_matching():
    # the triangle is not isomorphic to any build_lambda output, so only the
    # invariant can place it
    nf = lambda_normal_form(parse_presentation(TRIANGLE))
    assert nf.components == (LambdaClass(LambdaDescriptor(1, 2, 1)),)


def test_normal_form_hereditary_and_trees():
    a4 = parse_presentation(
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 2\narrow b 3 2\narrow c 3 4\n"
    )
    assert lambda_normal_form(a4).components == (DynkinHereditary("A", 4),)
    tree = parse_presentation(A3_REL)
    assert lambda_normal_form(tree).components == (DynkinHereditary("A", 3),)


def test_normal_form_unknowns():
    kron = lambda_normal_form(parse_presentation(KRONECKER))
    assert isinstance(kron.components[0], UnknownClass)
    assert kron.has_unknown()

    balanced = lambda_normal_form(parse_presentation(SQUARE_BALANCED))
    assert isinstance(balanced.components[0], UnknownClass)
    assert "clock" in balanced.components[0].reason


def test_normal_form_componentwise():
    total = direct_sum([build_lambda(1, 2, 0), parse_presentation(A3_REL)])
    nf = lambda_normal_form(total)
    assert nf.components == (
        LambdaClass(LambdaDescriptor(1, 2, 0)),
        DynkinHereditary("A", 3),
    )
    assert not nf.has_unknown()


def test_invariant_matches_normal_form_battery():
    # relabeled one-cycle inputs must land on their own descriptor
    rng = random.Random(42)
    for s in (1, 2, 3):
        for r in range(1, s + 1):
            for t in (0, 1, 2):
                pres = relabel(build_lambda(r, s, t), rng)
                nf = lambda_normal_form(pres)
                assert nf.components == (
                    LambdaClass(LambdaDescriptor(r, s, t)),
                ), (r, s, t)


def test_invariant_outside_the_family_has_no_normal_form():
    assert _lambda_from_invariant(AGInvariant(((1, 2), (2, 1))), 3) == (
        LambdaDescriptor(1, 2, 1)
    )
    for pairs, n in [
        (((1, 2), (2, 1)), 4),  # s + t differs from the vertex count
        (((1, 0),), 1),  # one pair
        (((0, 1), (1, 0), (2, 1)), 3),  # three pairs
        (((2, 1), (3, 1)), 2),  # no rising pair
        (((1, 1), (0, 2)), 3),  # a pair with a = b
        (((0, 2), (2, 1)), 3),  # d - c differs from r
    ]:
        assert _lambda_from_invariant(AGInvariant(pairs), n) is None, pairs


def test_an_invariant_outside_the_family_is_an_error_not_a_normal_form(monkeypatch):
    # Bobinski-Geiss-Skowronski rule it out on a discrete one-cycle input
    monkeypatch.setattr(classify, "ag_invariant", lambda pres: AGInvariant(((1, 2), (2, 1))))
    with pytest.raises(PreconditionError, match=r"invariant \(\(1, 2\), \(2, 1\)\) matches no"):
        lambda_normal_form(build_lambda(2, 3, 1))


def test_relabeled_large_input_classifies():
    # n = 1000: any search over labellings or candidates would not finish
    pres = relabel(build_lambda(100, 100, 900), random.Random(3))
    assert lambda_normal_form(pres).components == (
        LambdaClass(LambdaDescriptor(100, 100, 900)),
    )
    assert is_derived_discrete(pres).verdict == "yes"


def test_invariant_frozen_nonliteral():
    expected = AGInvariant(((1, 2), (2, 1)))
    assert ag_invariant(parse_presentation(TRIANGLE)) == expected


# -- one classification pass -----------------------------------------------------


def counted_classification(monkeypatch):
    """Count the calls of the table's clock and invariant steps."""
    calls = {"clock_condition": 0, "ag_invariant": 0}
    for name in calls:
        inner = getattr(classify, name)

        def counted(pres, name=name, inner=inner):
            calls[name] += 1
            return inner(pres)

        monkeypatch.setattr(classify, name, counted)
    return calls


def two_component_input():
    data = pathlib.Path(__file__).parent / "data"
    text = (data / "sum_relabeled_2_2_1_literal_1_3_0.txt").read_text("utf-8")
    return parse_presentation(text)


def test_verdict_and_normal_form_share_one_pass(monkeypatch):
    pres = two_component_input()
    calls = counted_classification(monkeypatch)
    assert is_derived_discrete(pres).verdict == "yes"
    assert not lambda_normal_form(pres).has_unknown()
    # both components have one cycle: one clock and one invariant each
    assert calls == {"clock_condition": 2, "ag_invariant": 2}


def test_series_and_its_verification_share_one_pass(monkeypatch):
    pres = two_component_input()
    calls = counted_classification(monkeypatch)
    assert verify_trace(pres, strip_series(pres)).ok
    assert calls == {"clock_condition": 2, "ag_invariant": 2}


# -- the link table against the routes it replaced -------------------------------
#
# The parent routes of gentleness, relation-full cycles and the invariant,
# each rebuilding its own successor lists and the invariant hashing whole
# threads, kept as independent references for the link-table routes.


def reference_gentleness(pres):
    q = pres.quiver
    violations = []
    for v in q.vertices:
        if len(q.arrows_into(v)) > 2:
            violations.append(("G1", f"vertex {v} has more than two in-arrows"))
        if len(q.arrows_from(v)) > 2:
            violations.append(("G1", f"vertex {v} has more than two out-arrows"))
    relpairs = set()
    for rel in pres.relations:
        if len(rel) != 2:
            violations.append(("G2", f"relation {rel.label()} has length {len(rel)}"))
        else:
            relpairs.add(rel.arrows)
    for b in q.arrows:
        succ_rel = [c for c in q.arrows_from(q.target(b)) if (b, c) in relpairs]
        prec_rel = [a for a in q.arrows_into(q.source(b)) if (a, b) in relpairs]
        succ_nz = [c for c in q.arrows_from(q.target(b)) if (b, c) not in relpairs]
        prec_nz = [a for a in q.arrows_into(q.source(b)) if (a, b) not in relpairs]
        if len(succ_rel) > 1:
            violations.append(("G3", f"arrow {b} starts two relations"))
        if len(prec_rel) > 1:
            violations.append(("G3", f"arrow {b} ends two relations"))
        if len(succ_nz) > 1:
            violations.append(("G4", f"arrow {b} has two nonzero continuations"))
        if len(prec_nz) > 1:
            violations.append(("G4", f"arrow {b} has two nonzero predecessors"))
    return classify.GentleCertificate(not violations, tuple(violations))


def reference_relation_full_cycles(pres):
    q = pres.quiver
    relpairs = {rel.arrows for rel in pres.relations if len(rel) == 2}
    nxt = {}
    for b in q.arrows:
        succ = [c for c in q.arrows_from(q.target(b)) if (b, c) in relpairs]
        if len(succ) > 1:
            raise PreconditionError(f"arrow {b} starts two relations")
        nxt[b] = succ[0] if succ else None
    cycles = []
    done = set()
    for a in sorted(q.arrows):
        if a in done:
            continue
        stack = []
        onstack = set()
        cur = a
        while cur is not None and cur not in done and cur not in onstack:
            stack.append(cur)
            onstack.add(cur)
            cur = nxt[cur]
        if cur is not None and cur in onstack:
            cyc = stack[stack.index(cur) :]
            k = min(range(len(cyc)), key=lambda i: cyc[i])
            cycles.append(tuple(cyc[k:] + cyc[:k]))
        done.update(stack)
    return tuple(cycles)


def reference_ag_invariant(pres):
    cert = reference_gentleness(pres)
    if not cert.gentle:
        raise PreconditionError(f"not gentle: {cert.violations[0]}")
    _assert_finite_dimensional(pres)
    q = pres.quiver
    relpairs = {rel.arrows for rel in pres.relations}

    def unique(iterable):
        items = list(iterable)
        if len(items) > 1:
            raise PreconditionError(f"not gentle: {items} continue one arrow alike")
        return items[0] if items else None

    nz_next, nz_prev, i_next, i_prev = {}, {}, {}, {}
    for b in q.arrows:
        outs, ins = q.arrows_from(q.target(b)), q.arrows_into(q.source(b))
        nz_next[b] = unique(c for c in outs if (b, c) not in relpairs)
        nz_prev[b] = unique(a for a in ins if (a, b) not in relpairs)
        i_next[b] = unique(c for c in outs if (b, c) in relpairs)
        i_prev[b] = unique(a for a in ins if (a, b) in relpairs)

    def chains(next_map, prev_map):
        out = []
        for b in sorted(next_map):
            if prev_map[b] is not None:
                continue
            chain = [b]
            while next_map[chain[-1]] is not None:
                chain.append(next_map[chain[-1]])
            out.append(("word", tuple(chain)))
        return out

    permitted = chains(nz_next, nz_prev)
    forbidden = chains(i_next, i_prev)
    for v in q.vertices:
        ins, outs = q.arrows_into(v), q.arrows_from(v)
        if len(ins) > 1 or len(outs) > 1:
            continue
        is_rel = bool(ins and outs) and (ins[0], outs[0]) in relpairs
        if not is_rel:
            permitted.append(("vertex", v))
        if is_rel or not (ins and outs):
            forbidden.append(("vertex", v))

    def endpoints(thread):
        kind, data = thread
        if kind == "vertex":
            return data, None, data, None
        return q.source(data[0]), data[0], q.target(data[-1]), data[-1]

    forbidden_by_end = {endpoints(f)[2:]: f for f in forbidden}
    permitted_by_start = {endpoints(h)[:2]: h for h in permitted}

    def other(arrows, slot):
        others = [a for a in arrows if a != slot]
        return others[0] if others else None

    pairs = [(0, len(c)) for c in reference_relation_full_cycles(pres)]
    consumed = set()
    for start_thread in sorted(permitted):
        if start_thread in consumed:
            continue
        h, hops, total_forbidden = start_thread, 0, 0
        while True:
            consumed.add(h)
            hops += 1
            _, _, ev, eslot = endpoints(h)
            partner = forbidden_by_end[(ev, other(q.arrows_into(ev), eslot))]
            total_forbidden += 0 if partner[0] == "vertex" else len(partner[1])
            fsv, fsslot, _, _ = endpoints(partner)
            h = permitted_by_start[(fsv, other(q.arrows_from(fsv), fsslot))]
            if h == start_thread:
                break
            if h in consumed:
                raise PreconditionError("thread pairing is not a permutation")
        pairs.append((hops, total_forbidden))
    return AGInvariant(tuple(sorted(pairs)))


# a gentle algebra with a relation whose arrows a, b still cycle: (ab)^n != 0
NONZERO_CYCLE = (
    "vertex 1\nvertex 2\nvertex 3\n"
    "arrow a 1 2\narrow b 2 1\narrow c 2 3\nrelation a c\n"
)


def outcome(route, pres):
    """What ``route(pres)`` returns, or the type and text of what it raises."""
    try:
        return route(pres)
    except (PreconditionError, InfiniteDimensionalError) as e:
        return type(e), str(e)


# The union-find search for components and the clock walk that strips
# leaves off sets of live vertices and arrows, kept as references for the
# one-traversal search and the degree-count walk.


def reference_components(pres):
    """The tables of each connected part, or () when ``pres`` is connected."""
    q = pres.quiver
    parent = {v: v for v in q.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for src, tgt in q.arrows.values():
        parent[find(src)] = find(tgt)
    groups = {}
    for v in q.vertices:
        groups.setdefault(find(v), []).append(v)
    if len(groups) == 1:
        return ()
    arrows, rels = {root: {} for root in groups}, {root: [] for root in groups}
    for name, ends in q.arrows.items():
        arrows[find(ends[0])][name] = ends
    for rel in pres.relations:
        rels[find(rel.source)].append(rel.arrows)
    return tuple(
        (
            tuple(group),
            list(arrows[root].items()),
            {v: q._out[v] for v in group},
            {v: q._in[v] for v in group},
            frozenset(rels[root]),
            max(map(len, rels[root]), default=0),
        )
        for root, group in groups.items()
    )


def component_tables(parts):
    # a working copy's parts keep their vertices as the keys of their lists
    return tuple(
        (
            tuple(p.quiver.vertices),
            list(p.quiver.arrows.items()),
            p.quiver._out,
            p.quiver._in,
            p._relset,
            p._maxrel,
        )
        for p in parts
    )


def reference_clock_walk(pres):
    q = pres.quiver
    alive_arrows = set(q.arrows)
    degree = {v: len(q._out[v]) + len(q._in[v]) for v in q.vertices}
    queue = [v for v in q.vertices if degree[v] <= 1]
    alive_vertices = set(q.vertices)
    while queue:
        v = queue.pop()
        if v not in alive_vertices or degree[v] > 1:
            continue
        alive_vertices.discard(v)
        for a in (*q._out[v], *q._in[v]):
            if a not in alive_arrows:
                continue
            alive_arrows.discard(a)
            src, tgt = q.arrows[a]
            for w in (src, tgt):
                degree[w] -= 1
            other = tgt if src == v else src
            if other in alive_vertices and degree[other] <= 1:
                queue.append(other)
    if not alive_arrows:
        raise PreconditionError("no cycle is left after stripping leaves")
    start = min(alive_vertices, key=vertex_sort_key)
    walk, used, current = [], set(), start
    while True:
        candidates = []
        for a in (*q._out[current], *q._in[current]):
            if a in used or a not in alive_arrows:
                continue
            src, tgt = q.arrows[a]
            candidates.append((a, 1) if src == current else (a, -1))
        if not candidates:
            break
        arrow, direction = min(candidates)
        used.add(arrow)
        walk.append((arrow, direction))
        src, tgt = q.arrows[arrow]
        current = tgt if direction == 1 else src
    if current != start or len(used) != len(alive_arrows):
        raise PreconditionError("the arrows left after stripping leaves are no cycle")
    m_with = m_against = 0
    for i, (a1, d1) in enumerate(walk):
        a2, d2 = walk[(i + 1) % len(walk)]
        if d1 == 1 and d2 == 1 and (a1, a2) in pres._relset:
            m_with += 1
        elif d1 == -1 and d2 == -1 and (a2, a1) in pres._relset:
            m_against += 1
    return classify.ClockReport(tuple(walk), m_with, m_against)


def assert_link_routes_match_the_references(pres):
    assert classify._gentleness(pres) == reference_gentleness(pres)
    pairs = [
        (classify.relation_full_cycles, reference_relation_full_cycles),
        (ag_invariant, reference_ag_invariant),
    ]
    for route, reference in pairs:
        assert outcome(route, pres) == outcome(reference, pres), route.__name__
    parts = presentation._components(pres)
    assert component_tables(parts) == reference_components(pres)
    # each part is known connected, so nothing searches it again
    assert all(p._cache["components"] == () for p in parts)
    # the walk's domain: clock_condition calls it on one cycle only
    if cycle_count(pres) == 1:
        walked = outcome(classify._clock_walk, pres)
        assert walked == outcome(reference_clock_walk, pres)


def test_link_routes_match_on_every_small_literal_lambda():
    for n in range(1, 13):
        for s in range(1, n + 1):
            for r in range(1, s + 1):
                assert_link_routes_match_the_references(build_lambda(r, s, n - s))


def test_link_routes_match_on_relabelings_and_sums():
    rng = random.Random(5)
    pool = [parse_presentation(t) for t in (KRONECKER, A3_REL, TRIANGLE)]
    pool += [parse_presentation(SQUARE_BALANCED), build_lambda(3, 5, 2)]
    # infinite dimensional: both routes raise the automaton's error
    pool.append(parse_presentation(NONZERO_CYCLE))
    two_loops = "vertex 1\narrow x 1 1\narrow y 1 1\nrelation x x\nrelation y y\n"
    pool.append(parse_presentation(two_loops))
    for pres in pool:
        for _ in range(4):
            assert_link_routes_match_the_references(relabel(pres, rng))
    for _ in range(6):
        summed = direct_sum([relabel(rng.choice(pool), rng) for _ in range(2)])
        assert_link_routes_match_the_references(summed)


def test_walk_records_a_loop_forward_under_any_names():
    # in Lambda(1,1,t) the cycle is one loop, listed among both the out
    # and the in arrows of its vertex
    rng = random.Random(3)
    for t in range(4):
        for _ in range(25):
            pres = relabel(build_lambda(1, 1, t), rng)
            assert_link_routes_match_the_references(pres)
            [(loop, direction)] = clock_condition(pres).cycle
            assert direction == 1
            assert pres.quiver.source(loop) == pres.quiver.target(loop)


def test_component_and_walk_routes_match_on_working_copies():
    # a series edits one working copy in place: its vertices are the live
    # keys of its arrow lists and its arrows are in the order they were made
    rng = random.Random(13)
    inputs = [build_lambda(r, s, t) for s in (1, 3, 6) for r in (1, s) for t in (0, 3)]
    inputs += [relabel(pres, rng) for pres in inputs]
    inputs += [direct_sum(rng.sample(inputs, 2)) for _ in range(6)]
    inputs.append(parse_presentation(SQUARE_BALANCED))
    steps = 0
    for pres in inputs:
        work = _thaw(pres)
        while True:
            assert_link_routes_match_the_references(work)
            step = jordan._strippable_vertex(work)
            if step is None or len(work.quiver._out) == 1:
                break
            jordan._corner(work, step.vertex)
            steps += 1
    assert steps > 80


def test_link_routes_match_on_non_gentle_inputs():
    # every gentleness condition broken, some several times and together
    texts = [
        "vertex 0\nvertex 1\nvertex 2\nvertex 3\n"
        "arrow a 0 1\narrow b 0 2\narrow c 0 3\n",
        "vertex 0\nvertex 1\nvertex 2\nvertex 3\n"
        "arrow a 1 0\narrow b 2 0\narrow c 3 0\narrow d 0 1\nrelation a d\n",
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 2\narrow b 2 3\narrow c 3 4\nrelation a b c\n",
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 2\narrow b 2 3\narrow c 2 4\nrelation a b\nrelation a c\n",
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 3\narrow b 2 3\narrow c 3 4\nrelation a c\nrelation b c\n",
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 2\narrow b 2 3\narrow c 2 4\n",
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 3\narrow b 2 3\narrow c 3 4\n",
        "vertex 1\narrow x 1 1\narrow y 1 1\nrelation x x\nrelation x y\n",
    ]
    # x has two of each kind of neighbour on each side, with and without
    # relations
    fan = "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
    fan += "arrow a 1 2\narrow b 1 2\narrow x 2 3\narrow c 3 4\narrow d 3 4\n"
    texts += [fan, fan + "relation a x\nrelation b x\nrelation x c\nrelation x d\n"]
    for text in texts:
        pres = parse_presentation(text)
        assert not is_gentle(pres).gentle
        assert_link_routes_match_the_references(pres)



# -- one link pass and one thread walk -----------------------------------------


def counted_calls(monkeypatch, names):
    """The arguments of every call of each of ``classify``'s ``names``."""
    calls = {}
    for name in names:
        inner = getattr(classify, name)

        def counted(*args, name=name, inner=inner):
            calls.setdefault(name, []).append(args)
            return inner(*args)

        monkeypatch.setattr(classify, name, counted)
    return calls


@pytest.mark.parametrize("rst", [(2, 3, 1), (1, 4, 0), (2, 2, 1), (3, 3, 0)])
def test_a_gentle_component_takes_one_link_pass_and_one_thread_walk(rst, monkeypatch):
    # finite dimension, relation-full cycles and the invariant read one walk
    # along the threads, and cycles are searched only when one is there
    calls = counted_calls(monkeypatch, ("_link_table", "_thread_walk", "_cycles"))
    pres = build_lambda(*rst)
    assert is_derived_discrete(pres).verdict == "yes"
    cycles = classify.relation_full_cycles(pres)
    ag_invariant(pres)
    classify._assert_gentle_finite(pres)
    full = rst[0] == rst[1]
    assert bool(cycles) == full
    expected = {"_link_table": 1, "_thread_walk": 1, **({"_cycles": 1} if full else {})}
    assert {name: len(args) for name, args in calls.items()} == expected


def gentle_trees(rng, count):
    """``count`` draws of ``random_small_presentation`` that are gentle
    trees, relabeled."""
    trees = []
    while len(trees) < count:
        pres = random_small_presentation(rng)
        if not cycle_count(pres) and is_gentle(pres).gentle:
            trees.append(relabel(pres, rng))
    return trees


def test_a_gentle_tree_reads_neither_its_threads_nor_its_invariant(monkeypatch, capsys):
    # a gentle tree is A_n (Assem-Happel 1981), so its row is decided by
    # the link pass and the cycle count alone
    trees = gentle_trees(random.Random(8), 200)
    calls = counted_calls(monkeypatch, ("_thread_walk", "ag_invariant"))
    data = pathlib.Path(__file__).parent / "data"
    assert cli.main(["classify", str(data / "gentle_tree.txt")]) == 0
    assert '"dynkin": "A4"' in capsys.readouterr().out
    for pres in trees:
        assert is_derived_discrete(pres).verdict == "yes"
        n = len(pres.quiver.vertices)
        assert lambda_normal_form(pres).components == (DynkinHereditary("A", n),)
    assert calls == {}


def traced_lines(work, modules):
    """Line events of ``work()`` in frames of ``modules``: a count of the
    interpreted work, whatever the machine's speed."""
    files = {module.__file__ for module in modules}
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        work()
    finally:
        sys.settrace(before)
    return count


def test_classification_work_grows_linearly_with_the_input():
    # literal Lambda(r,2r,r) has 3r vertices: four times r must cost at most
    # about four times the work
    def work(r):
        pres = build_lambda(r, 2 * r, r)

        def both():
            return is_derived_discrete(pres), lambda_normal_form(pres)

        return traced_lines(both, (classify, presentation))

    small, large = work(400), work(1600)
    assert large <= 4.4 * small, (small, large)


def test_a_sum_reads_its_certificates_off_its_parts(monkeypatch, tmp_path, capsys):
    calls = counted_calls(monkeypatch, ("_link_table", "_clock_walk"))

    def sizes(name):
        return [len(args[0].quiver.vertices) for args in calls.pop(name, [])]

    data = pathlib.Path(__file__).parent / "data"
    assert cli.main(["classify", str(data / "sum_relabeled_2_2_1_literal_1_3_0.txt")]) == 0
    assert sizes("_link_table") == [3, 3]
    assert sizes("_clock_walk") == [3, 3]
    # one cycle in all: the report of the sum is that of the part with it
    line = parse_presentation("vertex x\nvertex y\narrow z x y\n")
    path = tmp_path / "lambda_and_line.txt"
    path.write_text(serialize_presentation(direct_sum([build_lambda(1, 2, 1), line])))
    assert cli.main(["classify", str(path)]) == 0
    assert sizes("_link_table") == [3, 2]
    assert sizes("_clock_walk") == [3]
    assert '"with": 1' in capsys.readouterr().out


def test_sums_list_their_parts_violations_in_their_own_order():
    rng = random.Random(29)
    broken = [
        "vertex 0\nvertex 1\nvertex 2\nvertex 3\narrow a 0 1\narrow b 0 2\narrow c 0 3\n",
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 2\narrow b 2 3\narrow c 3 4\nrelation a b c\n",
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 2\narrow b 2 3\narrow c 2 4\nrelation a b\nrelation a c\n",
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\narrow a 1 3\narrow b 2 3\narrow c 3 4\n",
        "vertex 1\narrow x 1 1\narrow y 1 1\nrelation x x\nrelation x y\n",
    ]
    broken = [parse_presentation(text) for text in broken]
    for _ in range(60):
        # names drawn after the sum interleave the parts in every order
        pres = relabel(direct_sum(rng.sample(broken, 2)), rng)
        parts = connected_components(pres)
        assert len(parts) == 2 and not any(is_gentle(p).gentle for p in parts)
        assert is_gentle(pres) == reference_gentleness(pres)
        assert "links" not in pres._cache


def test_a_sum_with_one_cycle_takes_the_clock_of_that_part():
    rng = random.Random(31)
    cycled = [build_lambda(2, 3, 1), build_lambda(1, 1, 2), build_lambda(3, 3, 0)]
    cycled += [parse_presentation(t) for t in (TRIANGLE, SQUARE_BALANCED)]
    vee = "vertex 1\nvertex 2\nvertex 3\narrow a 1 2\narrow b 3 2\n"
    trees = [parse_presentation(t) for t in (A3_REL, vee)]
    for _ in range(60):
        parts = [rng.choice(cycled)] + rng.sample(trees, rng.randint(1, 2))
        pres = relabel(direct_sum(rng.sample(parts, len(parts))), rng)
        assert cycle_count(pres) == 1
        walked = classify._clock_walk(pres)
        assert clock_condition(pres) == walked == reference_clock_walk(pres)


def test_gentle_infinite_dimension_is_refused_as_the_automaton_refuses_it(
    tmp_path, capsys
):
    pres = parse_presentation(NONZERO_CYCLE)
    assert is_gentle(pres).gentle
    with pytest.raises(InfiniteDimensionalError) as walked:
        path_counts(parse_presentation(NONZERO_CYCLE))
    for route in (is_derived_discrete, ag_invariant, lambda_normal_form):
        with pytest.raises(InfiniteDimensionalError) as linked:
            route(parse_presentation(NONZERO_CYCLE))
        assert str(linked.value) == str(walked.value)
    path = tmp_path / "nonzero_cycle.txt"
    path.write_text(NONZERO_CYCLE, encoding="utf-8")
    for command in ("classify", "factors", "series"):
        assert cli.main([command, str(path)]) == 1
    assert "infinite" in capsys.readouterr().err


# -- derived invariants against the normal form ----------------------------------


def bareiss_det(rows):
    """The determinant of a square integer matrix, by Bareiss's fraction-free
    elimination: every division is exact."""
    m = [list(row) for row in rows]
    n, sign, pivot = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // pivot
        pivot = m[k][k]
    return sign * m[-1][-1] if n else 1


def smith_form(rows):
    """The invariant factors d_1 | d_2 | ... of a square integer matrix, by
    row and column operations over Z; zeros come last."""
    m = [list(row) for row in rows]
    n, factors = len(m), []
    for k in range(n):
        while True:
            # the entry of least absolute value in the rest goes to (k, k)
            entries = [(abs(m[i][j]), i, j) for i in range(k, n) for j in range(k, n) if m[i][j]]
            if not entries:
                return tuple(factors) + (0,) * (n - k)
            _, i, j = min(entries)
            m[k], m[i] = m[i], m[k]
            for row in m:
                row[k], row[j] = row[j], row[k]
            lead = m[k][k]
            for i in range(k + 1, n):
                q = m[i][k] // lead
                m[i] = [x - q * y for x, y in zip(m[i], m[k])]
            for j in range(k + 1, n):
                q = m[k][j] // lead
                for row in m:
                    row[j] -= q * row[k]
            if any(m[i][k] for i in range(k + 1, n)) or any(m[k][k + 1 :]):
                continue  # a remainder is left, smaller than the pivot
            stray = next((i for i in range(k + 1, n) if any(x % lead for x in m[i])), None)
            if stray is None:
                break
            m[k] = [x + y for x, y in zip(m[k], m[stray])]
        factors.append(abs(lead))
    return tuple(factors)


def derived_invariants(pres):
    """det C of the Cartan matrix C, its Smith form and, when det C is
    nonzero, the values of det(kC - C^T) at k = 0..n.

    The characteristic polynomial of C^-1 C^T is det(xC - C^T) / det C, of
    degree n, so given det C those n + 1 values fix it."""
    verts = pres.quiver.vertices
    counts = cartan_matrix(pres)
    c = [[counts[u, w] for w in verts] for u in verts]
    det, smith = bareiss_det(c), smith_form(c)
    if det == 0:
        return det, smith, None
    n = len(verts)
    return det, smith, tuple(
        bareiss_det([[k * c[i][j] - c[j][i] for j in range(n)] for i in range(n)])
        for k in range(n + 1)
    )


def random_small_presentation(rng):
    """2..7 vertices joined by a random spanning tree, plus up to 2 arrows
    anywhere (loops too), each tree edge in a random direction, and a random
    set of length-2 relations."""
    n = rng.randint(2, 7)
    verts = [str(i) for i in range(n)]
    ends = [(str(rng.randrange(i)), str(i)) for i in range(1, n)]
    ends = [e if rng.random() < 0.5 else e[::-1] for e in ends]
    ends += [(rng.choice(verts), rng.choice(verts)) for _ in range(rng.randint(0, 2))]
    quiver = Quiver(verts, [(f"a{i}", u, w) for i, (u, w) in enumerate(ends)])
    pairs = [(a, b) for a, (_, w) in quiver.arrows.items() for b in quiver.arrows_from(w)]
    return BoundQuiverPresentation(quiver, sorted(rng.sample(pairs, rng.randint(0, len(pairs)))))


def test_smith_form_against_determinantal_divisors():
    assert smith_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == (2, 6, 12)
    assert smith_form([[0, 2], [3, 0]]) == (1, 6)
    assert smith_form([[1, 2], [2, 4]]) == (1, 0)
    assert smith_form([[0, 0], [0, 0]]) == (0, 0)
    assert smith_form([]) == ()
    # d_1 d_2 ... d_k is the gcd of the k x k minors, which fixes a 3 x 3 form
    rng = random.Random(3)
    for _ in range(300):
        m = [[rng.choice([0, 0, 1, -1, 2, 3, -4, 6]) for _ in range(3)] for _ in range(3)]
        minors = [
            m[i][k] * m[j][l] - m[i][l] * m[j][k]
            for i, j in itertools.combinations(range(3), 2)
            for k, l in itertools.combinations(range(3), 2)
        ]
        divisors = (math.gcd(*sum(m, [])), math.gcd(*minors), abs(bareiss_det(m)))
        d1, d2, d3 = smith_form(m)
        assert (d1, d1 * d2, d1 * d2 * d3) == divisors, m


def dynkin_normal_form(letter, n):
    """An orientation of the Dynkin tree letter + n: the line 0 -> ... -> n-2
    and the vertex n-1 hung on its end (A), on 1 (D) or on 2 (E)."""
    hub = {"A": n - 2, "D": 1, "E": 2}[letter]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(n - 2)]
    arrows += [("b", str(hub), str(n - 1))] if n > 1 else []
    pres = BoundQuiverPresentation(Quiver([str(i) for i in range(n)], arrows))
    assert dynkin_type(pres) == (letter, n)
    return pres


def test_each_yes_component_shares_its_derived_invariants_with_its_normal_form():
    # A derived equivalence restricts to the perfect complexes (Rickard
    # 1989), so it induces an isometry of their K0 for the form
    # (X, Y) -> sum_i (-1)^i dim Hom(X, Y[i]), whose Gram matrix on the
    # projectives is the Cartan matrix C: C' = P^T C P with P invertible
    # over Z.  So det C, the Smith form of C, and the characteristic
    # polynomial of C^-1 C^T when det C is nonzero, are derived invariants
    # (Happel 1988).
    rng = random.Random(16)
    data = pathlib.Path(__file__).parent / "data"
    inputs = [parse_presentation(p.read_text()) for p in sorted(data.glob("*.txt"))]
    for s in range(1, 7):
        for r in range(1, s + 1):
            for t in range(4):
                inputs += [build_lambda(r, s, t), relabel(build_lambda(r, s, t), rng)]
    # most Dynkin components come from a sample of small random quivers
    inputs += [random_small_presentation(rng) for _ in range(1000)]
    normal_forms, mismatches, compared = {}, [], Counter()
    for pres in inputs:
        try:
            discrete = is_derived_discrete(pres)
        except InfiniteDimensionalError:
            continue
        parts = zip(
            connected_components(pres),
            discrete.components,
            lambda_normal_form(pres).components,
        )
        for comp, (verdict, _), form in parts:
            if verdict != "yes":
                continue
            if form not in normal_forms:
                normal = (
                    build_lambda(*form.descriptor)
                    if isinstance(form, LambdaClass)
                    else dynkin_normal_form(form.letter, form.rank)
                )
                normal_forms[form] = derived_invariants(normal)
            compared[type(form).__name__] += 1
            if derived_invariants(comp) != normal_forms[form]:
                mismatches.append((serialize_presentation(comp), form))
    assert mismatches == []
    assert compared == {"LambdaClass": 212, "DynkinHereditary": 247}


def test_every_discrete_gentle_component_has_the_invariant_of_its_normal_form():
    # a gentle tree on n vertices is A_n (Assem-Happel 1981), whose invariant
    # is ((n+1, n-1),); a discrete one-cycle component is derived equivalent
    # to a Lambda(r,s,t) (Bobinski-Geiss-Skowronski 2004), and the invariant
    # is a derived invariant, so the two share it
    rng = random.Random(12)
    inputs = []
    for s in range(1, 7):
        for r in range(1, s + 1):
            for t in range(4):
                inputs += [build_lambda(r, s, t), relabel(build_lambda(r, s, t), rng)]
    inputs += [random_small_presentation(rng) for _ in range(6000)]
    seen = Counter()
    for pres in inputs:
        try:
            discrete = is_derived_discrete(pres)
        except InfiniteDimensionalError:
            continue
        parts = zip(
            connected_components(pres),
            discrete.components,
            lambda_normal_form(pres).components,
        )
        for comp, (verdict, _), form in parts:
            if verdict == "yes":
                assert not isinstance(form, UnknownClass), serialize_presentation(comp)
            if not is_gentle(comp).gentle:
                continue
            n, betti = len(comp.quiver.vertices), cycle_count(comp)
            if not betti:
                assert ag_invariant(comp) == AGInvariant(((n + 1, n - 1),))
                seen["tree"] += 1
            elif betti == 1 and verdict == "yes":
                assert ag_invariant(comp) == ag_invariant(build_lambda(*form.descriptor))
                seen["one cycle"] += 1
    assert seen == {"tree": 1257, "one cycle": 402}
