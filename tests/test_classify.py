"""Classifier: gentleness, clock condition, invariant values, normal forms."""

import random

import pytest

from ddisc import (
    InfiniteDimensionalError,
    PreconditionError,
    build_lambda,
    direct_sum,
    parse_presentation,
)
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
    strict = is_derived_discrete(tree, tree_gentle_is_discrete=False)
    assert strict.verdict == "unknown"


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
