"""Property tests: vertex sort keys against their ``int`` definition,
relation scans against their definition, the
children-first search against reachability by closure, path counts
and corner algebras against the listed path basis, radical projectivity
from path counts against a module computation and from the relation set
against the counts, minimal exact resolutions
read off paths, relabeling invariance of classify, factors and series,
invariance of the verdict, normal forms and factors under the opposite
algebra and under chains of it and reflections,
classification, series and global dimension of random gentle quivers,
replays of forged series traces over random quivers,
hom tables that do not depend on the field, and the report emitter against
``json.dumps``.

Examples are derandomized, so every run checks the same cases.
"""

import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ddisc import (
    DdiscError,
    InfiniteDimensionalError,
    K,
    PreconditionError,
    SeriesStep,
    SeriesTrace,
    TraceReport,
    build_lambda,
    composition_factors,
    direct_sum,
    idempotent_subalgebra,
    is_derived_discrete,
    is_radical_projective,
    lambda_normal_form,
    serialize_presentation,
    strip_series,
    two_truncated_cycle,
    verify_trace,
)
import ddisc.cli as cli
from ddisc import jordan, presentation
from ddisc.classify import UnknownClass, _assert_gentle_finite, relation_full_cycles
from ddisc.fields import GF, QQ
from ddisc.homology import (
    RepModule,
    build_string_object,
    hom_table,
    indec_projective,
    infinite_gldim_check,
    module_direct_sum,
    projective_cover,
    simple_module,
)
from ddisc.presentation import (
    BoundQuiverPresentation,
    Path,
    Quiver,
    _paths_from,
    connected_components,
    path_basis,
    path_counts,
    vertex_sort_key,
)
from test_classify import (
    assert_link_routes_match_the_references,
    random_small_presentation,
    relabel,
)
from test_homology import assert_minimal_exact_resolution, random_monomial_algebra
from test_jordan import checking_corners

FIXED = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def sort_key_by_int(v):
    """The definition of ``vertex_sort_key``: an id ``int`` reads is numeric."""
    try:
        return (0, int(v), v)
    except ValueError:
        return (1, 0, v)


# ASCII and other decimal digits, a superscript digit int() refuses, signs,
# an underscore, spaces, and letters from several scripts
ID_CHARS = (
    "0123456789\u0663\uff15\u07c0\u00b2+-_ \t\u3000\u00a0aZ\u00e9\u00df\u03a9\u4e00"
)


@settings(FIXED, max_examples=1000)
@given(st.text(ID_CHARS, max_size=6))
def test_vertex_sort_key_matches_its_int_definition(v):
    assert vertex_sort_key(v) == sort_key_by_int(v)


def test_vertex_sort_key_matches_its_int_definition_after_every_letter():
    letters = (chr(c) for c in range(sys.maxunicode + 1) if chr(c).isalpha())
    for v in letters:
        assert vertex_sort_key(v + "1") == sort_key_by_int(v + "1") == (1, 0, v + "1")


def contains_relation(pres, names):
    """The definition: some relation is a contiguous subword of ``names``."""
    return any(
        names[i : i + len(rel)] == rel.arrows
        for rel in pres.relations
        for i in range(len(names))
    )


@st.composite
def walks(draw, quiver, max_len):
    """A composable arrow word of length 0..max_len, with its start vertex."""
    start = draw(st.sampled_from(quiver.vertices))
    word, at = [], start
    for _ in range(draw(st.integers(0, max_len))):
        outs = quiver.arrows_from(at)
        if not outs:
            break
        a = draw(st.sampled_from(outs))
        word.append(a)
        at = quiver.target(a)
    return start, tuple(word)


@st.composite
def bound_quivers(draw):
    """A random quiver with 1..8 arrows and relations of length 2..4."""
    verts = [str(i) for i in range(draw(st.integers(1, 4)))]
    ends = st.tuples(st.sampled_from(verts), st.sampled_from(verts))
    arrows = [
        (f"a{i}", src, tgt)
        for i, (src, tgt) in enumerate(draw(st.lists(ends, min_size=1, max_size=8)))
    ]
    quiver = Quiver(verts, arrows)
    rels = set()
    for _ in range(draw(st.integers(0, 5))):
        _, word = draw(walks(quiver, 4))
        if len(word) >= 2:
            rels.add(word)
    return BoundQuiverPresentation(quiver, sorted(rels))


@FIXED
@given(st.data())
def test_relation_scans_match_the_definition(data):
    pres = data.draw(bound_quivers())
    q = pres.quiver
    # every path the automaton lists is normal, composes, and is filed
    # under its own ends
    for v in q.vertices:
        try:
            table = _paths_from(pres, v)
        except InfiniteDimensionalError:
            break
        for w, ps in table.items():
            for p in ps:
                assert (p.source, p.target) == (v, w)
                assert not contains_relation(pres, p.arrows), p.label()
                assert not p.arrows or pres.make_path(p.arrows) == p
    for _ in range(10):
        start, word = data.draw(walks(q, 7))
        normal = not contains_relation(pres, word)
        assert pres.is_normal(word) == normal
        # the automaton lists the word as a basis path exactly when it is normal
        try:
            listed = [p.arrows for ps in _paths_from(pres, start).values() for p in ps]
        except InfiniteDimensionalError:
            pass
        else:
            assert (word in listed) == normal
        cut = data.draw(st.integers(0, len(word)))
        left, right = word[:cut], word[cut:]
        if contains_relation(pres, left) or contains_relation(pres, right):
            continue

        def path(names, at):
            return pres.make_path(names) if names else Path(at, at, ())

        mid = q.target(left[-1]) if left else start
        product = pres.path_product(path(left, start), path(right, mid))
        if normal:
            assert product == path(word, start)
        else:
            assert product is None


def counts_by_listing(pres):
    """Reference: the path basis listed, then counted."""
    basis = path_basis(pres)
    cartan = {v: Counter() for v in pres.quiver.vertices}
    for p in basis:
        cartan[p.source][p.target] += 1
    return cartan, Counter(p.arrows[0] for p in basis if p.arrows)


LONG_RELATION = "series steps need relations of length at most 2, found length {}"


def longest_relation(pres):
    return max(map(len, pres.relations), default=0)


def quadratic_projection(pres):
    """The draw with its length-2 relations alone."""
    return BoundQuiverPresentation(
        pres.quiver, [rel.arrows for rel in pres.relations if len(rel) == 2]
    )


def corner_by_listing(pres, v):
    """Reference: the corner algebra dropping v, read off the whole listed
    path basis.  Relations longer than 2 are refused, after an infinite
    dimensional input.  The count check at the end refuses a corner that
    its quadratic presentation does not present, which on length-2
    relations cannot happen, so the library refuses none."""
    q = pres.quiver
    if longest_relation(pres) > 2:
        path_basis(pres)
        raise PreconditionError(LONG_RELATION.format(longest_relation(pres)))
    kept = set(q.vertices) - {v}
    if q.arrows_into(v) and q.arrows_from(v):
        basis = path_basis(pres)
        by_source = Counter(p.source for p in basis)
        by_first = Counter(p.arrows[0] for p in basis if p.arrows)
        if sum(by_source[q.target(a)] - by_first[a] for a in q.arrows_from(v)):
            raise PreconditionError(
                f"vertex {v!r} is not a source, a sink, or radical-projective"
            )
    corner = [p for p in path_basis(pres) if p.source in kept and p.target in kept]
    gens = [
        p
        for p in corner
        if len(p) >= 1 and not any(q.target(a) in kept for a in p.arrows[:-1])
    ]
    relations = [
        (g.label(), h.label())
        for g in gens
        for h in gens
        if h.source == g.target and pres.path_product(g, h) is None
    ]
    out = BoundQuiverPresentation(
        Quiver(kept, [(p.label(), p.source, p.target) for p in gens]), relations
    )
    expected = Counter((p.source, p.target) for p in corner)
    try:
        listed = path_basis(out)
    except InfiniteDimensionalError:  # an infinite presentation is refused too
        listed = ()
    if expected != Counter((p.source, p.target) for p in listed):
        raise PreconditionError(
            "corner algebra is not quadratic monomial on these generators"
        )
    return out


def outcome(build, *args):
    """The result, or the type and text of the error raised instead."""
    try:
        return build(*args)
    except DdiscError as e:
        return type(e), str(e)


def assert_counts_and_corners_match_listing(pres):
    try:
        expected = counts_by_listing(pres)
    except InfiniteDimensionalError:
        with pytest.raises(InfiniteDimensionalError):
            path_counts(pres)
    else:
        assert path_counts(pres) == expected
    for v in pres.quiver.vertices:
        keep = [w for w in pres.quiver.vertices if w != v]
        got = outcome(idempotent_subalgebra, pres, keep)
        assert got == outcome(corner_by_listing, pres, v), v


@settings(FIXED, max_examples=400)
@given(bound_quivers())
def test_path_counts_and_corners_match_listing_on_random_quivers(pres):
    # the quadratic projection keeps random corners built, not refused
    for p in (pres, quadratic_projection(pres)):
        assert_counts_and_corners_match_listing(p)


def test_path_counts_and_corners_match_listing_on_lambda():
    for n in range(1, 9):
        for s in range(1, n + 1):
            for r in range(1, s + 1):
                assert_counts_and_corners_match_listing(build_lambda(r, s, n - s))


def test_path_counts_walk_paths_longer_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 10
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(n - 1)]
    pres = BoundQuiverPresentation(Quiver([str(i) for i in range(n)], arrows))
    cartan, by_first = path_counts(pres)
    assert cartan["0"][str(n - 1)] == 1
    assert sum(len(row) for row in cartan.values()) == n * (n + 1) // 2
    assert by_first["a0"] == n - 1


def reachable_by_closure(roots, succ):
    """Reference: the nodes reachable from ``roots``, by growing the set
    until it stops growing."""
    found = set(roots)
    while True:
        grown = found | {w for v in found for w in succ[v]}
        if grown == found:
            return found
        found = grown


@st.composite
def digraphs(draw):
    """A random digraph on 1..7 nodes with 0..12 edges, and 0..3 roots."""
    nodes = range(draw(st.integers(1, 7)))
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    succ = {v: [] for v in nodes}
    for v, w in draw(st.lists(pairs, max_size=12)):
        succ[v].append(w)
    return succ, draw(st.lists(st.sampled_from(nodes), max_size=3))


@settings(FIXED, max_examples=500)
@given(digraphs())
def test_children_first_matches_reachability_and_cycles(graph):
    succ, roots = graph
    asked = []

    def children(v):
        asked.append(v)
        return succ[v]

    order = presentation._children_first(roots, children)
    reached = reachable_by_closure(roots, succ)
    # a cycle is reachable iff some reached node reaches itself in a step
    cyclic = any(v in reachable_by_closure(succ[v], succ) for v in reached)
    assert (order is None) == cyclic
    assert len(asked) == len(set(asked)) and set(asked) <= reached
    if order is not None:
        assert sorted(order) == sorted(reached) and set(asked) == reached
        place = {v: i for i, v in enumerate(order)}
        assert all(place[w] < place[v] for v in order for w in succ[v])


def test_children_first_walks_chains_longer_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 10
    chain = presentation._children_first([0], lambda i: [i + 1] if i < n - 1 else [])
    assert chain == list(reversed(range(n)))
    loop = presentation._children_first([0], lambda i: [(i + 1) % n])
    assert loop is None


def radical_projectivity_by_modules(pres, v):
    """Reference: rad P_v as a module, compared in dimension with its cover."""
    groups = {w: [] for w in pres.quiver.vertices}
    for p in path_basis(pres):
        if p.source == v and p.arrows:
            groups[p.target].append(p)
    maps = {}
    for a, (src, tgt) in pres.quiver.arrows.items():
        index = {p: i for i, p in enumerate(groups[tgt])}
        rows = []
        for p in groups[src]:
            row = [QQ.coerce(0)] * len(groups[tgt])
            prod = pres.path_product(p, pres.make_path([a]))
            if prod is not None:
                row[index[prod]] = QQ.coerce(1)
            rows.append(row)
        maps[a] = rows
    rad = RepModule(pres, {w: len(ps) for w, ps in groups.items()}, maps)
    if rad.total_dim() == 0:
        return True, (), 0
    summands, _ = projective_cover(rad)
    by_source = Counter(p.source for p in path_basis(pres))
    defect = sum(by_source[u] for u in summands) - rad.total_dim()
    return defect == 0, summands, defect


def assert_radical_projectivity_matches_modules(pres):
    for v in pres.quiver.vertices:
        report = is_radical_projective(pres, v)
        expected = radical_projectivity_by_modules(pres, v)
        assert (report.projective, report.cover, report.defect) == expected, v


def assert_the_relation_set_rule_matches_the_counts(pres):
    longest = longest_relation(pres)
    for v in pres.quiver.vertices:
        if longest > 2:
            expected = PreconditionError, LONG_RELATION.format(longest)
        else:
            expected = is_radical_projective(pres, v).projective
        assert outcome(jordan._radical_projective, pres, v) == expected, v


@settings(FIXED, max_examples=400)
@given(bound_quivers())
def test_radical_projectivity_on_the_relation_set_matches_the_counts(pres):
    # the draw, whose longer relations are refused, and its length-2
    # relations alone, where the rule looks up
    for p in (pres, quadratic_projection(pres)):
        if finite_dimensional(p):
            assert_the_relation_set_rule_matches_the_counts(p)


def test_the_relation_set_rule_matches_the_counts_on_monomial_algebras():
    # a draw with a relation of length 3 or 4 is refused
    rng = random.Random(5)
    for longest in (2, 3, 4):
        for _ in range(300):
            pres = random_monomial_algebra(rng, longest)
            assert_the_relation_set_rule_matches_the_counts(pres)


# most draws carry a relation-free cycle and are skipped, hence more examples
@settings(FIXED, max_examples=400)
@given(bound_quivers())
def test_radical_projectivity_matches_modules_on_random_quivers(pres):
    try:
        path_basis(pres)
    except InfiniteDimensionalError:
        return
    assert_radical_projectivity_matches_modules(pres)


def test_radical_projectivity_matches_modules_on_lambda():
    for n in range(1, 9):
        for s in range(1, n + 1):
            for r in range(1, s + 1):
                assert_radical_projectivity_matches_modules(build_lambda(r, s, n - s))


@settings(FIXED, max_examples=400)
@given(bound_quivers())
def test_resolutions_are_minimal_and_exact_on_random_quivers(pres):
    try:
        path_basis(pres)
    except InfiniteDimensionalError:
        return
    simples = [simple_module(pres, v) for v in pres.quiver.vertices]
    projectives = [indec_projective(pres, v) for v in pres.quiver.vertices]
    for M in simples + projectives + [module_direct_sum(simples + projectives)]:
        assert_minimal_exact_resolution(M, 4)


@st.composite
def lambda_descriptors(draw, max_n):
    n = draw(st.integers(1, max_n))
    s = draw(st.integers(1, n))
    return draw(st.integers(1, s)), s, n - s


@st.composite
def relabeled_sums(draw):
    """A Lambda(r,s,t) or a sum of two, literal and randomly relabeled."""
    parts = draw(st.lists(lambda_descriptors(5), min_size=1, max_size=2))
    literal = direct_sum([build_lambda(*rst) for rst in parts])
    return literal, relabel(literal, draw(st.randoms(use_true_random=False)))


@FIXED
@given(relabeled_sums())
def test_classify_factors_series_are_relabeling_invariant(pair):
    literal, pres = pair
    verdict = is_derived_discrete(pres)
    assert verdict.verdict == is_derived_discrete(literal).verdict == "yes"
    nf = lambda_normal_form(pres)
    assert Counter(nf.components) == Counter(lambda_normal_form(literal).components)
    factors = composition_factors(nf)
    assert factors == composition_factors(lambda_normal_form(literal))
    trace = strip_series(pres)
    assert verify_trace(pres, trace).ok
    assert trace.factor_multiset() == factors


def opposite(pres):
    """The opposite algebra: every arrow and every relation reversed."""
    arrows = [(a, w, u) for a, (u, w) in pres.quiver.arrows.items()]
    return BoundQuiverPresentation(
        Quiver(pres.quiver.vertices, arrows),
        [rel.arrows[::-1] for rel in pres.relations],
    )


def derived_answer(pres):
    """The verdict, the normal forms and the factors; an unknown component
    by its kind alone, as its reason names arrows, and no factors then."""
    nf = lambda_normal_form(pres)
    forms = tuple(
        c.reason.split(" (")[0] if isinstance(c, UnknownClass) else c
        for c in nf.components
    )
    factors = None if nf.has_unknown() else composition_factors(nf)
    return is_derived_discrete(pres).verdict, forms, factors


def test_the_opposite_algebra_changes_no_answer():
    # D(A^op) is D(A)^op, and gentleness, the clock condition and Dynkin
    # type are symmetric under op
    rng = random.Random(4)
    inputs = [
        build_lambda(r, s, t)
        for s in range(1, 7)
        for r in range(1, s + 1)
        for t in range(4)
    ]
    inputs += [random_small_presentation(rng) for _ in range(2500)]
    for pres in inputs:
        expected = outcome(derived_answer, pres)
        assert outcome(derived_answer, opposite(pres)) == expected, pres.relations


def reflection(pres, v):
    """Every arrow at the source or sink ``v`` reversed."""
    arrows = [
        (a, w, u) if v in (u, w) else (a, u, w) for a, (u, w) in pres.quiver.arrows.items()
    ]
    return BoundQuiverPresentation(
        Quiver(pres.quiver.vertices, arrows), [rel.arrows for rel in pres.relations]
    )


def reflectable(pres):
    """The sources and sinks with an arrow that no relation touches; a
    vertex with a loop is neither."""
    q = pres.quiver
    touched = {end for rel in pres.relations for a in rel.arrows for end in q.arrows[a]}
    return [
        v
        for v in q.vertices
        if bool(q.arrows_from(v)) != bool(q.arrows_into(v)) and v not in touched
    ]


def test_chained_derived_equivalences_change_no_answer():
    # at a sink v that no relation touches, the APR tilting module (the
    # other projectives plus the cokernel of P_v -> sum of P_u over the
    # arrows u -> v; Auslander-Platzeck-Reiten 1979) has the reflected
    # algebra as its endomorphism ring, as no path into v vanishes; a
    # source is a sink of the opposite algebra, and D(A^op) is D(A)^op.
    # Each move is followed by a relabeling.
    rng = random.Random(12)
    inputs = [
        build_lambda(r, s, t)
        for s in range(1, 6)
        for r in range(1, s + 1)
        for t in range(4)
    ]
    inputs += [random_small_presentation(rng) for _ in range(1500)]
    moves = Counter()
    for pres in inputs:
        expected = outcome(derived_answer, pres)
        for _ in range(3):
            v = rng.choice([None, *reflectable(pres)])
            pres = relabel(opposite(pres) if v is None else reflection(pres, v), rng)
            moves["opposite" if v is None else "reflection"] += 1
            assert outcome(derived_answer, pres) == expected, serialize_presentation(pres)
    assert moves == {"opposite": 2568, "reflection": 2112}


@st.composite
def gentle_quivers(draw):
    """A connected gentle quiver on 2..8 vertices.

    A random tree, oriented at random, plus up to two more arrows (loops
    allowed): trees, one-cycle and two-cycle shapes all come up.  At every
    vertex the relations are a random gentle choice: the length-2 pairs
    through it split into a relation matching and a nonzero matching.
    """
    verts = [str(i) for i in range(draw(st.integers(2, 8)))]
    arrows = []
    ins, outs = Counter(), Counter()

    def add(src, tgt):
        arrows.append((f"a{len(arrows)}", src, tgt))
        outs[src] += 1
        ins[tgt] += 1

    for i, v in enumerate(verts[1:], 1):
        # some earlier vertex has a free slot either way: the tree so far
        # uses i - 1 of 2i slots on each side
        if draw(st.booleans()):
            add(draw(st.sampled_from([w for w in verts[:i] if outs[w] < 2])), v)
        else:
            add(v, draw(st.sampled_from([w for w in verts[:i] if ins[w] < 2])))
    for _ in range(draw(st.integers(0, 2))):
        sources = [v for v in verts if outs[v] < 2]
        targets = [v for v in verts if ins[v] < 2]
        if sources and targets:
            add(draw(st.sampled_from(sources)), draw(st.sampled_from(targets)))
    quiver = Quiver(verts, arrows)
    relations = []
    for v in verts:
        into, out = quiver.arrows_into(v), quiver.arrows_from(v)
        if not into or not out:
            continue
        if len(into) == len(out) == 1:
            if draw(st.booleans()):
                relations.append((into[0], out[0]))
            continue
        # with two arrows on one side, each arrow on the other side has one
        # relation and one nonzero continuation
        flip = draw(st.integers(0, 1))
        if len(into) == 2 and len(out) == 2:
            relations += [(into[0], out[flip]), (into[1], out[1 - flip])]
        elif len(into) == 2:
            relations.append((into[flip], out[0]))
        else:
            relations.append((into[0], out[flip]))
    return BoundQuiverPresentation(quiver, relations)


def finite_dimensional(pres):
    try:
        path_counts(pres)
    except InfiniteDimensionalError:
        return False
    return True


@settings(FIXED, max_examples=300)
@given(st.lists(gentle_quivers(), min_size=1, max_size=2).map(direct_sum))
def test_random_gentle_quivers_classify_and_strip(pres):
    if not finite_dimensional(pres):
        with pytest.raises(InfiniteDimensionalError):
            is_derived_discrete(pres)
        return
    verdict = is_derived_discrete(pres)
    nf = lambda_normal_form(pres)
    assert len(verdict.components) == len(nf.components)
    for (component_verdict, _), form in zip(verdict.components, nf.components):
        if component_verdict != "yes":
            assert isinstance(form, UnknownClass)
    if verdict.verdict == "yes":
        with checking_corners() as built:
            trace = strip_series(pres)
            assert verify_trace(pres, trace).ok
        # one checked corner per strip step, built by the series and again
        # by the replay
        strips = sum(step.op.startswith(("strip", "drop")) for step in trace.steps)
        assert len(built) == 2 * strips
        assert trace.factor_multiset() == composition_factors(nf)


@st.composite
def forged_traces(draw):
    """A presentation of ``bound_quivers``, finite dimensional or not, and
    a trace of random steps on it: its true split, then strips at its
    vertices (or at one it lacks) and terminals, with factors drawn alike."""
    pres = draw(bound_quivers())
    vertices = st.sampled_from([*pres.quiver.vertices, "9"])
    strips = st.sampled_from(["strip-source", "strip-sink", "drop-radical"])
    factors = st.sampled_from([K, two_truncated_cycle(1), two_truncated_cycle(2)])
    step = st.one_of(
        st.builds(SeriesStep, strips, vertices),
        st.builds(SeriesStep, strips, vertices),
        st.builds(SeriesStep, st.just("terminal"), factor=factors),
        st.builds(SeriesStep, st.just("split"), parts=st.integers(1, 2)),
    )
    split = SeriesStep("split", parts=len(connected_components(pres)))
    steps = (split, *draw(st.lists(step, max_size=6)))
    return pres, SeriesTrace(pres, steps, tuple(draw(st.lists(factors, max_size=6))))


@settings(FIXED, max_examples=400)
@given(forged_traces())
def test_verify_trace_reports_on_every_forged_trace(forged):
    # a replay reports every failure, whatever the start and the steps,
    # and never raises
    pres, trace = forged
    report = verify_trace(pres, trace)
    assert isinstance(report, TraceReport)
    assert report.ok == (not report.failures)


@settings(FIXED, max_examples=300)
@given(st.lists(gentle_quivers(), min_size=1, max_size=2).map(direct_sum))
def test_random_gentle_link_routes_match_the_references(pres):
    # finite and infinite inputs alike: the infinite ones must raise the same
    assert_link_routes_match_the_references(pres)


@settings(FIXED, max_examples=300)
@given(gentle_quivers())
def test_random_gentle_link_finiteness_matches_the_automaton(pres):
    try:
        _assert_gentle_finite(pres)
    except InfiniteDimensionalError:
        assert not finite_dimensional(pres)
    else:
        assert finite_dimensional(pres)


@settings(FIXED, max_examples=300)
@given(gentle_quivers())
def test_random_gentle_global_dimension_matches_relation_full_cycles(pres):
    if finite_dimensional(pres):
        expected = "yes" if relation_full_cycles(pres) else "no"
        assert infinite_gldim_check(pres) == expected


@st.composite
def string_object_tables(draw):
    """Lambda(s,s,t) with s <= 3, t <= 2, two string objects, hmax and a prime."""
    s, t = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    objects = [("X", i) for i in range(s)] + [("Y", -q) for q in range(1, t + 1)]
    return (
        build_lambda(s, s, t),
        draw(st.sampled_from(objects)),
        draw(st.sampled_from(objects)),
        draw(st.integers(0, 5)),
        draw(st.sampled_from([2, 3, 32003, 2**61 - 1])),
    )


@FIXED
@given(string_object_tables())
def test_hom_tables_agree_over_qq_and_gf(case):
    pres, src, dst, hmax, p = case
    tables = [
        hom_table(
            pres,
            build_string_object(pres, *src, field),
            build_string_object(pres, *dst, field),
            hmax,
        ).entries
        for field in (QQ, GF(p))
    ]
    assert tables[0] == tables[1]


# values shaped like reports: str keys, non-ASCII, control and quote
# characters, ints past 64 bits, bools, None, lists and tuples
report_leaves = (
    st.text()
    | st.sampled_from(['"', "\\", "\n", "\x00\x1f", "é", " ", "\U0001f600"])
    | st.integers()
    | st.integers(-(2**80), 2**80)
    | st.booleans()
    | st.none()
)
report_values = st.recursive(
    report_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.integers(-(2**70), 2**70), max_size=6)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(FIXED, max_examples=400)
@given(report_values)
def test_report_emitter_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)
