"""Property tests: relation scans against their definition, radical
projectivity from path counts against a module computation, relabeling
invariance of classify, factors and series, and hom tables that do not
depend on the field.

Examples are derandomized, so every run checks the same cases.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ddisc import (
    InfiniteDimensionalError,
    build_lambda,
    composition_factors,
    direct_sum,
    is_derived_discrete,
    is_radical_projective,
    lambda_normal_form,
    strip_series,
    verify_trace,
)
from ddisc.fields import GF, QQ
from ddisc.homology import RepModule, build_string_object, hom_table, projective_cover
from ddisc.presentation import BoundQuiverPresentation, Path, Quiver, path_basis
from test_classify import relabel

FIXED = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


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
    for _ in range(10):
        start, word = data.draw(walks(q, 7))
        normal = not contains_relation(pres, word)
        assert pres.is_normal(word) == normal
        if word and not contains_relation(pres, word[:-1]):
            assert pres._extension_is_normal(word) == normal
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
