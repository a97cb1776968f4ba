"""Quiver core: parsing, path bases, Cartan data, sums and the Lambda family."""

import random

import pytest

from ddisc import (
    InfiniteDimensionalError,
    ParseError,
    PresentationError,
    are_isomorphic,
    build_lambda,
    cartan_matrix,
    connected_components,
    direct_sum,
    grothendieck_rank,
    lambda_descriptor_of,
    parse_presentation,
    path_basis,
    serialize_presentation,
)
from ddisc.presentation import BoundQuiverPresentation, LambdaDescriptor, Quiver

A3_TEXT = """
# linear A_3 with one zero relation
vertex 1
vertex 2
vertex 3
arrow a 1 2
arrow b 2 3
relation a b
"""


def enumerate_paths_bruteforce(pres, max_len=64):
    """Independent oracle: breadth-first path listing with subword filter."""
    q = pres.quiver
    rels = [r.arrows for r in pres.relations]

    def normal(word):
        for rel in rels:
            k = len(rel)
            if any(word[i : i + k] == rel for i in range(len(word) - k + 1)):
                return False
        return True

    found = {(v, ()) for v in q.vertices}
    frontier = [(v, v, ()) for v in q.vertices]
    for _ in range(max_len):
        new = []
        for src, vertex, word in frontier:
            for a in q.arrows_from(vertex):
                cand = word + (a,)
                if normal(cand) and (src, cand) not in found:
                    found.add((src, cand))
                    new.append((src, q.target(a), cand))
        if not new:
            return found
        frontier = new
    raise AssertionError("oracle hit the length cutoff; basis looks infinite")


def by_label(paths):
    return sorted(p.label() for p in paths)


def test_path_basis_loop_square_zero():
    basis = path_basis(build_lambda(1, 1, 0))
    assert by_label(basis) == ["a0", "e_0"]


def test_path_basis_lambda_120():
    basis = path_basis(build_lambda(1, 2, 0))
    assert by_label(basis) == ["a0", "a0*a1", "a1", "e_0", "e_1"]
    assert len(basis) == 5


@pytest.mark.parametrize(
    "pres",
    [
        build_lambda(1, 1, 0),
        build_lambda(1, 2, 0),
        build_lambda(2, 2, 0),
        build_lambda(2, 3, 2),
        build_lambda(3, 3, 1),
        parse_presentation(A3_TEXT),
    ],
)
def test_path_basis_matches_bruteforce_oracle(pres):
    got = {(p.source, p.arrows) for p in path_basis(pres)}
    assert got == enumerate_paths_bruteforce(pres)


def test_path_basis_infinite_loop_detected_structurally():
    pres = parse_presentation("vertex v\narrow a v v\n")
    with pytest.raises(InfiniteDimensionalError):
        path_basis(pres)


def test_path_basis_infinite_free_cycle():
    pres = parse_presentation(
        "vertex 0\nvertex 1\narrow a 0 1\narrow b 1 0\n"
    )
    with pytest.raises(InfiniteDimensionalError):
        path_basis(pres)


def test_relation_free_cycle_beyond_relations_still_infinite():
    # the relation kills one composite but leaves a relation-free cycle
    pres = parse_presentation(
        "vertex 0\nvertex 1\n"
        "arrow a 0 1\narrow b 1 0\narrow c 1 0\n"
        "relation a b\n"
    )
    with pytest.raises(InfiniteDimensionalError):
        path_basis(pres)


def test_cartan_lambda_220():
    c = cartan_matrix(build_lambda(2, 2, 0))
    assert c == {
        ("0", "0"): 1,
        ("0", "1"): 1,
        ("1", "0"): 1,
        ("1", "1"): 1,
    }


def test_cartan_lambda_120_row_sums():
    # dimension 5 total; row sums are the projective dimensions
    c = cartan_matrix(build_lambda(1, 2, 0))
    assert c == {
        ("0", "0"): 2,
        ("0", "1"): 1,
        ("1", "0"): 1,
        ("1", "1"): 1,
    }
    assert sum(c.values()) == 5


def test_cartan_hereditary_a2():
    pres = parse_presentation("vertex 1\nvertex 2\narrow a 1 2\n")
    c = cartan_matrix(pres)
    assert c == {("1", "1"): 1, ("1", "2"): 1, ("2", "1"): 0, ("2", "2"): 1}


def test_basis_size_two_truncated_cycle():
    for s in range(1, 6):
        assert len(path_basis(build_lambda(s, s, 0))) == 2 * s


def test_basis_prefix_closed():
    for pres in [build_lambda(2, 3, 1), build_lambda(1, 3, 2)]:
        basis = {(p.source, p.arrows) for p in path_basis(pres)}
        for _, word in basis:
            for k in range(len(word)):
                prefix = word[:k]
                src = (
                    pres.quiver.source(word[0])
                    if word
                    else None
                )
                assert (src, prefix) in basis or not word


def test_grothendieck_rank_lambda_grid():
    for r, s, t in [(1, 1, 0), (1, 2, 1), (2, 3, 2), (3, 3, 0)]:
        assert grothendieck_rank(build_lambda(r, s, t)) == s + t


def test_build_lambda_231_structure():
    pres = build_lambda(2, 3, 1)
    assert pres.quiver.vertices == ("-1", "0", "1", "2")
    assert set(pres.quiver.arrows) == {"a-1", "a0", "a1", "a2"}
    assert {rel.arrows for rel in pres.relations} == {("a2", "a0"), ("a1", "a2")}


def test_build_lambda_ss0_all_consecutive_pairs():
    pres = build_lambda(3, 3, 0)
    assert {rel.arrows for rel in pres.relations} == {
        ("a0", "a1"),
        ("a1", "a2"),
        ("a2", "a0"),
    }


def test_build_lambda_validation():
    with pytest.raises(PresentationError):
        build_lambda(2, 1, 0)
    with pytest.raises(PresentationError):
        build_lambda(0, 1, 0)
    with pytest.raises(PresentationError):
        build_lambda(1, 1, -1)
    with pytest.raises(PresentationError):
        LambdaDescriptor(3, 2, 0)


def test_serialize_parse_round_trip():
    for pres in [
        build_lambda(1, 1, 0),
        build_lambda(2, 3, 2),
        parse_presentation(A3_TEXT),
        direct_sum([build_lambda(1, 1, 0), build_lambda(2, 2, 0)]),
    ]:
        assert parse_presentation(serialize_presentation(pres)) == pres


def test_parse_reports_line_numbers():
    cases = [
        ("vertex v\nfrob x y\n", 2),  # unknown directive
        ("vertex v\narrow a v w\n", 2),  # dangling endpoint
        ("vertex v\narrow a v v\nrelation a\n", 3),  # length 1
        # non-composable relation
        ("vertex u\nvertex v\narrow a u v\narrow b u v\nrelation a b\n", 5),
        ("vertex 0\narrow a 0 0\n\nrelation a b\n", 4),  # unknown arrow
        ("vertex 0\n# comment\narrow a 0 7\nvertex 1\n", 3),  # undeclared
        ("vertex 0\nvertex 1\nvertex 0\n", 3),  # duplicate vertex
        ("vertex 0\narrow a 0 0\narrow a 0 0\n", 3),  # duplicate arrow
        ("vertex 0\narrow a 0 0\nrelation a a\nrelation a a\n", 4),  # duplicate
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as err:
            parse_presentation(text)
        assert err.value.line == line, text
        assert str(err.value).startswith(f"line {line}: "), text


def test_parse_needs_a_vertex():
    for text in ("", "\n\n", "# a comment\n   # another\n"):
        with pytest.raises(ParseError) as err:
            parse_presentation(text)
        assert str(err.value) == "no vertex declared" and err.value.line is None


def test_components_and_direct_sum_round_trip():
    a = build_lambda(1, 1, 0)
    b = build_lambda(2, 2, 0)
    total = direct_sum([a, b])
    assert len(total.quiver.vertices) == 3
    assert len(total.quiver.arrows) == 3
    assert len(total.relations) == 3
    comps = connected_components(total)
    assert len(comps) == 2
    assert any(are_isomorphic(c, a) for c in comps)
    assert any(are_isomorphic(c, b) for c in comps)


def test_direct_sum_keeps_ids_when_unique():
    a = parse_presentation("vertex u\n")
    b = parse_presentation("vertex w\n")
    total = direct_sum([a, b])
    assert total.quiver.vertices == ("u", "w")


def test_connected_components_order():
    pres = direct_sum([build_lambda(1, 2, 0), build_lambda(1, 1, 0)])
    comps = connected_components(pres)
    # ordered by smallest vertex id; prefixed ids 0:*, 1:*
    assert [len(c.quiver.vertices) for c in comps] == [2, 1]


def test_isomorphism_relabels():
    rng = random.Random(5)
    for pres in [build_lambda(2, 3, 1), build_lambda(1, 2, 2)]:
        verts = list(pres.quiver.vertices)
        new = [f"v{i}" for i in range(len(verts))]
        rng.shuffle(new)
        vmap = dict(zip(verts, new))
        arrows = [
            (f"x{i}", vmap[src], vmap[tgt])
            for i, (src, tgt) in enumerate(pres.quiver.arrows.values())
        ]
        amap = dict(zip(pres.quiver.arrows, (a[0] for a in arrows)))
        rels = [tuple(amap[a] for a in rel.arrows) for rel in pres.relations]
        shuffled = BoundQuiverPresentation(
            Quiver(new, arrows), rels
        )
        assert are_isomorphic(pres, shuffled)
        assert not are_isomorphic(pres, build_lambda(1, 1, 1))


def test_isomorphism_respects_relations():
    # a line quiver has no nontrivial automorphism, so moving the relation
    # from the start to the end breaks the isomorphism
    line = "vertex 1\nvertex 2\nvertex 3\nvertex 4\narrow a 1 2\narrow b 2 3\narrow c 3 4\n"
    first = parse_presentation(line + "relation a b\n")
    second = parse_presentation(line + "relation b c\n")
    assert not are_isomorphic(first, second)
    assert are_isomorphic(first, first)


def test_lambda_descriptor_of():
    assert lambda_descriptor_of(build_lambda(2, 3, 1)) == LambdaDescriptor(2, 3, 1)
    assert lambda_descriptor_of(parse_presentation(A3_TEXT)) is None
    for n in range(1, 7):
        for s in range(1, n + 1):
            for r in range(1, s + 1):
                desc = LambdaDescriptor(r, s, n - s)
                assert lambda_descriptor_of(build_lambda(r, s, n - s)) == desc
    # the same shape under other names is not literal
    text = serialize_presentation(build_lambda(2, 2, 1))
    assert lambda_descriptor_of(parse_presentation(text.replace("-1", "-7"))) is None
    assert lambda_descriptor_of(parse_presentation(text.replace("a0", "b0"))) is None
