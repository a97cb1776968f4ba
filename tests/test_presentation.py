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
from ddisc.presentation import BoundQuiverPresentation, LambdaDescriptor, Path, Quiver
from ddisc.presentation import _freeze, _thaw, vertex_sort_key
from test_classify import relabel

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


def test_quiver_refuses_ids_the_text_form_cannot_carry():
    # each of these would serialize to text that does not parse back
    for vertices, arrows in [
        (["a b", "c"], [("x", "a b", "c")]),  # a vertex with a space
        (["0", "1"], [("p#q", "0", "1")]),  # an arrow with a comment mark
        ([""], []),  # an empty vertex
    ]:
        with pytest.raises(PresentationError, match="is empty or holds"):
            Quiver(vertices, arrows)
    # what the parser reads, corner products and tagged summands all pass
    Quiver(["-1", "0:x", "v'"], [("a*b'", "-1", "0:x"), ("0:a", "v'", "v'")])


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


def _one_edit_perturbations(pres):
    """Presentations one edit away from ``pres``: an arrow retargeted, an
    arrow renamed, a relation moved to another composable pair, or an
    isolated vertex added to the tail.  Edits that break a relation are
    skipped."""
    q = pres.quiver
    vertices = list(q.vertices)
    arrows = [(a, src, tgt) for a, (src, tgt) in q.arrows.items()]
    rels = [rel.arrows for rel in pres.relations]

    def make(verts, arrs, relations):
        try:
            return BoundQuiverPresentation(Quiver(verts, arrs), relations)
        except PresentationError:
            return None

    edits = []
    for i, (a, src, tgt) in enumerate(arrows):
        for v in vertices:
            if v != tgt:
                edits.append(make(vertices, arrows[:i] + [(a, src, v)] + arrows[i + 1 :], rels))
        renamed = {a: "z"}
        edits.append(
            make(
                vertices,
                arrows[:i] + [("z", src, tgt)] + arrows[i + 1 :],
                [tuple(renamed.get(x, x) for x in rel) for rel in rels],
            )
        )
    pairs = [(a, b) for a, _, mid in arrows for b in q.arrows_from(mid)]
    for i in range(len(rels)):
        for pair in pairs:
            if pair not in rels:
                edits.append(make(vertices, arrows, rels[:i] + [pair] + rels[i + 1 :]))
    edits.append(make(vertices + [str(-len(vertices) - 1)], arrows, rels))
    return [p for p in edits if p is not None]


def test_lambda_recognizer_agrees_with_its_definition():
    # the definition: the descriptor of the build_lambda presentation that
    # equals pres, looked up by the presentation's own hash and ==
    definition = {
        build_lambda(r, s, t): LambdaDescriptor(r, s, t)
        for s in range(1, 6)
        for r in range(1, s + 1)
        for t in range(5)
    }
    rng = random.Random(5)
    checked = 0
    for literal, desc in definition.items():
        if desc.t > 3:
            continue
        fresh = parse_presentation(serialize_presentation(literal))
        assert lambda_descriptor_of(fresh) == desc
        assert lambda_descriptor_of(relabel(literal, rng)) is None
        for pres in _one_edit_perturbations(literal):
            assert lambda_descriptor_of(pres) == definition.get(pres)
            assert lambda_descriptor_of(pres) is None
            checked += 1
        # a tail vertex fed by the next literal arrow makes Lambda(r,s,t+1)
        longer = BoundQuiverPresentation(
            Quiver(
                list(literal.quiver.vertices) + [str(-desc.t - 1)],
                [(a, *ends) for a, ends in literal.quiver.arrows.items()]
                + [(f"a{-desc.t - 1}", str(-desc.t - 1), str(-desc.t))],
            ),
            literal.relations,
        )
        assert lambda_descriptor_of(longer) == LambdaDescriptor(desc.r, desc.s, desc.t + 1)
    assert checked > 1500


# -- the parser against the route it replaced ------------------------------------


def reference_make_path(quiver, names):
    """``make_path`` as it was: every name an arrow, then every joint."""
    for a in names:
        if a not in quiver.arrows:
            raise PresentationError(f"unknown arrow {a!r}")
    for a, b in zip(names, names[1:]):
        if quiver.target(a) != quiver.source(b):
            raise PresentationError(f"arrows {a!r} and {b!r} do not compose")
    return Path(quiver.source(names[0]), quiver.target(names[-1]), names)


def reference_parse(text):
    """The earlier parse route, kept as a reference: the same line checks,
    then ``Quiver(...)``, ``make_path`` per relation on its own line, and
    the constructor's relation checks."""
    vertices, arrows, relations = {}, {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *args = line.split()
        if kind == "vertex":
            if len(args) != 1:
                raise ParseError("vertex takes exactly one id", lineno)
            table, key, entry = vertices, args[0], lineno
        elif kind == "arrow":
            if len(args) != 3:
                raise ParseError("arrow takes id, source, target", lineno)
            table, key, entry = arrows, args[0], (lineno, args[1], args[2])
        elif kind == "relation":
            if len(args) < 2:
                raise ParseError("relation needs at least two arrows", lineno)
            table, key, entry = relations, tuple(args), lineno
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno)
        if key in table:
            raise ParseError(f"duplicate {kind} {key!r}", lineno)
        table[key] = entry
    for name, (lineno, src, tgt) in arrows.items():
        if src not in vertices or tgt not in vertices:
            raise ParseError(f"arrow {name!r} has undeclared endpoint", lineno)
    if not vertices:
        # a Quiver needs a vertex; with none, no arrow passed the endpoint
        # check, so the first relation names an unknown arrow
        for rel, lineno in relations.items():
            raise ParseError(f"unknown arrow {rel[0]!r}", lineno)
        raise ParseError("no vertex declared")
    quiver = Quiver(vertices, [(a, src, tgt) for a, (_, src, tgt) in arrows.items()])
    paths = []
    for rel, lineno in relations.items():
        try:
            paths.append(reference_make_path(quiver, rel))
        except PresentationError as exc:
            raise ParseError(str(exc), lineno) from exc
    return BoundQuiverPresentation(quiver, paths)


def parse_outcome(parse, text):
    """The tables ``parse(text)`` fills, or the text and line it refuses."""
    try:
        pres = parse(text)
    except ParseError as err:
        return str(err), err.line
    q = pres.quiver
    lists = [list(q._out.items()), list(q._in.items())]  # in order
    tables = (q.vertices, list(q.arrows.items()), lists)
    return pres, tables, pres._relset, pres._maxrel, pres.relations


def random_presentation_lines(rng):
    """The lines of a valid presentation: vertices, arrows (loops among
    them) and relations of length 2 to 4 along composable arrows."""
    # numeric ids and others, which sort apart; a repeat is kept once
    names = [rng.choice([str(i - 2), f"v{i}", f"{i}'"]) for i in range(6)]
    vertices = list(dict.fromkeys(names[: rng.randint(1, 6)]))
    arrows = [
        (f"a{i}", rng.choice(vertices), rng.choice(vertices))
        for i in range(rng.randint(0, 7))
    ]
    rels = set()
    for _ in range(rng.randint(0, 4)):
        if not arrows:
            break
        path = [rng.choice(arrows)]
        for _ in range(rng.randint(1, 3)):
            nxt = [a for a in arrows if a[1] == path[-1][2]]
            if nxt:
                path.append(rng.choice(nxt))
        if len(path) > 1:
            rels.add(tuple(a for a, _, _ in path))
    lines = [f"vertex {v}" for v in vertices]
    lines += [f"arrow {a} {src} {tgt}" for a, src, tgt in arrows]
    lines += ["relation " + " ".join(rel) for rel in rels]
    rng.shuffle(lines)
    return lines, arrows


def broken_line(rng, lines, arrows):
    """One line the parser refuses, or may refuse once the rest is read."""
    some_arrows = [a for a, _, _ in arrows] or ["a0"]
    return rng.choice(
        [
            "frob x y",  # unknown directive
            "vertex",  # bad arity
            "vertex u v",
            "arrow z 0",
            "relation " + some_arrows[0],
            rng.choice(lines or ["vertex 0"]),  # duplicate, unless lines is empty
            f"arrow z {rng.choice(['0', 'nowhere'])} nowhere",  # undeclared endpoint
            "relation zz " + some_arrows[0],  # unknown arrow
            # a relation that need not compose
            "relation " + " ".join(rng.choice(some_arrows) for _ in range(3)),
        ]
    )


def test_parser_fills_the_tables_the_reference_route_fills():
    rng = random.Random(29)
    texts = ["", "# only a comment\n\n", "relation a b\n", "arrow a 0 0\n"]
    for k in range(1500):
        lines, arrows = random_presentation_lines(rng)
        if k % 2:
            broken = broken_line(rng, lines, arrows)
            lines.insert(rng.randint(0, len(lines)), broken)
        if k % 5 == 0:
            lines = [line for line in lines if not line.startswith("vertex")]
        decorated = []
        for line in lines:
            if rng.random() < 0.2:
                decorated.append(rng.choice(["", "   ", "# a comment", "\t# x y z"]))
            decorated.append(line + rng.choice(["", "  # trailing", " \t"]))
        texts.append(("\r\n" if rng.random() < 0.3 else "\n").join(decorated))
    refused = 0
    for text in texts:
        expected = parse_outcome(reference_parse, text)
        assert parse_outcome(parse_presentation, text) == expected, text
        if isinstance(expected[0], str):
            refused += 1
            continue
        # the tables in their order, read off the arrows alone
        pres, q = expected[0], expected[0].quiver
        assert q.vertices == tuple(sorted(q.vertices, key=vertex_sort_key))
        assert list(q.arrows) == sorted(q.arrows)
        for lists, end in ((q._out, 0), (q._in, 1)):
            at = {v: [] for v in q.vertices}
            for a, ends in q.arrows.items():
                at[ends[end]].append(a)
            assert list(lists.items()) == list(at.items())
        # a working copy frozen, and the public route from shuffled parts
        vertices = list(q.vertices)
        arrows = [(a, *ends) for a, ends in q.arrows.items()]
        relations = [rel.arrows for rel in pres.relations]
        for parts in (vertices, arrows, relations):
            rng.shuffle(parts)
        public = BoundQuiverPresentation(Quiver(vertices, arrows), relations)
        frozen = _freeze(_thaw(parse_presentation(text)))
        for route in (lambda _: frozen, lambda _: public):
            assert parse_outcome(route, text) == expected, text
    # both routes are exercised: most broken texts are refused, and some
    # texts with relations go through
    assert 600 < refused < len(texts) - 500
