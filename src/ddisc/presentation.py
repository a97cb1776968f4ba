"""Quivers bound by monomial relations.

Paths compose left to right: the product ``p*q`` traverses ``p`` first, so
``e_u * p = p`` iff ``p`` starts at ``u`` and ``p * e_v = p`` iff ``p`` ends
at ``v``.  A relation is a path of length >= 2; the algebra is the path
algebra modulo the ideal generated by those paths, so the path basis is the
set of paths containing no relation as a contiguous subpath.

Vertex and arrow ids are strings.  Ids that look like integers sort
numerically so the Lambda(r,s,t) builders, which label vertices
-t,...,-1,0,...,s-1, enumerate in the natural order.
"""

from __future__ import annotations

import bisect
import itertools
from collections import namedtuple

from .errors import (
    InfiniteDimensionalError,
    ParseError,
    PreconditionError,
    PresentationError,
)


def vertex_sort_key(v: str):
    """Numeric ids before other ids, numerically; the rest lexicographic."""
    # int() reads only text that starts with a space, a sign or a digit
    if v[:1].isalpha():
        return (1, 0, v)
    try:
        return (0, int(v), v)
    except ValueError:
        return (1, 0, v)


class Path(namedtuple("Path", "source target arrows")):
    """A path in a quiver: a base vertex plus an ordered arrow tuple.

    ``arrows`` is empty exactly for the trivial path at ``source``.
    """

    __slots__ = ()

    def __len__(self):
        return len(self.arrows)

    @classmethod
    def _make(cls, iterable):  # the stock one checks len(), which counts arrows
        return cls(*iterable)

    def label(self):
        return f"e_{self.source}" if not self.arrows else "*".join(self.arrows)

    def sort_key(self):
        return (len(self.arrows), vertex_sort_key(self.source), self.arrows)


def _check_id(kind, name):
    """Refuse an id the text form cannot carry: one token, no comment."""
    if name.split() != [name] or "#" in name:
        raise PresentationError(f"{kind} id {name!r} is empty or holds a space or #")


def _check_walk(arrows, names):
    """Refuse names that are not arrows of ``arrows`` composing in order."""
    for a in names:
        if a not in arrows:
            raise PresentationError(f"unknown arrow {a!r}")
    for a, b in zip(names, names[1:]):
        if arrows[a][1] != arrows[b][0]:
            raise PresentationError(f"arrows {a!r} and {b!r} do not compose")


def _tables(vertices, ends):
    """The tables of a quiver of checked vertex ids and arrow ends
    ``{name: (source, target)}``: the vertices in ``vertex_sort_key`` order,
    and the arrows and each vertex's out and in lists in name order."""
    verts = tuple(sorted(vertices, key=vertex_sort_key))
    arrows = dict(sorted(ends.items()))  # names are unique: no pair is compared
    out, into = {v: [] for v in verts}, {v: [] for v in verts}
    for name, (src, tgt) in arrows.items():
        out[src].append(name)
        into[tgt].append(name)
    return verts, arrows, out, into


class Quiver:
    """A finite quiver: named vertices and named arrows with endpoints."""

    __slots__ = ("vertices", "arrows", "_out", "_in")

    def __init__(self, vertices, arrows):
        verts = list(vertices)
        if not verts:
            raise PresentationError("a quiver needs at least one vertex")
        for v in verts:
            _check_id("vertex", v)
        vset = set(verts)
        if len(vset) != len(verts):
            raise PresentationError("duplicate vertex id")
        named = {}
        for name, src, tgt in arrows:
            _check_id("arrow", name)
            if name in named:
                raise PresentationError(f"duplicate arrow id {name!r}")
            if src not in vset or tgt not in vset:
                raise PresentationError(f"arrow {name!r} has undeclared endpoint")
            named[name] = (src, tgt)
        self.vertices, self.arrows, self._out, self._in = _tables(verts, named)

    @classmethod
    def _assemble(cls, vertices, arrows, out, into):
        """A quiver of tables already checked and ordered as ``_tables``
        orders them (a working copy's arrows in the order they were made).
        The lists may be shared, as quivers never change, except a working
        copy's (``_thaw``), which it owns, edits and hands to its parts."""
        quiver = object.__new__(cls)
        quiver.vertices = vertices
        quiver.arrows = arrows
        quiver._out = out
        quiver._in = into
        return quiver

    def source(self, a: str) -> str:
        return self.arrows[a][0]

    def target(self, a: str) -> str:
        return self.arrows[a][1]

    def arrows_from(self, v: str):
        return tuple(self._out[v])

    def arrows_into(self, v: str):
        return tuple(self._in[v])

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return hash((self.vertices, tuple(self.arrows.items())))

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


class BoundQuiverPresentation:
    """A quiver together with monomial relations of length >= 2."""

    __slots__ = ("quiver", "_relset", "_maxrel", "_cache")

    def __init__(self, quiver: Quiver, relations=()):
        self.quiver = quiver
        rels = []
        for rel in relations:
            names = tuple(rel.arrows) if isinstance(rel, Path) else tuple(rel)
            if len(names) < 2:
                raise PresentationError(f"relation {names} shorter than 2")
            rels.append(self.make_path(names).arrows)
        relset = frozenset(rels)
        if len(relset) != len(rels):
            raise PresentationError("duplicate relation")
        self._set_relations(relset, max(map(len, rels), default=0))

    @classmethod
    def _assemble(cls, quiver, relset, maxrel=None):
        """A presentation of relation names already checked against
        ``quiver``; ``maxrel``, the longest length, is found when not given."""
        pres = object.__new__(cls)
        pres.quiver = quiver
        if maxrel is None:
            maxrel = max(map(len, relset), default=0)
        pres._set_relations(relset, maxrel)
        return pres

    def _set_relations(self, relset, maxrel):
        # the arrow-name tuples of the relations are their one stored form
        self._relset = relset
        self._maxrel = maxrel
        self._cache = {}

    @property
    def relations(self):
        """The relations as paths, in ``Path.sort_key`` order: a read-only
        view of the relation set, made on first read and cached."""
        return _cached(self, "relations", _relation_paths)

    # -- path arithmetic -------------------------------------------------

    def trivial_path(self, v: str) -> Path:
        if v not in self.quiver._out:
            raise PresentationError(f"unknown vertex {v!r}")
        return Path(v, v, ())

    def make_path(self, arrow_names) -> Path:
        names = tuple(arrow_names)
        if not names:
            raise PresentationError("empty arrow list; use trivial_path")
        q = self.quiver
        _check_walk(q.arrows, names)
        return Path(q.source(names[0]), q.target(names[-1]), names)

    def is_normal(self, arrow_names) -> bool:
        """True when no relation occurs as a contiguous subword: every
        window of length 2 up to the longest relation is looked up in the
        relation set."""
        names = tuple(arrow_names)
        relset, longest = self._relset, self._maxrel
        for end in range(2, len(names) + 1):
            start = end - longest if end > longest else 0
            while start < end - 1:
                if names[start:end] in relset:
                    return False
                start += 1
        return True

    def path_product(self, p: Path, q: Path):
        """Product in the algebra; ``None`` when the product is zero."""
        if p.target != q.source:
            raise PresentationError("paths do not compose")
        if not p.arrows:
            return q
        if not q.arrows:
            return p
        # p and q are normal, so only a subword straddling the junction can
        # be a relation: it lies in the maxrel - 1 arrows on either side
        k = self._maxrel - 1
        if k > 0 and not self.is_normal(p.arrows[-k:] + q.arrows[:k]):
            return None
        return Path(p.source, q.target, p.arrows + q.arrows)

    # -- equality and text form ------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, BoundQuiverPresentation)
            and self.quiver == other.quiver
            and self._relset == other._relset
        )

    def __hash__(self):
        return hash((self.quiver, self._relset))

    def __repr__(self):
        return (
            f"BoundQuiverPresentation({len(self.quiver.vertices)} vertices, "
            f"{len(self.quiver.arrows)} arrows, {len(self._relset)} relations)"
        )


def parse_presentation(text: str) -> BoundQuiverPresentation:
    """Parse the line-based presentation format.

    Directives: ``vertex <id>``, ``arrow <id> <source> <target>``,
    ``relation <arrowid> <arrowid> [...]``.  ``#`` starts a comment.
    The checked lines fill the quiver tables and the relation set
    directly: a token holds no space or ``#``, so it is a valid id.
    """
    vertices = {}  # id -> line
    arrows = {}  # id -> (line, source, target)
    relations = {}  # arrow ids -> line
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[: line.index("#")]
        tokens = line.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "vertex":
            if len(tokens) != 2:
                raise ParseError("vertex takes exactly one id", lineno)
            table, key, entry = vertices, tokens[1], lineno
        elif kind == "arrow":
            if len(tokens) != 4:
                raise ParseError("arrow takes id, source, target", lineno)
            table, key, entry = arrows, tokens[1], (lineno, tokens[2], tokens[3])
        elif kind == "relation":
            if len(tokens) < 3:
                raise ParseError("relation needs at least two arrows", lineno)
            table, key, entry = relations, tuple(tokens[1:]), lineno
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno)
        if key in table:
            raise ParseError(f"duplicate {kind} {key!r}", lineno)
        table[key] = entry
    # Declarations may come in any order, so endpoints and relation paths are
    # checked once everything is read, each against its own line.
    for name, (lineno, src, tgt) in arrows.items():
        if src not in vertices or tgt not in vertices:
            raise ParseError(f"arrow {name!r} has undeclared endpoint", lineno)
    ends = {name: (src, tgt) for name, (_, src, tgt) in arrows.items()}
    for rel, lineno in relations.items():
        try:
            _check_walk(ends, rel)
        except PresentationError as exc:
            raise ParseError(str(exc), lineno) from exc
    if not vertices:
        raise ParseError("no vertex declared")
    quiver = Quiver._assemble(*_tables(vertices, ends))
    return BoundQuiverPresentation._assemble(quiver, frozenset(relations))


def serialize_presentation(pres: BoundQuiverPresentation) -> str:
    """Canonical text form; ``parse_presentation`` round-trips it."""
    q = pres.quiver
    arrows = q.arrows
    lines = [f"vertex {v}" for v in q.vertices]
    lines += [f"arrow {name} {src} {tgt}" for name, (src, tgt) in arrows.items()]
    # the relations in ``Path.sort_key`` order, read off their names: the
    # vertices are in ``vertex_sort_key`` order, so a source's position
    # there sorts as its key does
    rank = dict(zip(q.vertices, range(len(q.vertices))))
    rels = sorted(pres._relset, key=lambda r: (len(r), rank[arrows[r[0]][0]], r))
    lines += ["relation " + " ".join(rel) for rel in rels]
    return "\n".join(lines) + "\n"


# -- path basis ------------------------------------------------------------


def _cached(pres, key, compute):
    """``compute(pres)``, kept in the cache of ``pres``, which never changes;
    do not mutate it."""
    value = pres._cache.get(key)
    if value is None:
        value = pres._cache[key] = compute(pres)
    return value


def _relation_paths(pres):
    """The ``relations`` view: each relation as a path, in canonical order."""
    q = pres.quiver
    paths = (Path(q.source(r[0]), q.target(r[-1]), r) for r in pres._relset)
    return tuple(sorted(paths, key=Path.sort_key))


def _children_first(roots, children):
    """Every node reachable from ``roots``, each listed after every node
    below it, or None when a cycle is reachable.

    ``children(node)`` lists the nodes one step below ``node``; it is asked
    once per node reached.  The depth-first search keeps its own stack, so
    a chain deeper than the recursion limit is walked like any other.
    """
    order, finished = [], {}  # finished[node] is False while it is on the stack
    for root in roots:
        if root in finished:
            continue
        finished[root] = False
        stack = [(root, iter(children(root)))]
        while stack:
            node, it = stack[-1]
            for child in it:
                seen = finished.get(child)
                if seen is None:
                    finished[child] = False
                    stack.append((child, iter(children(child))))
                    break
                if not seen:
                    return None
            else:
                stack.pop()
                finished[node] = True
                order.append(node)
    return order


def _automaton(pres):
    """Edges of every state the suffix automaton reaches from some (v, ()),
    and those states children first.

    States are (vertex, window) with window the last max(relation)-1 arrows;
    that window determines which one-arrow extensions stay normal: the
    window is normal, so only a suffix of window plus arrow can be a
    relation, and each suffix of length 2 or more is looked up in the
    relation set.  So the basis paths from v are the walks from (v, ()),
    and a path x times a path y is nonzero iff y walks from the state that
    x ends in.  Path listings (``_paths_from``) and annihilator generators
    (``_annihilator_generators``) read these edges, the (arrow, next state)
    pairs of each state, and check no relation again; no other module reads
    a state.  ``path_counts`` folds counts over the order.
    A reachable cycle pumps to arbitrarily long normal paths: that raises
    InfiniteDimensionalError, a structural check rather than a cutoff.
    """
    q = pres.quiver
    out, ends = q._out, q.arrows
    width = max(pres._maxrel - 1, 0)
    relset = pres._relset
    edges = {}

    def children(state):
        vertex, window = state
        outs = edges[state] = []
        for a in out[vertex]:
            word = window + (a,)
            # kept inline: it runs once per edge
            k = len(word) - 2
            while k >= 0 and word[k:] not in relset:
                k -= 1
            if k < 0:
                outs.append((a, (ends[a][1], word[-width:] if width else ())))
        return [nxt for _, nxt in outs]

    order = _children_first([(v, ()) for v in q.vertices], children)
    if order is None:
        raise InfiniteDimensionalError(
            "relation-free cycle: the path basis is infinite"
        )
    return edges, order


def _states(pres):
    """``_automaton`` of ``pres``, cached."""
    return _cached(pres, "automaton", _automaton)


def _assert_finite_dimensional(pres: BoundQuiverPresentation):
    """Raise InfiniteDimensionalError when the path basis is infinite."""
    _states(pres)


def _counts_from_states(pres):
    """``path_counts``: the counts by target vertex of the walks from each
    state, folded over the automaton's order, children first."""
    edges, order = _states(pres)
    below = {}
    for state in order:
        outs = edges[state]
        # copying the first child's dict runs in C; most states have one
        ends = dict(below[outs[0][1]]) if outs else {}
        for _, nxt in outs[1:]:
            for w, count in below[nxt].items():
                ends[w] = ends.get(w, 0) + count
        ends[state[0]] = ends.get(state[0], 0) + 1
        below[state] = ends
    cartan = {}
    by_first = {}
    for v in pres.quiver.vertices:
        cartan[v] = below[(v, ())]
        for a, nxt in edges[(v, ())]:
            by_first[a] = sum(below[nxt].values())
    return cartan, by_first


def path_counts(pres: BoundQuiverPresentation):
    """Basis-path counts, read off the suffix automaton without listing paths.

    Returns ``(cartan, by_first)`` with nonzero entries only:
    ``cartan[u][w]`` counts the basis paths from u to w, and
    ``by_first[a]`` those whose first arrow is a (every arrow has one).
    One pass over the automaton, children first, gives every state the
    counts by target of the walks from it; the walks from (v, ()) are the
    basis paths from v, so those counts are row v of the Cartan matrix.

    The rows and first-arrow totals stay cached on the presentation, and
    the counts of the other states do not outlive the pass; callers must
    not mutate the result.  A series counts no path: its steps need
    relations of length at most 2 and are decided on the relation set (see
    ``jordan``).
    Raises InfiniteDimensionalError like ``path_basis``.
    """
    return _cached(pres, "path_counts", _counts_from_states)


def path_basis(pres: BoundQuiverPresentation) -> list[Path]:
    """All relation-avoiding paths, sorted by length then source then arrows.

    Raises InfiniteDimensionalError when the algebra is infinite dimensional;
    the check is structural, not an enumeration cutoff.
    """
    return _cached(pres, "path_basis", _path_list)


def _path_list(pres):
    vertices = pres.quiver.vertices
    return sorted(
        (p for v in vertices for ps in _paths_from(pres, v).values() for p in ps),
        key=Path.sort_key,
    )


def _paths_from(pres, v):
    """Basis paths from v by target, each list in canonical order.

    They are the walks from (v, ()) along the automaton's edges, listed the
    first time v is asked for and kept on the presentation, so a module
    lists only the paths out of its own vertices and those of its cover.
    Raises InfiniteDimensionalError like ``path_basis``.
    """
    table = _cached(pres, "paths_from", lambda _: {})
    by_target = table.get(v)
    if by_target is None:
        edges = _states(pres)[0]
        found, stack = [pres.trivial_path(v)], [((v, ()), ())]
        while stack:
            state, word = stack.pop()
            for a, nxt in edges[state]:
                new = word + (a,)
                found.append(Path(v, nxt[0], new))
                stack.append((nxt, new))
        by_target = {}
        # every path starts at v, so this is ``Path.sort_key`` order
        for p in sorted(found, key=lambda p: (len(p.arrows), p.arrows)):
            by_target.setdefault(p.target, []).append(p)
        table[v] = by_target
    return by_target


def _annihilator_generators(pres, x):
    """Prefix-minimal paths y out of ``x.target`` with x*y = 0.

    They generate the kernel of P_{t(x)} -> xA.  Two walks along the
    automaton's edges go side by side: y is a basis path iff it walks from
    (t(x), ()), and x*y is nonzero iff it walks from the state x ends in.
    Each generator is y*a at an arrow a that the first walk takes and the
    second lacks, so the search stops at each generator.
    """
    edges = _states(pres)[0]
    width = pres._maxrel - 1
    u = x.target
    found = []
    stack = [((u, ()), (u, x.arrows[-width:] if width > 0 else ()), ())]
    while stack:
        alone, after_x, word = stack.pop()
        joined = dict(edges[after_x])
        for a, nxt in edges[alone]:
            if a in joined:
                stack.append((nxt, joined[a], word + (a,)))
            else:
                found.append(Path(u, nxt[0], word + (a,)))
    return found


def cartan_matrix(pres: BoundQuiverPresentation) -> dict:
    """Entry ``(u, w)`` counts basis paths from u to w."""
    verts = pres.quiver.vertices
    rows = path_counts(pres)[0]
    return {(u, w): rows[u].get(w, 0) for u in verts for w in verts}


def grothendieck_rank(pres: BoundQuiverPresentation) -> int:
    return len(pres.quiver.vertices)


# -- corners -----------------------------------------------------------------


def _thaw(pres) -> BoundQuiverPresentation:
    """A working copy of ``pres`` that ``_corner`` edits in place.

    It owns its arrow dict, its arrow lists and its relation set, a
    ``set`` where a presentation's is a frozenset: only ``_corner`` tells
    the two apart.  Its vertices are the live keys of its ``_out`` dict, so
    they stay in sort order as vertices leave.  Its arrow dict keeps
    products in the order they were made: ``_freeze`` sorts it.  A working
    copy must not escape to a caller or be hashed.
    """
    q = pres.quiver
    out = {v: list(arrows) for v, arrows in q._out.items()}
    into = {v: list(arrows) for v, arrows in q._in.items()}
    quiver = Quiver._assemble(out.keys(), dict(q.arrows), out, into)
    return BoundQuiverPresentation._assemble(quiver, set(pres._relset), pres._maxrel)


def _freeze(work) -> BoundQuiverPresentation:
    """A presentation equal to the working copy ``work``, sharing nothing
    with it: vertices in a tuple, arrows sorted by name."""
    q = work.quiver
    quiver = Quiver._assemble(*_tables(q._out, q.arrows))
    return BoundQuiverPresentation._assemble(
        quiver, frozenset(work._relset), work._maxrel
    )


def _assert_quadratic(pres):
    """Refuse relations longer than 2, on which no series step is decided."""
    if pres._maxrel > 2:
        raise PreconditionError(
            "series steps need relations of length at most 2,"
            f" found length {pres._maxrel}"
        )


def _linked(edges, nodes) -> bool:
    """Whether ``edges``, pairs of nodes, link all of ``nodes``: a
    union-find over the nodes they touch."""
    root = {}

    def find(u):
        while u in root:
            u = root[u]
        return u

    for s, t in edges:
        s, t = find(s), find(t)
        if s != t:
            root[s] = t
    return len(set(map(find, nodes))) <= 1


def _corner(pres, v: str):
    """The corner of ``pres`` on every vertex but v, in its quadratic
    presentation, as a working copy (see ``_thaw``): ``pres`` itself edited
    in place when it is one, else one copy, so a presentation and its cache
    are never edited.  Lists change at v's neighbours only.

    Relations longer than 2 are refused (``_assert_quadratic``).  v is a
    source, a sink or radical-projective, as the caller decides, so it
    carries no loop and no relation starts with an arrow out of it.  The
    generators are the arrows that avoid v and the normal products a*b
    through v, each named apart from every arrow of ``pres``.  A word in
    the generators vanishes iff a relation straddles two consecutive ones,
    so the relations are the pairs that avoid v and the pairs (g, a*b) with
    (g, a) a relation; a*b*h is never zero, as b leaves v.  No path is
    counted, and a source or a sink makes no product.

    A corner of a component marked connected (``_components``) keeps the
    mark when the products through v link all of v's neighbours (a leaf
    has one): every other vertex reached v through a neighbour, by arrows
    that the corner keeps.  Otherwise it is searched, and may split.
    """
    if pres._maxrel > 2:
        _assert_quadratic(pres)
    # read before _thaw, whose copy starts an empty cache
    marked = pres._cache.get("components") == ()
    work = _thaw(pres) if isinstance(pres._relset, frozenset) else pres
    q, relset = work.quiver, work._relset
    arrows, out, into = q.arrows, q._out, q._in
    ins, outs = into.pop(v), out.pop(v)
    # the pairs through an arrow at v leave; a relation (c, a) with a into
    # v comes back as (c, a*b) for each product a*b
    dead, born, products = [], [], {}
    for b in outs:
        w = arrows[b][1]
        into[w].remove(b)
        for c in out[w]:
            dead.append((b, c))
    for a in ins:
        u = arrows[a][0]
        out[u].remove(a)
        heads = []
        for c in into[u]:
            if (c, a) in relset:
                heads.append(c)
                dead.append((c, a))
        for b in outs:
            if (a, b) in relset:
                dead.append((a, b))
                continue
            label = f"{a}*{b}"  # single arrows are normal
            while label in arrows or label in products:
                label += "'"
            products[label] = (u, arrows[b][1])
            for c in heads:
                born.append((c, label))
    for name, ends in products.items():
        arrows[name] = ends
        bisect.insort(out[ends[0]], name)
        bisect.insort(into[ends[1]], name)
    relset.difference_update(dead)
    relset.update(born)
    if marked and len(ins) + len(outs) > 1:
        ends = [arrows[a][0] for a in ins] + [arrows[b][1] for b in outs]
        marked = _linked(products.values(), ends)
    for a in ins + outs:
        del arrows[a]
    work._set_relations(relset, 2 if relset else 0)
    if marked:
        work._cache["components"] = ()
    return work


# -- components and sums -----------------------------------------------------


def connected_components(pres: BoundQuiverPresentation):
    """Split into connected subpresentations, ordered by smallest vertex.

    A tuple, computed once per presentation and cached on it.
    """
    # presentations are immutable, so a connected input is its own one part
    # and keeps its cached path data.  Its cache holds () instead: a
    # presentation that referred to itself would wait for the cycle
    # collector to be freed.
    return _cached(pres, "components", _components) or (pres,)


def _components(pres):
    """The connected parts of a presentation, or () when it is connected.

    One traversal along the arrow lists from each vertex not yet reached,
    in sort order, labels every vertex with the smallest vertex of its
    part.  Each part is marked connected in its cache.  The parts keep the
    kind of ``pres``: a working copy's (``_thaw``) take over its lists.
    """
    q = pres.quiver
    arrows, out, into = q.arrows, q._out, q._in
    root, groups = {}, {}
    for v in q.vertices:
        if v in root:
            groups[root[v]].append(v)
            continue
        root[v], groups[v], stack = v, [v], [v]
        while stack:
            u = stack.pop()
            for a in out[u]:
                w = arrows[a][1]
                if w not in root:
                    root[w] = v
                    stack.append(w)
            for a in into[u]:
                w = arrows[a][0]
                if w not in root:
                    root[w] = v
                    stack.append(w)
        if len(groups) == 1 and len(root) == len(out):
            return ()
    # parts reuse the arrows, arrow lists and relation names pres checked
    ends, rels = {r: {} for r in groups}, {r: [] for r in groups}
    for name, pair in arrows.items():
        ends[root[pair[0]]][name] = pair
    for rel in pres._relset:
        rels[root[arrows[rel[0]][0]]].append(rel)
    kind = frozenset if isinstance(pres._relset, frozenset) else set
    parts = []
    for r, group in groups.items():
        lists = {v: out[v] for v in group}, {v: into[v] for v in group}
        verts = tuple(group) if kind is frozenset else lists[0].keys()
        quiver = Quiver._assemble(verts, ends[r], *lists)
        part = BoundQuiverPresentation._assemble(quiver, kind(rels[r]))
        part._cache["components"] = ()
        parts.append(part)
    return tuple(parts)


def direct_sum(presentations) -> BoundQuiverPresentation:
    """Disjoint union; ids are prefixed with the summand index on collision."""
    presentations = list(presentations)
    if not presentations:
        raise PresentationError("direct_sum of nothing")
    all_vertices = list(
        itertools.chain.from_iterable(p.quiver.vertices for p in presentations)
    )
    all_arrows = list(
        itertools.chain.from_iterable(p.quiver.arrows for p in presentations)
    )
    clash = len(set(all_vertices)) != len(all_vertices) or len(set(all_arrows)) != len(
        all_arrows
    )

    def tag(i, name):
        return f"{i}:{name}" if clash else name

    vertices = []
    arrows = []
    relations = []
    for i, p in enumerate(presentations):
        vertices.extend(tag(i, v) for v in p.quiver.vertices)
        arrows.extend(
            (tag(i, name), tag(i, src), tag(i, tgt))
            for name, (src, tgt) in p.quiver.arrows.items()
        )
        relations.extend(tuple(tag(i, a) for a in rel) for rel in p._relset)
    return BoundQuiverPresentation(Quiver(vertices, arrows), relations)


# -- the Lambda(r,s,t) family ------------------------------------------------


class LambdaDescriptor(namedtuple("LambdaDescriptor", "r s t")):
    """Parameters of the one-cycle normal form Lambda(r,s,t)."""

    __slots__ = ()

    def __new__(cls, r, s, t):
        if not (1 <= r <= s):
            raise PresentationError(f"need 1 <= r <= s, got r={r}, s={s}")
        if t < 0:
            raise PresentationError(f"need t >= 0, got t={t}")
        return super().__new__(cls, r, s, t)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks the new fields too
        return cls(*iterable)

    def rank(self):
        return self.s + self.t


def _lambda_parts(r, s, t):
    """The vertex ids, arrow triples and relation pairs of Lambda(r,s,t),
    in the order a ``Quiver`` stores them; see ``build_lambda``."""
    vertices = [str(q) for q in range(-t, s)]
    arrows = [(f"a{q}", str(q), str(q + 1)) for q in range(-t, 0)]
    arrows += [(f"a{p}", str(p), str((p + 1) % s)) for p in range(s)]
    relations = [(f"a{p}", f"a{(p + 1) % s}") for p in range(s - r, s)]
    return vertices, arrows, relations


def build_lambda(r: int, s: int, t: int) -> BoundQuiverPresentation:
    """The gentle one-cycle algebra Lambda(r,s,t).

    Vertices -t..-1 form a tail feeding the oriented s-cycle on 0..s-1;
    arrow ``a<q>`` starts at vertex q.  The r relations are the consecutive
    cycle pairs ending with the pair through vertex 0.
    """
    desc = LambdaDescriptor(r, s, t)
    vertices, arrows, relations = _lambda_parts(desc.r, desc.s, desc.t)
    return BoundQuiverPresentation(Quiver(vertices, arrows), relations)


def lambda_descriptor_of(pres: BoundQuiverPresentation):
    """The (r,s,t) with ``pres == build_lambda(r,s,t)`` literally, else None.

    Computed once per presentation and cached on it.
    """
    return _cached(pres, "lambda_descriptor", _lambda_descriptor) or None


def _lambda_descriptor(pres):
    """The descriptor of ``pres``, or () when it is no literal Lambda(r,s,t).

    The only candidate is read off the counts; ``pres`` is then compared
    with that candidate's parts as ``==`` would compare it with
    ``build_lambda``'s presentation, without building one.
    """
    # the literal tail vertices are exactly the negative ids, which fixes t
    q = pres.quiver
    n = len(q.vertices)
    t = sum(1 for v in q.vertices if v.startswith("-"))
    try:
        desc = LambdaDescriptor(len(pres._relset), n - t, t)
    except PresentationError:
        return ()
    vertices, arrows, relations = _lambda_parts(desc.r, desc.s, desc.t)
    literal = (
        q.vertices == tuple(vertices)
        and q.arrows == {name: (src, tgt) for name, src, tgt in arrows}
        and pres._relset == frozenset(relations)
    )
    return desc if literal else ()


# -- isomorphism of labelled presentations -----------------------------------


def _degree_signature(pres, v):
    q = pres.quiver
    loops = sum(1 for a in q.arrows_from(v) if q.target(a) == v)
    return (len(q.arrows_into(v)), len(q.arrows_from(v)), loops)


def find_isomorphism(p1: BoundQuiverPresentation, p2: BoundQuiverPresentation):
    """A bound-quiver isomorphism (vertex map, arrow map), or None.

    Backtracking on vertices with degree pruning, then arrow matching within
    parallel classes, finally the relation sets must correspond.
    """
    q1, q2 = p1.quiver, p2.quiver
    if len(q1.vertices) != len(q2.vertices) or len(q1.arrows) != len(q2.arrows):
        return None
    if len(p1._relset) != len(p2._relset):
        return None
    sig2 = {}
    for v in q2.vertices:
        sig2.setdefault(_degree_signature(p2, v), []).append(v)

    order = sorted(q1.vertices, key=vertex_sort_key)

    def fits(v, w, vmap):
        # w has as many arrows to and from each image as v to and from its preimage
        for lists1, lists2, end in ((q1._out, q2._out, 1), (q1._in, q2._in, 0)):
            for a in lists1[v]:
                other = q1.arrows[a][end]
                if other in vmap:
                    need = sum(1 for b in lists1[v] if q1.arrows[b][end] == other)
                    image = vmap[other]
                    have = sum(1 for b in lists2[w] if q2.arrows[b][end] == image)
                    if need != have:
                        return False
        return True

    def extend(vmap, used, idx):
        if idx == len(order):
            return dict(vmap)
        v = order[idx]
        for w in sig2.get(_degree_signature(p1, v), ()):
            if w in used or not fits(v, w, vmap):
                continue
            vmap[v] = w
            used.add(w)
            found = extend(vmap, used, idx + 1)
            if found is not None:
                amap = _match_arrows(p1, p2, found)
                if amap is not None:
                    return found
            del vmap[v]
            used.discard(w)
        return None

    vmap = extend({}, set(), 0)
    if vmap is None:
        return None
    return vmap, _match_arrows(p1, p2, vmap)


def _match_arrows(p1, p2, vmap):
    q1, q2 = p1.quiver, p2.quiver
    classes1, classes2 = {}, {}
    for q, classes in ((q1, classes1), (q2, classes2)):
        for name, ends in q.arrows.items():
            classes.setdefault(ends, []).append(name)
    keys = []
    for (src, tgt), names in classes1.items():
        image = (vmap[src], vmap[tgt])
        if len(classes2.get(image, ())) != len(names):
            return None
        keys.append(((src, tgt), image))

    rels2 = p2._relset

    def assign(i, amap):
        if i == len(keys):
            mapped = {tuple(amap[a] for a in rel) for rel in p1._relset}
            return dict(amap) if mapped == rels2 else None
        (src_tgt, image) = keys[i]
        names = classes1[src_tgt]
        for perm in itertools.permutations(classes2[image]):
            for a, b in zip(names, perm):
                amap[a] = b
            found = assign(i + 1, amap)
            if found is not None:
                return found
            for a in names:
                del amap[a]
        return None

    return assign(0, {})


def are_isomorphic(p1: BoundQuiverPresentation, p2: BoundQuiverPresentation) -> bool:
    return find_isomorphism(p1, p2) is not None
