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

import itertools
from dataclasses import dataclass

from .errors import InfiniteDimensionalError, ParseError, PresentationError


def vertex_sort_key(v: str):
    """Numeric ids before other ids, numerically; the rest lexicographic."""
    try:
        return (0, int(v), v)
    except ValueError:
        return (1, 0, v)


@dataclass(frozen=True)
class Path:
    """A path in a quiver: a base vertex plus an ordered arrow tuple.

    ``arrows`` is empty exactly for the trivial path at ``source``.
    """

    source: str
    target: str
    arrows: tuple[str, ...]

    def __len__(self):
        return len(self.arrows)

    def is_trivial(self):
        return not self.arrows

    def label(self):
        return f"e_{self.source}" if not self.arrows else "*".join(self.arrows)

    def sort_key(self):
        return (len(self.arrows), vertex_sort_key(self.source), self.arrows)


class Quiver:
    """A finite quiver: named vertices and named arrows with endpoints."""

    __slots__ = ("vertices", "arrows", "_out", "_in")

    def __init__(self, vertices, arrows):
        verts = list(vertices)
        if len(set(verts)) != len(verts):
            raise PresentationError("duplicate vertex id")
        self.vertices = tuple(sorted(verts, key=vertex_sort_key))
        vset = set(self.vertices)
        named = {}
        for name, src, tgt in arrows:
            if name in named:
                raise PresentationError(f"duplicate arrow id {name!r}")
            if src not in vset or tgt not in vset:
                raise PresentationError(f"arrow {name!r} has undeclared endpoint")
            named[name] = (src, tgt)
        self.arrows = {name: named[name] for name in sorted(named)}
        self._out = {v: [] for v in self.vertices}
        self._in = {v: [] for v in self.vertices}
        for name, (src, tgt) in self.arrows.items():
            self._out[src].append(name)
            self._in[tgt].append(name)

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

    __slots__ = ("quiver", "relations", "_relset", "_maxrel", "_by_last", "_cache")

    def __init__(self, quiver: Quiver, relations=()):
        self.quiver = quiver
        rels = []
        for rel in relations:
            names = tuple(rel.arrows) if isinstance(rel, Path) else tuple(rel)
            if len(names) < 2:
                raise PresentationError(f"relation {names} shorter than 2")
            rels.append(self.make_path(names))
        rels.sort(key=Path.sort_key)
        self.relations = tuple(rels)
        self._relset = frozenset(p.arrows for p in rels)
        if len(self._relset) != len(rels):
            raise PresentationError("duplicate relation")
        self._maxrel = max((len(p) for p in rels), default=0)
        # relations indexed by their last arrow: a relation occurs in a word
        # only where that arrow does, so scans look up one bucket per position
        self._by_last = {}
        for rel in rels:
            self._by_last.setdefault(rel.arrows[-1], []).append(rel.arrows)
        self._cache = {}

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
        for a in names:
            if a not in q.arrows:
                raise PresentationError(f"unknown arrow {a!r}")
        for a, b in zip(names, names[1:]):
            if q.target(a) != q.source(b):
                raise PresentationError(f"arrows {a!r} and {b!r} do not compose")
        return Path(q.source(names[0]), q.target(names[-1]), names)

    def _relation_ends_at(self, names, end, lo=0, hi=None) -> bool:
        """True when a relation occupies ``names[i:end+1]`` for some ``i``
        in ``[lo, hi]`` (``hi`` unbounded when None)."""
        for rel in self._by_last.get(names[end], ()):
            i = end + 1 - len(rel)
            if lo <= i and (hi is None or i <= hi) and names[i : end + 1] == rel:
                return True
        return False

    def is_normal(self, arrow_names) -> bool:
        """True when no relation occurs as a contiguous subword."""
        names = tuple(arrow_names)
        return not any(self._relation_ends_at(names, j) for j in range(len(names)))

    def _extension_is_normal(self, arrow_names) -> bool:
        # Assumes every proper prefix is normal: only check relations that
        # end at the last arrow.
        names = tuple(arrow_names)
        return not names or not self._relation_ends_at(names, len(names) - 1)

    def path_product(self, p: Path, q: Path):
        """Product in the algebra; ``None`` when the product is zero."""
        if p.target != q.source:
            raise PresentationError("paths do not compose")
        if not p.arrows:
            return q
        if not q.arrows:
            return p
        names = p.arrows + q.arrows
        # Only subwords straddling the junction can introduce a relation:
        # those starting at an index in [lo, len(p)].
        m = len(p.arrows)
        lo = max(0, m - self._maxrel + 1)
        for end in range(lo + 1, min(len(names), m + self._maxrel)):
            if self._relation_ends_at(names, end, lo, m):
                return None
        return Path(p.source, q.target, names)

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
            f"{len(self.quiver.arrows)} arrows, {len(self.relations)} relations)"
        )


def parse_presentation(text: str) -> BoundQuiverPresentation:
    """Parse the line-based presentation format.

    Directives: ``vertex <id>``, ``arrow <id> <source> <target>``,
    ``relation <arrowid> <arrowid> [...]``.  ``#`` starts a comment.
    """
    vertices = {}  # id -> line
    arrows = {}  # id -> (line, source, target)
    relations = {}  # arrow ids -> line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
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
    # Declarations may come in any order, so endpoints and relation paths are
    # checked once everything is read, each against its own line.
    for name, (lineno, src, tgt) in arrows.items():
        if src not in vertices or tgt not in vertices:
            raise ParseError(f"arrow {name!r} has undeclared endpoint", lineno)
    quiver = Quiver(vertices, [(a, src, tgt) for a, (_, src, tgt) in arrows.items()])
    bare = BoundQuiverPresentation(quiver)
    for rel, lineno in relations.items():
        try:
            bare.make_path(rel)
        except PresentationError as exc:
            raise ParseError(str(exc), lineno) from exc
    if not vertices:
        raise ParseError("no vertex declared")
    return BoundQuiverPresentation(quiver, relations)


def serialize_presentation(pres: BoundQuiverPresentation) -> str:
    """Canonical text form; ``parse_presentation`` round-trips it."""
    lines = []
    for v in pres.quiver.vertices:
        lines.append(f"vertex {v}")
    for name, (src, tgt) in pres.quiver.arrows.items():
        lines.append(f"arrow {name} {src} {tgt}")
    for rel in pres.relations:
        lines.append("relation " + " ".join(rel.arrows))
    return "\n".join(lines) + "\n"


# -- path basis ------------------------------------------------------------


def _assert_finite_dimensional(pres: BoundQuiverPresentation):
    """Structural check: no relation-free cycle in the suffix automaton.

    States are (vertex, window) with window the last max(relation)-1 arrows;
    that window determines which one-arrow extensions stay normal.  A cycle
    among reachable states pumps to arbitrarily long normal paths.
    """
    q = pres.quiver
    width = max(pres._maxrel - 1, 0)

    def step(state, a):
        vertex, window = state
        word = window + (a,)
        if not pres._extension_is_normal(word):
            return None
        return (q.target(a), word[-width:] if width else ())

    states = {(v, ()) for v in q.vertices}
    frontier = list(states)
    edges = {}
    while frontier:
        state = frontier.pop()
        outs = []
        for a in q.arrows_from(state[0]):
            nxt = step(state, a)
            if nxt is not None:
                outs.append(nxt)
                if nxt not in states:
                    states.add(nxt)
                    frontier.append(nxt)
        edges[state] = outs

    color = dict.fromkeys(states, 0)  # 0 new, 1 active, 2 done
    for root in states:
        if color[root]:
            continue
        stack = [(root, iter(edges[root]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    raise InfiniteDimensionalError(
                        "relation-free cycle: the path basis is infinite"
                    )
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(edges[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()


def path_basis(pres: BoundQuiverPresentation) -> list[Path]:
    """All relation-avoiding paths, sorted by length then source then arrows.

    Raises InfiniteDimensionalError when the algebra is infinite dimensional;
    the check is structural, not an enumeration cutoff.
    """
    cached = pres._cache.get("path_basis")
    if cached is not None:
        return cached
    _assert_finite_dimensional(pres)
    q = pres.quiver
    basis = [pres.trivial_path(v) for v in q.vertices]
    for v in q.vertices:
        stack = [(v, ())]
        while stack:
            vertex, word = stack.pop()
            for a in q.arrows_from(vertex):
                new = word + (a,)
                if pres._extension_is_normal(new):
                    basis.append(Path(v, q.target(a), new))
                    stack.append((q.target(a), new))
    basis.sort(key=Path.sort_key)
    pres._cache["path_basis"] = basis
    return basis


def cartan_matrix(pres: BoundQuiverPresentation) -> dict:
    """Entry ``(u, w)`` counts basis paths from u to w."""
    verts = pres.quiver.vertices
    counts = {(u, w): 0 for u in verts for w in verts}
    for p in path_basis(pres):
        counts[(p.source, p.target)] += 1
    return counts


def grothendieck_rank(pres: BoundQuiverPresentation) -> int:
    return len(pres.quiver.vertices)


# -- components and sums -----------------------------------------------------


def connected_components(pres: BoundQuiverPresentation):
    """Split into connected subpresentations, ordered by smallest vertex."""
    parent = {v: v for v in pres.quiver.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for src, tgt in pres.quiver.arrows.values():
        parent[find(src)] = find(tgt)
    groups = {}
    for v in pres.quiver.vertices:
        groups.setdefault(find(v), set()).add(v)
    comps = sorted(groups.values(), key=lambda g: min(vertex_sort_key(v) for v in g))
    out = []
    for group in comps:
        arrows = [
            (name, src, tgt)
            for name, (src, tgt) in pres.quiver.arrows.items()
            if src in group
        ]
        rels = [rel.arrows for rel in pres.relations if rel.source in group]
        out.append(BoundQuiverPresentation(Quiver(sorted(group), arrows), rels))
    return out


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
        relations.extend(tuple(tag(i, a) for a in rel.arrows) for rel in p.relations)
    return BoundQuiverPresentation(Quiver(vertices, arrows), relations)


# -- the Lambda(r,s,t) family ------------------------------------------------


@dataclass(frozen=True)
class LambdaDescriptor:
    """Parameters of the one-cycle normal form Lambda(r,s,t)."""

    r: int
    s: int
    t: int

    def __post_init__(self):
        if not (1 <= self.r <= self.s):
            raise PresentationError(f"need 1 <= r <= s, got r={self.r}, s={self.s}")
        if self.t < 0:
            raise PresentationError(f"need t >= 0, got t={self.t}")

    def rank(self):
        return self.s + self.t


def build_lambda(r: int, s: int, t: int) -> BoundQuiverPresentation:
    """The gentle one-cycle algebra Lambda(r,s,t).

    Vertices -t..-1 form a tail feeding the oriented s-cycle on 0..s-1;
    arrow ``a<q>`` starts at vertex q.  The r relations are the consecutive
    cycle pairs ending with the pair through vertex 0.
    """
    desc = LambdaDescriptor(r, s, t)
    vertices = [str(q) for q in range(-desc.t, desc.s)]
    arrows = [(f"a{q}", str(q), str(q + 1)) for q in range(-desc.t, 0)]
    arrows += [(f"a{p}", str(p), str((p + 1) % desc.s)) for p in range(desc.s)]
    relations = [
        (f"a{p}", f"a{(p + 1) % desc.s}") for p in range(desc.s - desc.r, desc.s)
    ]
    return BoundQuiverPresentation(Quiver(vertices, arrows), relations)


def lambda_descriptor_of(pres: BoundQuiverPresentation):
    """The (r,s,t) with ``pres == build_lambda(r,s,t)`` literally, else None."""
    # the literal tail vertices are exactly the negative ids, which fixes t
    n = len(pres.quiver.vertices)
    t = sum(1 for v in pres.quiver.vertices if v.startswith("-"))
    try:
        desc = LambdaDescriptor(len(pres.relations), n - t, t)
    except PresentationError:
        return None
    return desc if pres == build_lambda(desc.r, desc.s, desc.t) else None


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
    if len(p1.relations) != len(p2.relations):
        return None
    sig2 = {}
    for v in q2.vertices:
        sig2.setdefault(_degree_signature(p2, v), []).append(v)

    order = sorted(q1.vertices, key=vertex_sort_key)

    def extend(vmap, used, idx):
        if idx == len(order):
            return dict(vmap)
        v = order[idx]
        for w in sig2.get(_degree_signature(p1, v), ()):
            if w in used:
                continue
            ok = True
            for a in q1.arrows_from(v):
                other = q1.target(a)
                if other in vmap:
                    need = sum(
                        1 for b in q1.arrows_from(v) if q1.target(b) == other
                    )
                    have = sum(
                        1 for b in q2.arrows_from(w) if q2.target(b) == vmap[other]
                    )
                    if need != have:
                        ok = False
                        break
            if ok:
                for a in q1.arrows_into(v):
                    other = q1.source(a)
                    if other in vmap:
                        need = sum(
                            1 for b in q1.arrows_into(v) if q1.source(b) == other
                        )
                        have = sum(
                            1 for b in q2.arrows_into(w) if q2.source(b) == vmap[other]
                        )
                        if need != have:
                            ok = False
                            break
            if not ok:
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
    classes1 = {}
    for name, (src, tgt) in q1.arrows.items():
        classes1.setdefault((src, tgt), []).append(name)
    classes2 = {}
    for name, (src, tgt) in q2.arrows.items():
        classes2.setdefault((src, tgt), []).append(name)
    keys = []
    for (src, tgt), names in classes1.items():
        image = (vmap[src], vmap[tgt])
        if len(classes2.get(image, ())) != len(names):
            return None
        keys.append(((src, tgt), image))

    rels2 = p2._relset

    def assign(i, amap):
        if i == len(keys):
            mapped = {tuple(amap[a] for a in rel.arrows) for rel in p1.relations}
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
