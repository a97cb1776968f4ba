"""Modules over bound quiver algebras and derived hom dimensions.

Modules are quiver representations: a dimension per vertex and a matrix
per arrow, acting on row vectors (an arrow ``a: u -> w`` maps the fiber at
``u`` into the fiber at ``w``).

Simples, projectives and string objects are path quotients
P_v/(q_1A+...+q_kA) (see :func:`path_quotient`): their bases are the basis
paths out of one vertex, read off the relation automaton and cached, and
arrows act by concatenation.  The cover of such a quotient is P_v with
kernel ⊕ qA over the prefix-minimal q_i (Green-Happel-Zacharia), so it is
recorded when the module is built, and a direct sum of such modules
records its cover from its parts'.  A quotient's arrow matrices are made
only when something reads them.

Minimal projective resolutions start from the module's cover and are then
read off paths (Green-Happel-Zacharia, monomial algebras).  When the cover
kernel is spanned by cover coordinates (i, p), it is the direct sum of the
right ideals qA over its prefix-minimal paths q, and the kernel of
P_{t(x)} -> xA, y -> xy, is spanned by the paths y with xy = 0.  So each
summand below the cover is a P_{t(x)} whose differential is left
multiplication by one path x, and the summands below it are the
prefix-minimal paths y out of t(x) with xy = 0, read off the same
automaton (:func:`_annihilator_generators`).  Only a module given by
matrices needs linear algebra, once, to find its cover
(:func:`projective_cover`).

Hom dimensions in the derived category are Ext groups between modules,
Hom(M, N[h]) = Ext^h(M, N), and they are counted off paths (see
:func:`_ext_counts`): each differential of the resolution of M is one path,
and a path acts on the path basis of N by a partial injection, so the Hom
complex into N has at most one nonzero per column and each of its ranks is
a count.  No matrix of the Hom complex is built; the tests keep a
resolution with matrices of path combinations as differentials, and two
matrix routes on it (ranks of the Hom complex into a module, and chain
maps modulo homotopy between resolutions), as independent references.

Those counts walk the resolution one term at a time, not one summand at a
time.  Below the cover, the terms of a resolution are multisets of paths,
and the counts of a summand depend on its path alone, so each distinct
path is looked at once.  A term determines every term below it, so the
walk stops at its first repeated term and later degrees are read by
period.  When the multiplicities stay bounded, as over a gentle algebra,
where a path has at most one annihilator generator, the work of a hom
table does not grow with its depth.
"""

from __future__ import annotations

import sys
from collections import namedtuple

from .errors import PreconditionError
from .fields import QQ
from . import linalg
from .presentation import (
    Path,
    _assert_finite_dimensional,
    _children_first,
    _paths_from,
    _states,
    lambda_descriptor_of,
    vertex_sort_key,
)

# -- path bookkeeping -----------------------------------------------------------


def _proj_coords(pres, summands):
    """Coordinates of a sum of projectives, per vertex.

    Coordinate (i, p) stands for the basis path p starting at the vertex of
    summand i; listed summand-major so positions are stable under appending
    summands.
    """
    coords = {w: [] for w in pres.quiver.vertices}
    for i, u in enumerate(summands):
        for w, paths in _paths_from(pres, u).items():
            coords[w].extend((i, p) for p in paths)
    return coords


# -- modules ----------------------------------------------------------------------


class RepModule:
    """Finite dimensional right module presented as a quiver representation.

    A module keeps its projective cover (see :func:`_path_cover`).  A path
    quotient (:func:`path_quotient`, :func:`simple_module`) records it when
    built, and makes its matrices only when ``maps``, :meth:`act_by_path`
    or ``==`` first reads them.  A direct sum of modules that carry their
    covers records its own from theirs (:func:`module_direct_sum`).
    """

    __slots__ = ("pres", "field", "dims", "_maps", "_cover")

    def __init__(self, pres, dims, maps, field=QQ):
        self.pres = pres
        self.field = field
        self._cover = None
        q = pres.quiver
        for kind, given, known in (
            ("vertex", dims, q.vertices),
            ("arrow", maps, q.arrows),
        ):
            stray = next((key for key in given if key not in known), None)
            if stray is not None:
                raise PreconditionError(f"unknown {kind} {stray!r}")
        full = {v: int(dims.get(v, 0)) for v in q.vertices}
        if any(d < 0 for d in full.values()):
            raise PreconditionError("negative dimension")
        self.dims = full
        fixed = {}
        for a, (src, tgt) in q.arrows.items():
            mat = maps.get(a)
            if mat is None:
                mat = linalg.zeros(full[src], full[tgt], field)
            rows = tuple(
                tuple(field.coerce(x) for x in row) for row in mat
            )
            if len(rows) != full[src] or any(len(r) != full[tgt] for r in rows):
                raise PreconditionError(f"map for arrow {a} has the wrong shape")
            fixed[a] = rows
        self._maps = fixed
        for rel in pres.relations:
            if any(not field.is_zero(x) for row in self.act_by_path(rel) for x in row):
                raise PreconditionError(f"relation {rel.label()} does not act as zero")

    @property
    def maps(self):
        """The matrix of each arrow, made on first read for a path quotient.

        Its basis is the kept paths, and an arrow sends a kept path to its
        concatenation with the arrow when that is kept, else to zero.
        """
        if self._maps is None:
            # a kept path's arrows, and its position in the fiber at its target
            fibers, pos = {}, {}
            for _, p in self._cover[2]:
                fiber = fibers.setdefault(p.target, [])
                pos[p.arrows] = len(fiber)
                fiber.append(p.arrows)
            zero, one = self.field.coerce(0), self.field.coerce(1)
            maps = {}
            for a, (src, tgt) in self.pres.quiver.arrows.items():
                rows = []
                for word in fibers.get(src, ()):
                    row = [zero] * self.dims[tgt]
                    if word + (a,) in pos:
                        row[pos[word + (a,)]] = one
                    rows.append(tuple(row))
                maps[a] = tuple(rows)
            self._maps = maps
        return self._maps

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def act_by_path(self, path):
        """Matrix of the right action of a basis path (rows = source fiber)."""
        mat = linalg.identity(self.dims[path.source], self.field)
        for a in path.arrows:
            tgt = self.pres.quiver.target(a)
            mat = linalg.mat_mul(mat, self.maps[a], self.dims[tgt], self.field)
        return mat

    def __eq__(self, other):
        return (
            isinstance(other, RepModule)
            and self.pres == other.pres
            and self.field == other.field
            and self.dims == other.dims
            and self.maps == other.maps
        )

    def __hash__(self):
        return hash((self.pres, self.field, tuple(sorted(self.dims.items()))))

    def __repr__(self):
        dims = {v: d for v, d in self.dims.items() if d}
        return f"RepModule(dims={dims})"


def _quotient_of(pres, v, gens, basis, field) -> RepModule:
    """P_v/(g_1A+...+g_kA) with its kept paths ``basis``, in cover order:
    the dimension at each vertex counts the kept paths ending there, and
    the cover records P_v, the generators and the kept paths."""
    M = object.__new__(RepModule)
    M.pres, M.field, M._maps = pres, field, None
    M.dims = dict.fromkeys(pres.quiver.vertices, 0)
    for p in basis:
        M.dims[p.target] += 1
    M._cover = ((v,), tuple((0, g) for g in gens), tuple((0, p) for p in basis))
    return M


def simple_module(pres, v, field=QQ) -> RepModule:
    """S_v = P_v/(a_1A+...+a_kA) over the arrows a_i out of v.

    No path is listed, so simples exist over infinite dimensional algebras.
    """
    q = pres.quiver
    if v not in q.vertices:
        raise PreconditionError(f"unknown vertex {v!r}")
    # the cover lists coordinates by target vertex, then by name
    arrows = sorted(q.arrows_from(v), key=lambda a: (vertex_sort_key(q.target(a)), a))
    gens = [Path(v, q.target(a), (a,)) for a in arrows]
    return _quotient_of(pres, v, gens, [pres.trivial_path(v)], field)


def path_quotient(pres, v, paths, field=QQ) -> RepModule:
    """P_v/(q_1A+...+q_kA) for basis paths q_i from v.

    Its basis is the basis paths from v with no q_i as a prefix, and each
    arrow acts by right concatenation: a product that is zero, or that has
    some q_i as a prefix, is no basis path and so zero in the quotient.
    Its cover is P_v, with kernel the sum of q_iA over the prefix-minimal
    q_i, so the module records it when built and no elimination runs.
    One pass over the basis paths from v, shortest first, marks the cut
    ones: a path is cut when it is some q_i or its one-arrow-shorter prefix
    is cut.  A second pass lists the kept paths and the prefix-minimal q_i,
    those cut with a kept parent, in cover order.
    Paths are given as :class:`Path` objects or as sequences of arrow names,
    checked like relations; a path that does not start at v, or that is zero
    in the algebra, raises :class:`PreconditionError`.
    """
    if v not in pres.quiver.vertices:
        raise PreconditionError(f"unknown vertex {v!r}")
    words = set()
    for q in paths:
        q = pres.make_path(q.arrows if isinstance(q, Path) else q)
        if q.source != v:
            raise PreconditionError(f"path {q.label()} does not start at {v}")
        if not pres.is_normal(q.arrows):
            raise PreconditionError(f"path {q.label()} is zero in the algebra")
        words.add(q.arrows)
    by_target = _paths_from(pres, v)
    # a path shorter than every q_i is kept; the others are looked at
    # shortest first, so that a path's parent is decided before it
    shortest = min(map(len, words), default=sys.maxsize)
    cut = set()
    longer = [p for ps in by_target.values() for p in ps if len(p.arrows) >= shortest]
    for p in sorted(longer, key=lambda p: len(p.arrows)):
        if p.arrows in words or p.arrows[:-1] in cut:
            cut.add(p.arrows)
    gens, basis = [], []
    for w in pres.quiver.vertices:
        for p in by_target.get(w, ()):
            if len(p.arrows) < shortest or p.arrows not in cut:
                basis.append(p)
            elif p.arrows[:-1] not in cut:
                gens.append(p)
    return _quotient_of(pres, v, gens, basis, field)


def indec_projective(pres, v, field=QQ) -> RepModule:
    """P_v with basis the paths out of v; arrows act by right concatenation."""
    return path_quotient(pres, v, (), field)


def module_direct_sum(modules) -> RepModule:
    """The direct sum, its fibers stacked in the order of ``modules``.

    When every nonzero part carries its cover record, the sum records its
    own from them (see :func:`_summed_cover`), so covering it takes no
    linear algebra; otherwise it is given by matrices.
    """
    mods = list(modules)
    if not mods:
        raise PreconditionError("empty direct sum")
    pres, field = mods[0].pres, mods[0].field
    if any(m.pres != pres or m.field != field for m in mods):
        raise PreconditionError("direct sum needs a common algebra and field")
    dims = {v: sum(m.dims[v] for m in mods) for v in pres.quiver.vertices}
    zero = (field.coerce(0),)
    maps = {}
    for a, (src, tgt) in pres.quiver.arrows.items():
        rows = []
        for i, m in enumerate(mods):
            left = sum(n.dims[tgt] for n in mods[:i])
            right = sum(n.dims[tgt] for n in mods[i + 1 :])
            rows.extend(zero * left + tuple(row) + zero * right for row in m.maps[a])
        maps[a] = tuple(rows)
    covers = [m._cover for m in mods if m.total_dim()]
    if not covers or None in covers:
        return RepModule(pres, dims, maps, field)
    M = object.__new__(RepModule)
    M.pres, M.field, M.dims, M._maps = pres, field, dims, maps
    M._cover = _summed_cover(pres, covers)
    return M


def _summed_cover(pres, covers):
    """The cover record of a direct sum, from its nonzero parts' records.

    Listed as :func:`projective_cover` lists the sum's own: the parts'
    summands stably sorted by vertex, so parts keep their order at one
    vertex, and each coordinate list by target vertex, then summand-major
    (``_proj_coords`` order), each summand's paths in its part's order.
    """
    rank = {v: k for k, v in enumerate(pres.quiver.vertices)}
    owned = [(u, m, i) for m, c in enumerate(covers) for i, u in enumerate(c[0])]
    owned.sort(key=lambda umi: rank[umi[0]])
    index = {(m, i): k for k, (_, m, i) in enumerate(owned)}

    def merged(slot):
        entries = [(index[m, i], p) for m, c in enumerate(covers) for i, p in c[slot]]
        entries.sort(key=lambda ip: (rank[ip[1].target], ip[0]))
        return tuple(entries)

    return tuple(u for u, _, _ in owned), merged(1), merged(2)


def build_string_object(pres, kind, index, field=QQ) -> RepModule:
    """The noncompact string objects over a two-truncated cycle with tail.

    ``kind`` is "X" (simple at a cycle vertex, 0 <= index <= s-1) or "Y"
    (tail projective modulo its one dimensional socle, -t <= index <= -1).
    """
    desc = lambda_descriptor_of(pres)
    if desc is None:
        raise PreconditionError(
            "string objects are named on the literal labelling of Lambda(s,s,t) "
            "that `ddisc build-lambda` writes, and this input is not labelled so"
        )
    if desc.r != desc.s:
        raise PreconditionError(
            f"string objects live over Lambda(s,s,t), and this input is "
            f"Lambda({desc.r},{desc.s},{desc.t}) with r < s"
        )
    s, t = desc.s, desc.t
    if kind == "X":
        if not 0 <= index <= s - 1:
            raise PreconditionError(f"X index {index} outside 0..{s - 1}")
        return simple_module(pres, str(index), field)
    if kind == "Y":
        if t == 0 or not -t <= index <= -1:
            raise PreconditionError(f"Y index {index} outside {-t}..-1")
        # Y is P_v modulo its socle, spanned by the path a_v...a_-1 a_0 (a_k
        # starts at k): the tail has no relation, and a_0 then a_(1 mod s) is one
        socle = [f"a{k}" for k in range(index, 1)]
        return path_quotient(pres, str(index), [socle], field)
    raise PreconditionError(f"unknown string object kind {kind!r}")


# -- projective covers and resolutions ------------------------------------------


def projective_cover(M: RepModule):
    """Cover summand vertices and the epimorphism, per vertex, by rref.

    Returns ``(summands, epi)`` where ``epi[w]`` maps cover coordinates at
    ``w`` (see ``_proj_coords``) onto the fiber of M at ``w``.  Only a
    module given by matrices needs it, once (see :func:`_path_cover`).
    """
    if M.total_dim() == 0:
        raise PreconditionError("zero module has no projective cover")
    pres, field = M.pres, M.field
    # summand i covers the fiber coordinate tops[i] at its vertex, one per
    # coordinate that the radical rows leave without a pivot
    summands, tops = [], []
    for u in pres.quiver.vertices:
        rad_rows = [list(r) for a in pres.quiver.arrows_into(u) for r in M.maps[a]]
        _, pivots = linalg.rref(rad_rows, M.dims[u], field)
        for f in sorted(set(range(M.dims[u])) - set(pivots)):
            summands.append(u)
            tops.append(f)
    # coordinate (i, p) maps to row tops[i] of the action of p: the image of
    # p's one-arrow-shorter prefix times the matrix of p's last arrow
    image = {}
    for i, u in enumerate(summands):
        top = [field.coerce(0)] * M.dims[u]
        top[tops[i]] = field.coerce(1)
        image[i, ()] = top
        paths = sorted((p for ps in _paths_from(pres, u).values() for p in ps), key=len)
        for p in paths[1:]:
            a = p.arrows[-1]
            (image[i, p.arrows],) = linalg.mat_mul(
                [image[i, p.arrows[:-1]]], M.maps[a], M.dims[p.target], field
            )
    epi = {}
    coords = _proj_coords(pres, tuple(summands))
    for w in pres.quiver.vertices:
        epi[w] = [image[i, p.arrows] for i, p in coords[w]]
        if linalg.rank(epi[w], M.dims[w], field) != M.dims[w]:
            raise PreconditionError("cover is not onto")
    return tuple(summands), epi


def _path_cover(M: RepModule):
    """The cover record of a nonzero M: ``(summands, gens, basis)``.

    ``summands`` are the cover's vertices as :func:`projective_cover` lists
    them.  ``basis`` holds the cover coordinates (i, p) (see
    ``_proj_coords``) that map onto a basis of M, and ``gens`` the
    prefix-minimal ones among the others, the cover kernel being ⊕ pA over
    them; both are listed by target vertex, then as ``_proj_coords`` lists
    them.  A path x sends (i, p) to (i, p*x), or to zero when p*x is zero
    or in the kernel.

    A path quotient records its cover when built, and a sum of modules that
    carry theirs records it from them.  Any other module gets it from
    :func:`projective_cover` on first use and keeps it; that raises
    :class:`PreconditionError` unless the coordinates that map to zero span
    the cover kernel.  A simple is built without listing paths, so the
    algebra is checked here: no path search below the cover ends on an
    infinite dimensional one.
    """
    _assert_finite_dimensional(M.pres)
    if M._cover is None:
        pres, field = M.pres, M.field
        summands, epi = projective_cover(M)
        coords = _proj_coords(pres, summands)
        kernel, basis = [], []
        for w in pres.quiver.vertices:
            for key, row in zip(coords[w], epi[w]):
                zero = all(field.is_zero(x) for x in row)
                (kernel if zero else basis).append(key)
        if len(basis) != M.total_dim():
            raise PreconditionError("cover kernel is not spanned by paths")
        # the kernel is a submodule, so a path whose one-arrow-shorter prefix
        # is not in it has no proper prefix in it
        words = {(i, p.arrows) for i, p in kernel}
        gens = tuple((i, p) for i, p in kernel if (i, p.arrows[:-1]) not in words)
        M._cover = (summands, gens, tuple(basis))
    return M._cover


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


# -- hom dimensions ---------------------------------------------------------------


def _hom_complex_counts(M: RepModule, N: RepModule, hmax: int):
    """Row and live counts of the Hom complex of M into N, degree 0 down.

    Returns ``(counts, start)`` for nonzero M and N: ``counts[k]`` is the
    pair (rows_k, live_k) of degree k (see :func:`_ext_counts`), listed up
    to degree hmax or up to a repeat.  When the walk repeats, ``start`` is
    the degree from which the pairs are periodic, with period
    ``len(counts) - start``; otherwise it is None.

    The cover's children are its kernel generators, but below the cover
    the children of a summand with path x are the annihilator generators of
    x, whatever its parent.  So the pair of such a summand depends on x
    alone, and each degree k >= 1 is a multiset {x: multiplicity}, its
    pair the weighted sum of the pairs of its paths, and the next degree
    the weighted sum of their generators.  Each distinct path is looked at
    once.  A degree determines every degree below it, so the walk stops at
    the first degree k >= 1 whose multiset an earlier one had.  Kept words
    are normal, so a row (j, b) is live when some (j, b*y) is a kept word
    of N's cover: no product is formed.
    """
    pres = M.pres
    _, _, basis = _path_cover(N)
    kept = {(j, b.arrows) for j, b in basis}
    ending_at = {}
    for j, b in basis:
        ending_at.setdefault(b.target, []).append((j, b))

    def pair(u, ys):
        """(rows, live) of a summand P_u whose children have the paths ys."""
        rows = ending_at.get(u, ())
        live = sum(any((j, b.arrows + y.arrows) in kept for y in ys) for j, b in rows)
        return len(rows), live

    cover, gens, _ = _path_cover(M)
    children = [[] for _ in cover]
    for i, y in gens:
        children[i].append(y)
    top = [pair(u, ys) for u, ys in zip(cover, children)]
    counts = [(sum(r for r, _ in top), sum(live for _, live in top))]
    known, seen = {}, {}
    level = {}
    for _, y in gens:
        level[y] = level.get(y, 0) + 1
    for k in range(1, hmax + 1):
        key = frozenset(level.items())
        if key in seen:
            return counts, seen[key]
        seen[key] = k
        rows = live = 0
        below = {}
        for x, mult in level.items():
            if x not in known:
                ys = _annihilator_generators(pres, x)
                known[x] = (*pair(x.target, ys), ys)
            x_rows, x_live, ys = known[x]
            rows += mult * x_rows
            live += mult * x_live
            for y in ys:
                below[y] = below.get(y, 0) + mult
        counts.append((rows, live))
        level = below
    return counts, None


def _ext_counts(M: RepModule, N: RepModule, hmax: int):
    """dim Ext^h(M, N) for every h >= 0 as ``(head, cycle)``, counted off paths.

    Ext^h is ``head[h]`` for h < len(head) and then runs through ``cycle``
    over and over; ``cycle`` is empty only when ``head`` covers 0..hmax.

    Hom(P_u, N) is N·e_u, so the Hom complex into N has one block per
    summand σ of the resolution of M, with the basis {(j, b) : b ends at
    t(σ)} of :func:`_path_cover`, and its differential sends (σ, (j, b)) to
    the sum of (τ, (j, b·x_τ)) over the children τ of σ.  A target (τ,
    (j, c)) determines σ (the parent of τ) and b (c less its suffix x_τ),
    so every column holds at most one nonzero: the rank is the number of
    *live* rows, those with some b·x_τ nonzero in N, and the kernel is
    spanned by the *dead* ones.  So Ext^h = rows_h - live_h - live_{h-1},
    whatever the field.  The counts come from :func:`_hom_complex_counts`,
    which stops at the first repeated degree, so the work grows with the
    distinct paths and terms of the resolution before that repeat, not with
    hmax.
    """
    if M.total_dim() == 0 or N.total_dim() == 0:
        return [], [0]
    counts, start = _hom_complex_counts(M, N, hmax)
    if start is not None:
        # the degree after the last one listed repeats degree start
        counts.append(counts[start])
    exts = [
        rows - live - (counts[h - 1][1] if h else 0)
        for h, (rows, live) in enumerate(counts)
    ]
    if start is None:
        return exts, []
    # Ext^h reads degrees h and h - 1, both periodic once h > start
    return exts[: start + 1], exts[start + 1 :]


def ext_dim(pres, M: RepModule, N: RepModule, h: int) -> int:
    """dim Ext^h(M, N), counted off paths (see :func:`_ext_counts`).

    The resolution of M is walked until a degree repeats, and Ext^h is read
    by period, so time and memory stay bounded in h once the walk repeats,
    as it always does when the multiplicities of the terms stay bounded.
    M and N must be modules whose cover kernel is spanned by paths (see
    :func:`_path_cover`): direct sums of path quotients such as simples,
    projectives and string objects.  Any other, such as a band module, as
    source or as target raises :class:`PreconditionError`.  A zero module
    on either side gives 0.
    """
    if h < 0:
        raise PreconditionError("ext degree must be nonnegative")
    if M.pres != pres or N.pres != pres:
        raise PreconditionError("mismatched algebras")
    head, cycle = _ext_counts(M, N, h)
    return head[h] if h < len(head) else cycle[(h - len(head)) % len(cycle)]


# -- hom tables --------------------------------------------------------------------


class HomTable(namedtuple("HomTable", "entries")):
    """Hom(X, Y[h]) for h = 0..hmax, as a tuple of ints."""

    __slots__ = ()

    def __new__(cls, entries):
        return super().__new__(cls, tuple(int(x) for x in entries))

    @classmethod
    def _make(cls, iterable):  # so that _replace makes ints of the new entries too
        return cls(*iterable)


def hom_table(pres, X: RepModule, Y: RepModule, hmax: int) -> HomTable:
    """Derived hom dimensions Hom(X, Y[h]) for 0 <= h <= hmax.

    X and Y are modules, so Hom(X, Y[h]) is Ext^h(X, Y): the entries are the
    counts of :func:`ext_dim`, taken from one walk down one resolution of
    X that stops at its first repeated degree, so the work does not grow
    with hmax beyond writing the hmax + 1 entries.  String objects are path
    quotients that carry their covers, so their tables take no linear
    algebra and build no matrix.
    """
    if hmax < 0:
        raise PreconditionError("hmax must be nonnegative")
    if hmax >= sys.maxsize:
        raise PreconditionError(f"hmax must be below {sys.maxsize}, a list's bound")
    if X.pres != pres or Y.pres != pres:
        raise PreconditionError("mismatched algebras")
    head, cycle = _ext_counts(X, Y, hmax)
    if cycle:
        head += cycle * (hmax // len(cycle) + 1)
    return HomTable(head[: hmax + 1])


# -- global dimension --------------------------------------------------------------


def infinite_gldim_check(pres) -> str:
    """"yes" when the global dimension is infinite, "no" when it is finite.

    Exact, with no cutoff.  In the minimal resolution of the simple at v
    the summands of degree -1 are the arrows out of v, and below a summand
    with differential x come those of :func:`_annihilator_generators` of x.  So
    the global dimension is infinite iff the graph on basis paths with the
    edges x -> each annihilator generator of x has a cycle reachable from an
    arrow (Green-Happel-Zacharia): the graph is finite, so a resolution
    without end revisits a path, and ``presentation._children_first`` finds it.
    Raises InfiniteDimensionalError like ``path_basis``.
    """
    roots = [Path(src, tgt, (a,)) for a, (src, tgt) in pres.quiver.arrows.items()]
    found = _children_first(roots, lambda x: _annihilator_generators(pres, x))
    return "yes" if found is None else "no"
