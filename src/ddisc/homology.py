"""Modules over bound quiver algebras and derived hom dimensions.

Modules are quiver representations: a dimension per vertex and a matrix
per arrow, acting on row vectors (an arrow ``a: u -> w`` maps the fiber at
``u`` into the fiber at ``w``).  Complexes of projectives carry their
differentials as matrices of path combinations; the differential entry in
the row of summand P_a and column of summand P_b is spanned by paths from
b to a, acting by left multiplication.

Minimal projective resolutions take one projective cover and are then read
off paths: over a monomial algebra every syzygy of a path quotient is a sum
of right ideals qA, and every differential is left multiplication by one
path (see :func:`resolve`).

Hom dimensions in the derived category are computed two independent ways,
both by :func:`hom_shift_dim`: the ladder route takes chain maps modulo
homotopies between complexes of projectives (complex target), and the stalk
route takes cohomology of the Hom complex into a module (module target, as
in :func:`ext_dim`).  :func:`hom_table` takes the stalk route, which is
exact from one resolution of the source; the ladder route is the
independent cross-check the tests run against it.  Sign conventions for
shifts are irrelevant here since rescaling chain maps degreewise is a
linear bijection; only dimensions are reported.
"""

from __future__ import annotations

from .errors import PreconditionError
from .fields import QQ
from . import linalg
from .presentation import (
    BoundQuiverPresentation,
    _assert_finite_dimensional,
    lambda_descriptor_of,
    path_basis,
    vertex_sort_key,
)

# -- path bookkeeping -----------------------------------------------------------


def _paths_by_ends(pres):
    """Basis paths grouped by (source, target), in canonical order."""
    cached = pres._cache.get("paths_by_ends")
    if cached is None:
        cached = {}
        for p in path_basis(pres):
            cached.setdefault((p.source, p.target), []).append(p)
        pres._cache["paths_by_ends"] = cached
    return cached


def _paths_from_to(pres, u, w):
    return _paths_by_ends(pres).get((u, w), [])


def _arrow_path(pres, a):
    cached = pres._cache.get("arrow_paths")
    if cached is None:
        cached = {name: pres.make_path([name]) for name in pres.quiver.arrows}
        pres._cache["arrow_paths"] = cached
    return cached[a]


def _proj_coords(pres, summands):
    """Coordinates of a sum of projectives, per vertex.

    Coordinate (i, p) stands for the basis path p starting at the vertex of
    summand i; listed summand-major so positions are stable under appending
    summands.
    """
    coords = {w: [] for w in pres.quiver.vertices}
    for i, u in enumerate(summands):
        for (src, tgt), paths in _paths_by_ends(pres).items():
            if src != u:
                continue
            for p in paths:
                coords[tgt].append((i, p))
    index = {
        w: {key: pos for pos, key in enumerate(lst)} for w, lst in coords.items()
    }
    return coords, index


# -- modules ----------------------------------------------------------------------


class RepModule:
    """Finite dimensional right module presented as a quiver representation."""

    __slots__ = ("pres", "field", "dims", "maps")

    def __init__(self, pres, dims, maps, field=QQ):
        self.pres = pres
        self.field = field
        full = {v: int(dims.get(v, 0)) for v in pres.quiver.vertices}
        if any(d < 0 for d in full.values()):
            raise PreconditionError("negative dimension")
        self.dims = full
        fixed = {}
        for a, (src, tgt) in pres.quiver.arrows.items():
            mat = maps.get(a)
            if mat is None:
                mat = linalg.zeros(full[src], full[tgt], field)
            rows = tuple(
                tuple(field.coerce(x) for x in row) for row in mat
            )
            if len(rows) != full[src] or any(len(r) != full[tgt] for r in rows):
                raise PreconditionError(f"map for arrow {a} has the wrong shape")
            fixed[a] = rows
        self.maps = fixed
        for rel in pres.relations:
            if not _is_zero_matrix(self.act_by_path(rel), field):
                raise PreconditionError(f"relation {rel.label()} does not act as zero")

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def act_by_path(self, path):
        """Matrix of the right action of a basis path (rows = source fiber)."""
        mat = linalg.identity(self.dims[path.source], self.field)
        current = path.source
        for a in path.arrows:
            tgt = self.pres.quiver.target(a)
            mat = linalg.mat_mul(mat, self.maps[a], self.dims[tgt], self.field)
            current = tgt
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


def _is_zero_matrix(mat, field):
    return all(field.is_zero(x) for row in mat for x in row)


def simple_module(pres, v, field=QQ) -> RepModule:
    if v not in pres.quiver.vertices:
        raise PreconditionError(f"unknown vertex {v!r}")
    return RepModule(pres, {v: 1}, {}, field)


def indec_projective(pres, v, field=QQ) -> RepModule:
    """P_v with basis the paths out of v; arrows act by right concatenation."""
    if v not in pres.quiver.vertices:
        raise PreconditionError(f"unknown vertex {v!r}")
    coords, _ = _proj_coords(pres, (v,))
    dims = {w: len(lst) for w, lst in coords.items()}
    maps = {a: _cover_action(pres, field, (v,), a) for a in pres.quiver.arrows}
    return RepModule(pres, dims, maps, field)


def module_direct_sum(modules) -> RepModule:
    mods = list(modules)
    if not mods:
        raise PreconditionError("empty direct sum")
    pres, field = mods[0].pres, mods[0].field
    if any(m.pres != pres or m.field != field for m in mods):
        raise PreconditionError("direct sum needs a common algebra and field")
    dims = {v: sum(m.dims[v] for m in mods) for v in pres.quiver.vertices}
    maps = {}
    for a, (src, tgt) in pres.quiver.arrows.items():
        rows = []
        for i, m in enumerate(mods):
            left = sum(n.dims[tgt] for n in mods[:i])
            right = sum(n.dims[tgt] for n in mods[i + 1 :])
            for row in m.maps[a]:
                rows.append(
                    [field.coerce(0)] * left + list(row) + [field.coerce(0)] * right
                )
        maps[a] = rows
    return RepModule(pres, dims, maps, field)


def quotient_module(M: RepModule, sub_rows) -> RepModule:
    """Quotient by the submodule spanned per vertex by the given row vectors.

    Raises when the span is not arrow-stable.
    """
    pres, field = M.pres, M.field
    reduced = {}
    for v in pres.quiver.vertices:
        rows = [list(r) for r in sub_rows.get(v, [])]
        red, pivots = linalg.rref(rows, M.dims[v], field)
        red = [r for r in red[: len(pivots)]]
        free = [j for j in range(M.dims[v]) if j not in set(pivots)]
        reduced[v] = (red, pivots, free)

    def project(v, vec):
        red, pivots, free = reduced[v]
        residual = list(vec)
        for i, pc in enumerate(pivots):
            c = residual[pc]
            if not field.is_zero(c):
                for j, x in enumerate(red[i]):
                    residual[j] = field.reduce(residual[j] - c * x)
        return residual, [residual[f] for f in free]

    # arrow stability of the span
    for a, (src, tgt) in pres.quiver.arrows.items():
        red, _, _ = reduced[src]
        for r in red:
            image = linalg.mat_mul([list(r)], M.maps[a], M.dims[tgt], field)[0]
            _, quot = project(tgt, image)
            if any(not field.is_zero(x) for x in quot):
                raise PreconditionError("rows do not span a submodule")

    dims = {v: len(reduced[v][2]) for v in pres.quiver.vertices}
    maps = {}
    for a, (src, tgt) in pres.quiver.arrows.items():
        rows = []
        for f in reduced[src][2]:
            lift = [field.coerce(0)] * M.dims[src]
            lift[f] = field.coerce(1)
            image = linalg.mat_mul([lift], M.maps[a], M.dims[tgt], field)[0]
            _, quot = project(tgt, image)
            rows.append(quot)
        maps[a] = rows
    return RepModule(pres, dims, maps, field)


def build_string_object(pres, kind, index, field=QQ) -> RepModule:
    """The noncompact string objects over a two-truncated cycle with tail.

    ``kind`` is "X" (simple at a cycle vertex, 0 <= index <= s-1) or "Y"
    (tail projective modulo its one dimensional socle, -t <= index <= -1).
    """
    desc = lambda_descriptor_of(pres)
    if desc is None or desc.r != desc.s:
        raise PreconditionError("string objects live over Lambda(s,s,t)")
    s, t = desc.s, desc.t
    if kind == "X":
        if not 0 <= index <= s - 1:
            raise PreconditionError(f"X index {index} outside 0..{s - 1}")
        return simple_module(pres, str(index), field)
    if kind == "Y":
        if t == 0 or not -t <= index <= -1:
            raise PreconditionError(f"Y index {index} outside {-t}..-1")
        v = str(index)
        proj = indec_projective(pres, v, field)
        outs = [
            p
            for (src, _), ps in _paths_by_ends(pres).items()
            if src == v
            for p in ps
        ]
        top_len = max(len(p) for p in outs)
        candidates = [p for p in outs if len(p) == top_len]
        if len(candidates) != 1:
            raise PreconditionError("socle path is unique")
        longest = candidates[0]
        # the socle copy sits at vertex 1 (vertex 0 when s = 1)
        if longest.target != ("1" if s >= 2 else "0"):
            raise PreconditionError("socle path ends at vertex 1 (vertex 0 when s = 1)")
        pos = _paths_from_to(pres, v, longest.target).index(longest)
        row = [field.coerce(0)] * proj.dims[longest.target]
        row[pos] = field.coerce(1)
        return quotient_module(proj, {longest.target: [row]})
    raise PreconditionError(f"unknown string object kind {kind!r}")


# -- projective covers and resolutions ------------------------------------------


def projective_cover(M: RepModule):
    """Cover summand vertices and the epimorphism, per vertex.

    Returns ``(summands, epi)`` where ``epi[w]`` maps cover coordinates at
    ``w`` (see ``_proj_coords``) onto the fiber of M at ``w``.
    """
    if M.total_dim() == 0:
        raise PreconditionError("zero module has no projective cover")
    pres, field = M.pres, M.field
    summands = []
    lifts = []
    for u in pres.quiver.vertices:
        rad_rows = []
        for a in pres.quiver.arrows_into(u):
            src = pres.quiver.source(a)
            rad_rows.extend(list(r) for r in M.maps[a])
        _, pivots = linalg.rref(rad_rows, M.dims[u], field)
        pivot_set = set(pivots)
        for f in range(M.dims[u]):
            if f in pivot_set:
                continue
            lift = [field.coerce(0)] * M.dims[u]
            lift[f] = field.coerce(1)
            summands.append(u)
            lifts.append(lift)
    epi = {}
    coords, _ = _proj_coords(pres, tuple(summands))
    for w in pres.quiver.vertices:
        rows = []
        for i, p in coords[w]:
            rows.append(
                linalg.mat_mul([lifts[i]], M.act_by_path(p), M.dims[w], field)[0]
            )
        epi[w] = rows
        if linalg.rank(rows, M.dims[w], field) != M.dims[w]:
            raise PreconditionError("cover is onto")
    return tuple(summands), epi


def _cover_action(pres, field, summands, a):
    """Right action of an arrow on the coordinates of a sum of projectives."""
    coords, index = _proj_coords(pres, summands)
    src, tgt = pres.quiver.arrows[a]
    arrow = _arrow_path(pres, a)
    rows = []
    for i, p in coords[src]:
        row = [field.coerce(0)] * len(coords[tgt])
        prod = pres.path_product(p, arrow)
        if prod is not None:
            row[index[tgt][(i, prod)]] = field.coerce(1)
        rows.append(row)
    return rows


def resolve(M: RepModule, depth: int):
    """Minimal projective resolution truncated to degrees [-depth, 0].

    Linear algebra runs once, in :func:`projective_cover`; every later term
    is read off paths (Green-Happel-Zacharia, monomial algebras).  When the
    cover kernel is spanned by cover coordinates (i, p), it is the direct
    sum of the right ideals qA over its prefix-minimal paths q, and the
    kernel of P_{t(x)} -> xA, y -> xy, is spanned by the paths y with
    xy = 0.  So each summand of degree -k is a P_{t(x)} whose differential
    is left multiplication by one path x, and its summands in degree -k-1
    are the prefix-minimal paths y out of t(x) with xy = 0.

    Accepted modules are those whose cover kernel is spanned by paths: direct
    sums of path quotients P_v/ΣqA such as simples, projectives and string
    objects.  Any other module, such as a band module, raises
    :class:`PreconditionError` instead of giving a number.
    """
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    pres, field = M.pres, M.field
    if M.total_dim() == 0:
        return ProjComplex(pres, {}, {}, field)
    cover, epi = projective_cover(M)
    coords, _ = _proj_coords(pres, cover)
    kernel = [
        key
        for w in pres.quiver.vertices
        for key, row in zip(coords[w], epi[w])
        if all(field.is_zero(x) for x in row)
    ]
    if len(kernel) != sum(len(rows) for rows in epi.values()) - M.total_dim():
        raise PreconditionError("cover kernel is not spanned by paths")
    # the kernel is a submodule, so a path whose one-arrow-shorter prefix is
    # not in it has no proper prefix in it
    words = {(i, p.arrows) for i, p in kernel}
    # (index of the summand one degree up, path of the differential into it)
    level = [(i, p) for i, p in kernel if (i, p.arrows[:-1]) not in words]
    summands, diffs = {0: cover}, {}
    for k in range(1, depth + 1):
        if not level:
            break
        # summands in vertex order, as projective_cover lists them
        level.sort(key=lambda kid: vertex_sort_key(kid[1].target))
        summands[-k] = tuple(x.target for _, x in level)
        width = len(summands[-k + 1])
        entries = [
            [{x: 1} if col == i else {} for col in range(width)] for i, x in level
        ]
        diffs[-k] = PathMatrix(pres, field, summands[-k], summands[-k + 1], entries)
        level = [
            (j, y)
            for j, (_, x) in enumerate(level)
            for y in _annihilator_generators(pres, x)
        ]
    return ProjComplex(pres, summands, diffs, field)


def _annihilator_generators(pres, x):
    """Prefix-minimal paths y out of ``x.target`` with x*y = 0.

    They generate the kernel of P_{t(x)} -> xA.  The search extends only
    paths y with xy != 0, so it stops at each generator.
    """
    found, stack = [], [pres.trivial_path(x.target)]
    while stack:
        y = stack.pop()
        for a in pres.quiver.arrows_from(y.target):
            longer = pres.path_product(y, _arrow_path(pres, a))
            if longer is None:
                continue
            if pres.path_product(x, longer) is None:
                found.append(longer)
            else:
                stack.append(longer)
    return found


def projective_dimension(M: RepModule, cutoff: int):
    """Projective dimension if it is at most cutoff, else None."""
    C = resolve(M, cutoff + 1)
    if -(cutoff + 1) in C.summands:
        return None
    return -min(C.summands, default=0)


# -- complexes of projectives -----------------------------------------------------


class PathMatrix:
    """Matrix of path combinations between sums of projectives.

    Row j, column k holds a map P_{domain[j]} -> P_{codomain[k]}: a linear
    combination of paths from codomain[k] to domain[j], acting by left
    multiplication.
    """

    __slots__ = ("pres", "field", "domain", "codomain", "entries")

    def __init__(self, pres, field, domain, codomain, entries, *, check=True):
        self.pres = pres
        self.field = field
        self.domain = tuple(domain)
        self.codomain = tuple(codomain)
        fixed = []
        for j, row in enumerate(entries):
            new_row = []
            for k, cell in enumerate(row):
                clean = {}
                for p, c in cell.items():
                    c = field.reduce(field.coerce(c))
                    if field.is_zero(c):
                        continue
                    if check and (
                        p.source != self.codomain[k] or p.target != self.domain[j]
                    ):
                        raise PreconditionError(
                            f"entry path {p.label()} does not run "
                            f"{self.codomain[k]} -> {self.domain[j]}"
                        )
                    clean[p] = c
                new_row.append(clean)
            fixed.append(tuple(new_row))
        self.entries = tuple(fixed)
        if len(self.entries) != len(self.domain) or any(
            len(r) != len(self.codomain) for r in self.entries
        ):
            raise PreconditionError("entry grid does not match the summand lists")

    def then(self, other: "PathMatrix") -> "PathMatrix":
        if self.codomain != other.domain:
            raise PreconditionError("path matrices do not compose")
        entries = []
        for j in range(len(self.domain)):
            row = []
            for l in range(len(other.codomain)):
                cell = {}
                for k in range(len(self.codomain)):
                    for q, cq in other.entries[k][l].items():
                        for p, cp in self.entries[j][k].items():
                            prod = self.pres.path_product(q, p)
                            if prod is None:
                                continue
                            val = self.field.reduce(
                                cell.get(prod, self.field.coerce(0)) + cq * cp
                            )
                            cell[prod] = val
                row.append({p: c for p, c in cell.items() if not self.field.is_zero(c)})
            entries.append(row)
        return PathMatrix(
            self.pres, self.field, self.domain, other.codomain, entries, check=False
        )

    def is_zero(self) -> bool:
        return all(not cell for row in self.entries for cell in row)

    def is_radical(self) -> bool:
        """No trivial path coefficients (minimality of a differential)."""
        return all(
            len(p) > 0 for row in self.entries for cell in row for p in cell
        )

    def vertex_matrix(self, w):
        """Underlying linear map between the coordinate fibers at w."""
        dom_coords, _ = _proj_coords(self.pres, self.domain)
        cod_coords, cod_index = _proj_coords(self.pres, self.codomain)
        rows = []
        for j, p in dom_coords[w]:
            row = [self.field.coerce(0)] * len(cod_coords[w])
            for k in range(len(self.codomain)):
                for x, c in self.entries[j][k].items():
                    prod = self.pres.path_product(x, p)
                    if prod is None:
                        continue
                    pos = cod_index[w][(k, prod)]
                    row[pos] = self.field.reduce(row[pos] + c)
            rows.append(row)
        return rows

    def __eq__(self, other):
        return (
            isinstance(other, PathMatrix)
            and self.pres == other.pres
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.domain, self.codomain))

    def __repr__(self):
        cells = [
            [
                "+".join(f"{c}*{p.label()}" for p, c in cell.items()) or "0"
                for cell in row
            ]
            for row in self.entries
        ]
        return f"PathMatrix({self.domain}->{self.codomain}, {cells})"


class ProjComplex:
    """Bounded complex of sums of indecomposable projectives.

    ``summands[i]`` lists the vertex of each summand of the degree i term;
    ``diffs[i]`` is the differential from degree i to degree i+1.
    """

    __slots__ = ("pres", "field", "summands", "diffs")

    def __init__(self, pres, summands, diffs, field=QQ, *, check=True):
        self.pres = pres
        self.field = field
        self.summands = {i: tuple(t) for i, t in summands.items() if t}
        self.diffs = {}
        for i, d in diffs.items():
            if d.is_zero():
                continue
            self.diffs[i] = d
        if check:
            for i, d in self.diffs.items():
                if d.domain != self.summands.get(i, ()):
                    raise PreconditionError(f"differential at {i} has wrong domain")
                if d.codomain != self.summands.get(i + 1, ()):
                    raise PreconditionError(f"differential at {i} has wrong codomain")
                nxt = self.diffs.get(i + 1)
                if nxt is not None and not d.then(nxt).is_zero():
                    raise PreconditionError(f"d∘d is nonzero at degree {i}")

    def degrees(self):
        return sorted(self.summands)

    def shift(self, h: int) -> "ProjComplex":
        """Reindex so the new degree i term is the old degree i+h term."""
        return ProjComplex(
            self.pres,
            {i - h: t for i, t in self.summands.items()},
            {i - h: d for i, d in self.diffs.items()},
            self.field,
            check=False,
        )

    def dim_at(self, i) -> int:
        coords, _ = _proj_coords(self.pres, self.summands.get(i, ()))
        return sum(len(lst) for lst in coords.values())

    def __repr__(self):
        parts = ", ".join(f"{i}: {t}" for i, t in sorted(self.summands.items()))
        return f"ProjComplex({parts})"


def module_as_complex(M: RepModule):
    """A projective module placed in degree 0 (cover must be an iso)."""
    summands, epi = projective_cover(M)
    for w in M.pres.quiver.vertices:
        if len(epi[w]) != M.dims[w]:
            raise PreconditionError("module is not projective")
    return ProjComplex(M.pres, {0: summands}, {}, M.field)


def cohomology_dim_vector(C: ProjComplex) -> dict:
    """Degreewise cohomology dimensions of the underlying complex."""
    out = {}
    ranks = {}
    for i, d in C.diffs.items():
        ranks[i] = sum(
            linalg.rank(d.vertex_matrix(w), _ncols_at(C, i + 1, w), C.field)
            for w in C.pres.quiver.vertices
        )
    for i in C.degrees():
        dim = C.dim_at(i)
        h = dim - ranks.get(i, 0) - ranks.get(i - 1, 0)
        if h:
            out[i] = h
    return out


def _ncols_at(C, i, w):
    coords, _ = _proj_coords(C.pres, C.summands.get(i, ()))
    return len(coords[w])


# -- hom dimensions ---------------------------------------------------------------


def _hom_block(pres, dom_summands, cod_summands):
    """Basis of Hom between two sums of projectives: (j, k, path) triples."""
    basis = []
    for j, x in enumerate(dom_summands):
        for k, y in enumerate(cod_summands):
            for p in _paths_from_to(pres, y, x):
                basis.append((j, k, p))
    return basis


def _ladder_rank_and_vars(C, D, g):
    """Matrix of u -> u∘d_C - d_D∘u on degreewise maps C^i -> D^{i+g}.

    Returns (number of variables, rank of the operator).  Chain maps are its
    kernel at g = h and null-homotopic maps its image at g = h - 1; the sign
    of the d_D term does not change the rank (substitute u_i -> (-1)^i u_i).
    """
    pres, field = C.pres, C.field
    var_blocks = {}
    var_index = {}
    nvars = 0
    for i in C.degrees():
        if (i + g) not in D.summands:
            continue
        block = _hom_block(pres, C.summands[i], D.summands[i + g])
        var_blocks[i] = block
        for pos, key in enumerate(block):
            var_index[(i,) + key] = nvars + pos
        nvars += len(block)
    out_index = {}
    nout = 0
    for i in C.degrees():
        if (i + g + 1) not in D.summands:
            continue
        block = _hom_block(pres, C.summands[i], D.summands[i + g + 1])
        for pos, key in enumerate(block):
            out_index[(i,) + key] = nout + pos
        nout += len(block)
    if nvars == 0:
        return 0, 0
    rows = [{} for _ in range(nvars)]
    for (i, j, k, pi), col in var_index.items():
        row = rows[col]
        # d_D ∘ u lands in degree i, blocks over D^{i+g+1}
        dD = D.diffs.get(i + g)
        if dD is not None:
            for l in range(len(dD.codomain)):
                for q, cq in dD.entries[k][l].items():
                    prod = pres.path_product(q, pi)
                    if prod is None:
                        continue
                    out = out_index.get((i, j, l, prod))
                    if out is not None:
                        row[out] = row.get(out, 0) - cq
        # u ∘ d_C contributes to the equation block of degree i-1
        dC = C.diffs.get(i - 1)
        if dC is not None:
            for j2 in range(len(dC.domain)):
                for rho, cr in dC.entries[j2][j].items():
                    prod = pres.path_product(pi, rho)
                    if prod is None:
                        continue
                    out = out_index.get((i - 1, j2, k, prod))
                    if out is not None:
                        row[out] = row.get(out, 0) + cr
    return nvars, linalg.rank(_sparse_rows(rows, field), nout, field)


def _sparse_rows(rows, field):
    """``{col: value}`` accumulators as :class:`linalg.SparseRow` rows."""
    out = []
    for row in rows:
        reduced = ((j, field.reduce(x)) for j, x in row.items())
        out.append(linalg.SparseRow((j, x) for j, x in reduced if not field.is_zero(x)))
    return out


def _hom_into_module_matrix(C, N, i):
    """Matrix of precomposition Hom(C^{i+1}, N) -> Hom(C^i, N) with d_C^i."""
    field = C.field
    d = C.diffs.get(i)
    dom = C.summands.get(i + 1, ())
    cod = C.summands.get(i, ())
    nrows = sum(N.dims[v] for v in dom)
    ncols = sum(N.dims[v] for v in cod)
    rows = [{} for _ in range(nrows)]
    if d is None or nrows == 0 or ncols == 0:
        return _sparse_rows(rows, field), ncols
    col_off = []
    acc = 0
    for v in cod:
        col_off.append(acc)
        acc += N.dims[v]
    row_off = []
    acc = 0
    for v in dom:
        row_off.append(acc)
        acc += N.dims[v]
    # d maps C^i -> C^{i+1}: entries[j][k] with j over cod, k over dom
    for j, vj in enumerate(cod):
        for k, vk in enumerate(dom):
            for p, c in d.entries[j][k].items():
                act = N.act_by_path(p)
                for a in range(N.dims[vk]):
                    for b in range(N.dims[vj]):
                        val = act[a][b]
                        if not field.is_zero(val):
                            r, cc = row_off[k] + a, col_off[j] + b
                            rows[r][cc] = rows[r].get(cc, 0) + c * val
    return _sparse_rows(rows, field), ncols


def _rank_precompose(C, N, i):
    """Rank of Hom(C^{i+1}, N) -> Hom(C^i, N)."""
    rows, ncols = _hom_into_module_matrix(C, N, i)
    if not rows or ncols == 0:
        return 0
    return linalg.rank(rows, ncols, C.field)


def hom_shift_dim(C: ProjComplex, D, h: int) -> int:
    """dim Hom in the derived category from C to D shifted by h.

    D may be another complex of projectives (chain maps modulo homotopy)
    or a module, treated as a stalk in degree 0 (cohomology of the Hom
    complex).  For stalks the value is exact as soon as C carries degree
    -(h+1); for truncated resolutions on both sides the caller controls
    accuracy through the truncation depth.
    """
    if isinstance(D, RepModule):
        if D.pres != C.pres:
            raise PreconditionError("mismatched algebras")
        dim_block = sum(D.dims[v] for v in C.summands.get(-h, ()))
        if dim_block == 0:
            return 0
        return dim_block - _rank_precompose(C, D, -h - 1) - _rank_precompose(C, D, -h)
    if not isinstance(D, ProjComplex):
        raise PreconditionError("target must be a complex or a module")
    if D.pres != C.pres:
        raise PreconditionError("mismatched algebras")
    nvars, rank_phi = _ladder_rank_and_vars(C, D, h)
    _, rank_psi = _ladder_rank_and_vars(C, D, h - 1)
    return (nvars - rank_phi) - rank_psi


def ext_dim(pres, M: RepModule, N: RepModule, h: int) -> int:
    """dim Ext^h(M, N) from a depth h+1 resolution of M.

    M must be a module :func:`resolve` accepts (a direct sum of path
    quotients such as simples, projectives and string objects); any other,
    such as a band module, raises :class:`PreconditionError`.  This is the
    stalk route of :func:`hom_shift_dim` (module target): the Hom complex
    into N is assembled directly and only its two relevant ranks are taken,
    independently of the ladder route between resolutions.
    """
    if h < 0:
        raise PreconditionError("ext degree must be nonnegative")
    if M.pres != pres or N.pres != pres:
        raise PreconditionError("mismatched algebras")
    if M.total_dim() == 0 or N.total_dim() == 0:
        return 0
    return hom_shift_dim(resolve(M, h + 1), N, h)


# -- hom tables --------------------------------------------------------------------


class HomTable:
    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(int(x) for x in entries)

    def __eq__(self, other):
        return (
            isinstance(other, HomTable)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"HomTable(entries={self.entries})"


def hom_table(pres, X: RepModule, Y: RepModule, hmax: int) -> HomTable:
    """Derived hom dimensions Hom(X, Y[h]) for 0 <= h <= hmax.

    X and Y are modules, so Hom(X, Y[h]) is Ext^h(X, Y): every entry is
    :func:`ext_dim`'s stalk route of :func:`hom_shift_dim` (module target),
    taken on one resolution of X to depth hmax + 1.  Calling ``ext_dim``
    per shift would build and check a new truncated complex for every h,
    which is quadratic in hmax.
    """
    if hmax < 0:
        raise PreconditionError("hmax must be nonnegative")
    if lambda_descriptor_of(pres) is None:
        raise PreconditionError("hom tables are keyed to Lambda(r,s,t) input")
    if X.pres != pres or Y.pres != pres:
        raise PreconditionError("mismatched algebras")
    C = resolve(X, hmax + 1)
    return HomTable(hom_shift_dim(C, Y, h) for h in range(hmax + 1))


# -- global dimension --------------------------------------------------------------


def infinite_gldim_check(pres) -> str:
    """"yes" when the global dimension is infinite, "no" when it is finite.

    Exact, with no cutoff.  In :func:`resolve` of the simple at v the
    summands of degree -1 are the arrows out of v, and below a summand with
    differential x come those of :func:`_annihilator_generators` of x.  So
    the global dimension is infinite iff the graph on basis paths with the
    edges x -> each annihilator generator of x has a cycle reachable from an
    arrow (Green-Happel-Zacharia): the graph is finite, so a resolution
    without end revisits a path.  An iterative depth-first search finds it.
    """
    # the generator search never stops on an infinite dimensional algebra
    _assert_finite_dimensional(pres)
    on_stack, done = set(), set()
    for a in pres.quiver.arrows:
        root = _arrow_path(pres, a)
        if root in done:
            continue
        on_stack.add(root)
        stack = [(root, iter(_annihilator_generators(pres, root)))]
        while stack:
            x, children = stack[-1]
            for y in children:
                if y in on_stack:
                    return "yes"
                if y not in done:
                    on_stack.add(y)
                    stack.append((y, iter(_annihilator_generators(pres, y))))
                    break
            else:
                stack.pop()
                on_stack.discard(x)
                done.add(x)
    return "no"
