"""Homological engine: modules, resolutions, hom and ext dimensions."""

import inspect
import json
import random
import sys
from collections import Counter
from itertools import islice

import pytest

from ddisc import cli, homology, linalg, presentation
from ddisc import (
    GF,
    QQ,
    InfiniteDimensionalError,
    PreconditionError,
    PresentationError,
    build_lambda,
    cartan_matrix,
    lambda_normal_form,
    parse_presentation,
    path_basis,
)
from ddisc.homology import (
    RepModule,
    _annihilator_generators,
    _path_cover,
    _paths_from,
    _proj_coords,
    build_string_object,
    ext_dim,
    hom_table,
    indec_projective,
    infinite_gldim_check,
    module_direct_sum,
    path_quotient,
    projective_cover,
    simple_module,
)
from ddisc.presentation import (
    BoundQuiverPresentation,
    LambdaDescriptor,
    Quiver,
    vertex_sort_key,
)
from test_classify import relabel

A2 = "vertex 1\nvertex 2\narrow a 1 2\n"
KRONECKER = "vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2\n"
# gentle tree: a b is a relation, a c is not
GENTLE_TREE = (
    "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
    "arrow a 1 2\narrow b 2 3\narrow c 2 4\nrelation a b\n"
)
A4_ABC = (
    "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
    "arrow a 1 2\narrow b 2 3\narrow c 3 4\nrelation a b c\n"
)
CUBED_LOOP = "vertex 0\narrow a 0 0\nrelation a a a\n"
# z has two annihilator generators, b d and a c, on two branches out of 0,
# so the order they are listed in shows the order of the search
TWO_BRANCHES = (
    "vertex 0\nvertex 1\nvertex 2\nvertex 3\nvertex 4\narrow z 4 0\n"
    "arrow a 0 1\narrow b 0 2\narrow c 1 3\narrow d 2 3\n"
    "relation z a c\nrelation z b d\n"
)
# two loops with every quadratic relation among them (and then a tail): the
# resolution of the simple at 0 doubles at each degree, so no term repeats
FREE_SQUARE = (
    "vertex 0\narrow a 0 0\narrow b 0 0\n"
    "relation a a\nrelation a b\nrelation b a\nrelation b b\n"
)
TWO_LOOPS_WITH_TAIL = (
    "vertex 0\nvertex 1\nvertex 2\nvertex 3\n"
    "arrow a0 0 0\narrow a1 0 1\narrow a2 0 0\narrow a3 1 2\narrow a4 2 3\n"
    "relation a0 a0\nrelation a0 a2\nrelation a2 a0\nrelation a2 a2\n"
)


def module_pool(pres):
    """Small valid modules over pres: simples, projectives, a tail quotient."""
    out = []
    for v in pres.quiver.vertices:
        out.append(simple_module(pres, v))
        out.append(indec_projective(pres, v))
    return out


# -- matrix references ----------------------------------------------------------------
#
# The package counts Ext off paths.  The helpers below are the matrix routes
# it does not ship, kept as independent references for the counts.
# ``resolve`` writes the minimal resolution as a complex of projectives whose
# differentials are matrices of path combinations; the differential entry in
# the row of summand P_a and column of summand P_b is spanned by paths from
# b to a, acting by left multiplication.  On such complexes the stalk route
# takes two ranks of the Hom complex into a module, and the ladder route
# takes chain maps modulo homotopy between two complexes of projectives.
# Both build every matrix and rank it with ``linalg.rank``.
#
# The package reads basis paths and annihilator generators off the edges of
# the relation automaton.  ``paths_by_search`` and ``annihilators_by_products``
# find them without it, by checking words for relations, and the matrix
# references take their resolutions from the latter.


def paths_by_search(pres, v):
    """Basis paths from v by target, each list in canonical order, found by
    a depth-first search that checks every word it extends for relations."""
    q = pres.quiver
    found, stack = [pres.trivial_path(v)], [(v, ())]
    while stack:
        vertex, word = stack.pop()
        for a in q.arrows_from(vertex):
            new = word + (a,)
            if pres.is_normal(new):
                found.append(pres.make_path(new))
                stack.append((q.target(a), new))
    by_target = {}
    for p in sorted(found, key=lambda p: p.sort_key()):
        by_target.setdefault(p.target, []).append(p)
    return by_target


def annihilators_by_products(pres, x):
    """Prefix-minimal paths y out of ``x.target`` with x*y = 0, in the order
    the package lists them, found by forming products with ``path_product``.

    The search extends only paths y with xy != 0, so it stops at each
    generator.
    """
    arrow_paths = {a: pres.make_path([a]) for a in pres.quiver.arrows}
    found, stack = [], [pres.trivial_path(x.target)]
    while stack:
        y = stack.pop()
        for a in pres.quiver.arrows_from(y.target):
            longer = pres.path_product(y, arrow_paths[a])
            if longer is None:
                continue
            if pres.path_product(x, longer) is None:
                found.append(longer)
            else:
                stack.append(longer)
    return found


def _levels(M: RepModule):
    """Terms of the minimal resolution of a nonzero M, degree 0 down.

    Yields each nonempty degree as a list of (i, x): a summand P_{t(x)}
    whose differential is left multiplication by the path x into summand i
    of the degree above.  Degree 0 is the cover, listed as (None, e_u).
    See :func:`resolve` for why every term is read off paths.
    """
    pres = M.pres
    cover, gens, _ = _path_cover(M)
    yield [(None, pres.trivial_path(u)) for u in cover]
    level = list(gens)
    while level:
        # summands in vertex order, as projective_cover lists them
        level.sort(key=lambda kid: vertex_sort_key(kid[1].target))
        yield level
        level = [
            (j, y)
            for j, (_, x) in enumerate(level)
            for y in annihilators_by_products(pres, x)
        ]


def resolve(M: RepModule, depth: int):
    """Minimal projective resolution truncated to degrees [-depth, 0].

    The cover is the module's own (see :func:`_path_cover`), and every
    later term is read off paths (Green-Happel-Zacharia, monomial
    algebras).  When the cover kernel is spanned by cover coordinates
    (i, p), it is the direct sum of the right ideals qA over its
    prefix-minimal paths q, and the kernel of P_{t(x)} -> xA, y -> xy, is
    spanned by the paths y with xy = 0.  So each summand of degree -k is a P_{t(x)} whose differential
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
    summands, diffs = {}, {}
    if M.total_dim():
        for k, level in enumerate(islice(_levels(M), depth + 1)):
            summands[-k] = tuple(x.target for _, x in level)
            if k:
                width = len(summands[1 - k])
                entries = [
                    [{x: 1} if col == i else {} for col in range(width)]
                    for i, x in level
                ]
                diffs[-k] = PathMatrix(
                    pres, field, summands[-k], summands[1 - k], entries
                )
    return ProjComplex(pres, summands, diffs, field)


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

    def __repr__(self):
        parts = ", ".join(f"{i}: {t}" for i, t in sorted(self.summands.items()))
        return f"ProjComplex({parts})"


def vertex_matrix(d, w):
    """Underlying linear map of a path matrix between the fibers at w."""
    dom_coords = _proj_coords(d.pres, d.domain)
    cod_coords = _proj_coords(d.pres, d.codomain)
    cod_index = {key: pos for pos, key in enumerate(cod_coords[w])}
    rows = []
    for j, p in dom_coords[w]:
        row = [d.field.coerce(0)] * len(cod_coords[w])
        for k in range(len(d.codomain)):
            for x, c in d.entries[j][k].items():
                prod = d.pres.path_product(x, p)
                if prod is None:
                    continue
                pos = cod_index[(k, prod)]
                row[pos] = d.field.reduce(row[pos] + c)
        rows.append(row)
    return rows


def _ncols_at(C, i, w):
    return len(_proj_coords(C.pres, C.summands.get(i, ()))[w])


def cohomology_dim_vector(C):
    """Degreewise cohomology dimensions of the underlying complex."""
    ranks = {
        i: sum(
            linalg.rank(vertex_matrix(d, w), _ncols_at(C, i + 1, w), C.field)
            for w in C.pres.quiver.vertices
        )
        for i, d in C.diffs.items()
    }
    out = {}
    for i in C.degrees():
        dim = sum(_ncols_at(C, i, w) for w in C.pres.quiver.vertices)
        h = dim - ranks.get(i, 0) - ranks.get(i - 1, 0)
        if h:
            out[i] = h
    return out


def module_as_complex(M):
    """A projective module placed in degree 0 (cover must be an iso)."""
    summands, epi = projective_cover(M)
    for w in M.pres.quiver.vertices:
        if len(epi[w]) != M.dims[w]:
            raise PreconditionError("module is not projective")
    return ProjComplex(M.pres, {0: summands}, {}, M.field)


def projective_dimension(M, cutoff):
    """Projective dimension if it is at most cutoff, else None."""
    C = resolve(M, cutoff + 1)
    if -(cutoff + 1) in C.summands:
        return None
    return -min(C.summands, default=0)


def _sparse_rows(rows, field):
    """``{col: value}`` accumulators as :class:`linalg.SparseRow` rows."""
    out = []
    for row in rows:
        reduced = ((j, field.reduce(x)) for j, x in row.items())
        out.append(linalg.SparseRow((j, x) for j, x in reduced if not field.is_zero(x)))
    return out


def _rank_precompose(C, N, i):
    """Rank of Hom(C^{i+1}, N) -> Hom(C^i, N), precomposition with d_C^i."""
    field = C.field
    d = C.diffs.get(i)
    dom = C.summands.get(i + 1, ())
    cod = C.summands.get(i, ())
    ncols = sum(N.dims[v] for v in cod)
    if d is None or ncols == 0:
        return 0
    col_off, row_off = [0], [0]
    for v in cod:
        col_off.append(col_off[-1] + N.dims[v])
    for v in dom:
        row_off.append(row_off[-1] + N.dims[v])
    rows = [{} for _ in range(row_off[-1])]
    # d maps C^i -> C^{i+1}: entries[j][k] with j over cod, k over dom
    for j, vj in enumerate(cod):
        for k, vk in enumerate(dom):
            for p, c in d.entries[j][k].items():
                act = N.act_by_path(p)
                for a in range(N.dims[vk]):
                    for b in range(N.dims[vj]):
                        if not field.is_zero(act[a][b]):
                            r, cc = row_off[k] + a, col_off[j] + b
                            rows[r][cc] = rows[r].get(cc, 0) + c * act[a][b]
    return linalg.rank(_sparse_rows(rows, field), ncols, field)


def _hom_block(pres, dom_summands, cod_summands):
    """Basis of Hom between two sums of projectives: (j, k, path) triples."""
    return [
        (j, k, p)
        for j, x in enumerate(dom_summands)
        for k, y in enumerate(cod_summands)
        for p in _paths_from(pres, y).get(x, ())
    ]


def _ladder_rank_and_vars(C, D, g):
    """Matrix of u -> u∘d_C - d_D∘u on degreewise maps C^i -> D^{i+g}.

    Returns (number of variables, rank of the operator).  Chain maps are its
    kernel at g = h and null-homotopic maps its image at g = h - 1; the sign
    of the d_D term does not change the rank (substitute u_i -> (-1)^i u_i).
    """
    pres, field = C.pres, C.field
    var_index, out_index = {}, {}
    for i in C.degrees():
        for shift, index in ((g, var_index), (g + 1, out_index)):
            if (i + shift) in D.summands:
                for key in _hom_block(pres, C.summands[i], D.summands[i + shift]):
                    index[(i,) + key] = len(index)
    if not var_index:
        return 0, 0
    rows = [{} for _ in var_index]
    for (i, j, k, pi), col in var_index.items():
        row = rows[col]
        # d_D ∘ u lands in degree i, blocks over D^{i+g+1}
        dD = D.diffs.get(i + g)
        if dD is not None:
            for l in range(len(dD.codomain)):
                for q, cq in dD.entries[k][l].items():
                    prod = pres.path_product(q, pi)
                    out = out_index.get((i, j, l, prod))
                    if out is not None:  # a zero product has no key
                        row[out] = row.get(out, 0) - cq
        # u ∘ d_C contributes to the equation block of degree i-1
        dC = C.diffs.get(i - 1)
        if dC is not None:
            for j2 in range(len(dC.domain)):
                for rho, cr in dC.entries[j2][j].items():
                    prod = pres.path_product(pi, rho)
                    out = out_index.get((i - 1, j2, k, prod))
                    if out is not None:
                        row[out] = row.get(out, 0) + cr
    return len(var_index), linalg.rank(_sparse_rows(rows, field), len(out_index), field)


def hom_shift_dim(C, D, h):
    """dim Hom in the derived category from C to D shifted by h, by matrices.

    D is a module, treated as a stalk in degree 0 (stalk route: cohomology
    of the Hom complex, exact once C carries degree -(h+1)), or a complex of
    projectives (ladder route: chain maps modulo homotopy; with truncated
    resolutions on both sides the caller controls accuracy through the
    truncation depths).
    """
    if isinstance(D, RepModule):
        dim_block = sum(D.dims[v] for v in C.summands.get(-h, ()))
        if dim_block == 0:
            return 0
        return dim_block - _rank_precompose(C, D, -h - 1) - _rank_precompose(C, D, -h)
    nvars, rank_phi = _ladder_rank_and_vars(C, D, h)
    _, rank_psi = _ladder_rank_and_vars(C, D, h - 1)
    return (nvars - rank_phi) - rank_psi


def ext_counts_per_summand(M, N, hmax):
    """dim Ext^h(M, N) for 0 <= h <= hmax, one summand at a time.

    The path count of the package walked without multisets or periods:
    every degree down to hmax + 1 is listed summand by summand, and each
    summand's rows are matched against its own children.
    """
    if M.total_dim() == 0 or N.total_dim() == 0:
        return [0] * (hmax + 1)
    pres = M.pres
    _, _, basis = homology._path_cover(N)
    survivors = set(basis)
    ending_at = {}
    for j, b in basis:
        ending_at.setdefault(b.target, []).append((j, b))
    levels = _levels(M)
    level, out, live_above = next(levels), [], 0
    for _ in range(hmax + 1):
        below = next(levels, [])
        children = [[] for _ in level]
        for i, y in below:
            children[i].append(y)
        rows = live = 0
        for (_, x), ys in zip(level, children):
            for j, b in ending_at.get(x.target, ()):
                rows += 1
                live += any((j, pres.path_product(b, y)) in survivors for y in ys)
        out.append(rows - live - live_above)
        level, live_above = below, live
    return out


# -- modules -------------------------------------------------------------------


def test_repmodule_validates_relations():
    L = build_lambda(1, 2, 0)
    one = QQ.coerce(1)
    with pytest.raises(PreconditionError):
        RepModule(L, {"0": 1, "1": 1}, {"a0": [[one]], "a1": [[one]]})
    # same maps but relation a1*a0 acts as zero when a1 map is zero
    RepModule(L, {"0": 1, "1": 1}, {"a0": [[one]], "a1": [[QQ.coerce(0)]]})


def test_repmodule_shape_check():
    L = build_lambda(1, 1, 0)
    with pytest.raises(PreconditionError):
        RepModule(L, {"0": 2}, {"a0": [[QQ.coerce(0)]]})


def test_repmodule_rejects_unknown_vertices_and_arrows():
    L = build_lambda(2, 2, 1)
    with pytest.raises(PreconditionError, match="unknown vertex 'zz'"):
        RepModule(L, {"zz": 3, "0": 1}, {"nope": [[1]]})
    with pytest.raises(PreconditionError, match="unknown arrow 'nope'"):
        RepModule(L, {"0": 1}, {"nope": [[1]]})


def test_simple_module():
    L = build_lambda(2, 2, 0)
    S = simple_module(L, "0")
    assert S.dims == {"0": 1, "1": 0}
    assert S.total_dim() == 1
    with pytest.raises(PreconditionError):
        simple_module(L, "7")


@pytest.mark.parametrize(
    "text", [A2, KRONECKER, GENTLE_TREE, CUBED_LOOP, FREE_SQUARE, TWO_LOOPS_WITH_TAIL]
)
def test_simples_are_the_one_dimensional_representations(text):
    pres = parse_presentation(text)
    for v in pres.quiver.vertices:
        for field in (QQ, GF(5)):
            assert simple_module(pres, v, field) == RepModule(pres, {v: 1}, {}, field)


def test_simples_need_no_path_listing():
    # k[x] is infinite dimensional: no search from 1 ends, yet S_1 exists
    pres = parse_presentation("vertex 1\narrow x 1 1\n")
    S = simple_module(pres, "1")
    assert S == RepModule(pres, {"1": 1}, {})
    assert S.maps == {"x": ((QQ.coerce(0),),)}
    with pytest.raises(PreconditionError, match="unknown vertex"):
        simple_module(pres, "2")
    # resolving it would search k[x] without end: refused, as for any module
    for compute in (lambda: resolve(S, 2), lambda: ext_dim(pres, S, S, 1)):
        with pytest.raises(InfiniteDimensionalError):
            compute()


@pytest.mark.parametrize(
    "rst,v,dims,total",
    [
        ((2, 2, 0), "0", {"0": 1, "1": 1}, 2),
        ((1, 2, 0), "0", {"0": 2, "1": 1}, 3),
        ((2, 2, 1), "-1", {"-1": 1, "0": 1, "1": 1}, 3),
    ],
)
def test_indec_projective_frozen(rst, v, dims, total):
    P = indec_projective(build_lambda(*rst), v)
    assert {w: d for w, d in P.dims.items() if d} == dims
    assert P.total_dim() == total


def test_projective_dims_match_cartan():
    for pres in [build_lambda(1, 2, 0), build_lambda(3, 3, 1), parse_presentation(A2)]:
        cart = cartan_matrix(pres)
        for v in pres.quiver.vertices:
            P = indec_projective(pres, v)
            for w in pres.quiver.vertices:
                assert P.dims[w] == cart[(v, w)]


def test_act_by_relation_is_zero():
    for pres in [build_lambda(2, 3, 1), build_lambda(2, 2, 0)]:
        for M in module_pool(pres):
            for rel in pres.relations:
                mat = M.act_by_path(rel)
                assert all(QQ.is_zero(x) for row in mat for x in row)


def test_module_direct_sum_dims():
    L = build_lambda(2, 2, 0)
    M = module_direct_sum([simple_module(L, "0"), indec_projective(L, "1")])
    assert M.dims == {"0": 2, "1": 1}
    for rel in L.relations:
        mat = M.act_by_path(rel)
        assert all(QQ.is_zero(x) for row in mat for x in row)


def test_modules_over_separately_built_equal_fields():
    L = build_lambda(2, 2, 0)
    a, b = simple_module(L, "0", GF(5)), simple_module(L, "0", GF(5))
    assert a == b and hash(a) == hash(b)
    assert a != simple_module(L, "0", GF(7))
    assert module_direct_sum([a, b]).dims == {"0": 2, "1": 0}


@pytest.mark.parametrize(
    "pres",
    [build_lambda(2, 2, 1), build_lambda(1, 1, 1)]
    + [parse_presentation(t) for t in (A2, KRONECKER, GENTLE_TREE, A4_ABC, CUBED_LOOP)],
)
def test_path_quotients_give_projectives_and_simples(pres):
    for v in pres.quiver.vertices:
        assert path_quotient(pres, v, ()) == indec_projective(pres, v)
        arrows = [[a] for a in pres.quiver.arrows_from(v)]
        assert path_quotient(pres, v, arrows) == simple_module(pres, v)


def test_path_quotient_input_checks():
    L = build_lambda(2, 2, 1)
    by_names = path_quotient(L, "-1", [("a-1", "a0")])
    assert by_names == path_quotient(L, "-1", [L.make_path(["a-1", "a0"])])
    assert by_names.total_dim() == indec_projective(L, "-1").total_dim() - 1
    with pytest.raises(PreconditionError, match="does not start at -1"):
        path_quotient(L, "-1", [("a0",)])
    with pytest.raises(PreconditionError, match="zero in the algebra"):
        path_quotient(L, "0", [("a0", "a1")])
    with pytest.raises(PresentationError, match="unknown arrow"):
        path_quotient(L, "0", [("nope",)])
    with pytest.raises(PreconditionError, match="unknown vertex"):
        path_quotient(L, "7", ())


@pytest.mark.parametrize(
    "pres",
    [build_lambda(3, 4, 2), build_lambda(2, 2, 0)]
    + [parse_presentation(t) for t in (KRONECKER, GENTLE_TREE, A4_ABC, CUBED_LOOP)],
)
def test_paths_from_lists_the_path_basis_by_source_then_target(pres):
    table = {v: {} for v in pres.quiver.vertices}
    for p in path_basis(pres):
        table[p.source].setdefault(p.target, []).append(p)
    for v in reversed(pres.quiver.vertices):
        assert list(_paths_from(pres, v).items()) == list(table[v].items())


def test_paths_from_refuses_infinite_dimensional_algebras():
    # b a a a ... never meets a relation: a search from 1 would not end
    pres = parse_presentation("vertex 0\nvertex 1\narrow a 0 0\narrow b 1 0\n")
    with pytest.raises(InfiniteDimensionalError):
        _paths_from(pres, "1")
    with pytest.raises(InfiniteDimensionalError):
        indec_projective(pres, "1")


# -- string objects ---------------------------------------------------------------


def test_string_objects_basic():
    L = build_lambda(2, 2, 1)
    X0 = build_string_object(L, "X", 0)
    assert X0 == simple_module(L, "0")
    Y = build_string_object(L, "Y", -1)
    P = indec_projective(L, "-1")
    assert Y.total_dim() == P.total_dim() - 1
    assert {v: d for v, d in Y.dims.items() if d} == {"-1": 1, "0": 1}


def test_string_object_socle_vertex_when_s_is_1():
    L = build_lambda(1, 1, 1)
    Y = build_string_object(L, "Y", -1)
    P = indec_projective(L, "-1")
    # P_{-1}/S_0: the quotient loses one dimension at vertex 0
    assert Y.dims["0"] == P.dims["0"] - 1


def test_string_object_preconditions():
    with pytest.raises(PreconditionError):
        build_string_object(build_lambda(1, 2, 0), "X", 0)  # r < s
    L = build_lambda(2, 2, 1)
    with pytest.raises(PreconditionError):
        build_string_object(L, "X", 2)
    with pytest.raises(PreconditionError):
        build_string_object(L, "Y", -2)
    with pytest.raises(PreconditionError):
        build_string_object(build_lambda(2, 2, 0), "Y", -1)  # no tail


def test_hom_table_refuses_a_depth_no_list_can_index():
    L = build_lambda(2, 2, 0)
    X0, X1 = build_string_object(L, "X", 0), build_string_object(L, "X", 1)
    for hmax in (-1, sys.maxsize, 10**23):
        with pytest.raises(PreconditionError, match="hmax must be"):
            hom_table(L, X0, X1, hmax)
    assert hom_table(L, X0, X1, 3).entries == (0, 1, 0, 1)


def _delete_coordinate(M, w, j):
    """Dims and maps of M with coordinate j at vertex w left out."""
    dims = dict(M.dims, **{w: M.dims[w] - 1})
    maps = {}
    for a, (src, tgt) in M.pres.quiver.arrows.items():
        rows = [row for i, row in enumerate(M.maps[a]) if (src, i) != (w, j)]
        maps[a] = tuple(
            tuple(x for k, x in enumerate(row) if (tgt, k) != (w, j)) for row in rows
        )
    return dims, maps


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_y_objects_are_projectives_less_their_socle(field, monkeypatch):
    calls = _count_linear_algebra(monkeypatch)
    for s in range(1, 5):
        for t in range(1, 4):
            L = build_lambda(s, s, t)
            for q in range(1, t + 1):
                P = indec_projective(L, str(-q), field)
                # the socle is the one coordinate that no arrow moves
                [(w, j)] = [
                    (w, j)
                    for w in L.quiver.vertices
                    for j in range(P.dims[w])
                    if not any(any(P.maps[a][j]) for a in L.quiver.arrows_from(w))
                ]
                calls.clear()
                Y = build_string_object(L, "Y", -q, field)
                assert not {"rref", "rank", "cover"} & set(calls), calls
                assert (Y.dims, Y.maps) == _delete_coordinate(P, w, j)


def test_y_objects_match_the_quotient_by_the_longest_path(monkeypatch):
    listed = []
    paths_from = homology._paths_from

    def counted(pres, v):
        listed.append(v)
        return paths_from(pres, v)

    monkeypatch.setattr(homology, "_paths_from", counted)
    for s in range(1, 6):
        for t in range(1, 5):
            L = build_lambda(s, s, t)
            for q in range(1, t + 1):
                v = str(-q)
                listed.clear()
                Y = build_string_object(L, "Y", -q)
                assert listed == [v]  # path_quotient's own read of P_v
                # reference: list P_v and take its unique longest path, which
                # ends at the socle vertex, 1 (0 when s = 1)
                outs = [p for ps in paths_from(L, v).values() for p in ps]
                top = max(len(p) for p in outs)
                [longest] = [p for p in outs if len(p) == top]
                assert longest.target == ("1" if s >= 2 else "0")
                ref = path_quotient(L, v, [longest])
                assert Y.dims == ref.dims and Y._cover == ref._cover
                assert Y.maps == ref.maps


# -- covers and resolutions ---------------------------------------------------------


def test_projective_cover_of_simple_and_projective():
    L = build_lambda(2, 2, 0)
    summands, _ = projective_cover(simple_module(L, "0"))
    assert summands == ("0",)
    P = indec_projective(L, "1")
    summands, epi = projective_cover(P)
    assert summands == ("1",)
    for w in L.quiver.vertices:
        assert len(epi[w]) == P.dims[w]  # identity-sized blocks


def test_projective_cover_of_string_quotient():
    L = build_lambda(2, 2, 1)
    summands, _ = projective_cover(build_string_object(L, "Y", -1))
    assert summands == ("-1",)


def test_cover_images_are_the_action_of_paths():
    # each coordinate (i, p) maps to the image of (i, e_u) moved along p
    kron = parse_presentation(KRONECKER)
    band = RepModule(
        kron, {"1": 2, "2": 2}, {"a": [[1, 0], [0, 1]], "b": [[3, 1], [0, 3]]}
    )
    L = build_lambda(3, 3, 2)
    summed = module_direct_sum(module_pool(L) + [build_string_object(L, "Y", -2)])
    for M in (band, summed):
        summands, epi = projective_cover(M)
        coords = _proj_coords(M.pres, summands)
        tops = [
            epi[u][coords[u].index((i, M.pres.trivial_path(u)))]
            for i, u in enumerate(summands)
        ]
        for w in M.pres.quiver.vertices:
            for (i, p), row in zip(coords[w], epi[w]):
                expected = linalg.mat_mul([tops[i]], M.act_by_path(p), M.dims[w], M.field)
                assert [row] == expected


def test_cover_rejects_zero_module():
    L = build_lambda(1, 1, 0)
    Z = RepModule(L, {}, {})
    with pytest.raises(PreconditionError):
        projective_cover(Z)


def _as_matrices(M):
    """M given by its matrices, so that its cover takes the rref route."""
    return RepModule(M.pres, M.dims, M.maps, M.field)


def test_path_read_covers_match_the_rref_route():
    rng = random.Random(13)
    algebras = [parse_presentation(t) for t in (FREE_SQUARE, TWO_LOOPS_WITH_TAIL)]
    algebras += [random_monomial_algebra(rng) for _ in range(80)]
    pool = [M for pres in algebras for M in ext_pool(pres, rng)]
    for field in (QQ, GF(32003)):
        for s in range(1, 6):
            for t in range(4):
                L = build_lambda(s, s, t)
                pool += [_named(L, name, field) for name in _string_names(s, t)]
    for M in pool:
        N = _as_matrices(M)
        assert M._cover is not None and N._cover is None
        assert homology._path_cover(M) == homology._path_cover(N)
        C, D = resolve(M, 6), resolve(N, 6)
        assert (C.summands, C.diffs) == (D.summands, D.diffs)


def test_matrix_given_modules_take_one_cover_each(monkeypatch):
    calls = _count_linear_algebra(monkeypatch)
    L = build_lambda(3, 3, 2)
    X = _as_matrices(_named(L, "X1"))
    Y = _as_matrices(module_direct_sum([_named(L, "Y-2"), _named(L, "X0")]))
    calls.clear()
    dims = [ext_dim(L, X, Y, h) for h in range(7)]
    assert dims == [
        _closed_form_hom(3, "X1", "Y-2", h) + _closed_form_hom(3, "X1", "X0", h)
        for h in range(7)
    ]
    assert calls["cover"] == 2, calls


def test_resolution_period_two():
    L = build_lambda(2, 2, 0)
    C = resolve(simple_module(L, "0"), 4)
    assert {i: C.summands[i] for i in C.degrees()} == {
        0: ("0",),
        -1: ("1",),
        -2: ("0",),
        -3: ("1",),
        -4: ("0",),
    }


def test_resolution_of_y_matches_displayed_differentials():
    L = build_lambda(2, 2, 1)
    C = resolve(build_string_object(L, "Y", -1), 2)
    assert C.summands == {0: ("-1",), -1: ("1",), -2: ("0",)}
    (d1,) = (C.diffs[-1],)
    [(path, coeff)] = list(d1.entries[0][0].items())
    assert path.label() == "a-1*a0"
    assert coeff == 1
    (d2,) = (C.diffs[-2],)
    [(path, _)] = list(d2.entries[0][0].items())
    assert path.label() == "a1"


def test_resolution_of_projective_is_a_stalk():
    L = build_lambda(2, 3, 1)
    for v in L.quiver.vertices:
        C = resolve(indec_projective(L, v), 3)
        assert C.degrees() == [0]
        assert not C.diffs


def assert_minimal_exact_resolution(M, depth):
    """Radical differentials, d∘d = 0, and cohomology M in degree 0 only.

    Degree -depth is left out: the truncation leaves cohomology there.
    """
    C = resolve(M, depth)
    for i, d in C.diffs.items():
        assert d.is_radical()
        nxt = C.diffs.get(i + 1)
        if nxt is not None:
            assert d.then(nxt).is_zero()
    cohomology = {k: h for k, h in cohomology_dim_vector(C).items() if k > -depth}
    assert cohomology == ({0: M.total_dim()} if M.total_dim() else {})


def test_resolutions_are_minimal_and_square_zero():
    pool = []
    for rst in [(1, 2, 0), (2, 2, 0), (2, 2, 1), (3, 3, 0)]:
        pool.extend(module_pool(build_lambda(*rst)))
    for s, t in [(2, 1), (3, 2)]:
        objs = list(_string_objects(build_lambda(s, s, t), s, t).values())
        pool.extend(objs)
        pool.append(module_direct_sum(objs))
    for text in (GENTLE_TREE, A4_ABC, CUBED_LOOP):
        mods = module_pool(parse_presentation(text))
        pool.extend(mods)
        pool.append(module_direct_sum(mods))
    for M in pool:
        assert_minimal_exact_resolution(M, 4)


def test_resolutions_of_string_objects_do_no_linear_algebra(monkeypatch):
    calls = _count_linear_algebra(monkeypatch)
    L = build_lambda(3, 3, 2)
    given = _as_matrices(build_string_object(L, "X", 0))
    for depth in (10, 300):
        calls.clear()
        C = resolve(build_string_object(L, "X", 0), depth)
        assert min(C.summands) == -depth
        # no elimination, no cover and no module matrix
        assert not calls, calls
        # the same module given by matrices takes one cover, kept after that
        D = resolve(given, depth)
        assert (C.summands, C.diffs) == (D.summands, D.diffs)
        assert calls["cover"] == (1 if depth == 10 else 0), calls


def test_band_modules_get_a_typed_refusal():
    pres = parse_presentation(KRONECKER)
    one = [[QQ.coerce(1)]]
    band = RepModule(pres, {"1": 1, "2": 1}, {"a": one, "b": one})
    with pytest.raises(PreconditionError, match="not spanned by paths"):
        resolve(band, 2)
    with pytest.raises(PreconditionError, match="not spanned by paths"):
        ext_dim(pres, band, simple_module(pres, "2"), 1)
    # Ext counts read the target off its cover too
    with pytest.raises(PreconditionError, match="not spanned by paths"):
        ext_dim(pres, simple_module(pres, "1"), band, 1)


def test_resolve_extension_is_consistent():
    L = build_lambda(2, 2, 1)
    M = build_string_object(L, "Y", -1)
    shallow = resolve(M, 2)
    deep = resolve(M, 6)
    for i in shallow.diffs:
        assert deep.diffs[i] == shallow.diffs[i]
    assert projective_dimension(M, 4) is None  # infinite global dimension side


def test_projective_dimension_values():
    L = build_lambda(1, 2, 0)  # finite global dimension (s > r)
    assert projective_dimension(indec_projective(L, "0"), 5) == 0
    # rad P_0 = P_1, so S_0 resolves in one step; S_1 needs the extra turn
    assert projective_dimension(simple_module(L, "0"), 5) == 1
    assert projective_dimension(simple_module(L, "1"), 5) == 2
    tail = build_lambda(2, 2, 1)
    assert projective_dimension(simple_module(tail, "-1"), 5) == 1


# -- complexes ----------------------------------------------------------------------


def test_path_matrix_endpoint_validation():
    L = build_lambda(2, 2, 0)
    a0 = L.make_path(["a0"])  # runs 0 -> 1
    with pytest.raises(PreconditionError):
        PathMatrix(L, QQ, ("0",), ("0",), [[{a0: 1}]])
    PathMatrix(L, QQ, ("1",), ("0",), [[{a0: 1}]])  # P_1 -> P_0 via left mult


def test_path_matrix_vertex_matrix_respects_composition():
    L = build_lambda(1, 2, 0)
    a0 = L.make_path(["a0"])
    a1 = L.make_path(["a1"])
    f = PathMatrix(L, QQ, ("0",), ("1",), [[{a1: 1}]])
    g = PathMatrix(L, QQ, ("1",), ("0",), [[{a0: 1}]])
    fg = f.then(g)
    [(p, c)] = list(fg.entries[0][0].items())
    assert p.label() == "a0*a1" and c == 1
    # the other order composes into the relation and dies
    assert g.then(f).is_zero()
    for w in L.quiver.vertices:
        left = vertex_matrix(f, w)
        right = vertex_matrix(g, w)
        prod = linalg.mat_mul(left, right, len(right[0]) if right else 0, QQ)
        assert prod == vertex_matrix(fg, w)


def test_complex_rejects_nonzero_square():
    L = build_lambda(1, 2, 0)
    a0 = L.make_path(["a0"])
    a1 = L.make_path(["a1"])
    d0 = PathMatrix(L, QQ, ("0",), ("1",), [[{a1: 1}]])
    d1 = PathMatrix(L, QQ, ("1",), ("0",), [[{a0: 1}]])
    # a1 then a0 is the nonzero path a0*a1, so d∘d != 0
    with pytest.raises(PreconditionError):
        ProjComplex(L, {-1: ("0",), 0: ("1",), 1: ("0",)}, {-1: d0, 0: d1})


def test_shift_reindexes():
    L = build_lambda(2, 2, 0)
    C = resolve(simple_module(L, "0"), 3)
    D = C.shift(2)
    assert D.summands == {i - 2: t for i, t in C.summands.items()}
    assert set(D.diffs) == {i - 2 for i in C.diffs}


def test_cohomology_dim_vector():
    L = build_lambda(2, 2, 0)
    P = module_as_complex(indec_projective(L, "0"))
    assert cohomology_dim_vector(P) == {0: 2}
    e0 = L.trivial_path("0")
    ident = PathMatrix(L, QQ, ("0",), ("0",), [[{e0: 1}]])
    exact = ProjComplex(L, {-1: ("0",), 0: ("0",)}, {-1: ident})
    assert cohomology_dim_vector(exact) == {}
    C = resolve(simple_module(L, "0"), 3)
    vec = cohomology_dim_vector(C)
    assert vec[0] == 1 and set(vec) == {0, -3}


def test_module_as_complex_requires_projective():
    L = build_lambda(2, 2, 0)
    with pytest.raises(PreconditionError):
        module_as_complex(simple_module(L, "0"))


# -- hom dimensions -------------------------------------------------------------------


def test_end_of_projective():
    L = build_lambda(2, 2, 0)
    P = module_as_complex(indec_projective(L, "0"))
    assert hom_shift_dim(P, P, 0) == 1


def test_disjoint_supports_give_zero():
    L = build_lambda(2, 2, 0)
    P = module_as_complex(indec_projective(L, "0"))
    assert hom_shift_dim(P, P.shift(5), 0) == 0
    assert hom_shift_dim(P, P, 7) == 0


def test_stalk_route_hand_value():
    L = build_lambda(2, 2, 0)
    C = resolve(simple_module(L, "0"), 4)
    assert hom_shift_dim(C, simple_module(L, "1"), 1) == 1
    assert ext_dim(L, simple_module(L, "0"), simple_module(L, "1"), 1) == 1


def test_mismatched_algebras_rejected():
    L = build_lambda(1, 1, 0)
    S = simple_module(L, "0")
    other = simple_module(build_lambda(2, 2, 0), "0")
    for M, N in [(S, other), (other, S)]:
        with pytest.raises(PreconditionError, match="mismatched"):
            ext_dim(L, M, N, 0)
        with pytest.raises(PreconditionError, match="mismatched"):
            hom_table(L, M, N, 2)


def test_ext_parity_grid():
    L = build_lambda(2, 2, 0)
    S0 = simple_module(L, "0")
    S1 = simple_module(L, "1")
    assert [ext_dim(L, S0, S0, h) for h in range(7)] == [1, 0, 1, 0, 1, 0, 1]
    assert ext_dim(L, S0, S1, 1) == 1


def test_ext_end_of_simples():
    for pres in [build_lambda(1, 1, 0), build_lambda(2, 3, 1)]:
        for v in pres.quiver.vertices:
            S = simple_module(pres, v)
            assert ext_dim(pres, S, S, 0) == 1


def test_ext_negative_degree_rejected():
    L = build_lambda(1, 1, 0)
    S = simple_module(L, "0")
    with pytest.raises(PreconditionError):
        ext_dim(L, S, S, -1)


def test_ext_matches_stalk_hom_route():
    rng = random.Random(9)
    pool = []
    for rst in [(1, 2, 0), (2, 2, 0), (2, 2, 1)]:
        pres = build_lambda(*rst)
        pool.extend((pres, M) for M in module_pool(pres))
    for _ in range(30):
        (pres, M) = rng.choice(pool)
        canidates = [(p, N) for p, N in pool if p == pres]
        _, N = rng.choice(canidates)
        h = rng.randrange(0, 5)
        C = resolve(M, h + 4)
        assert hom_shift_dim(C, N, h) == ext_dim(pres, M, N, h)


def random_monomial_algebra(rng, longest=3):
    """A finite dimensional monomial algebra: 1..4 vertices, 1..6 arrows,
    relations of length 2..longest."""
    while True:
        verts = [str(i) for i in range(rng.randint(1, 4))]
        arrows = [
            (f"a{i}", rng.choice(verts), rng.choice(verts))
            for i in range(rng.randint(1, 6))
        ]
        quiver = Quiver(verts, arrows)
        rels = set()
        for _ in range(rng.randint(1, 8)):
            at, word = rng.choice(verts), []
            for _ in range(rng.randint(2, longest)):
                outs = quiver.arrows_from(at)
                if not outs:
                    break
                word.append(rng.choice(outs))
                at = quiver.target(word[-1])
            if len(word) >= 2:
                rels.add(tuple(word))
        pres = BoundQuiverPresentation(quiver, sorted(rels))
        try:
            path_basis(pres)
        except InfiniteDimensionalError:
            continue
        return pres


def random_algebras_with_relations(rng, count):
    """``count`` draws of ``random_monomial_algebra`` that have a relation;
    a third of its draws have none, as a relation word stops at a sink."""
    algebras = []
    while len(algebras) < count:
        pres = random_monomial_algebra(rng)
        if pres.relations:
            algebras.append(pres)
    return algebras


def ext_pool(pres, rng):
    """Simples, projectives and a path quotient P_v/qA per vertex v."""
    pool = module_pool(pres)
    for v in pres.quiver.vertices:
        longer = [p for ps in _paths_from(pres, v).values() for p in ps if p.arrows]
        if longer:
            pool.append(path_quotient(pres, v, [rng.choice(longer)]))
    return pool


def test_ext_matches_the_per_summand_count_on_random_monomial_algebras():
    rng = random.Random(13)
    algebras = [parse_presentation(t) for t in (FREE_SQUARE, TWO_LOOPS_WITH_TAIL)]
    algebras += [random_monomial_algebra(rng) for _ in range(80)]
    algebras += random_algebras_with_relations(random.Random(29), 150)
    above_one = 0
    for pres in algebras:
        pool = ext_pool(pres, rng)
        for M in pool:
            for N in rng.sample(pool, min(2, len(pool))):
                expected = ext_counts_per_summand(M, N, 6)
                assert [ext_dim(pres, M, N, h) for h in range(7)] == expected
                above_one += max(expected) > 1
    # the sample reaches resolutions whose multiplicities grow
    assert above_one > 20, above_one


def test_walks_match_the_relation_checking_searches():
    # the random family of the per-summand count and its draws that have a
    # relation, one with relations up to length 4, k<a,b>/(a,b)^2 and
    # relabeled Lambda(r,s,t)
    rng = random.Random(13)
    algebras = [random_monomial_algebra(rng) for _ in range(80)]
    algebras += random_algebras_with_relations(random.Random(29), 150)
    rng = random.Random(17)
    algebras += [random_monomial_algebra(rng, longest=4) for _ in range(40)]
    texts = (FREE_SQUARE, A4_ABC, CUBED_LOOP, TWO_BRANCHES)
    algebras += [parse_presentation(t) for t in texts]
    algebras += [
        relabel(build_lambda(*rst), random.Random(i))
        for i, rst in enumerate([(1, 1, 0), (1, 3, 2), (2, 2, 1), (3, 4, 2)])
    ]
    longest = Counter()
    for pres in algebras:
        longest[pres._maxrel] += 1
        searched = []
        for v in pres.quiver.vertices:
            by_search = paths_by_search(pres, v)
            assert list(_paths_from(pres, v).items()) == list(by_search.items())
            searched += [p for ps in by_search.values() for p in ps]
        assert path_basis(pres) == sorted(searched, key=lambda p: p.sort_key())
        for x in path_basis(pres):
            assert _annihilator_generators(pres, x) == annihilators_by_products(
                pres, x
            )
    # no relation, and longest relations of length 2 to 4: window widths 0 to 3
    assert all(longest[n] >= 5 for n in (0, 2, 3, 4)), longest


def test_hom_ops_form_no_path_product(monkeypatch, capsys):
    # generators walk the relation automaton and surviving products are
    # looked up among kept words, so no product is formed
    def refuse(self, p, q):
        raise AssertionError("a hom op formed a path product")

    monkeypatch.setattr(BoundQuiverPresentation, "path_product", refuse)
    for s in (1, 2, 3):
        for t in (0, 1, 2):
            for src in _string_names(s, t):
                for dst in _string_names(s, t):
                    argv = ["hom", "--lambda", str(s), str(s), str(t)]
                    argv += ["--from", src, "--to", dst, "--max-shift", "7"]
                    assert cli.main(argv) == 0
    capsys.readouterr()
    # path quotients over a non-gentle algebra with a relation of length 3
    pres = parse_presentation(A4_ABC)
    pool = ext_pool(pres, random.Random(3))
    assert len(pool) > 8
    for M in pool:
        for N in pool:
            table = hom_table(pres, M, N, 5)
            assert list(table.entries) == [ext_dim(pres, M, N, h) for h in range(6)]


def test_ext_reads_high_degrees_by_period():
    L = build_lambda(3, 3, 2)
    X, Y = _named(L, "X1"), _named(L, "Y-2")
    for h in (10**9, 10**9 + 1, 10**9 + 2):
        assert ext_dim(L, X, Y, h) == _closed_form_hom(3, "X1", "Y-2", h)


def test_ext_of_growing_resolutions_is_exact():
    pres = parse_presentation(FREE_SQUARE)
    S = simple_module(pres, "0")
    # the kth term of the resolution of S is 2^k copies of P_0
    assert ext_dim(pres, S, S, 200) == 2**200
    assert [ext_dim(pres, S, S, h) for h in range(6)] == [2**h for h in range(6)]


def tail_turned_out(pres):
    """``pres`` with its tail arrows turned to point away from the cycle.

    For Lambda(r,s,t) with t >= 1 this is still gentle with one cycle whose
    relations all run one way, so it fails the clock condition and is
    derived discrete, derived equivalent to Lambda(r,s,t); and P_0 now has
    two arrows on top.
    """
    q = pres.quiver
    arrows = [
        (a, tgt, src) if a.startswith("a-") else (a, src, tgt)
        for a, (src, tgt) in q.arrows.items()
    ]
    return BoundQuiverPresentation(
        Quiver(q.vertices, arrows), [rel.arrows for rel in pres.relations]
    )


def test_ext_between_cyclic_modules_obeys_the_hom_hammock_bound():
    # Broomhead-Pauksztello-Ploog (Math. Z. 2017): Hom between indecomposables
    # of D^b(Lambda(r,s,t)) has dimension at most 2.  P_v and its quotients
    # by one path, or by two paths from v neither of which is a prefix of the
    # other, have a simple top, so they are indecomposable.  Over Lambda every
    # P_v is uniserial, so quotients by two such paths live over the algebras
    # with the tail turned out (t = 1 keeps the test near a second).  The
    # inputs are relabeled, so nothing here leans on the literal labelling.
    over, by_two = [], 0
    for s in range(1, 4):
        for r in range(1, s + 1):
            for t in range(3):
                literal = build_lambda(r, s, t)
                turned = [tail_turned_out(literal)] if t == 1 else []
                for alg in [literal, *turned]:
                    pres = relabel(alg, random.Random(100 * r + 10 * s + t))
                    [nf] = lambda_normal_form(pres).components
                    assert nf.descriptor == LambdaDescriptor(r, s, t)
                    basis = [q for q in path_basis(pres) if len(q)]
                    objs = [indec_projective(pres, v) for v in pres.quiver.vertices]
                    objs += [path_quotient(pres, q.source, [q]) for q in basis]
                    by_two_paths = [
                        path_quotient(pres, p.source, [p, q])
                        for i, p in enumerate(basis)
                        for q in basis[i + 1 :]
                        if p.source == q.source
                        and p.arrows != q.arrows[: len(p)]
                        and q.arrows != p.arrows[: len(q)]
                    ]
                    objs += by_two_paths
                    by_two += len(by_two_paths)
                    over += [
                        ((r, s, t), M, N, h)
                        for M in objs
                        for N in objs
                        for h in range(2 * s + t + 3)
                        if ext_dim(pres, M, N, h) > 2
                    ]
    assert not over, over[:5]
    assert by_two == 13, by_two  # quotients by two paths in the sample


# -- hom tables ------------------------------------------------------------------------


def test_hom_table_frozen_values():
    L110 = build_lambda(1, 1, 0)
    X0 = build_string_object(L110, "X", 0)
    assert hom_table(L110, X0, X0, 4).entries == (1, 1, 1, 1, 1)

    L220 = build_lambda(2, 2, 0)
    X0 = build_string_object(L220, "X", 0)
    assert hom_table(L220, X0, X0, 4).entries == (1, 0, 1, 0, 1)

    L221 = build_lambda(2, 2, 1)
    Y = build_string_object(L221, "Y", -1)
    table = hom_table(L221, Y, Y, 4)
    assert table.entries == (1, 0, 1, 0, 1)

    zero = RepModule(L221, {}, {})
    assert hom_table(L221, zero, Y, 4).entries == (0,) * 5
    assert hom_table(L221, Y, zero, 4).entries == (0,) * 5
    assert hom_table(L221, zero, zero, 4).entries == (0,) * 5


def test_hom_table_off_lambda_equals_ext_dim():
    # hom_table takes any finite dimensional monomial input, not only
    # Lambda(r,s,t); TWO_LOOPS_WITH_TAIL is not gentle
    for text in (A2, TWO_LOOPS_WITH_TAIL):
        pres = parse_presentation(text)
        pool = module_pool(pres)
        pool.append(module_direct_sum(pool[:3]))
        for M in pool:
            for N in pool:
                expected = tuple(ext_dim(pres, M, N, h) for h in range(7))
                assert hom_table(pres, M, N, 6).entries == expected


def test_hom_table_field_independent_spot():
    L = build_lambda(2, 2, 1)
    F = GF(32003)
    a = hom_table(L, build_string_object(L, "Y", -1), build_string_object(L, "Y", -1), 5)
    b = hom_table(
        L,
        build_string_object(L, "Y", -1, F),
        build_string_object(L, "Y", -1, F),
        5,
    )
    assert a.entries == b.entries


# (Lambda(s,s,t), source, target, max shift, dims), by the CLI and the library
_SPOT_TABLES = [
    ((2, 2, 1), "X0", "X1", 6, (0, 1, 0, 1, 0, 1, 0)),
    ((2, 2, 1), "Y-1", "X0", 4, (0, 0, 1, 0, 1)),
    ((3, 3, 2), "X1", "Y-2", 5, (0, 0, 1, 0, 0, 1)),
    ((3, 3, 2), "Y-2", "Y-1", 6, (0, 0, 0, 1, 0, 0, 1)),
]


def _count_linear_algebra(monkeypatch):
    """Count calls of every ``linalg`` function and of ``projective_cover``.

    Reads of a module's matrices count too, as "maps".
    """
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in list(vars(linalg).items()):
        if inspect.isfunction(fn) and fn.__module__ == linalg.__name__:
            monkeypatch.setattr(linalg, name, counted(name, fn))
    monkeypatch.setattr(
        homology, "projective_cover", counted("cover", homology.projective_cover)
    )
    monkeypatch.setattr(RepModule, "maps", property(counted("maps", RepModule.maps.fget)))
    return calls


def test_hom_tables_of_string_objects_do_no_linear_algebra(monkeypatch, capsys):
    # string objects record their covers when built, and a table is counted
    # off paths: no elimination, no cover and no module matrix, by the CLI
    # and by the library
    calls = _count_linear_algebra(monkeypatch)
    F = GF(32003)
    for (r, s, t), src, dst, hmax, dims in _SPOT_TABLES:
        argv = ["hom", "--lambda", str(r), str(s), str(t), "--from", src, "--to", dst]
        assert cli.main(argv + ["--max-shift", str(hmax)]) == 0
        assert json.loads(capsys.readouterr().out)["hom"]["dims"] == list(dims)
        L = build_lambda(r, s, t)
        assert hom_table(L, _named(L, src, F), _named(L, dst, F), hmax).entries == dims
        assert not calls, calls
    L = build_lambda(3, 3, 2)
    X, Y = _named(L, "X1"), _named(L, "Y-2")
    for hmax in (10, 300):
        table = hom_table(L, X, Y, hmax)
        expected = tuple(_closed_form_hom(3, "X1", "Y-2", h) for h in range(hmax + 1))
        assert table.entries == expected
        assert not calls, calls


def test_hom_tables_build_no_relation_view(monkeypatch, capsys):
    # no path check reads the sorted relations view
    def refuse(pres):
        raise AssertionError("the relations view was built")

    monkeypatch.setattr(presentation, "_relation_paths", refuse)
    F = GF(32003)
    for (r, s, t), src, dst, hmax, dims in _SPOT_TABLES:
        argv = ["hom", "--lambda", str(r), str(s), str(t), "--from", src, "--to", dst]
        assert cli.main(argv + ["--max-shift", str(hmax)]) == 0
        assert json.loads(capsys.readouterr().out)["hom"]["dims"] == list(dims)
        L = build_lambda(r, s, t)
        assert hom_table(L, _named(L, src, F), _named(L, dst, F), hmax).entries == dims
    for s in range(1, 6):
        for t in range(4):
            L = build_lambda(s, s, t)
            objects = _string_objects(L, s, t)
            for src, X in objects.items():
                for dst, Y in objects.items():
                    expected = tuple(_closed_form_hom(s, src, dst, h) for h in range(13))
                    assert hom_table(L, X, Y, 12).entries == expected, (s, t, src, dst)


def _traced_lines(work):
    """Line events of ``work()`` in frames of ``homology`` and ``presentation``:
    a count of the interpreted work, whatever the machine's speed."""
    files = {homology.__file__, presentation.__file__}
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


def test_hom_work_grows_linearly_with_its_objects():
    # X<s/2> to Y<-t/2> over Lambda(s,s,s/2): the objects grow linearly in s,
    # so four times s must cost at most about four times the work
    def work(s):
        L = build_lambda(s, s, s // 2)

        def table():
            X = build_string_object(L, "X", s // 2)
            Y = build_string_object(L, "Y", -(s // 4))
            hom_table(L, X, Y, 50)

        return _traced_lines(table)

    small, large = work(400), work(1600)
    assert large <= 4.4 * small, (small, large)


def _named(L, name, field=QQ):
    """The string object called ``X<p>`` or ``Y<-q>`` as on the command line."""
    return build_string_object(L, name[0], int(name[1:]), field)


def _string_names(s, t):
    return [f"X{p}" for p in range(s)] + [f"Y{-q}" for q in range(1, t + 1)]


def _string_objects(L, s, t):
    return {name: _named(L, name) for name in _string_names(s, t)}


def _closed_form_hom(s, src, dst, h):
    """dim Hom(A, B[h]) between string objects over Lambda(s,s,t), by rule.

    With phi(X_p) = p, phi(Y_-q) = 0, delta(X_p) = 0 and delta(Y_-q) = q:
    1 iff h = phi(B) - phi(A) mod s, except 0 at h = 0 when
    delta(A) > delta(B).  The rule follows the hom-hammocks of
    Broomhead-Pauksztello-Ploog (Discrete derived categories I, 2017); it
    is an oracle here, not derived in code.
    """
    (phi_a, delta_a), (phi_b, delta_b) = _phi_delta(src), _phi_delta(dst)
    if h == 0 and delta_a > delta_b:
        return 0
    return int((h - phi_b + phi_a) % s == 0)


def _phi_delta(name):
    index = int(name[1:])
    return (index, 0) if name[0] == "X" else (0, -index)


@pytest.mark.parametrize("s,t", [(7, 4), (9, 0)])
def test_hom_tables_match_the_closed_form(s, t):
    L = build_lambda(s, s, t)
    objs = _string_objects(L, s, t)
    hmax = 3 * s + t + 3
    for a, X in objs.items():
        for b, Y in objs.items():
            expected = tuple(_closed_form_hom(s, a, b, h) for h in range(hmax + 1))
            assert hom_table(L, X, Y, hmax).entries == expected, (a, b)


def test_long_hom_table_matches_the_closed_form():
    L = build_lambda(5, 5, 3)
    for hmax in (1000, 10_000):
        expected = tuple(_closed_form_hom(5, "Y-2", "Y-1", h) for h in range(hmax + 1))
        assert hom_table(L, _named(L, "Y-2"), _named(L, "Y-1"), hmax).entries == expected


def test_hom_table_work_does_not_grow_with_hmax(monkeypatch):
    L = build_lambda(3, 3, 2)
    X, Y = _named(L, "X1"), _named(L, "Y-2")
    calls = Counter()
    generators = homology._annihilator_generators

    def counted(pres, x):
        calls[x] += 1
        return generators(pres, x)

    monkeypatch.setattr(homology, "_annihilator_generators", counted)
    seen = []
    for hmax in (10, 10_000):
        calls.clear()
        table = hom_table(L, X, Y, hmax)
        assert table.entries[-1] == _closed_form_hom(3, "X1", "Y-2", hmax)
        # one search per distinct path of the resolution
        assert set(calls.values()) == {1}, calls
        seen.append(sum(calls.values()))
    assert seen[0] == seen[1], seen


def test_string_objects_have_no_maps_to_tail_projectives():
    # RHom(Y_q, P_q) vanishes; Hom(X_p, P_q[h]) vanishes for h != 0
    for s, t in [(1, 1), (2, 1), (2, 2)]:
        L = build_lambda(s, s, t)
        for q in range(-t, 0):
            Y = build_string_object(L, "Y", q)
            P = indec_projective(L, str(q))
            assert hom_table(L, Y, P, 7).entries == (0,) * 8
        for p in range(s):
            X = build_string_object(L, "X", p)
            P = indec_projective(L, str(-1))
            assert hom_table(L, X, P, 7).entries[1:] == (0,) * 7


# -- global dimension --------------------------------------------------------------------


def test_infinite_gldim_check():
    assert infinite_gldim_check(build_lambda(2, 2, 0)) == "yes"
    assert infinite_gldim_check(build_lambda(3, 3, 2)) == "yes"
    assert infinite_gldim_check(build_lambda(1, 2, 0)) == "no"
    assert infinite_gldim_check(parse_presentation(A2)) == "no"


def test_infinite_gldim_check_non_gentle():
    assert infinite_gldim_check(parse_presentation(A4_ABC)) == "no"
    # k[a]/a^3: the syzygies of the simple alternate between a^2 A and aA
    assert infinite_gldim_check(parse_presentation(CUBED_LOOP)) == "yes"


def test_infinite_gldim_check_two_loops():
    # the minimal resolutions grow exponentially, the annihilator graph does not
    assert infinite_gldim_check(parse_presentation(TWO_LOOPS_WITH_TAIL)) == "yes"


def test_infinite_gldim_check_needs_finite_dimension():
    with pytest.raises(InfiniteDimensionalError):
        infinite_gldim_check(parse_presentation("vertex 0\narrow a 0 0\n"))


def _sum_of_path_quotients(L, zero):
    """String objects, projectives and simples over L, and ``zero``, summed."""
    parts = [_named(L, name) for name in ("Y-2", "X1", "X0")]
    parts += [indec_projective(L, "2"), simple_module(L, "-1"), simple_module(L, "0")]
    return module_direct_sum(parts + [zero])


def test_sums_of_path_quotients_carry_their_covers(monkeypatch):
    L = build_lambda(3, 3, 2)
    zero = RepModule(L, {}, {})
    given = _as_matrices(_sum_of_path_quotients(L, zero))
    others = [_named(L, "X2"), indec_projective(L, "-2"), given]
    # the matrix references: the stalk route, and resolutions from the rref cover
    expected_from, expected_into = [], []
    for N in others:
        expected_from.append([hom_shift_dim(resolve(given, h + 1), N, h) for h in range(5)])
        expected_into.append([hom_shift_dim(resolve(N, h + 1), given, h) for h in range(5)])
    rref_cover = homology._path_cover(given)
    rref_resolution = resolve(given, 6)

    def refuse(*args, **kwargs):
        raise AssertionError("a sum of path quotients needs no linear algebra")

    for name, fn in list(vars(linalg).items()):
        if inspect.isfunction(fn) and fn.__module__ == linalg.__name__:
            monkeypatch.setattr(linalg, name, refuse)
    monkeypatch.setattr(homology, "projective_cover", refuse)
    summed = _sum_of_path_quotients(L, zero)
    # the record is the one the rref route lists, so resolutions agree too
    assert summed._cover == rref_cover
    C = resolve(summed, 6)
    assert (C.summands, C.diffs) == (rref_resolution.summands, rref_resolution.diffs)
    nested = module_direct_sum([summed])
    assert nested._cover == rref_cover
    for N, expected in zip(others[:2], expected_from):
        assert [ext_dim(L, summed, N, h) for h in range(5)] == expected
    for M, expected in zip(others[:2], expected_into):
        assert [ext_dim(L, M, summed, h) for h in range(5)] == expected
    monkeypatch.undo()
    # its matrices are the parts' stacked
    assert summed == given and summed.maps == given.maps
    assert [ext_dim(L, summed, summed, h) for h in range(5)] == expected_from[2]


def test_sums_with_a_matrix_given_part_take_the_rref_cover():
    L = build_lambda(2, 2, 1)
    parts = [_as_matrices(_named(L, "Y-1")), simple_module(L, "0")]
    summed = module_direct_sum(parts)
    assert summed._cover is None
    reference = module_direct_sum([_named(L, "Y-1"), simple_module(L, "0")])
    assert summed == reference
    assert homology._path_cover(summed) == reference._cover
