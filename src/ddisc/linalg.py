"""Exact linear algebra over QQ and GF(p).

Rank, reduced row echelon form and nullspaces are the hot kernels of the
whole package: hom tables reduce to them.  They are plain Gaussian
elimination on Python numbers, ``Fraction`` over the rationals and
canonical residues over GF(p), so results are exact for every prime,
however large.  Outputs are canonical (fully reduced rref, unit vectors at
the free columns), so callers may compare them directly.

Matrices are lists of rows; linear maps act on row vectors, i.e. a map
``V -> W`` is stored as a ``dim V x dim W`` matrix and composition is plain
matrix product in application order.
"""

from __future__ import annotations

from fractions import Fraction


def rank(rows, ncols, field) -> int:
    if not rows or ncols == 0:
        return 0
    if field.p is None:
        return _rank_qq(rows, ncols)
    return _rank_mod(rows, ncols, field.p)


def rref(rows, ncols, field):
    """Canonical reduced row echelon form; returns ``(rows, pivot_cols)``."""
    if not rows or ncols == 0:
        return [list(r) for r in rows], []
    if field.p is None:
        return _rref_qq(rows, ncols)
    return _rref_mod(rows, ncols, field.p)


def right_nullspace(rows, ncols, field):
    """Basis of ``{x : A x = 0}`` as row vectors, plus the free columns.

    The basis is canonical: vector ``i`` has entry 1 in column
    ``free_cols[i]`` and 0 in every other free column, so coordinates of a
    vector in the span can be read off at the free columns.
    """
    red, pivots = rref(rows, ncols, field)
    pivot_set = set(pivots)
    free_cols = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free_cols:
        vec = [field.coerce(0)] * ncols
        vec[f] = field.coerce(1)
        for i, pc in enumerate(pivots):
            vec[pc] = field.reduce(-red[i][f])
        basis.append(vec)
    return basis, free_cols


def left_nullspace(rows, ncols, field):
    """Basis of ``{x : x A = 0}`` (row vectors of length ``len(rows)``)."""
    nrows = len(rows)
    if nrows == 0:
        return [], []
    tr = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
    return right_nullspace(tr, nrows, field)


def coords_in_span(basis, free_cols, vec, field):
    """Coordinates of ``vec`` in the span of a canonical nullspace basis.

    Returns ``None`` when ``vec`` is not in the span.
    """
    coeffs = [vec[f] for f in free_cols]
    residual = list(vec)
    for c, b in zip(coeffs, basis):
        if not field.is_zero(c):
            for j, x in enumerate(b):
                residual[j] = field.reduce(residual[j] - c * x)
    if any(not field.is_zero(x) for x in residual):
        return None
    return coeffs


def mat_mul(a, b, ncols_b, field):
    """Product of row-major matrices; ``a`` is m x k, ``b`` is k x n."""
    out = []
    for row in a:
        new = [field.coerce(0)] * ncols_b
        for i, x in enumerate(row):
            if field.is_zero(x):
                continue
            brow = b[i]
            for j in range(ncols_b):
                y = brow[j]
                if not field.is_zero(y):
                    new[j] = field.reduce(new[j] + x * y)
        out.append(new)
    return out


def zeros(nrows, ncols, field):
    z = field.coerce(0)
    return [[z] * ncols for _ in range(nrows)]


def identity(n, field):
    m = zeros(n, n, field)
    one = field.coerce(1)
    for i in range(n):
        m[i][i] = one
    return m


# -- elimination kernels ---------------------------------------------------------


def _rank_qq(rows, ncols):
    """Rank of a matrix with int/Fraction entries."""
    work = [list(r) for r in rows]
    rank = 0
    col = 0
    while rank < len(work) and col < ncols:
        piv = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        lead = prow[col]
        for i in range(rank + 1, len(work)):
            f = work[i][col]
            if f != 0:
                f = Fraction(f, 1) / lead
                row = work[i]
                for j in range(col, ncols):
                    row[j] = row[j] - f * prow[j]
        rank += 1
        col += 1
    return rank


def _rref_qq(rows, ncols):
    """Reduced row echelon form over the rationals.

    Returns ``(rref_rows, pivot_cols)`` with all rows kept (zero rows at the
    bottom) and entries as ``Fraction``.
    """
    work = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        lead = prow[col]
        if lead != 1:
            for j in range(col, ncols):
                prow[j] /= lead
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col]
                row = work[i]
                for j in range(col, ncols):
                    row[j] -= f * prow[j]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return work, pivots


def _rank_mod(rows, ncols, p):
    """Rank of an integer matrix over GF(p)."""
    work = [[x % p for x in r] for r in rows]
    rank = 0
    col = 0
    while rank < len(work) and col < ncols:
        piv = None
        for i in range(rank, len(work)):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        inv = pow(prow[col], -1, p)
        for i in range(rank + 1, len(work)):
            f = work[i][col]
            if f:
                f = f * inv % p
                row = work[i]
                for j in range(col, ncols):
                    row[j] = (row[j] - f * prow[j]) % p
        rank += 1
        col += 1
    return rank


def _rref_mod(rows, ncols, p):
    """Reduced row echelon form over GF(p); entries in ``[0, p)``."""
    work = [[x % p for x in r] for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(work)):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        inv = pow(prow[col], -1, p)
        if inv != 1:
            for j in range(col, ncols):
                prow[j] = prow[j] * inv % p
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                row = work[i]
                for j in range(col, ncols):
                    row[j] = (row[j] - f * prow[j]) % p
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return work, pivots
