"""Exact linear algebra over QQ and GF(p).

Rank and pivot columns are the elimination kernels of the package: a
projective cover takes one echelon form per vertex, reads its pivots, and
checks that it is onto with one rank per vertex.  Path quotients are read
off paths with no elimination, and resolutions past the cover, and the
Ext counts read off them, do no linear algebra.
``rank`` and ``pivots`` share one sparse Gaussian elimination on rows
stored as ``{col: value}``, in the field's own arithmetic: every nonzero
entry is coerced into the field, pivot rows are made monic with the
pivot's inverse, and each update goes through the field's reduction.
Over QQ the entries are ``Fraction``s; over GF(p) they are canonical
residues, so results are exact for every prime, however large.

Matrices are lists of rows; linear maps act on row vectors, i.e. a map
``V -> W`` is stored as a ``dim V x dim W`` matrix and composition is plain
matrix product in application order.  ``rank`` and ``pivots`` also take
rows given as :class:`SparseRow`.
"""

from __future__ import annotations


class SparseRow(list):
    """A matrix row as a list of ``(col, value)`` pairs with nonzero values."""

    __slots__ = ()


def rank(rows, ncols, field) -> int:
    """Rank of a matrix whose rows are dense lists or :class:`SparseRow`."""
    if not rows or ncols == 0:
        return 0
    return len(_echelon(rows, field))


def pivots(rows, ncols, field) -> list:
    """The pivot columns of a row echelon form, sorted."""
    if not rows or ncols == 0:
        return []
    return sorted(_echelon(rows, field))


def mat_mul(a, b, ncols_b, field):
    """Product of row-major matrices; ``a`` is m x k, ``b`` is k x n.

    Entries are coerced into the field first, as ``rank`` and ``pivots`` do,
    so each is false exactly when zero.
    """
    coerce, reduce = field.coerce, field.reduce
    b = [[coerce(y) for y in row[:ncols_b]] for row in b]
    out = []
    for row in a:
        new = [coerce(0)] * ncols_b
        for i, x in enumerate(row):
            if x := coerce(x):
                for j, y in enumerate(b[i]):
                    if y:
                        new[j] = reduce(new[j] + x * y)
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


# -- elimination ---------------------------------------------------------------


def _echelon(rows, field):
    """Row echelon form: ``{pivot col: row}``, each row a ``{col: value}``
    dict of nonzero field elements whose least column is its pivot.

    Rows are reduced one at a time against the monic pivot rows found so
    far.  Field elements are canonical, so each is false exactly when zero.
    """
    echelon = {}
    for row in rows:
        items = row if isinstance(row, SparseRow) else enumerate(row)
        row = {j: y for j, x in items if x and (y := field.coerce(x))}
        while row:
            c = min(row)
            prow = echelon.get(c)
            if prow is None:
                inv = field.inverse(row[c])
                echelon[c] = {j: field.reduce(x * inv) for j, x in row.items()}
                break
            _eliminate(row, prow, c, field)
    return echelon


def _eliminate(row, prow, c, field):
    """Clear column ``c`` of ``row`` in place with the monic pivot row ``prow``."""
    f, reduce = row[c], field.reduce
    for j, x in prow.items():
        if y := reduce(row.get(j, 0) - f * x):
            row[j] = y
        else:
            del row[j]
