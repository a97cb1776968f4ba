"""Exact linear algebra over QQ and GF(p).

Rank and reduced row echelon form are the elimination kernels of the
package: a projective cover takes one rref per vertex and checks that it
is onto with one rank per vertex.  Path quotients are read off paths with
no rref, and resolutions past the cover, and the Ext counts read off
them, do no linear algebra.
``rank`` and ``rref`` share one sparse Gaussian elimination on rows stored
as ``{col: value}``.  Over the rationals it is fraction-free: rows are
scaled to integers, combined by cross-multiplying and divided by the gcd
of their entries.  Over GF(p) entries are canonical residues, so results
are exact for every prime, however large.  ``rref`` output is canonical (fully reduced, with
``Fraction`` entries over QQ), so callers may compare it directly.

Matrices are lists of rows; linear maps act on row vectors, i.e. a map
``V -> W`` is stored as a ``dim V x dim W`` matrix and composition is plain
matrix product in application order.  ``rank`` also takes rows given as
:class:`SparseRow`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class SparseRow(list):
    """A matrix row as a list of ``(col, value)`` pairs with nonzero values."""

    __slots__ = ()


def rank(rows, ncols, field) -> int:
    """Rank of a matrix whose rows are dense lists or :class:`SparseRow`."""
    if not rows or ncols == 0:
        return 0
    return len(_echelon(rows, field.p))


def rref(rows, ncols, field):
    """Canonical reduced row echelon form; returns ``(rows, pivot_cols)``."""
    if not rows or ncols == 0:
        return [list(r) for r in rows], []
    p = field.p
    echelon = _echelon(rows, p)
    pivots = sorted(echelon)
    # right to left, so the rows used to clear a pivot row are already reduced
    for c in reversed(pivots):
        row = echelon[c]
        for later in [j for j in row if j > c and j in echelon]:
            _eliminate(row, echelon[later], later, p)
    zero = field.coerce(0)
    out = []
    for c in pivots:
        row = echelon[c]
        lead = row[c]
        dense = [zero] * ncols
        for j, x in row.items():
            dense[j] = x if p is not None else Fraction(x, lead)
        out.append(dense)
    out.extend([zero] * ncols for _ in range(len(rows) - len(pivots)))
    return out, pivots


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




# -- elimination ---------------------------------------------------------------


def _echelon(rows, p):
    """Row echelon form over GF(p), or over QQ when ``p`` is None.

    Returns ``{pivot col: row}`` where each row is a ``{col: value}`` dict
    whose least column is its pivot.  Rows are reduced one at a time
    against the pivot rows found so far.  Over GF(p) pivot rows are monic;
    over QQ every row holds integers with gcd 1.
    """
    echelon = {}
    for row in rows:
        row = _normalize(row, p)
        while row:
            c = min(row)
            prow = echelon.get(c)
            if prow is None:
                if p is not None and row[c] != 1:
                    inv = pow(row[c], -1, p)
                    row = {j: x * inv % p for j, x in row.items()}
                echelon[c] = row
                break
            _eliminate(row, prow, c, p)
    return echelon


def _normalize(row, p):
    """The nonzero entries of a dense or sparse row as a ``{col: value}`` dict.

    Over GF(p) the values are residues; over QQ the row is scaled to
    integers with gcd 1.
    """
    items = row if isinstance(row, SparseRow) else enumerate(row)
    if p is not None:
        return {j: r for j, x in items if (r := x % p)}
    out = {j: x for j, x in items if x}
    if out:
        den = lcm(*(x.denominator for x in out.values()))
        out = {j: x.numerator * (den // x.denominator) for j, x in out.items()}
        _divide_content(out)
    return out


def _eliminate(row, prow, c, p):
    """Clear column ``c`` of ``row`` in place with the pivot row ``prow``."""
    if p is not None:
        f = row[c]  # prow is monic
        for j, x in prow.items():
            y = (row.get(j, 0) - f * x) % p
            if y:
                row[j] = y
            else:
                del row[j]
        return
    g = gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, x in prow.items():
        y = row.get(j, 0) - b * x
        if y:
            row[j] = y
        else:
            del row[j]
    _divide_content(row)


def _divide_content(row):
    """Divide an integer row in place by the gcd of its entries."""
    g = gcd(*row.values())
    if g != 1:
        for j in row:
            row[j] //= g
