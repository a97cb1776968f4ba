"""Linear algebra kernels: canonical outputs, invariants, edge cases."""

import random
from fractions import Fraction

import pytest

import ddisc.linalg as linalg
from ddisc.fields import GF, QQ

LARGE_PRIMES = (4611686018427387847, 2**61 - 1)


def test_rank_hand_values():
    assert linalg.rank([[1, 2], [2, 4]], 2, QQ) == 1
    assert linalg.rank([[0, 1], [1, 0]], 2, QQ) == 2
    assert linalg.rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]], 2, QQ) == 1
    assert linalg.rank([[2, 4], [1, 2]], 2, GF(5)) == 1
    assert linalg.rank([[2, 4], [1, 3]], 2, GF(5)) == 2
    # 2 == -3 mod 5, so this row pair is dependent only over GF(5)
    assert linalg.rank([[5, 10], [1, 2]], 2, QQ) == 1
    assert linalg.rank([[5, 10], [1, 2]], 2, GF(5)) == 1
    # residue products overflow 64 bits here
    for p in LARGE_PRIMES:
        a, b, c = p - 2, p // 3, p // 5
        assert linalg.rank([[a, b], [c * a % p, c * b % p]], 2, GF(p)) == 1
        assert linalg.rank([[a, b], [b, a]], 2, GF(p)) == 2


def test_rref_is_canonical():
    rows, pivots = linalg.rref([[0, 2, 4], [1, 1, 1]], 3, QQ)
    assert pivots == [0, 1]
    assert rows == [[1, 0, -1], [0, 1, 2]]
    rows, pivots = linalg.rref([[2, 4], [3, 6]], 2, GF(7))
    assert pivots == [0]
    assert rows == [[1, 2], [0, 0]]
    for p in LARGE_PRIMES:
        a, b, c = p - 2, p // 3, p // 5
        rows, pivots = linalg.rref([[a, b], [c * a % p, c * b % p]], 2, GF(p))
        assert pivots == [0]
        assert rows == [[1, b * pow(a, -1, p) % p], [0, 0]]
        assert linalg.rref([[a, b], [b, a]], 2, GF(p)) == ([[1, 0], [0, 1]], [0, 1])


def test_rref_keeps_zero_rows():
    rows, pivots = linalg.rref([[1, 1], [1, 1], [1, 1]], 2, QQ)
    assert len(rows) == 3 and pivots == [0]
    assert rows[1] == [0, 0] and rows[2] == [0, 0]


def test_right_nullspace_units_at_free_columns():
    for field in (QQ, GF(5)):
        mat = [[1, 2, 3], [0, 1, 1]]
        basis, free = linalg.right_nullspace(mat, 3, field)
        assert free == [2] and len(basis) == 1
        [b] = basis
        assert b[2] == field.coerce(1)
        for row in mat:
            s = sum(x * y for x, y in zip(row, b))
            assert field.is_zero(field.reduce(s))


def test_left_nullspace_annihilates():
    for field in (QQ, GF(5)):
        mat = [[1, 2], [2, 4], [0, 1]]
        basis, _ = linalg.left_nullspace(mat, 2, field)
        assert len(basis) == 1
        for x in basis:
            image = linalg.mat_mul([list(x)], mat, 2, field)[0]
            assert all(field.is_zero(e) for e in image)


def test_coords_in_span_reads_free_columns():
    mat = [[1, 0, 1, 0], [0, 1, 1, 1]]
    basis, free = linalg.right_nullspace(mat, 4, QQ)
    vec = [sum(2 * b[j] for b in basis) for j in range(4)]
    vec = [vec[j] + basis[0][j] for j in range(4)]  # 3*b0 + 2*b1
    coords = linalg.coords_in_span(basis, free, vec, QQ)
    assert coords == [3, 2]
    assert linalg.coords_in_span(basis, free, [1, 0, 0, 0], QQ) is None


def test_empty_and_degenerate_shapes():
    assert linalg.rank([], 3, QQ) == 0
    assert linalg.rank([[0, 0]], 2, QQ) == 0
    assert linalg.rref([], 2, QQ) == ([], [])
    basis, free = linalg.right_nullspace([], 2, QQ)
    assert free == [0, 1] and len(basis) == 2
    assert linalg.left_nullspace([], 2, QQ) == ([], [])
    assert linalg.mat_mul([], [[1]], 1, QQ) == []


def test_mat_mul_and_identity():
    a = [[1, 2], [3, 4]]
    assert linalg.mat_mul(a, linalg.identity(2, QQ), 2, QQ) == a
    assert linalg.mat_mul(linalg.identity(2, QQ), a, 2, QQ) == a
    b = [[0, 1], [1, 0]]
    assert linalg.mat_mul(a, b, 2, QQ) == [[2, 1], [4, 3]]
    assert linalg.zeros(2, 3, GF(5)) == [[0, 0, 0], [0, 0, 0]]


_QQ_POOL = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]


def _random_entry(rng, field):
    if field.p is None:
        return field.coerce(rng.choice(_QQ_POOL))
    return rng.randrange(field.p)


def _random_matrix(rng, nrows, ncols, field):
    return [[_random_entry(rng, field) for _ in range(ncols)] for _ in range(nrows)]


def _annihilates(vec, rows, field):
    return all(
        field.is_zero(field.reduce(sum(x * y for x, y in zip(row, vec))))
        for row in rows
    )


def test_kernel_invariants_on_random_matrices():
    rng = random.Random(20259)
    fields = [QQ, GF(5), GF(32003), GF(2**61 - 1)]
    for trial in range(80):
        field = fields[trial % len(fields)]
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 6)
        mat = _random_matrix(rng, nrows, ncols, field)
        rank = linalg.rank(mat, ncols, field)
        red, pivots = linalg.rref(mat, ncols, field)
        assert rank == len(pivots), mat
        assert linalg.rref(red, ncols, field) == (red, pivots), mat
        right, free = linalg.right_nullspace(mat, ncols, field)
        assert len(right) == ncols - rank, mat
        assert all(_annihilates(x, mat, field) for x in right), mat
        left, _ = linalg.left_nullspace(mat, ncols, field)
        assert len(left) == nrows - rank, mat
        columns = [list(col) for col in zip(*mat)]
        assert all(_annihilates(y, columns, field) for y in left), mat
        coeffs = [field.coerce(rng.randint(-3, 3)) for _ in right]
        combo = [
            field.reduce(sum(c * x[j] for c, x in zip(coeffs, right)))
            for j in range(ncols)
        ]
        assert linalg.coords_in_span(right, free, combo, field) == coeffs, mat


def test_prime_field_scalar_rules():
    f5 = GF(5)
    assert f5.coerce(Fraction(1, 2)) == 3
    assert f5.coerce(-1) == 4
    with pytest.raises(ZeroDivisionError):
        f5.coerce(Fraction(1, 5))
    for not_prime in (0, 1, 4, 561, 2**61 + 1):
        with pytest.raises(ValueError):
            GF(not_prime)
    assert GF(5) == GF(5) and GF(5) != GF(7) != QQ


# -- sparse kernel against a dense reference -------------------------------------

_SPARSE_FIELDS = (QQ, GF(2), GF(32003), GF(2**61 - 1))
_QQ_NONZERO = [1, -1, 2, -2, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]


def _reference_rref(rows, ncols, field):
    """Dense Gauss-Jordan elimination, one entry at a time."""
    work = [[field.coerce(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if not field.is_zero(work[i][col])), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][col]
        inv = 1 / lead if field.p is None else pow(lead, -1, field.p)
        work[r] = [field.reduce(x * inv) for x in work[r]]
        for i, row in enumerate(work):
            f = row[col]
            if i != r and not field.is_zero(f):
                work[i] = [field.reduce(x - f * y) for x, y in zip(row, work[r])]
        pivots.append(col)
    return work, pivots


def _nonzero_entry(rng, field):
    if field.p is None:
        return rng.choice(_QQ_NONZERO)
    # unreduced representatives too: the kernel must take any integer
    x = rng.randrange(1, field.p)
    return rng.choice([x, x - field.p, x + field.p])


def _sparse_or_banded(rng, field):
    nrows, ncols = rng.randint(0, 12), rng.randint(1, 12)
    if rng.random() < 0.5:
        density = rng.choice([0.1, 0.3, 0.6])
        keep = lambda i, j: rng.random() < density
    else:
        width, slope = rng.randint(0, 2), ncols / max(nrows, 1)
        keep = lambda i, j: abs(j - int(i * slope)) <= width
    mat = [
        [_nonzero_entry(rng, field) if keep(i, j) else 0 for j in range(ncols)]
        for i in range(nrows)
    ]
    if nrows >= 2 and rng.random() < 0.5:
        # a dependent row, so that entries cancel during elimination
        a, b = rng.sample(range(nrows), 2)
        c = _nonzero_entry(rng, field)
        mat.append([field.reduce(x + c * y) for x, y in zip(mat[a], mat[b])])
    if rng.random() < 0.2:
        mat.insert(rng.randint(0, len(mat)), [0] * ncols)
    return mat, ncols


def _as_sparse(mat, field, rng):
    out = []
    for row in mat:
        pairs = [(j, x) for j, x in enumerate(row) if not field.is_zero(x)]
        rng.shuffle(pairs)
        out.append(linalg.SparseRow(pairs))
    return out


def test_sparse_kernel_matches_dense_reference():
    rng = random.Random(4021)
    for trial in range(240):
        field = _SPARSE_FIELDS[trial % len(_SPARSE_FIELDS)]
        mat, ncols = _sparse_or_banded(rng, field)
        expected_rows, expected_pivots = _reference_rref(mat, ncols, field)
        rank = linalg.rank(mat, ncols, field)
        assert rank == len(expected_pivots), (field, mat)
        assert linalg.rank(_as_sparse(mat, field, rng), ncols, field) == rank, (field, mat)
        transpose = [list(col) for col in zip(*mat)] if mat else []
        assert linalg.rank(transpose, len(mat), field) == rank, (field, mat)
        assert linalg.rref(mat, ncols, field) == (expected_rows, expected_pivots), (field, mat)


def test_rref_entry_types_are_canonical():
    rows, _ = linalg.rref([[2, 4, 0], [3, 5, 1], [0, 0, 0]], 3, QQ)
    assert all(type(x) is Fraction for row in rows for x in row)
    rows, _ = linalg.rref([[2, 4, 0], [3, 5, 1], [0, 0, 0]], 3, GF(7))
    assert all(type(x) is int and 0 <= x < 7 for row in rows for x in row)


def test_sparse_rows_with_empty_and_zero_rows():
    sparse = linalg.SparseRow
    for field in _SPARSE_FIELDS:
        assert linalg.rank([sparse(), sparse()], 4, field) == 0
        assert linalg.rank([sparse(), sparse([(3, 1)]), sparse()], 4, field) == 1
        assert linalg.rank([sparse([(0, 1), (2, -1)]), sparse([(2, 1), (0, -1)])], 3, field) == 1
        assert linalg.rank([[0, 0, 0], [0, 0, 0]], 3, field) == 0
        assert linalg.rank([[], []], 0, field) == 0
        assert linalg.rref([[0, 0], [0, 0]], 2, field) == ([[0, 0], [0, 0]], [])
    assert linalg.rank([sparse([(0, 1), (1, 1)]), sparse([(0, 1), (1, -1)])], 2, QQ) == 2
    assert linalg.rank([sparse([(0, 1), (1, 1)]), sparse([(0, 1), (1, -1)])], 2, GF(2)) == 1
