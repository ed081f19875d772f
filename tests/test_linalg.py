from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from lierep.linalg import (SpanBasis, det, identity, kernel_basis, mat_inv,
                           mat_mul, nullity, rank)


def _pivot_columns(rows):
    """Pivot columns of the reduced echelon form, in increasing order."""
    span = SpanBasis(len(rows[0]))
    for row in rows:
        span.add(row)
    return sorted(span.pivots)


def reference_echelon(rows):
    """Gauss-Jordan over Fraction: (reduced echelon rows, pivot columns).

    Zero rows are dropped and each pivot is scaled to 1.  This is the
    elimination the library ran before it went fraction-free; the tests
    keep it as the oracle.
    """
    work = [[Fraction(x) for x in r] for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def reference_rank(rows):
    return len(reference_echelon(rows)[1])


def reference_kernel(rows, ncols):
    """One kernel vector per free column, read off the reduced echelon form."""
    ech, pivots = reference_echelon(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -ech[r][f]
        basis.append(vec)
    return basis


def reference_solve(a, b):
    """Columns x with a x = b[:, j], a square and nonsingular."""
    n = len(a)
    ech, pivots = reference_echelon([list(ra) + list(rb)
                                     for ra, rb in zip(a, b)])
    assert pivots[:n] == list(range(n))
    return [row[n:] for row in ech]


def reference_det(a):
    """Leibniz sum over permutations."""
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[j] > perm[i] for i in range(n)
                           for j in range(i))
        term = Fraction(sign)
        for i, p in enumerate(perm):
            term *= a[i][p]
        total += term
    return total


def _matrices(elements):
    return st.integers(1, 6).flatmap(
        lambda n: st.integers(1, 6).flatmap(
            lambda m: st.lists(
                st.lists(elements, min_size=m, max_size=m),
                min_size=n, max_size=n)))


# integer rows, and the rows realizations feed in: Fraction entries with
# ints mixed in
matrices = st.one_of(
    _matrices(st.integers(-7, 7)),
    _matrices(st.one_of(st.integers(-7, 7), st.fractions(
        min_value=-7, max_value=7, max_denominator=6))))


@given(matrices)
def test_rank_matches_reference_elimination(mat):
    assert rank(mat) == reference_rank(mat)
    assert _pivot_columns(mat) == reference_echelon(mat)[1]


@given(st.integers(1, 5).flatmap(lambda r: st.tuples(
    st.lists(st.lists(st.integers(-5, 5), min_size=r, max_size=r),
             min_size=1, max_size=6),
    st.lists(st.lists(st.integers(-5, 5), min_size=6, max_size=6),
             min_size=r, max_size=r))))
def test_rank_on_low_rank_products(ab):
    a, b = ab
    mat = mat_mul(a, b)
    assert rank(mat) == reference_rank(mat)


@given(matrices)
def test_kernel_dimension(mat):
    ncols = len(mat[0])
    basis = kernel_basis(mat, ncols)
    assert basis == reference_kernel(mat, ncols)
    assert all(type(x) is Fraction for vec in basis for x in vec)
    assert nullity(mat, ncols) == len(basis)
    assert kernel_basis([], ncols) == reference_kernel([], ncols)


def test_small_inverse():
    a = [[2, 1], [1, 1]]
    inv = mat_inv(a)
    assert inv == reference_solve(a, identity(2))
    assert mat_mul(inv, a) == [[1, 0], [0, 1]]


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(-4, 4),
                       st.fractions(min_value=-4, max_value=4,
                                    max_denominator=4)),
             min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_mat_inv_exact_or_singular(a):
    n = len(a)
    assert det(a) == reference_det(a)
    if reference_rank(a) == n:
        inv = mat_inv(a)
        assert inv == reference_solve(a, identity(n))
        assert mat_mul(inv, a) == identity(n) == mat_mul(a, inv)
    else:
        assert det(a) == 0
        with pytest.raises(ValueError):
            mat_inv(a)
    # a repeated row (or a zero 1x1) is singular whatever a is
    singular = a[:-1] + [a[0]] if n > 1 else [[0]]
    assert det(singular) == 0
    with pytest.raises(ValueError):
        mat_inv(singular)


def test_pivot_columns_order():
    mat = [[0, 1, 2], [0, 2, 4], [0, 0, 1]]
    assert _pivot_columns(mat) == [1, 2]


@given(matrices)
def test_span_basis_incremental(mat):
    ncols = len(mat[0])
    span = SpanBasis(ncols)
    grew = 0
    for row in mat:
        if span.add(row):
            grew += 1
    rank_ = reference_rank(mat)
    assert grew == span.dim == rank_
    assert all(type(x) is int for row in span.rows for x in row)
    for row in mat:
        assert span.contains(row)
    for c in range(ncols):
        e_c = [int(j == c) for j in range(ncols)]
        assert span.contains(e_c) == (reference_rank(mat + [e_c]) == rank_)
    half = [Fraction(x, 2) for x in mat[0]]
    assert span.contains(half)
