from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lierep.linalg import (SpanBasis, identity, kernel_basis, mat_inv,
                           mat_mul, nullity, pivot_columns, rank_int,
                           row_echelon, solve)

matrices = st.integers(1, 6).flatmap(
    lambda n: st.integers(1, 6).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-7, 7), min_size=m, max_size=m),
            min_size=n, max_size=n)))


def reference_rank(rows):
    if not any(any(r) for r in rows):
        return 0
    return len(row_echelon([[Fraction(x) for x in r] for r in rows])[1])


@given(matrices)
def test_rank_int_matches_rational_elimination(mat):
    assert rank_int(mat) == reference_rank(mat)


@given(st.integers(1, 5).flatmap(lambda r: st.tuples(
    st.lists(st.lists(st.integers(-5, 5), min_size=r, max_size=r),
             min_size=1, max_size=6),
    st.lists(st.lists(st.integers(-5, 5), min_size=6, max_size=6),
             min_size=r, max_size=r))))
def test_rank_int_on_low_rank_products(ab):
    a, b = ab
    mat = mat_mul(a, b)
    assert rank_int(mat) == reference_rank(mat)


@given(matrices)
def test_kernel_dimension(mat):
    ncols = len(mat[0])
    basis = kernel_basis(mat, ncols)
    assert len(basis) == ncols - reference_rank(mat)
    for vec in basis:
        image = [sum(row[i] * vec[i] for i in range(ncols)) for row in mat]
        assert all(x == 0 for x in image)
    assert nullity(mat, ncols) == len(basis)


def test_solve_and_inverse():
    a = [[2, 1], [1, 1]]
    x = solve(a, [3, 2])
    assert x == [Fraction(1), Fraction(1)]
    inv = mat_inv(a)
    assert mat_mul(inv, a) == [[1, 0], [0, 1]]


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_mat_inv_exact_or_singular(a):
    n = len(a)
    if rank_int(a) == n:
        inv = mat_inv(a)
        assert mat_mul(inv, a) == identity(n) == mat_mul(a, inv)
    else:
        with pytest.raises(ValueError):
            mat_inv(a)
    # a repeated row (or a zero 1x1) is singular whatever a is
    with pytest.raises(ValueError):
        mat_inv(a[:-1] + [a[0]] if n > 1 else [[0]])


def test_pivot_columns_order():
    mat = [[0, 1, 2], [0, 2, 4], [0, 0, 1]]
    assert pivot_columns(mat) == [1, 2]


@given(matrices)
def test_span_basis_incremental(mat):
    ncols = len(mat[0])
    span = SpanBasis(ncols)
    grew = 0
    for row in mat:
        if span.add(row):
            grew += 1
    rank = reference_rank(mat)
    assert grew == span.dim == rank
    for row in mat:
        assert span.contains(row)
    for c in range(ncols):
        e_c = [int(j == c) for j in range(ncols)]
        assert span.contains(e_c) == (reference_rank(mat + [e_c]) == rank)
