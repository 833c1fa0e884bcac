"""The exact rank and kernel against sympy."""

import sympy
from hypothesis import given, settings, strategies as st

from bergersphere.exactlinalg import integer_rank, kernel_basis

ENTRY = st.one_of(st.just(0), st.integers(-9, 9))


@st.composite
def integer_matrices(draw):
    """Small integer matrices, dense or sparse, and products of two thin
    factors, which are rank deficient by construction."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        return draw(st.lists(st.lists(ENTRY, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
    inner = draw(st.integers(1, 3))
    left = draw(st.lists(st.lists(ENTRY, min_size=inner, max_size=inner),
                         min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(ENTRY, min_size=ncols, max_size=ncols),
                          min_size=inner, max_size=inner))
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(rows=integer_matrices())
def test_integer_rank_matches_sympy(rows):
    assert integer_rank(rows) == sympy.Matrix(rows).rank()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(rows=integer_matrices())
def test_kernel_basis_is_an_integer_kernel_basis(rows):
    ncols = len(rows[0])
    before = [list(r) for r in rows]
    basis = kernel_basis(rows, ncols)
    assert rows == before
    assert all(type(x) is int for vec in basis for x in vec)
    assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows for vec in basis)
    assert len(basis) == ncols - sympy.Matrix(rows).rank()
    if basis:
        assert sympy.Matrix(basis).rank() == len(basis)
