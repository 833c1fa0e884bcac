"""Exact rank kernels against each other and against sympy."""

import sympy
from hypothesis import given, settings, strategies as st

from bergersphere.exactlinalg import fraction_rank, integer_rank

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
def test_integer_rank_matches_fraction_rank_and_sympy(rows):
    ncols = len(rows[0])
    assert integer_rank(rows) == fraction_rank(rows, ncols) == sympy.Matrix(rows).rank()
