"""The exact rank and kernel against sympy."""

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from bergersphere import exactlinalg
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


@st.composite
def tiny_matrices(draw):
    """One-row and one-column matrices with entries of both signs, and
    all-zero matrices of any shape, down to no rows or no columns."""
    shape = draw(st.sampled_from(["row", "column", "zero"]))
    length = draw(st.integers(0, 7))
    if shape == "zero":
        width = draw(st.integers(0, 5))
        return [[0] * width for _ in range(length)]
    entries = draw(st.lists(ENTRY, min_size=length, max_size=length))
    return [entries] if shape == "row" else [[x] for x in entries]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(rows=tiny_matrices())
def test_tiny_rank_rule_matches_full_elimination(rows):
    ncols = len(rows[0]) if rows else 0
    full = len(exactlinalg._row_reduce(rows, ncols, full=False)[1])
    assert integer_rank(rows) == full == (sympy.Matrix(rows).rank() if rows and ncols else 0)


def test_tiny_ranks_are_not_row_reduced(monkeypatch):
    """At most one row or one column: rank 1 unless every entry is zero,
    without elimination.  Two rows and two columns are row reduced."""
    def refuse(*args, **kwargs):
        raise AssertionError("a tiny matrix was row reduced")

    monkeypatch.setattr(exactlinalg, "_row_reduce", refuse)
    for rows, rank in [([], 0), ([[]], 0), ([[], []], 0), ([[0, 0, 0]], 0),
                       ([[0], [0], [0]], 0), ([[0, -3, 0, 5]], 1), ([[-2], [0], [7]], 1),
                       ([[4]], 1), ([[-1]], 1)]:
        assert integer_rank(rows) == rank, rows
    with pytest.raises(AssertionError, match="row reduced"):
        integer_rank([[0, 0], [0, 0]])
