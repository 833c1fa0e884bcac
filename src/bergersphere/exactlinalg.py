"""Exact rank and kernel of small integer matrices.

The polynomial oracles need kernel *dimensions*, and those must be exact
integers: a float rank can silently misclassify a near-singular matrix.
One row reduction over Python ints serves both entry points.  For each
pivot column it replaces every row with a nonzero entry f there by
``p*row - f*pivot_row`` (p the pivot) and divides the result by the gcd of
its entries, so the entries stay small without any fractions.  A row with
a zero in the pivot column is left as it is: it needs no update, and
skipping it is what keeps the oracles' very sparse matrices cheap (Bareiss
elimination would rescale every row below each pivot, and its entries grow
into minors).
"""

from __future__ import annotations

from math import gcd, lcm


def _row_reduce(rows, ncols: int, full: bool):
    """Echelon form of an integer matrix; returns (pivot rows, pivot columns).

    With ``full`` the rows above each pivot are reduced too (Gauss-Jordan),
    so every pivot column is zero outside its own row.
    """
    m = list(rows)  # updates build new row lists; the caller's rows stay as they are
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot_row = m[rank]
        p = pivot_row[col]
        for r in range(0 if full else rank + 1, len(m)):
            f = m[r][col]
            if f == 0 or r == rank:
                continue
            row = [p * x - f * y for x, y in zip(m[r], pivot_row)]
            g = gcd(*row)
            m[r] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return m[:len(pivots)], pivots


def integer_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix (list of equal-length row lists)."""
    return len(_row_reduce(rows, len(rows[0]) if rows else 0, full=False)[1])


def kernel_basis(rows, ncols: int) -> list[list[int]]:
    """Basis of the right kernel, one primitive integer vector per free column.

    The vector of a free column is positive there and zero at every other
    free column.
    """
    reduced, pivots = _row_reduce(rows, ncols, full=True)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        scale = lcm(*(abs(row[pc]) for row, pc in zip(reduced, pivots) if row[fc]))
        vec = [0] * ncols
        vec[fc] = scale
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc] * scale // row[pc]
        g = gcd(*vec)
        basis.append([x // g for x in vec])
    return basis
