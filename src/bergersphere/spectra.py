"""Closed-form Laplace spectra on Berger spheres and Clifford products.

Eigenvalues are exact rationals in tau^2.  On the Berger sphere S^{2n+1}
the spectrum is contained in

    mu_{k,p} = k(2n+k) + ((1-tau^2)/tau^2) (k-2p)^2,   0 <= p <= floor(k/2),

and the eigenspace of the round eigenvalue k(2n+k) splits into the
mu_{k,p} pieces according to the squared vertical derivative.  Exact
multiplicities come from counting harmonic polynomials by bidegree: the
(k,p) piece collects bidegrees (a, b) with a+b = k and |a-b| = k-2p.

On a product of odd spheres S^{2m1+1}(r1) x S^{2m2+1}(r2) inside the
Berger sphere (n = m1+m2+1, r_j^2 = (2m_j+1)/(2n)) the induced Laplacian
has eigenvalues

    mu_{k1,k2,p} = 2n ( k1(2m1+k1)/(2m1+1) + k2(2m2+k2)/(2m2+1) )
                   + ((1-tau^2)/tau^2) (k1+k2-2p)^2.

Both families are stated once, as tau-free integer rows: a ``ModeRow``
carries a family name, the labels, the multiplicity and integers
(u, v, w, den), den > 0, with

    value = (u + v tau^2 + w / tau^2) / den.

As (1-tau^2)/tau^2 = 1/tau^2 - 1, a Berger row is (k(2n+k) - q^2, 0, q^2, 1)
with q = k-2p, and a Clifford row is (h - q^2 den, 0, q^2 den, den) with
q = k1+k2-2p and the horizontal part h / den of mu_{k1,k2,p} in lowest
terms.  A Clifford row's multiplicity comes from one count per (k1, k2):
the factor bidegree dimensions, convolved by frequency.  ``evaluate`` is
the one evaluator of such rows, here and in :mod:`bergersphere.models`: at
tau^2 = a/b a row's value is the integer u ab + v a^2 + w b^2 over den ab,
so a table is evaluated in integers and makes one ``Fraction`` per value.
``sign_counts`` reads the same integers and only sums multiplicities by
sign, which is all an index and a nullity need.

The per-label closed forms (``berger_eigenvalue``, ``berger_multiplicity``,
``clifford_eigenvalue``, ``clifford_multiplicity``) compute the same
numbers by another route; the row builders never call them.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import NamedTuple

from .params import BergerParam, GeometryDomainError


class ModeRow(NamedTuple):
    """One row of a mode table: a mode whose value at tau^2 is
    (u + v tau^2 + w / tau^2) / den, with integers u, v, w and den > 0."""

    family: str
    labels: tuple[int, ...]
    multiplicity: int
    u: int
    v: int
    w: int
    den: int


def _sign_numbers(rows, a: int, b: int) -> list[int]:
    """One integer per row with the sign of its value at tau^2 = a/b: for a
    ``ModeRow`` u ab + v a^2 + w b^2, which is den ab times its value; any
    other row brings its own ``sign``."""
    ab, aa, bb = a * b, a * a, b * b
    return [row.u * ab + row.v * aa + row.w * bb if type(row) is ModeRow else row.sign
            for row in rows]


def evaluate(rows, tau_sq: Fraction, nonpositive_only: bool = False) -> list[tuple]:
    """(row, value) for each row at tau^2 = a/b, in row order.

    With ``nonpositive_only`` a row whose sign number (``_sign_numbers``) is
    positive is skipped before its value is built.  A ``ModeRow``'s value is
    one ``Fraction`` of its sign number over den ab; any other row brings its
    own exact ``value(a, b)``.
    """
    a, b = tau_sq.numerator, tau_sq.denominator
    ab = a * b
    signed = zip(rows, _sign_numbers(rows, a, b))
    if nonpositive_only:
        signed = [(row, num) for row, num in signed if num <= 0]
    return [(row, Fraction(num, row.den * ab) if type(row) is ModeRow else row.value(a, b))
            for row, num in signed]


def sign_counts(rows, tau_sq: Fraction) -> tuple[int, int]:
    """(negative, zero): the summed multiplicities of the rows whose value at
    tau^2 is negative and of those where it is zero, decided from the sign
    numbers of ``evaluate`` alone; no value is built."""
    negative = zero = 0
    for row, num in zip(rows, _sign_numbers(rows, tau_sq.numerator, tau_sq.denominator)):
        if num < 0:
            negative += row.multiplicity
        elif num == 0:
            zero += row.multiplicity
    return negative, zero


def round_eigenvalue(n: int, k: int) -> int:
    """k-th eigenvalue k(2n+k) of the round sphere S^{2n+1}."""
    _check_nonnegative(n=n, k=k)
    return k * (2 * n + k)


def round_multiplicity(n: int, k: int) -> int:
    """Dimension of degree-k spherical harmonics on S^{2n+1}."""
    _check_nonnegative(n=n)
    return sphere_harmonic_multiplicity(2 * n + 1, k)


def sphere_harmonic_multiplicity(d: int, k: int) -> int:
    """Dimension of degree-k spherical harmonics on S^d subset R^{d+1}."""
    _check_nonnegative(d=d, k=k)
    total = comb(k + d, d)
    if k >= 2:
        total -= comb(k - 2 + d, d)
    return total


def bidegree_dimension(n: int, a: int, b: int) -> int:
    """Dimension of harmonic polynomials of bidegree (a, b) on C^{n+1}; 0 if
    a < 0 or b < 0.

    The bidegree Laplacian is onto the (a-1, b-1) monomials, so the
    kernel dimension is the difference of the monomial counts.  The
    brute-force oracle recomputes this as an exact kernel rank.
    """
    if n < 0:
        raise GeometryDomainError(f"n must be nonnegative, got {n}")
    if a < 0 or b < 0:
        return 0
    total = comb(a + n, n) * comb(b + n, n)
    if a >= 1 and b >= 1:
        total -= comb(a + n - 1, n) * comb(b + n - 1, n)
    return total


def _check_nonnegative(**values: int) -> None:
    for name, value in values.items():
        if value < 0:
            raise GeometryDomainError(f"{name} must be nonnegative, got {value}")


def _check_p(k: int, p: int) -> None:
    if not (0 <= p <= k // 2):
        raise GeometryDomainError(f"p must satisfy 0 <= p <= floor(k/2), got k={k}, p={p}")


def berger_eigenvalue(n: int, tau, k: int, p: int) -> Fraction:
    """Eigenvalue mu_{k,p} = k(2n+k) + ((1-tau^2)/tau^2)(k-2p)^2, exact."""
    param = BergerParam.coerce(tau)
    _check_nonnegative(n=n, k=k)
    _check_p(k, p)
    return Fraction(round_eigenvalue(n, k)) + param.vertical_ratio * (k - 2 * p) ** 2


def berger_multiplicity(n: int, k: int, p: int) -> int:
    """Dimension of the (k, p) eigenspace, by bidegree counting.

    Bidegrees (a, b) with a+b = k and |a-b| = k-2p contribute: two mirror
    terms when a != b, a single one when a = b.  For n = 0 only p with
    k-2p = k survives (the circle has no genuinely complex harmonics).
    """
    _check_nonnegative(n=n, k=k)
    _check_p(k, p)
    q = k - 2 * p
    if q == 0:
        return bidegree_dimension(n, p, p)
    return bidegree_dimension(n, k - p, p) + bidegree_dimension(n, p, k - p)


def berger_rows(n: int, k_max: int) -> list[ModeRow]:
    """The rows of mu_{k,p} with k <= k_max, in (k, p) lexicographic order.

    The (k, p) eigenspace holds the bidegrees (k-p, p) and, when q = k-2p
    is not 0, its mirror (p, k-p) of the same dimension.  Labels with
    vanishing eigenspace (only possible for n = 0) are skipped.
    """
    _check_nonnegative(n=n, k_max=k_max)
    rows = []
    for k in range(k_max + 1):
        lam = k * (2 * n + k)
        for p in range(k // 2 + 1):
            qq = (k - 2 * p) ** 2
            mult = bidegree_dimension(n, k - p, p) * (2 if qq else 1)
            if mult:
                rows.append(ModeRow("berger", (k, p), mult, lam - qq, 0, qq, 1))
    return rows


# ---------------------------------------------------------------------------
# Clifford products of odd spheres
# ---------------------------------------------------------------------------


# The (k1, k2, p) labels of the four low modes that decide the Jacobi sign
# analysis, with multiplicities 1, 2m1+2, 2m2+2 and 2(m1+1)(m2+1); all four
# have k1 + k2 <= 2.
LOW_LABELS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1))


def _check_clifford_label(m1: int, m2: int, k1: int, k2: int, p: int) -> None:
    _check_nonnegative(m1=m1, m2=m2, k1=k1, k2=k2)
    _check_p(k1 + k2, p)


def clifford_eigenvalue(m1: int, m2: int, tau, k1: int, k2: int, p: int) -> Fraction:
    """Eigenvalue mu_{k1,k2,p} of the induced Laplacian, exact in tau^2."""
    param = BergerParam.coerce(tau)
    _check_clifford_label(m1, m2, k1, k2, p)
    n = m1 + m2 + 1
    base = 2 * n * (Fraction(k1 * (2 * m1 + k1), 2 * m1 + 1)
                    + Fraction(k2 * (2 * m2 + k2), 2 * m2 + 1))
    return base + param.vertical_ratio * (k1 + k2 - 2 * p) ** 2


def clifford_multiplicity(m1: int, m2: int, k1: int, k2: int, p: int) -> int:
    """Multiplicity of mu_{k1,k2,p}, by factorwise bidegree counting.

    Products of factor harmonics of bidegrees (a1,b1) and (a2,b2) carry
    vertical frequency (a1-b1)+(a2-b2); the (k1,k2,p) eigenspace collects
    the products with |frequency| = k1+k2-2p.
    """
    _check_clifford_label(m1, m2, k1, k2, p)
    q = k1 + k2 - 2 * p
    total = 0
    for a1 in range(k1 + 1):
        b1 = k1 - a1
        d1 = bidegree_dimension(m1, a1, b1)
        if d1 == 0:
            continue
        for a2 in range(k2 + 1):
            b2 = k2 - a2
            if abs((a1 - b1) + (a2 - b2)) != q:
                continue
            d2 = bidegree_dimension(m2, a2, b2)
            total += d1 * d2
    return total


def clifford_rows(m1: int, m2: int, sum_max: int) -> list[ModeRow]:
    """The rows of mu_{k1,k2,p} with k1 + k2 <= sum_max, in (k1, k2, p)
    lexicographic order; labels with vanishing eigenspace are skipped.

    A product of factor harmonics of bidegrees (a1, k1-a1) and (a2, k2-a2)
    has frequency 2s - (k1+k2) with s = a1 + a2, so each (k1, k2) is counted
    once: count[s] sums the products of the two factors' bidegree
    dimensions over a1 + a2 = s.  Conjugation maps s to k1+k2-s, so label
    p, of |frequency| k1+k2-2p, has multiplicity count[p], doubled unless
    2p = k1+k2.
    """
    _check_nonnegative(m1=m1, m2=m2, sum_max=sum_max)
    n, e1, e2 = m1 + m2 + 1, 2 * m1 + 1, 2 * m2 + 1

    def dims(m):
        return [[bidegree_dimension(m, a, k - a) for a in range(k + 1)]
                for k in range(sum_max + 1)]

    dims1 = dims(m1)
    dims2 = dims1 if m2 == m1 else dims(m2)
    rows = []
    for k1, d1 in enumerate(dims1):
        for k2 in range(sum_max - k1 + 1):
            d2, top = dims2[k2], k1 + k2
            # the horizontal part h / den = 2n (k1(2m1+k1)/e1 + k2(2m2+k2)/e2)
            h = 2 * n * (k1 * (2 * m1 + k1) * e2 + k2 * (2 * m2 + k2) * e1)
            g = gcd(h, e1 * e2)
            h, den = h // g, e1 * e2 // g
            for p in range(top // 2 + 1):
                count = sum(d1[a] * d2[p - a] for a in range(max(0, p - k2), min(k1, p) + 1))
                mult = count if 2 * p == top else 2 * count
                if mult:
                    qq = (top - 2 * p) ** 2 * den
                    rows.append(ModeRow("clifford", (k1, k2, p), mult, h - qq, 0, qq, den))
    return rows
