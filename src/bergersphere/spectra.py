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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .geometry import BergerParam, GeometryDomainError


@dataclass(frozen=True)
class LaplaceMode:
    """One Laplace eigenvalue on the Berger sphere with its labels."""

    k: int
    p: int
    value: Fraction
    multiplicity: int


@dataclass(frozen=True)
class CliffordMode:
    """One Laplace eigenvalue on a Clifford product hypersurface."""

    k1: int
    k2: int
    p: int
    value: Fraction
    multiplicity: int


def round_eigenvalue(n: int, k: int) -> int:
    """k-th eigenvalue k(2n+k) of the round sphere S^{2n+1}."""
    if k < 0:
        raise GeometryDomainError("k must be nonnegative")
    return k * (2 * n + k)


def round_multiplicity(n: int, k: int) -> int:
    """Dimension of degree-k spherical harmonics on S^{2n+1}."""
    return sphere_harmonic_multiplicity(2 * n + 1, k)


def sphere_harmonic_multiplicity(d: int, k: int) -> int:
    """Dimension of degree-k spherical harmonics on S^d subset R^{d+1}."""
    if k < 0:
        raise GeometryDomainError("k must be nonnegative")
    total = comb(k + d, d)
    if k >= 2:
        total -= comb(k - 2 + d, d)
    return total


def bidegree_dimension(n: int, a: int, b: int) -> int:
    """Dimension of harmonic polynomials of bidegree (a, b) on C^{n+1}.

    The bidegree Laplacian is onto the (a-1, b-1) monomials, so the
    kernel dimension is the difference of the monomial counts.  The
    brute-force oracle recomputes this as an exact kernel rank.
    """
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
    if k < 0:
        raise GeometryDomainError("k must be nonnegative")
    _check_p(k, p)
    return Fraction(round_eigenvalue(n, k)) + param.vertical_ratio * (k - 2 * p) ** 2


def berger_multiplicity(n: int, k: int, p: int) -> int:
    """Dimension of the (k, p) eigenspace, by bidegree counting.

    Bidegrees (a, b) with a+b = k and |a-b| = k-2p contribute: two mirror
    terms when a != b, a single one when a = b.  For n = 0 only p with
    k-2p = k survives (the circle has no genuinely complex harmonics).
    """
    if k < 0:
        raise GeometryDomainError("k must be nonnegative")
    _check_p(k, p)
    q = k - 2 * p
    if q == 0:
        return bidegree_dimension(n, p, p)
    return bidegree_dimension(n, k - p, p) + bidegree_dimension(n, p, k - p)


def berger_modes(n: int, tau, k_max: int) -> list[LaplaceMode]:
    """All modes with k <= k_max, in (k, p) lexicographic order.

    Labels with vanishing eigenspace (only possible for n = 0) are skipped.
    """
    _check_nonnegative(n=n, k_max=k_max)
    param = BergerParam.coerce(tau)
    modes = []
    for k in range(k_max + 1):
        for p in range(k // 2 + 1):
            mult = berger_multiplicity(n, k, p)
            if mult == 0:
                continue
            modes.append(LaplaceMode(k, p, berger_eigenvalue(n, param, k, p), mult))
    return modes


# ---------------------------------------------------------------------------
# Clifford products of odd spheres
# ---------------------------------------------------------------------------


# The (k1, k2, p) labels of the four low modes that decide the Jacobi sign
# analysis, with multiplicities 1, 2m1+2, 2m2+2 and 2(m1+1)(m2+1); all four
# have k1 + k2 <= 2.
LOW_LABELS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1))


def clifford_eigenvalue(m1: int, m2: int, tau, k1: int, k2: int, p: int) -> Fraction:
    """Eigenvalue mu_{k1,k2,p} of the induced Laplacian, exact in tau^2."""
    param = BergerParam.coerce(tau)
    if k1 < 0 or k2 < 0:
        raise GeometryDomainError("k1, k2 must be nonnegative")
    if not (0 <= p <= (k1 + k2) // 2):
        raise GeometryDomainError("p must satisfy 0 <= p <= floor((k1+k2)/2)")
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


def clifford_modes(m1: int, m2: int, tau, sum_max: int) -> list[CliffordMode]:
    """All modes with k1 + k2 <= sum_max, in (k1, k2, p) lexicographic order."""
    _check_nonnegative(m1=m1, m2=m2, sum_max=sum_max)
    param = BergerParam.coerce(tau)
    modes = []
    for k1 in range(sum_max + 1):
        for k2 in range(sum_max - k1 + 1):
            for p in range((k1 + k2) // 2 + 1):
                mult = clifford_multiplicity(m1, m2, k1, k2, p)
                if mult == 0:
                    continue
                modes.append(CliffordMode(k1, k2, p,
                                          clifford_eigenvalue(m1, m2, param, k1, k2, p),
                                          mult))
    return modes
