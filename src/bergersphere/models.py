"""Jacobi-operator spectra and certified index/nullity for model submanifolds.

Each model family below is a compact minimal submanifold of a Berger
sphere whose Jacobi operator diagonalises against the exact Laplace
spectra of :mod:`bergersphere.spectra`.  A family states its Jacobi modes
once, in a mode table that does not depend on tau and holds only
integers.  A ``ModeRow`` (defined in :mod:`bergersphere.spectra`, whose
Laplace families take the same form) carries the family, the labels, the
multiplicity and integers (u, v, w, den), den > 0, with

    value = (u + v tau^2 + w / tau^2) / den,

so at tau^2 = p/q the sign of a mode is the sign of the integer
u pq + v p^2 + w q^2; ``spectra.evaluate`` evaluates the rows of both
modules.  The one irrational family, the gradient-pair modes of the
totally real spheres, has values a - sqrt(r) (a ``Surd``, with
rational a and r) whose sign is that of lambda_k - 2(d+1) at every tau; a
``GradientPairRow`` stores that sign and builds the value only when the
mode is needed.  Index and nullity are therefore decided exactly, in
integers.

Every query takes the model object.  ``jacobi_modes(model, tau, k)``
evaluates its table at one tau^2; ``enumerate_index(model, tau, k_max)``
drives it with a truncation certificate, a monotone lower bound proving
that all modes beyond the scanned range are strictly positive, and builds
a ``JacobiMode`` only for a nonpositive row.  Only tables at a family's
certified depth are memoised.  The closed forms compute their piecewise
formulas independently, assert that they agree with ``enumerate_index``
and return its report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import ClassVar, NamedTuple, Optional, Union

from .geometry import BergerParam, GeometryDomainError
from . import spectra
from .spectra import ModeRow

K_LIMIT = 64  # deepest scan ``enumerate_index`` runs, whatever ``k_max`` asks

# Certified-depth tables memoised by ``_mode_table``, one per model.  ``phase
# --n-max 8`` evaluates 110 models; 256 leaves room for as many again from
# ``index`` and ``jacobi_modes``.
TABLE_CACHE_SIZE = 256


class TruncationError(RuntimeError):
    """No certified truncation exists within the configured limits."""


# ---------------------------------------------------------------------------
# Model descriptions
# ---------------------------------------------------------------------------


class ModelSubmanifold:
    """One model family: a frozen dataclass whose fields are its parameters.

    Every family declares what ``enumerate_index``, the phase rows and the
    command line need to know about it:

    * ``name``: the ``--model`` value; the dataclass fields are the flags;
    * ``bundle``: (m, s) of the circle-bundle picture, or None;
    * ``certified_k``: the scan depth beyond which every mode is positive;
    * ``table(k)``: the rows of its tau-free mode table up to depth k;
    * ``certificate(k)``: why the modes beyond depth k are positive;
    * ``lower_bounds(param)``: whether index and nullity are only bounded
      below.
    """

    name: ClassVar[str]
    bundle: ClassVar[Optional[tuple[int, int]]] = None

    def label(self) -> str:
        args = ",".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))
        return f"{self.name}({args})" if args else self.name

    def lower_bounds(self, param: BergerParam) -> tuple[bool, bool]:
        return False, False


@dataclass(frozen=True)
class TotallyGeodesicBergerSphere(ModelSubmanifold):
    """S^{2m+1}_tau inside S^{2n+1}_tau by padding with zeros."""

    name = "tg-berger"
    n: int
    m: int

    def __post_init__(self):
        if not (0 <= self.m <= self.n):
            raise GeometryDomainError("need 0 <= m <= n")

    @property
    def dimension(self) -> int:
        return 2 * self.m + 1

    @property
    def bundle(self) -> tuple[int, int]:
        return self.m, 1

    @property
    def certified_k(self) -> int:
        if self.m >= self.n:  # the whole sphere has no normal modes
            raise GeometryDomainError("index enumeration needs m < n")
        return 2

    def table(self, k_max: int) -> list[ModeRow]:
        """Per complex normal slot the eigenvalues are

            rho = (2m+1+k)(k-1) + ((1-tau^2)/tau^2) (k-2p +- 1)^2,

        with multiplicity dim V(mu_{k,p}) of the small sphere per sign branch
        (the branches merge, doubling the multiplicity, when k = 2p).  The
        n - m slots carry identical spectra, so multiplicities are aggregated
        by the slot count.  As (1-tau^2)/tau^2 = 1/tau^2 - 1, the branch with
        c = (k-2p +- 1)^2 is the row (base - c, 0, c, 1), base = (2m+1+k)(k-1).
        """
        m, slots = self.m, self.n - self.m
        rows = []
        for laplace in spectra.berger_rows(m, k_max):
            (k, p), mult = laplace.labels, laplace.multiplicity * slots
            base = (2 * m + 1 + k) * (k - 1)
            q = k - 2 * p
            if q == 0:
                rows.append(ModeRow("normal-slot", (k, p, 0), 2 * mult, base - 1, 0, 1, 1))
            else:
                for s in (1, -1):
                    c = (q + s) ** 2
                    rows.append(ModeRow("normal-slot", (k, p, s), mult, base - c, 0, c, 1))
        return rows

    def certificate(self, k: int) -> str:
        return (f"scanned k <= {k}; for k >= 2 every mode is at least "
                f"(2m+3)(k-1) > 0 plus a nonnegative vertical term")


@dataclass(frozen=True)
class CircleCover(ModelSubmanifold):
    """The closed geodesic z -> (z^s, 0, ..., 0), an s-fold covered circle."""

    name = "circle"
    dimension = 1
    n: int
    s: int

    def __post_init__(self):
        if self.n < 1 or self.s < 1:
            raise GeometryDomainError("need n >= 1 and s >= 1")

    @property
    def bundle(self) -> tuple[int, int]:
        return 0, self.s

    @property
    def certified_k(self) -> int:
        return self.s

    def table(self, k_max: int) -> list[ModeRow]:
        """Per complex normal slot

            rho_(+-)(k) = (k^2/s^2 - 1) + ((1-tau^2)/tau^2) (k/s +- 1)^2, k >= 0,

        each with multiplicity 2 per slot (the circle eigenspaces are
        two-dimensional for k >= 1 and the k = 0 branches merge).  Over the
        denominator s^2, with c = (k +- s)^2, that is the row
        (k^2 - s^2 - c, 0, c, s^2).
        """
        s, mult = self.s, 2 * self.n
        rows = []
        for k in range(k_max + 1):
            if k == 0:
                rows.append(ModeRow("circle", (0, 0), mult, -2 * s * s, 0, s * s, s * s))
                continue
            for sgn in (1, -1):
                c = (k + sgn * s) ** 2
                rows.append(ModeRow("circle", (k, sgn), mult, k * k - s * s - c, 0, c, s * s))
        return rows

    def certificate(self, k: int) -> str:
        return (f"scanned k <= {k}; for k > s every mode is at least "
                f"k^2/s^2 - 1 > 0 plus a nonnegative vertical term")


class _QuadraticCurveBundle(ModelSubmanifold):
    """What the two quadratic-curve models in S^5_tau share; neither
    subclasses the other, so ``isinstance`` tells them apart."""

    n = 2
    dimension = 3
    certified_k = 4
    quotient: ClassVar[bool]

    def table(self, k_max: int) -> list[ModeRow]:
        """The eigenvalues

            rho_(+-)(k,p) = (1 + k(2+k))/2 + (k-2p +- 4)^2/(4 tau^2) - 8
                            - (k-2p +- 1)^2 / 2,

        with multiplicity dim V(mu_{k,p}) of the 3-sphere per branch, doubled
        and merged when k = 2p, are the rows over the denominator 4.  The
        embedded projective model keeps the even k only; the 2-1 covering
        3-sphere keeps all k.
        """
        rows = []
        for laplace in spectra.berger_rows(1, k_max):
            (k, p), mult = laplace.labels, laplace.multiplicity
            if self.quotient and k % 2 == 1:
                continue
            shell = 2 * (1 + k * (2 + k)) - 32  # four times (1 + k(2+k))/2 - 8
            q = k - 2 * p
            if q == 0:
                rows.append(ModeRow("bundle-pair", (k, p, 0), 2 * mult, shell - 2, 0, 16, 4))
            else:
                for s in (1, -1):
                    rows.append(ModeRow("bundle-pair", (k, p, s), mult,
                                        shell - 2 * (q + s) ** 2, 0, (q + 4 * s) ** 2, 4))
        return rows

    def certificate(self, k: int) -> str:
        return f"scanned k <= {k}; modes with k >= 5 satisfy rho >= (k^2-16)/4 > 0"

    def lower_bounds(self, param: BergerParam) -> tuple[bool, bool]:
        """Exact for the projective model; for the covering 3-sphere the index
        above 1/4 and the nullity away from 1/8, 1/4 and 1 are only bounded
        below."""
        if self.quotient:
            return False, False
        ts = param.tau_sq
        return ts > Fraction(1, 4), ts not in (Fraction(1), Fraction(1, 4), Fraction(1, 8))


@dataclass(frozen=True)
class VeroneseRP3(_QuadraticCurveBundle):
    """The embedded real projective 3-space over the quadratic curve in CP^2."""

    name = "veronese-rp3"
    bundle = (1, 1)
    quotient = True


@dataclass(frozen=True)
class VeroneseS3(_QuadraticCurveBundle):
    """The 2-1 immersed 3-sphere covering the embedded projective space."""

    name = "veronese-s3"
    bundle = (1, 2)
    quotient = False


@dataclass(frozen=True)
class TotallyRealSphere(ModelSubmanifold):
    """The totally geodesic real d-sphere with normal Killing field."""

    name = "totally-real"
    certified_k = 2
    n: int
    d: int

    def __post_init__(self):
        if not (1 <= self.d <= self.n):
            raise GeometryDomainError("need 1 <= d <= n")

    @property
    def dimension(self) -> int:
        return self.d

    def table(self, k_max: int) -> list[Union[ModeRow, GradientPairRow]]:
        """Three families of modes, scanned to depth max(k_max, 2).

        * ``constant-normal``: the Laplacian shifted by d acting along each
          of the 2(n-d) constant normal directions; values lambda_k - d.
        * ``gradient-pair``: the coupled gradient/function operator; values
          lambda_k - c - sqrt(c^2 + 4 tau^2 lambda_k) with c = d+1-2 tau^2
          for k >= 1 (a ``GradientPairRow``), plus a one-dimensional zero
          mode.  (The companion + branch is strictly positive and omitted.)
        * ``coexact-form``: the single value -4(1-tau^2) with multiplicity
          d(d+1)/2 coming from coexact one-forms (harmonic forms for d = 1).

        At tau^2 = 1 these families evaluate exactly to the classical round
        values: the coexact value reaches zero and the k = 1 gradient value
        becomes -d.
        """
        n, d = self.n, self.d
        rows = []
        for k in range(max(k_max, 2) + 1):
            mult = spectra.sphere_harmonic_multiplicity(d, k)
            lam = k * (d + k - 1)
            if d < n:
                rows.append(ModeRow("constant-normal", (k,), 2 * (n - d) * mult, lam - d, 0, 0, 1))
            if k == 0:
                rows.append(ModeRow("gradient-pair", (0,), 1, 0, 0, 0, 1))
            else:
                gap = lam - 2 * (d + 1)
                rows.append(GradientPairRow((k,), mult, d, lam, (gap > 0) - (gap < 0)))
        rows.append(ModeRow("coexact-form", (2,), d * (d + 1) // 2, -4, 4, 0, 1))
        return rows

    def certificate(self, k: int) -> str:
        return (f"scanned k <= {k}; constant-normal modes grow like k(d+k-1)-d "
                "and gradient-pair modes are positive exactly for lambda_k > 2(d+1)")


@dataclass(frozen=True)
class CliffordHypersurface(ModelSubmanifold):
    """Minimal product S^{2m1+1}(r1) x S^{2m2+1}(r2) inside S^{2n+1}_tau.

    Both factor dimensions are odd by construction; that is exactly the
    condition for the product to sit inside the Berger sphere with
    tangential Killing field.
    """

    name = "clifford"
    certified_k = 2
    m1: int
    m2: int

    def __post_init__(self):
        if self.m1 < 0 or self.m2 < 0:
            raise GeometryDomainError("need m1, m2 >= 0")

    @property
    def n(self) -> int:
        return self.m1 + self.m2 + 1

    @property
    def dimension(self) -> int:
        return 2 * self.n

    def table(self, sum_max: int) -> list[ModeRow]:
        """The Jacobi operator is the Laplacian plus 4n, so its modes are the
        Laplace modes mu_{k1,k2,p} - 4n with k1 + k2 <= sum_max: the rows
        (h - q^2 den, 0, q^2 den, den) of ``spectra.clifford_rows``, with h / den
        the horizontal part of mu and q = k1+k2-2p, with u shifted by -4n den.
        Every mode with k1+k2 >= 3 (and every (2,0)/(0,2) mode) is strictly
        positive; the nonpositive-relevant ones are

        * -4n with multiplicity 1,
        * 1/tau^2 - (2n+1) with multiplicity 2(n+1),
        * 0 with multiplicity 2(m1+1)(m2+1)                (frequency-0 pair),
        * 4(1-tau^2)/tau^2 with multiplicity 2(m1+1)(m2+1) (frequency-2 pair;
          this one reaches zero at tau^2 = 1 and doubles the nullity there).
        """
        shift = 4 * self.n
        return [ModeRow("hypersurface", labels, mult, u - shift * den, v, w, den)
                for _, labels, mult, u, v, w, den
                in spectra.clifford_rows(self.m1, self.m2, sum_max)]

    def certificate(self, k: int) -> str:
        return (f"scanned k1+k2 <= {k}; eigenvalues with k1+k2 >= 3 satisfy "
                f"mu >= 2n(k1+k2) > 4n")


MODELS = (TotallyGeodesicBergerSphere, CircleCover, VeroneseRP3, VeroneseS3,
          TotallyRealSphere, CliffordHypersurface)


# ---------------------------------------------------------------------------
# Modes and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Surd:
    """The irrational number a - sqrt(r), with rational a and a rational r > 0
    that is not the square of a rational; build it with ``minus_sqrt``."""

    a: Fraction
    r: Fraction

    @property
    def sign(self) -> int:
        # a^2 != r because r is not a square
        return 1 if self.a > 0 and self.a * self.a > self.r else -1

    def __float__(self) -> float:
        return float(self.a) - math.sqrt(self.r)

    def __str__(self) -> str:
        return f"{self.a}-sqrt({self.r})" if self.a else f"-sqrt({self.r})"


def minus_sqrt(a: Fraction, r: Fraction) -> Union[Fraction, Surd]:
    """a - sqrt(r) for rationals a and r >= 0, exactly: a Fraction when r is
    the square of a rational, otherwise a ``Surd``."""
    num, den = math.isqrt(r.numerator), math.isqrt(r.denominator)
    if num * num == r.numerator and den * den == r.denominator:
        return a - Fraction(num, den)
    return Surd(a, r)


@dataclass(frozen=True)
class JacobiMode:
    """One eigenvalue of a Jacobi operator.

    ``value`` is exact, a Fraction or a ``Surd``; a float is rejected.
    ``sign`` (-1, 0, +1) is decided from it once, on construction.
    """

    family: str
    labels: tuple[int, ...]
    value: Union[Fraction, Surd]
    multiplicity: int
    sign: int = field(init=False)

    def __post_init__(self):
        if self.multiplicity < 1:
            raise GeometryDomainError("emitted modes must have multiplicity >= 1")
        value = self.value
        if isinstance(value, Surd):
            sign = value.sign
        else:
            if isinstance(value, int):
                value = Fraction(value)
                object.__setattr__(self, "value", value)
            elif not isinstance(value, Fraction):
                raise TypeError(f"mode values must be exact, got {type(value).__name__}")
            sign = (value.numerator > 0) - (value.numerator < 0)
        object.__setattr__(self, "sign", sign)


@dataclass(frozen=True)
class IndexReport:
    """Certified index/nullity of a Jacobi operator."""

    index: int
    nullity: int
    nonpositive_modes: tuple[JacobiMode, ...]
    truncation_k: int
    certificate: str
    index_is_lower_bound: bool = False
    nullity_is_lower_bound: bool = False


class GradientPairRow(NamedTuple):
    """A gradient-pair mode of the totally real d-sphere at round eigenvalue
    lam = lambda_k, k >= 1: its value lam - c - sqrt(c^2 + 4 tau^2 lam),
    c = d+1-2 tau^2, has the sign of lam - 2(d+1) at every tau."""

    labels: tuple[int, ...]
    multiplicity: int
    d: int
    lam: int
    sign: int

    family = "gradient-pair"

    def value(self, p: int, q: int) -> Union[Fraction, Surd]:
        """The exact value at tau^2 = p/q: a Fraction where the radicand is
        the square of a rational (at k = 2, where the value is 0, and at
        tau^2 = 1), otherwise a ``Surd``."""
        cq = (self.d + 1) * q - 2 * p  # c = cq / q, kept in integers for speed
        return minus_sqrt(Fraction(self.lam * q - cq, q),  # lambda - c
                          Fraction(cq * cq + 4 * p * q * self.lam, q * q))  # c^2 + 4 tau^2 lambda


# ---------------------------------------------------------------------------
# Generic certified driver
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _mode_table(model: ModelSubmanifold) -> tuple[Union[ModeRow, GradientPairRow], ...]:
    """The model's table at its certified depth."""
    return tuple(model.table(model.certified_k))


def _table(model: ModelSubmanifold, k: int):
    """The model's table at depth k: memoised at the certified depth, which
    every command uses, and built per call at any other."""
    return _mode_table(model) if k == model.certified_k else model.table(k)


def _check_limit(k: int) -> None:
    if k > K_LIMIT:
        raise TruncationError(
            f"certified truncation {k} exceeds the configured limit {K_LIMIT}")


def certified_table(model: ModelSubmanifold) -> tuple[Union[ModeRow, GradientPairRow], ...]:
    """The memoised table that ``enumerate_index`` scans by default, at the
    model's certified depth, which must not exceed ``K_LIMIT``."""
    _check_limit(model.certified_k)
    return _mode_table(model)


def _evaluate(table, tau_sq: Fraction, nonpositive_only: bool = False) -> list[JacobiMode]:
    """The modes of a table at tau^2, in table order, by ``spectra.evaluate``:
    with ``nonpositive_only`` a value is built only for a row whose sign is
    at most 0."""
    return [JacobiMode(row.family, row.labels, value, row.multiplicity)
            for row, value in spectra.evaluate(table, tau_sq, nonpositive_only)]


def _by_value(mode: JacobiMode):
    return float(mode.value), mode.family, mode.labels


def jacobi_modes(model: ModelSubmanifold, tau, k: int) -> list[JacobiMode]:
    """Every mode of the model's table at depth k, at tau, sorted by value."""
    modes = _evaluate(_table(model, k), BergerParam.coerce(tau).tau_sq)
    modes.sort(key=_by_value)
    return modes


def enumerate_index(model: ModelSubmanifold, tau, k_max: Optional[int] = None) -> IndexReport:
    """Index/nullity of a model by mode enumeration with a positivity certificate.

    The scan runs to the model's certified depth, or to ``k_max`` if given,
    which must lie between that depth and ``K_LIMIT``.  The sign of every
    row of the table is decided in integers; a ``JacobiMode`` is built only
    for a nonpositive row.
    """
    if k_max is not None and k_max < 0:
        raise GeometryDomainError(f"k_max must be nonnegative, got {k_max}")
    param = BergerParam.coerce(tau)
    required = model.certified_k
    k = required if k_max is None else k_max
    if k < required:
        raise TruncationError(
            f"requested truncation k_max={k} is below the certified bound {required}")
    _check_limit(k)
    modes = _evaluate(_table(model, k), param.tau_sq, nonpositive_only=True)
    index = sum(m.multiplicity for m in modes if m.sign < 0)
    nullity = sum(m.multiplicity for m in modes if m.sign == 0)
    modes.sort(key=_by_value)
    return IndexReport(index, nullity, tuple(modes), k, model.certificate(k),
                       *model.lower_bounds(param))


# ---------------------------------------------------------------------------
# Closed forms, each checked against the enumeration
# ---------------------------------------------------------------------------


def _checked(model: ModelSubmanifold, tau_sq: Fraction, index: int, nullity: int) -> IndexReport:
    """``enumerate_index``'s report for the model, once it agrees with the
    (index, nullity) of a closed form."""
    report = enumerate_index(model, tau_sq)
    if (report.index, report.nullity) != (index, nullity):
        raise AssertionError(
            f"closed form ({index}, {nullity}) of {model.label()} at tau^2={tau_sq} "
            f"disagrees with the enumeration ({report.index}, {report.nullity})")
    return report


def tg_berger_index_nullity(n: int, m: int, tau) -> IndexReport:
    """Closed-form index/nullity of the totally geodesic Berger sphere.

    Index: 0 for tau^2 <= 1/(2m+2), else 2(n-m).
    Nullity: 2(n-m)(m+1) generically, 2(n-m)(m+2) at tau^2 = 1/(2m+2),
    4(n-m)(m+1) at tau^2 = 1.
    """
    model = TotallyGeodesicBergerSphere(n, m)  # validates n and m before the formula
    tau_sq = BergerParam.coerce(tau).tau_sq
    slots = n - m
    threshold = Fraction(1, 2 * (m + 1))
    index = 0 if tau_sq <= threshold else 2 * slots
    if tau_sq == 1:
        nullity = 4 * slots * (m + 1)
    elif tau_sq == threshold:
        nullity = 2 * slots * (m + 2)
    else:
        nullity = 2 * slots * (m + 1)
    return _checked(model, tau_sq, index, nullity)


def circle_stability(s: int, tau) -> bool:
    """The covered circle is stable exactly when tau^2 <= 1/(2s)."""
    if s < 1:
        raise GeometryDomainError("need s >= 1")
    return BergerParam.coerce(tau).tau_sq <= Fraction(1, 2 * s)


def veronese_index_nullity(tau, quotient: bool = True) -> IndexReport:
    """Index/nullity of the projective quadratic-curve model or, with
    ``quotient=False``, of its covering 3-sphere; there is no closed form,
    only the enumeration."""
    return enumerate_index(VeroneseRP3() if quotient else VeroneseS3(), tau)


def totally_real_sphere_index_nullity(n: int, d: int, tau) -> IndexReport:
    """Closed-form index/nullity of the totally real d-sphere.

    For tau^2 < 1: index 2n+1+d(d-1)/2 and nullity (d+1)(2n+1-3d/2).
    At tau^2 = 1 the classical round values 2n+1-d and (d+1)(2n+1-d).
    """
    tau_sq = BergerParam.coerce(tau).tau_sq
    if tau_sq == 1:
        index = 2 * n + 1 - d
        nullity = (d + 1) * (2 * n + 1 - d)
    else:
        index = 2 * n + 1 + d * (d - 1) // 2
        nullity = int((d + 1) * Fraction(2 * (2 * n + 1) - 3 * d, 2))
    return _checked(TotallyRealSphere(n, d), tau_sq, index, nullity)


def clifford_index_nullity(m1: int, m2: int, tau) -> IndexReport:
    """Closed-form index/nullity of the Clifford hypersurface.

    Index 1 for tau^2 <= 1/(2n+1), else 2n+3.  Nullity 2(m1+1)(m2+1)
    generically, gaining 2(n+1) at tau^2 = 1/(2n+1) and doubling at
    tau^2 = 1 (cross-checked against the flat-torus Fourier oracle).
    """
    tau_sq = BergerParam.coerce(tau).tau_sq
    n = m1 + m2 + 1
    threshold = Fraction(1, 2 * n + 1)
    index = 1 if tau_sq <= threshold else 2 * n + 3
    nullity = 2 * (m1 + 1) * (m2 + 1)
    if tau_sq == 1:
        nullity *= 2
    elif tau_sq == threshold:
        nullity += 2 * (n + 1)
    return _checked(CliffordHypersurface(m1, m2), tau_sq, index, nullity)
