"""Jacobi-operator spectra and certified index/nullity for model submanifolds.

Each model family below is a compact minimal submanifold of a Berger
sphere whose Jacobi operator diagonalises against the exact Laplace
spectra of :mod:`bergersphere.spectra`.  Mode values are exact rationals
in tau^2 wherever the closed forms are rational, so the sign of every
mode - and hence index and nullity - is decided exactly.  The one
irrational family (the gradient-pair modes of the totally real spheres)
carries a float value together with an exactly decided sign.

``enumerate_index`` drives any family through its mode generator with a
truncation certificate: a monotone lower bound proving that all modes
beyond the scanned range are strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import ClassVar, Optional, Union

from .geometry import BergerParam, GeometryDomainError
from . import spectra

ZERO_BAND = 1e-12
K_LIMIT = 64  # deepest scan ``enumerate_index`` runs, whatever the policy asks


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
    * ``modes(param, k)``: the Jacobi modes up to depth k;
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

    def modes(self, param: BergerParam, k: int) -> list[JacobiMode]:
        return tg_berger_modes(self.n, self.m, param, k_max=k)

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

    def modes(self, param: BergerParam, k: int) -> list[JacobiMode]:
        return circle_modes(self.s, param, k_max=k, slots=self.n)

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

    def modes(self, param: BergerParam, k: int) -> list[JacobiMode]:
        return veronese_modes(param, k_max=k, quotient=self.quotient)

    def certificate(self, k: int) -> str:
        return f"scanned k <= {k}; modes with k >= 5 satisfy rho >= (k^2-16)/4 > 0"

    def lower_bounds(self, param: BergerParam) -> tuple[bool, bool]:
        return _veronese_lower_bounds(param.tau_sq, self.quotient)


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

    def modes(self, param: BergerParam, k: int) -> list[JacobiMode]:
        return totally_real_sphere_modes(self.n, self.d, param, k_max=k)

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

    def modes(self, param: BergerParam, k: int) -> list[JacobiMode]:
        return clifford_jacobi_modes(self.m1, self.m2, param, sum_max=k)

    def certificate(self, k: int) -> str:
        return (f"scanned k1+k2 <= {k}; eigenvalues with k1+k2 >= 3 satisfy "
                f"mu >= 2n(k1+k2) > 4n")


MODELS = (TotallyGeodesicBergerSphere, CircleCover, VeroneseRP3, VeroneseS3,
          TotallyRealSphere, CliffordHypersurface)


# ---------------------------------------------------------------------------
# Modes and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JacobiMode:
    """One eigenvalue of a Jacobi operator.

    ``value`` is an exact Fraction whenever the closed form is rational
    in tau^2, otherwise a float whose sign was decided exactly and stored
    in ``sign`` (-1, 0, +1; None means indeterminate and taints nullity).
    """

    family: str
    labels: tuple[int, ...]
    value: Union[Fraction, float]
    multiplicity: int
    sign: Optional[int] = None

    def __post_init__(self):
        if self.multiplicity < 1:
            raise GeometryDomainError("emitted modes must have multiplicity >= 1")
        if isinstance(self.value, int):
            object.__setattr__(self, "value", Fraction(self.value))
        if isinstance(self.value, Fraction):
            object.__setattr__(self, "sign", (self.value > 0) - (self.value < 0))
        elif self.sign is None and abs(self.value) > ZERO_BAND:
            object.__setattr__(self, "sign", 1 if self.value > 0 else -1)

    @property
    def value_float(self) -> float:
        return float(self.value)


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
    warnings: tuple[str, ...] = ()


def _collect_report(modes, truncation_k, certificate,
                    index_is_lower_bound=False, nullity_is_lower_bound=False) -> IndexReport:
    index = 0
    nullity = 0
    warnings = []
    for mode in modes:
        if mode.sign is None:
            warnings.append(
                f"mode {mode.family}{mode.labels} has value {mode.value!r} within "
                f"{ZERO_BAND} of zero but no exact sign; nullity left unclaimed")
        elif mode.sign < 0:
            index += mode.multiplicity
        elif mode.sign == 0:
            nullity += mode.multiplicity
    nonpos = tuple(sorted((m for m in modes if m.sign is not None and m.sign <= 0),
                          key=lambda m: (m.value_float, m.family, m.labels)))
    return IndexReport(index, nullity, nonpos, truncation_k, certificate,
                       index_is_lower_bound, nullity_is_lower_bound, tuple(warnings))


# ---------------------------------------------------------------------------
# Totally geodesic Berger spheres S^{2m+1}_tau in S^{2n+1}_tau
# ---------------------------------------------------------------------------


def tg_berger_modes(n: int, m: int, tau, k_max: int = 2) -> list[JacobiMode]:
    """Jacobi modes of the totally geodesic Berger sphere.

    Per complex normal slot the eigenvalues are

        rho = (2m+1+k)(k-1) + ((1-tau^2)/tau^2) (k-2p +- 1)^2,

    with multiplicity dim V(mu_{k,p}) of the small sphere per sign branch
    (the branches merge, doubling the multiplicity, when k = 2p).  The
    n - m slots carry identical spectra, so multiplicities are aggregated
    by the slot count.
    """
    if not (0 <= m < n):
        raise GeometryDomainError("need 0 <= m < n")
    param = BergerParam.coerce(tau)
    slots = n - m
    t = param.vertical_ratio
    modes = []
    for k in range(k_max + 1):
        base = (2 * m + 1 + k) * (k - 1)
        for p in range(k // 2 + 1):
            mult = spectra.berger_multiplicity(m, k, p)
            if mult == 0:
                continue
            q = k - 2 * p
            if q == 0:
                value = Fraction(base) + t
                modes.append(JacobiMode("normal-slot", (k, p, 0), value, 2 * mult * slots))
            else:
                for s in (1, -1):
                    value = Fraction(base) + t * (q + s) ** 2
                    modes.append(JacobiMode("normal-slot", (k, p, s), value, mult * slots))
    modes.sort(key=lambda mo: (mo.value_float, mo.labels))
    return modes


def tg_berger_index_nullity(n: int, m: int, tau) -> IndexReport:
    """Closed-form index/nullity of the totally geodesic Berger sphere.

    Index: 0 for tau^2 <= 1/(2m+2), else 2(n-m).
    Nullity: 2(n-m)(m+1) generically, 2(n-m)(m+2) at tau^2 = 1/(2m+2),
    4(n-m)(m+1) at tau^2 = 1.
    """
    if not (0 <= m < n):
        raise GeometryDomainError("need 0 <= m < n")
    param = BergerParam.coerce(tau)
    slots = n - m
    threshold = Fraction(1, 2 * (m + 1))
    if param.tau_sq <= threshold:
        index = 0
    else:
        index = 2 * slots
    if param.tau_sq == 1:
        nullity = 4 * slots * (m + 1)
    elif param.tau_sq == threshold:
        nullity = 2 * slots * (m + 2)
    else:
        nullity = 2 * slots * (m + 1)

    modes = []
    k0_value = 1 / param.tau_sq - (2 * m + 2)
    if k0_value <= 0:
        modes.append(JacobiMode("normal-slot", (0, 0, 0), k0_value, 2 * slots))
    modes.append(JacobiMode("normal-slot", (1, 0, -1), Fraction(0), (2 * m + 2) * slots))
    plus_value = 4 * param.vertical_ratio
    if plus_value == 0:
        modes.append(JacobiMode("normal-slot", (1, 0, 1), plus_value, (2 * m + 2) * slots))
    cert = ("piecewise table in tau^2; branch thresholds 1/(2m+2) and 1, "
            "modes with k >= 2 are strictly positive")
    report = _collect_report(modes, 1, cert)
    if (report.index, report.nullity) != (index, nullity):
        raise AssertionError("closed-form table disagrees with its own mode list")
    return report


# ---------------------------------------------------------------------------
# Covered circles z -> (z^s, 0, ..., 0)
# ---------------------------------------------------------------------------


def circle_modes(s: int, tau, k_max: int, slots: int = 1) -> list[JacobiMode]:
    """Jacobi modes of the s-fold covered circle, per complex normal slot.

    rho_(+-)(k) = (k^2/s^2 - 1) + ((1-tau^2)/tau^2) (k/s +- 1)^2, k >= 0,
    each with multiplicity 2 per slot (the circle eigenspaces are
    two-dimensional for k >= 1 and the k = 0 branches merge).
    """
    if s < 1:
        raise GeometryDomainError("need s >= 1")
    param = BergerParam.coerce(tau)
    t = param.vertical_ratio
    modes = []
    for k in range(k_max + 1):
        base = Fraction(k * k, s * s) - 1
        if k == 0:
            modes.append(JacobiMode("circle", (0, 0), base + t, 2 * slots))
            continue
        for sgn in (1, -1):
            value = base + t * (Fraction(k, s) + sgn) ** 2
            modes.append(JacobiMode("circle", (k, sgn), value, 2 * slots))
    modes.sort(key=lambda mo: (mo.value_float, mo.labels))
    return modes


def circle_stability(s: int, tau) -> bool:
    """The covered circle is stable exactly when tau^2 <= 1/(2s)."""
    if s < 1:
        raise GeometryDomainError("need s >= 1")
    return BergerParam.coerce(tau).tau_sq <= Fraction(1, 2 * s)


# ---------------------------------------------------------------------------
# The quadratic-curve models in S^5_tau
# ---------------------------------------------------------------------------


def veronese_modes(tau, k_max: int = 4, quotient: bool = True) -> list[JacobiMode]:
    """Jacobi modes of the quadratic-curve circle bundles in S^5_tau.

    rho_(+-)(k,p) = (1 + k(2+k))/2 + (k-2p +- 4)^2/(4 tau^2) - 8
                    - (k-2p +- 1)^2 / 2,

    with multiplicity dim V(mu_{k,p}) of the 3-sphere per branch, doubled
    and merged when k = 2p.  The embedded projective model keeps the even
    k only; the 2-1 covering 3-sphere keeps all k.
    """
    param = BergerParam.coerce(tau)
    modes = []
    for k in range(k_max + 1):
        if quotient and k % 2 == 1:
            continue
        half_shell = Fraction(1 + k * (2 + k), 2) - 8
        for p in range(k // 2 + 1):
            mult = spectra.berger_multiplicity(1, k, p)
            q = k - 2 * p
            if q == 0:
                value = half_shell + Fraction(16, 4) / param.tau_sq - Fraction(1, 2)
                modes.append(JacobiMode("bundle-pair", (k, p, 0), value, 2 * mult))
            else:
                for s in (1, -1):
                    value = (half_shell
                             + Fraction((q + 4 * s) ** 2, 4) / param.tau_sq
                             - Fraction((q + s) ** 2, 2))
                    modes.append(JacobiMode("bundle-pair", (k, p, s), value, mult))
    modes.sort(key=lambda mo: (mo.value_float, mo.labels))
    return modes


def veronese_index_nullity(tau, quotient: bool = True) -> IndexReport:
    """Index/nullity of the quadratic-curve models by exact enumeration.

    Modes with k >= 5 satisfy rho >= (k^2 - 16)/4 > 0, so scanning
    k <= 4 is complete.  For the covering 3-sphere above 1/4 the table
    entries are only bounded below, and the report says so.
    """
    param = BergerParam.coerce(tau)
    modes = veronese_modes(param, k_max=4, quotient=quotient)
    cert = "modes with k >= 5 satisfy rho >= (k^2-16)/4 > 0 since tau^2 <= 1"
    return _collect_report(modes, 4, cert, *_veronese_lower_bounds(param.tau_sq, quotient))


def _veronese_lower_bounds(tau_sq: Fraction, quotient: bool) -> tuple[bool, bool]:
    """(index, nullity) lower-bound flags: exact for the projective model;
    for the covering 3-sphere the index above 1/4 and the nullity away from
    1/8, 1/4 and 1 are only bounded below."""
    if quotient:
        return False, False
    return tau_sq > Fraction(1, 4), tau_sq not in (Fraction(1), Fraction(1, 4), Fraction(1, 8))


# ---------------------------------------------------------------------------
# Totally real (round) spheres S^d with normal Killing field
# ---------------------------------------------------------------------------


def _round_sphere_eig(d: int, k: int) -> int:
    return k * (d + k - 1)


def totally_real_sphere_modes(n: int, d: int, tau, k_max: int = 3) -> list[JacobiMode]:
    """Jacobi modes of the totally geodesic real d-sphere, three families.

    * ``constant-normal``: the Laplacian shifted by d acting along each of
      the 2(n-d) constant normal directions; values lambda_k - d.
    * ``gradient-pair``: the coupled gradient/function operator; values
      lambda_k - c - sqrt(c^2 + 4 tau^2 lambda_k) with c = d+1-2 tau^2 for
      k >= 1, whose sign is the exact sign of lambda_k - 2(d+1), plus a
      one-dimensional zero mode.  (The companion + branch is strictly
      positive and omitted.)
    * ``coexact-form``: the single value -4(1-tau^2) with multiplicity
      d(d+1)/2 coming from coexact one-forms (harmonic forms for d = 1).

    At tau^2 = 1 these families evaluate exactly to the classical round
    values: the coexact value reaches zero and the k = 1 gradient value
    becomes -d.
    """
    if not (1 <= d <= n):
        raise GeometryDomainError("need 1 <= d <= n")
    param = BergerParam.coerce(tau)
    modes = []

    for k in range(max(k_max, 2) + 1):
        mult = spectra.sphere_harmonic_multiplicity(d, k)
        if d < n:
            value = Fraction(_round_sphere_eig(d, k) - d)
            modes.append(JacobiMode("constant-normal", (k,), value, 2 * (n - d) * mult))
        if k == 0:
            modes.append(JacobiMode("gradient-pair", (0,), Fraction(0), 1))
            continue
        lam = _round_sphere_eig(d, k)
        gap = lam - 2 * (d + 1)  # exact sign of the minus branch
        if gap == 0:
            modes.append(JacobiMode("gradient-pair", (k,), Fraction(0), mult))
        else:
            c = d + 1 - 2 * float(param.tau_sq)
            value = lam - c - math.sqrt(c * c + 4 * float(param.tau_sq) * lam)
            modes.append(JacobiMode("gradient-pair", (k,), value, mult,
                                    sign=(1 if gap > 0 else -1)))

    modes.append(JacobiMode("coexact-form", (2,), -4 * param.one_minus, d * (d + 1) // 2))
    modes.sort(key=lambda mo: (mo.value_float, mo.family, mo.labels))
    return modes


def totally_real_sphere_index_nullity(n: int, d: int, tau) -> IndexReport:
    """Closed-form index/nullity of the totally real d-sphere.

    For tau^2 < 1: index 2n+1+d(d-1)/2 and nullity (d+1)(2n+1-3d/2).
    At tau^2 = 1 the classical round values 2n+1-d and (d+1)(2n+1-d).
    """
    if not (1 <= d <= n):
        raise GeometryDomainError("need 1 <= d <= n")
    param = BergerParam.coerce(tau)
    if param.tau_sq == 1:
        index = 2 * n + 1 - d
        nullity = (d + 1) * (2 * n + 1 - d)
    else:
        index = 2 * n + 1 + d * (d - 1) // 2
        nullity = int((d + 1) * Fraction(2 * (2 * n + 1) - 3 * d, 2))
    modes = totally_real_sphere_modes(n, d, param, k_max=2)
    cert = ("constant-normal modes are positive for k >= 2, gradient-pair "
            "modes are negative exactly for lambda_k < 2(d+1) (k <= 1) and "
            "zero exactly at k = 2; the coexact value is -4(1-tau^2)")
    report = _collect_report([m for m in modes if m.sign is not None and m.sign <= 0], 2, cert)
    if (report.index, report.nullity) != (index, nullity):
        raise AssertionError("closed-form table disagrees with its own mode list")
    return report


# ---------------------------------------------------------------------------
# Clifford product hypersurfaces
# ---------------------------------------------------------------------------


def clifford_jacobi_modes(m1: int, m2: int, tau, sum_max: int = 2) -> list[JacobiMode]:
    """Jacobi modes of the Clifford hypersurface with k1 + k2 <= sum_max.

    The Jacobi operator is the Laplacian plus 4n, so its modes are the
    Laplace modes mu_{k1,k2,p} - 4n.  Every mode with k1+k2 >= 3 (and every
    (2,0)/(0,2) mode) is strictly positive; the nonpositive-relevant ones are

    * -4n with multiplicity 1,
    * 1/tau^2 - (2n+1) with multiplicity 2(n+1),
    * 0 with multiplicity 2(m1+1)(m2+1)                (frequency-0 pair),
    * 4(1-tau^2)/tau^2 with multiplicity 2(m1+1)(m2+1) (frequency-2 pair;
      this one reaches zero at tau^2 = 1 and doubles the nullity there).
    """
    shift = 4 * (m1 + m2 + 1)
    modes = [JacobiMode("hypersurface", (c.k1, c.k2, c.p), c.value - shift, c.multiplicity)
             for c in spectra.clifford_modes(m1, m2, tau, sum_max)]
    modes.sort(key=lambda mo: (mo.value_float, mo.labels))
    return modes


def clifford_index_nullity(m1: int, m2: int, tau) -> IndexReport:
    """Closed-form index/nullity of the Clifford hypersurface.

    Index 1 for tau^2 <= 1/(2n+1), else 2n+3.  Nullity 2(m1+1)(m2+1)
    generically, gaining 2(n+1) at tau^2 = 1/(2n+1) and doubling at
    tau^2 = 1 (cross-checked against the flat-torus Fourier oracle).
    """
    param = BergerParam.coerce(tau)
    n = m1 + m2 + 1
    threshold = Fraction(1, 2 * n + 1)
    index = 1 if param.tau_sq <= threshold else 2 * n + 3
    nullity = 2 * (m1 + 1) * (m2 + 1)
    if param.tau_sq == 1:
        nullity *= 2
    elif param.tau_sq == threshold:
        nullity += 2 * (n + 1)
    cert = ("piecewise table in tau^2; branch thresholds 1/(2n+1) and 1, "
            "eigenvalues with k1+k2 >= 3 satisfy mu >= 2n(k1+k2) > 4n")
    report = _collect_report(clifford_jacobi_modes(m1, m2, param), 2, cert)
    if (report.index, report.nullity) != (index, nullity):
        raise AssertionError("closed-form table disagrees with its own mode list")
    return report


# ---------------------------------------------------------------------------
# Generic certified driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationPolicy:
    """Optional override of the scan depth used by ``enumerate_index``."""

    k_max: Optional[int] = None


def _resolve_k(policy: Optional[TruncationPolicy], required: int) -> int:
    k = required if policy is None or policy.k_max is None else policy.k_max
    if k < required:
        raise TruncationError(
            f"requested truncation k_max={k} is below the certified bound {required}")
    if k > K_LIMIT:
        raise TruncationError(
            f"certified truncation {k} exceeds the configured limit {K_LIMIT}")
    return k


def enumerate_index(model: ModelSubmanifold, tau, policy: Optional[TruncationPolicy] = None) -> IndexReport:
    """Index/nullity of a model by mode enumeration with a positivity certificate."""
    param = BergerParam.coerce(tau)
    k = _resolve_k(policy, model.certified_k)
    return _collect_report(model.modes(param, k), k, model.certificate(k),
                           *model.lower_bounds(param))
