"""Exact and floating-point geometry of Berger spheres.

A Berger sphere is the unit sphere S^{2n+1} in C^{n+1} carrying the round
metric shrunk by a factor tau^2 along the Hopf circle direction:

    <v, w>_tau = g(v, w) - (1 - tau^2) g(v, iz) g(w, iz),   0 < tau <= 1,

with g the Euclidean metric.  Ambient objects live in interleaved real
coordinates (Re z_1, Im z_1, Re z_2, Im z_2, ...); the complex structure is
the fixed linear map pairing those slots.  The deformation parameter is
carried as an exact rational tau^2 because every classification threshold
in this package is a rational number in tau^2 - floats would misclassify
boundary cases.  Square roots are taken only where a float is required.

Conventions fixed here (used throughout the package):

* ``xi(z) = (1/tau) i z`` is the unit Killing field along the Hopf circles.
* ``tangent_j`` is multiplication by i followed by Euclidean projection
  onto the tangent space of the sphere; it annihilates xi and agrees with
  the ambient complex structure on horizontal vectors.
* The orthonormal horizontal frame at a point is produced by projecting
  the coordinate basis and running Gram-Schmidt, in coordinate order.
* Complex projective points are represented by a homogeneous vector
  normalised to the radius of the source sphere, 1/sqrt(1 - tau^2); the
  Fubini-Study metric is evaluated on horizontal lifts at that radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Optional, Sequence

import numpy as np


class GeometryDomainError(ValueError):
    """Raised when arguments violate a documented precondition."""


class RoundSphereUnsupportedError(ValueError):
    """Raised for constructions that are only defined for tau < 1."""


# ---------------------------------------------------------------------------
# Parameters and ambient objects
# ---------------------------------------------------------------------------


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational) or isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise GeometryDomainError(
        f"tau^2 must be an exact rational, got {value!r}; "
        "use BergerParam.from_float to round a float explicitly"
    )


@dataclass(frozen=True)
class BergerParam:
    """Deformation parameter, stored as an exact rational tau^2."""

    tau_sq: Fraction

    def __post_init__(self):
        object.__setattr__(self, "tau_sq", _as_fraction(self.tau_sq))
        if not (0 < self.tau_sq <= 1):
            raise GeometryDomainError(f"tau^2 must lie in (0, 1], got {self.tau_sq}")

    @classmethod
    def coerce(cls, value) -> "BergerParam":
        if isinstance(value, BergerParam):
            return value
        return cls(_as_fraction(value))

    @classmethod
    def from_float(cls, tau: float) -> "BergerParam":
        """Exact binary rational tau^2 from a float tau (explicit opt-in)."""
        return cls(Fraction(tau) ** 2)

    @property
    def tau(self) -> float:
        return math.sqrt(self.tau_sq)

    @property
    def one_minus(self) -> Fraction:
        """1 - tau^2, exact."""
        return 1 - self.tau_sq

    @property
    def vertical_ratio(self) -> Fraction:
        """(1 - tau^2) / tau^2, exact."""
        return (1 - self.tau_sq) / self.tau_sq

    @property
    def is_round(self) -> bool:
        return self.tau_sq == 1

    def __str__(self):
        return f"tau^2={self.tau_sq}"


def mult_i(v: np.ndarray) -> np.ndarray:
    """Multiplication by i in interleaved real coordinates (last axis)."""
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
    return out


def to_complex(v: np.ndarray) -> np.ndarray:
    """Interleaved real coordinates -> complex vector (last axis)."""
    return v[..., 0::2] + 1j * v[..., 1::2]


def from_complex(z: np.ndarray) -> np.ndarray:
    """Complex vector -> interleaved real coordinates."""
    out = np.empty(2 * len(z))
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean product over the last axis, broadcast over the others."""
    return np.einsum("...i,...i->...", a, b)


def check_dimension(dim: int) -> None:
    """Ambient coordinate rows have even length >= 4."""
    if dim % 2 != 0 or dim < 4:
        raise GeometryDomainError("ambient coordinates must have even length >= 4")


def check_points(z: np.ndarray) -> np.ndarray:
    """Validate a batch of ambient points, one per row; return it as floats.

    Rows must have even length >= 4 and unit Euclidean norm (1e-12); a NaN
    fails every bound.
    """
    z = np.asarray(z, dtype=float)
    check_dimension(z.shape[1] if z.ndim == 2 else -1)
    if not np.all(np.abs(_dot(z, z) - 1.0) <= 1e-12):
        raise GeometryDomainError("ambient point must have unit Euclidean norm (1e-12)")
    return z


def check_tangents(z: np.ndarray, *vectors: np.ndarray) -> None:
    """Validate batches of vectors tangent to the sphere at the rows of z (1e-10)."""
    for v in vectors:
        if np.shape(v) != z.shape:
            raise GeometryDomainError("tangent components must match the base point shape")
        if not np.all(np.abs(_dot(v, z)) <= 1e-10):
            raise GeometryDomainError("vector is not tangent to the sphere (1e-10)")


@dataclass(frozen=True)
class AmbientPoint:
    """A point of S^{2n+1} subset C^{n+1}, in interleaved real coordinates."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        check_points(c[None])
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @classmethod
    def from_complex(cls, z: Sequence[complex]) -> "AmbientPoint":
        return cls(from_complex(np.asarray(z, dtype=complex)))

    @property
    def n(self) -> int:
        """Ambient complex dimension n for S^{2n+1} subset C^{n+1}."""
        return len(self.coords) // 2 - 1


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector to the sphere at a base point."""

    base: AmbientPoint
    comps: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.comps, dtype=float)
        check_tangents(self.base.coords[None], v[None])
        v.setflags(write=False)
        object.__setattr__(self, "comps", v)


@dataclass(frozen=True)
class HermitianMatrix:
    """A Hermitian matrix, the target of the projector embedding."""

    order: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.shape != (self.order, self.order):
            raise GeometryDomainError("entries must be a square matrix of the stated order")
        if np.max(np.abs(e - e.conj().T)) > 1e-12:
            raise GeometryDomainError("matrix is not Hermitian (1e-12)")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    def inner(self, other: "HermitianMatrix") -> float:
        """trace(AB), the Euclidean metric on Hermitian matrices."""
        return float(np.real(np.sum(self.entries * other.entries.conj())))

    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of complex projective space, by a homogeneous representative.

    The representative is normalised on construction to the radius of the
    source sphere (``scale``); the phase stays free.
    """

    rep: np.ndarray
    scale: float

    def __post_init__(self):
        r = np.asarray(self.rep, dtype=complex)
        norm = float(np.linalg.norm(r))
        if norm == 0.0:
            raise GeometryDomainError("projective representative must be nonzero")
        if self.scale <= 0:
            raise GeometryDomainError("source-sphere radius must be positive")
        r = r * (self.scale / norm)
        r.setflags(write=False)
        object.__setattr__(self, "rep", r)


# ---------------------------------------------------------------------------
# Batched kernel: metric, Killing field, curvature
# ---------------------------------------------------------------------------
#
# Every ``*_rows`` function works on a batch of samples: points z and tangent
# vectors are float arrays of shape (samples, 2n+2), one sample per row, and
# values come back with shape (samples,).  tau is coerced and converted to a
# float once per call.  The curvature functions validate their batch once,
# with a max over the rows, against the same bounds as ``AmbientPoint`` and
# ``TangentVector``.  The scalar functions further down are one-row wrappers.


def _metric(lam: float, iz: np.ndarray, v: np.ndarray, w: np.ndarray,
            v_iz: Optional[np.ndarray] = None, w_iz: Optional[np.ndarray] = None) -> np.ndarray:
    """<v, w>_tau = g(v, w) - (1 - tau^2) g(v, iz) g(w, iz), with lam = 1 - tau^2.

    ``v_iz`` and ``w_iz`` are g(v, iz) and g(w, iz) when the caller already
    has them.
    """
    if v_iz is None:
        v_iz = _dot(v, iz)
    if w_iz is None:
        w_iz = _dot(w, iz)
    return _dot(v, w) - lam * v_iz * w_iz


def berger_inner_rows(tau, z: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Berger metric on raw coordinate rows, broadcast over leading axes.

    The formula is defined on all of R^{2n+2}, so nothing is validated:
    finite-difference callers pass vectors that are only nearly tangent.
    """
    return _metric(float(BergerParam.coerce(tau).one_minus), mult_i(z), v, w)


def berger_gram_rows(tau, z: np.ndarray, u: np.ndarray,
                     v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(<u, u>, <u, v>, <v, v>) of the Berger metric on raw coordinate rows.

    Bit for bit the three ``berger_inner_rows`` calls, with iz, g(u, iz) and
    g(v, iz) computed once; like them, nothing is validated.
    """
    lam = float(BergerParam.coerce(tau).one_minus)
    iz = mult_i(z)
    u_iz, v_iz = _dot(u, iz), _dot(v, iz)
    return (_metric(lam, iz, u, u, u_iz, u_iz), _metric(lam, iz, u, v, u_iz, v_iz),
            _metric(lam, iz, v, v, v_iz, v_iz))


def tangent_j_rows(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Complex structure followed by tangential projection, row-wise."""
    return mult_i(v) + _dot(v, mult_i(z))[..., None] * z


def killing_field_rows(tau, z: np.ndarray) -> np.ndarray:
    """The unit vertical field (1/tau) i z at each row of z."""
    return mult_i(z) / BergerParam.coerce(tau).tau


def killing_flow_rows(tau, t: float, z: np.ndarray) -> np.ndarray:
    """Flow of the Killing field, cos(t/tau) z + sin(t/tau) i z, renormalised."""
    th = t / BergerParam.coerce(tau).tau
    c = math.cos(th) * z + math.sin(th) * mult_i(z)
    return c / np.linalg.norm(c, axis=-1, keepdims=True)


def killing_flow_differential_rows(tau, t: float, v: np.ndarray) -> np.ndarray:
    """Pushforward of tangent rows under the (linear) Killing flow."""
    th = t / BergerParam.coerce(tau).tau
    return math.cos(th) * v + math.sin(th) * mult_i(v)


def _validated(tau, z: np.ndarray, *vectors: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Check a batch of points and tangent rows; return (1 - tau^2, tau, i z)."""
    p = BergerParam.coerce(tau)
    z = check_points(z)
    check_tangents(z, *vectors)
    return float(p.one_minus), p.tau, mult_i(z)


def curvature_tensor_rows(tau, z: np.ndarray, x: np.ndarray, y: np.ndarray,
                          zz: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Riemann curvature R(x, y, z, w) of the Berger metric (five-term form)."""
    lam, t, iz = _validated(tau, z, x, y, zz, w)

    def ip(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _metric(lam, iz, a, b)

    xi = iz / t
    jx = tangent_j_rows(z, x)
    jy = tangent_j_rows(z, y)
    jz = tangent_j_rows(z, zz)
    X, Y, Z, W = x, y, zz, w
    val = ip(Y, Z) * ip(X, W) - ip(X, Z) * ip(Y, W)
    val += lam * (ip(jy, Z) * ip(jx, W) - ip(jx, Z) * ip(jy, W) - 2.0 * ip(jx, Y) * ip(jz, W))
    val += lam * ip(Z, xi) * (ip(X, xi) * ip(Y, W) - ip(Y, xi) * ip(X, W))
    val += lam * ip(W, xi) * (ip(Y, xi) * ip(X, Z) - ip(X, xi) * ip(Y, Z))
    return val


def sectional_curvature_rows(tau, z: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sectional curvature of the planes spanned by orthonormal row pairs."""
    lam, t, iz = _validated(tau, z, v, w)
    if not (np.all(np.abs(_metric(lam, iz, v, v) - 1.0) <= 1e-10)
            and np.all(np.abs(_metric(lam, iz, w, w) - 1.0) <= 1e-10)
            and np.all(np.abs(_metric(lam, iz, v, w)) <= 1e-10)):
        raise GeometryDomainError("sectional curvature needs an orthonormal pair (1e-10)")
    xi = iz / t
    a = _metric(lam, iz, v, tangent_j_rows(z, w))
    xi_v = _metric(lam, iz, xi, v)
    xi_w = _metric(lam, iz, xi, w)
    return 1.0 + lam * (3.0 * a * a - (xi_v * xi_v + xi_w * xi_w))


def ricci_rows(tau, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ricci curvature of unit tangent rows."""
    lam, t, iz = _validated(tau, z, v)
    if not np.all(np.abs(_metric(lam, iz, v, v) - 1.0) <= 1e-10):
        raise GeometryDomainError("Ricci curvature needs a unit vector (1e-10)")
    n = z.shape[1] // 2 - 1
    a = _metric(lam, iz, iz / t, v)
    return 2.0 * n + 2.0 * lam * (1.0 - (n + 1) * a * a)


def berger_orthonormalize_rows(tau, z: np.ndarray,
                               vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt of (samples, k, 2n+2) vectors, per row, in slot order.

    Returns the frames and a (samples, k) mask of the slots kept; a
    dependent slot (squared norm <= 1e-16) is left at zero, so later slots
    are projected off exactly the kept ones.
    """
    lam = float(BergerParam.coerce(tau).one_minus)
    iz = mult_i(z)
    vectors = np.asarray(vectors, dtype=float)
    frames = np.zeros(vectors.shape)
    kept = np.zeros(frames.shape[:2], dtype=bool)
    for j in range(frames.shape[1]):
        u = vectors[:, j].copy()
        for i in range(j):
            u -= _metric(lam, iz, u, frames[:, i])[:, None] * frames[:, i]
        norm_sq = _metric(lam, iz, u, u)
        kept[:, j] = norm_sq > 1e-16
        frames[kept[:, j], j] = u[kept[:, j]] / np.sqrt(norm_sq[kept[:, j]])[:, None]
    return frames, kept


# ---------------------------------------------------------------------------
# Scalar API: one-row wrappers over the batched kernel
# ---------------------------------------------------------------------------


def berger_inner(tau, z: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """Low-level metric evaluation on raw coordinate arrays."""
    return float(berger_inner_rows(tau, z, v, w))


def _same_base(z: AmbientPoint, *vectors: TangentVector) -> None:
    for vec in vectors:
        if vec.base.coords is not z.coords and not np.array_equal(vec.base.coords, z.coords):
            raise GeometryDomainError("tangent vectors must be based at the same point")


def metric_eval(tau, z: AmbientPoint, v: TangentVector, w: TangentVector) -> float:
    """Berger inner product <v, w>_tau of two tangent vectors at z."""
    _same_base(z, v, w)
    return berger_inner(tau, z.coords, v.comps, w.comps)


def killing_field(tau, z: AmbientPoint) -> TangentVector:
    """The unit vertical field (1/tau) i z spanning the Hopf circle direction."""
    return TangentVector(z, killing_field_rows(tau, z.coords))


def killing_flow(tau, t: float, z: AmbientPoint) -> AmbientPoint:
    """Flow of the Killing field: cos(t/tau) z + sin(t/tau) i z."""
    return AmbientPoint(killing_flow_rows(tau, t, z.coords))


def tangent_j(z: AmbientPoint, v: np.ndarray) -> np.ndarray:
    """Complex structure followed by tangential projection.

    Annihilates the Killing direction and equals multiplication by i on
    horizontal vectors; tau-independent.
    """
    return tangent_j_rows(z.coords, np.asarray(v, dtype=float))


def connection_correction(tau, z: AmbientPoint, x: TangentVector, y: TangentVector) -> TangentVector:
    """Pointwise difference of the round and Berger Levi-Civita connections.

    The round connection applied to vector fields equals the Berger one
    plus this symmetric tensorial term.
    """
    p = BergerParam.coerce(tau)
    _same_base(z, x, y)
    xi = killing_field(p, z)
    ax = metric_eval(p, z, x, xi)
    ay = metric_eval(p, z, y, xi)
    jx = tangent_j(z, x.comps - ax * xi.comps)
    jy = tangent_j(z, y.comps - ay * xi.comps)
    coef = float(p.one_minus) / p.tau
    return TangentVector(z, coef * (ay * jx + ax * jy))


def curvature_tensor(tau, z: AmbientPoint, x: TangentVector, y: TangentVector,
                     zz: TangentVector, w: TangentVector) -> float:
    """Riemann curvature R(x, y, z, w) of the Berger metric (five-term form)."""
    _same_base(z, x, y, zz, w)
    return float(curvature_tensor_rows(tau, z.coords[None], x.comps[None], y.comps[None],
                                       zz.comps[None], w.comps[None])[0])


def sectional_curvature(tau, z: AmbientPoint, v: TangentVector, w: TangentVector) -> float:
    """Sectional curvature of the plane spanned by an orthonormal pair."""
    _same_base(z, v, w)
    return float(sectional_curvature_rows(tau, z.coords[None], v.comps[None], w.comps[None])[0])


def ricci(tau, z: AmbientPoint, v: TangentVector) -> float:
    """Ricci curvature of a unit tangent vector."""
    _same_base(z, v)
    return float(ricci_rows(tau, z.coords[None], v.comps[None])[0])


def scalar_curvature(tau, n: int) -> Fraction:
    """Scalar curvature 2n (2(n+1) - tau^2), exact."""
    p = BergerParam.coerce(tau)
    if n < 0:
        raise GeometryDomainError("n must be nonnegative")
    return Fraction(2 * n) * (2 * (n + 1) - p.tau_sq)


# ---------------------------------------------------------------------------
# Embeddings into complex projective space and Hermitian matrices
# ---------------------------------------------------------------------------


def geodesic_sphere_reps(tau, z: np.ndarray) -> np.ndarray:
    """Homogeneous representatives (tau/sqrt(1-tau^2), z) of the rows of z.

    Complex rows of length n+2, not normalised; only tau < 1 is defined.
    """
    p = BergerParam.coerce(tau)
    if p.is_round:
        raise RoundSphereUnsupportedError("the geodesic-sphere picture degenerates at tau=1")
    zc = to_complex(z)
    first = np.full(zc.shape[:-1] + (1,), p.tau / math.sqrt(float(p.one_minus)) + 0j)
    return np.concatenate((first, zc), axis=-1)


def geodesic_sphere_embed(tau, z: AmbientPoint) -> ProjectivePoint:
    """Embed the Berger sphere as a geodesic sphere of projective space.

    The image point is [ (tau/sqrt(1-tau^2), z) ]; the first homogeneous
    coordinate has squared modulus tau^2/(1-tau^2).  Only defined for
    tau < 1.
    """
    p = BergerParam.coerce(tau)
    rep = geodesic_sphere_reps(p, z.coords)
    return ProjectivePoint(rep, 1.0 / math.sqrt(float(p.one_minus)))


def _hermitian_re(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum(conj(a) b) over the last axis."""
    return np.einsum("...i,...i->...", a.conj(), b).real


def fubini_study_inner_rows(reps: np.ndarray, scale: float, x: np.ndarray,
                            y: np.ndarray) -> np.ndarray:
    """Fubini-Study inner products at representatives normalised to ``scale``.

    Row-wise over leading axes; ``fubini_study_inner`` is the one-row case.
    """
    r2 = scale * scale

    def horiz(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=complex)
        a = (_hermitian_re(reps, u) / r2)[..., None]
        b = (_hermitian_re(1j * reps, u) / r2)[..., None]
        return u - a * reps - b * (1j * reps)

    return _hermitian_re(horiz(x), horiz(y))


def fubini_study_inner(p: ProjectivePoint, x: np.ndarray, y: np.ndarray) -> float:
    """Fubini-Study inner product of two ambient complex vectors at p.

    Vectors are reduced to their horizontal part at the normalised
    representative (components along the representative and along i times
    it are projected out), then paired with the real part of the Hermitian
    product.  Scale/phase ambiguities of curve representatives die in the
    projection, so finite-difference pushforwards can be fed in directly.
    """
    return float(fubini_study_inner_rows(p.rep, p.scale, x, y))


def sff_geodesic_sphere(tau, x: TangentVector, y: TangentVector) -> float:
    """Second-fundamental-form coefficient of the geodesic-sphere embedding.

    Returns tau <x,y> - ((1-tau^2)/tau) <x,xi> <y,xi>, the component of
    the second fundamental form along its unit normal.
    """
    p = BergerParam.coerce(tau)
    z = x.base
    _same_base(z, x, y)
    xi = killing_field(p, z)
    return (p.tau * metric_eval(p, z, x, y)
            - (float(p.one_minus) / p.tau) * metric_eval(p, z, x, xi) * metric_eval(p, z, y, xi))


def ambient_mean_curvature(tau, d: int, xi_top_norm_sq) -> float:
    """Mean-curvature coefficient of a d-submanifold seen in projective space.

    For a minimal d-submanifold of the Berger sphere with tangential
    Killing-field norm squared ``xi_top_norm_sq``, the mean curvature in
    the ambient projective space points along the normal direction with
    coefficient (1/d)(tau d - ((1-tau^2)/tau) |xi^T|^2).  Exact rational
    input makes zero detection exact.
    """
    p = BergerParam.coerce(tau)
    if d < 1:
        raise GeometryDomainError("d must be a positive integer")
    try:
        x = _as_fraction(xi_top_norm_sq)
        exact = True
    except GeometryDomainError:
        x = xi_top_norm_sq
        exact = False
    if not (0 <= x <= 1):
        raise GeometryDomainError("xi_top_norm_sq must lie in [0, 1]")
    numerator = p.tau_sq * d - p.one_minus * x if exact else float(p.tau_sq) * d - float(p.one_minus) * x
    if numerator == 0:
        return 0.0
    return float(numerator) / (d * p.tau)


def tai_embed(tau, point: ProjectivePoint) -> HermitianMatrix:
    """Projector embedding of projective space into Hermitian matrices.

    Maps [z] with |z|^2 = 1/(1-tau^2) to (sqrt(1-tau^2)/sqrt(2)) z^t zbar.
    Representatives of other norms are rescaled; only tau < 1 is defined.
    """
    p = BergerParam.coerce(tau)
    if p.is_round:
        raise RoundSphereUnsupportedError("the projector embedding needs tau < 1")
    lam = float(p.one_minus)
    radius = 1.0 / math.sqrt(lam)
    rep = point.rep * (radius / np.linalg.norm(point.rep))
    coef = math.sqrt(lam) / math.sqrt(2.0)
    return HermitianMatrix(len(rep), coef * np.outer(rep, rep.conj()))


def tai_sphere_center(tau, n: int) -> HermitianMatrix:
    """Center of the sphere containing the projector-embedded projective space."""
    p = BergerParam.coerce(tau)
    if p.is_round:
        raise RoundSphereUnsupportedError("the projector embedding needs tau < 1")
    c = 1.0 / ((n + 1) * math.sqrt(2.0 * float(p.one_minus)))
    return HermitianMatrix(n + 1, c * np.eye(n + 1, dtype=complex))


def tai_sphere_radius_sq(tau, n: int) -> Fraction:
    """Squared radius n / (2 (n+1) (1-tau^2)) of that sphere, exact."""
    p = BergerParam.coerce(tau)
    if p.is_round:
        raise RoundSphereUnsupportedError("the projector embedding needs tau < 1")
    return Fraction(n) / (2 * (n + 1) * p.one_minus)


def tai_sff_inner_rows(tau, reps: np.ndarray, scale: float, x, y, v, w) -> np.ndarray:
    """Row-wise ``tai_sff_inner`` at representatives normalised to ``scale``."""
    lam = float(BergerParam.coerce(tau).one_minus)

    def ip(a, b):
        return fubini_study_inner_rows(reps, scale, a, b)

    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return lam * (2.0 * ip(x, y) * ip(v, w)
                  + ip(x, w) * ip(y, v)
                  + ip(x, v) * ip(y, w)
                  + ip(x, 1j * w) * ip(y, 1j * v)
                  + ip(x, 1j * v) * ip(y, 1j * w))


def tai_sff_inner(tau, point: ProjectivePoint, x, y, v, w) -> float:
    """Closed-form inner product of second-fundamental-form values.

    For horizontal lifts x, y, v, w at a projective point, the second
    fundamental form of the projector embedding satisfies

        <s(x,y), s(v,w)> = (1-tau^2) [ 2<x,y><v,w> + <x,w><y,v>
                            + <x,v><y,w> + <x,Jw><y,Jv> + <x,Jv><y,Jw> ],

    with J multiplication by i and <.,.> the Fubini-Study metric.
    """
    return float(tai_sff_inner_rows(tau, point.rep, point.scale, x, y, v, w))


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


def berger_orthonormalize(tau, z: AmbientPoint, vectors: Iterable[np.ndarray]) -> list[np.ndarray]:
    """Gram-Schmidt with respect to the Berger metric; drops dependent vectors."""
    vecs = np.array(list(vectors), dtype=float).reshape(-1, len(z.coords))
    frames, kept = berger_orthonormalize_rows(tau, z.coords[None], vecs[None])
    return list(frames[0, kept[0]])


def horizontal_frame(tau, z: AmbientPoint) -> list[TangentVector]:
    """Orthonormal frame of the horizontal space at z.

    Convention: coordinate basis vectors are projected orthogonally to the
    point and to the Killing direction, then orthonormalised in coordinate
    order (the metric equals the round one on horizontal vectors).
    """
    p = BergerParam.coerce(tau)
    zc = z.coords
    iz = mult_i(zc)
    dim = len(zc)
    candidates = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        e -= float(np.dot(e, zc)) * zc
        e -= float(np.dot(e, iz)) * iz
        candidates.append(e)
    frame = berger_orthonormalize(p, z, candidates)
    if len(frame) != dim - 2:
        raise GeometryDomainError("failed to build a full horizontal frame")
    return [TangentVector(z, f) for f in frame]
