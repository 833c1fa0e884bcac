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

The float geometry has one entry point, the batched ``*_rows`` kernel: a
batch of points and a batch of tangent vectors are float arrays of shape
(samples, 2n+2), one sample per row; a single sample is the batch ``x[None]``.
The exact scalar formulas (``scalar_curvature``, ``ambient_mean_curvature``,
``tai_sphere_radius_sq``) take no points.

Conventions fixed here (used throughout the package):

* ``xi(z) = (1/tau) i z`` is the unit Killing field along the Hopf circles.
* ``tangent_j_rows`` is multiplication by i followed by Euclidean projection
  onto the tangent space of the sphere; it annihilates xi and agrees with
  the ambient complex structure on horizontal vectors.
* The orthonormal horizontal frame at a point (``horizontal_frame_rows``)
  is produced by projecting the coordinate basis and running Gram-Schmidt,
  in coordinate order.
* Complex projective points are represented by a homogeneous vector
  normalised to the radius of the source sphere, 1/sqrt(1 - tau^2); the
  Fubini-Study metric is evaluated on horizontal lifts at that radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Optional

import numpy as np


class GeometryDomainError(ValueError):
    """Raised when arguments violate a documented precondition."""


class RoundSphereUnsupportedError(GeometryDomainError):
    """Raised for constructions that are only defined for tau < 1."""


# ---------------------------------------------------------------------------
# Parameters and validation
# ---------------------------------------------------------------------------


def _as_fraction(value, name: str = "tau^2",
                 hint: str = "; use BergerParam.from_float to round a float explicitly"
                 ) -> Fraction:
    """``value`` as an exact Fraction; a float, or a string written as a
    decimal (with ".", "e" or "E"), raises ``GeometryDomainError``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational) or isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and not any(ch in value for ch in ".eE"):
        return Fraction(value)
    raise GeometryDomainError(f"{name} must be an exact rational, got {value!r}{hint}")


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


# ---------------------------------------------------------------------------
# Batched kernel: metric, Killing field, connection, curvature, frames
# ---------------------------------------------------------------------------
#
# Every ``*_rows`` function works on a batch of samples: points z and tangent
# vectors are float arrays of shape (samples, 2n+2), one sample per row, and
# values come back with shape (samples,).  tau is coerced and converted to a
# float once per call.  The functions that go through ``_validated`` (the
# connection correction, the curvatures, the horizontal frame and the
# geodesic-sphere second fundamental form) check their batch once, with a max
# over the rows: rows of even length >= 4, unit Euclidean norm within 1e-12,
# and tangency within 1e-10; a NaN fails every bound.  Sectional and Ricci
# curvature also need an orthonormal pair, or a unit vector, within 1e-10.


def _metric(lam: float, iz: np.ndarray, v: np.ndarray, w: np.ndarray,
            v_iz: Optional[np.ndarray] = None, w_iz: Optional[np.ndarray] = None,
            vw: Optional[np.ndarray] = None) -> np.ndarray:
    """<v, w>_tau = g(v, w) - (1 - tau^2) g(v, iz) g(w, iz), with lam = 1 - tau^2.

    ``v_iz``, ``w_iz`` and ``vw`` are g(v, iz), g(w, iz) and g(v, w) when the
    caller already has them.
    """
    if v_iz is None:
        v_iz = _dot(v, iz)
    if w_iz is None:
        w_iz = _dot(w, iz)
    if vw is None:
        vw = _dot(v, w)
    return vw - lam * v_iz * w_iz


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
    return _berger_grams((tau,), z, u, v)[0]


def _berger_grams(taus, z: np.ndarray, u: np.ndarray, v: np.ndarray) -> list[tuple]:
    """``berger_gram_rows`` at each of ``taus``; the tau-free products (iz,
    g(u, iz), g(v, iz) and the Euclidean products) are computed once."""
    iz = mult_i(z)
    u_iz, v_iz = _dot(u, iz), _dot(v, iz)
    uu, uv, vv = _dot(u, u), _dot(u, v), _dot(v, v)
    out = []
    for tau in taus:
        lam = float(BergerParam.coerce(tau).one_minus)
        out.append((_metric(lam, iz, u, u, u_iz, u_iz, uu), _metric(lam, iz, u, v, u_iz, v_iz, uv),
                    _metric(lam, iz, v, v, v_iz, v_iz, vv)))
    return out


def tangent_j_rows(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Complex structure followed by tangential projection, row-wise.

    Annihilates the Killing direction and equals multiplication by i on
    horizontal vectors; tau-independent.
    """
    return _j(z, v, _dot(v, mult_i(z)))


def _j(z: np.ndarray, v: np.ndarray, v_iz: np.ndarray) -> np.ndarray:
    """``tangent_j_rows(z, v)`` given v_iz = g(v, iz)."""
    return mult_i(v) + v_iz[..., None] * z


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


def connection_correction_rows(tau, z: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pointwise difference of the round and Berger Levi-Civita connections.

    The round connection applied to vector fields equals the Berger one
    plus this symmetric tensorial term, ((1-tau^2)/tau) (<y,xi> J x^h +
    <x,xi> J y^h) with x^h = x - <x,xi> xi.
    """
    lam, t, iz = _validated(tau, z, x, y)
    xi = iz / t
    ax = _metric(lam, iz, x, xi)[:, None]
    ay = _metric(lam, iz, y, xi)[:, None]
    jx = tangent_j_rows(z, x - ax * xi)
    jy = tangent_j_rows(z, y - ay * xi)
    return (lam / t) * (ay * jx + ax * jy)


def curvature_tensor_rows(tau, z: np.ndarray, x: np.ndarray, y: np.ndarray,
                          zz: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Riemann curvature R(x, y, z, w) of the Berger metric (five-term form).

    Each vector's g(v, iz) and each repeated inner product is formed once;
    the values are those of evaluating every term on its own.
    """
    lam, t, iz = _validated(tau, z, x, y, zz, w)
    X, Y, Z, W = x, y, zz, w
    xi = iz / t
    x_iz, y_iz, z_iz, w_iz, xi_iz = (_dot(v, iz) for v in (X, Y, Z, W, xi))
    jx, jy, jz = _j(z, X, x_iz), _j(z, Y, y_iz), _j(z, Z, z_iz)
    jx_iz, jy_iz, jz_iz = _dot(jx, iz), _dot(jy, iz), _dot(jz, iz)

    yz = _metric(lam, iz, Y, Z, y_iz, z_iz)
    xw = _metric(lam, iz, X, W, x_iz, w_iz)
    xz = _metric(lam, iz, X, Z, x_iz, z_iz)
    yw = _metric(lam, iz, Y, W, y_iz, w_iz)
    x_xi = _metric(lam, iz, X, xi, x_iz, xi_iz)
    y_xi = _metric(lam, iz, Y, xi, y_iz, xi_iz)
    val = yz * xw - xz * yw
    val += lam * (_metric(lam, iz, jy, Z, jy_iz, z_iz) * _metric(lam, iz, jx, W, jx_iz, w_iz)
                  - _metric(lam, iz, jx, Z, jx_iz, z_iz) * _metric(lam, iz, jy, W, jy_iz, w_iz)
                  - 2.0 * _metric(lam, iz, jx, Y, jx_iz, y_iz)
                  * _metric(lam, iz, jz, W, jz_iz, w_iz))
    val += lam * _metric(lam, iz, Z, xi, z_iz, xi_iz) * (x_xi * yw - y_xi * xw)
    val += lam * _metric(lam, iz, W, xi, w_iz, xi_iz) * (y_xi * xz - x_xi * yz)
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


def horizontal_frame_rows(tau, z: np.ndarray) -> np.ndarray:
    """Orthonormal frames of the horizontal spaces, shape (samples, 2n, 2n+2).

    Convention: coordinate basis vectors are projected orthogonally to the
    point and to the Killing direction, then orthonormalised in coordinate
    order (the metric equals the round one on horizontal vectors).  The two
    dependent slots of each row are dropped.
    """
    _, _, iz = _validated(tau, z)
    dim = z.shape[1]
    candidates = np.eye(dim) - z[:, :, None] * z[:, None, :]
    candidates -= _dot(candidates, iz[:, None, :])[..., None] * iz[:, None, :]
    frames, kept = berger_orthonormalize_rows(tau, z, candidates)
    if np.any(kept.sum(axis=1) != dim - 2):
        raise GeometryDomainError("failed to build a full horizontal frame")
    order = np.argsort(~kept, axis=1, kind="stable")[:, :dim - 2]
    return np.take_along_axis(frames, order[:, :, None], axis=1)


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
    """Embed the Berger sphere as a geodesic sphere of projective space.

    Returns homogeneous representatives (tau/sqrt(1-tau^2), z) of the rows
    of z: complex rows of length n+2, not normalised, whose first coordinate
    has squared modulus tau^2/(1-tau^2).  Only tau < 1 is defined.
    """
    p = BergerParam.coerce(tau)
    if p.is_round:
        raise RoundSphereUnsupportedError("the geodesic-sphere picture degenerates at tau=1")
    zc = to_complex(z)
    first = np.full(zc.shape[:-1] + (1,), p.tau / math.sqrt(float(p.one_minus)) + 0j)
    return np.concatenate((first, zc), axis=-1)


def _hermitian_re(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum(conj(a) b) over the last axis."""
    return np.einsum("...i,...i->...", a.conj(), b).real


def _fs_horizontal(reps: np.ndarray, scale: float):
    """The map u -> horizontal part of u at ``reps`` (normalised to ``scale``):
    the components along reps and along i reps are projected out."""
    r2 = scale * scale
    ireps = 1j * reps

    def horiz(u) -> np.ndarray:
        u = np.asarray(u, dtype=complex)
        a = (_hermitian_re(reps, u) / r2)[..., None]
        b = (_hermitian_re(ireps, u) / r2)[..., None]
        return u - a * reps - b * ireps

    return horiz


def fubini_study_inner_rows(reps: np.ndarray, scale: float, x: np.ndarray,
                            y: np.ndarray) -> np.ndarray:
    """Fubini-Study inner products at representatives normalised to ``scale``.

    Row-wise over leading axes.  Ambient complex vectors are reduced to their
    horizontal part at the representative (components along it and along i
    times it are projected out, by the projection ``tai_sff_inner_rows``
    shares), then paired with the real part of the Hermitian product.
    Scale/phase ambiguities of curve representatives die in the projection,
    so finite-difference pushforwards can be fed in directly.
    """
    horiz = _fs_horizontal(reps, scale)
    return _hermitian_re(horiz(x), horiz(y))


def sff_geodesic_sphere_rows(tau, z: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second-fundamental-form coefficient of the geodesic-sphere embedding.

    Returns tau <x,y> - ((1-tau^2)/tau) <x,xi> <y,xi> per row, the component
    of the second fundamental form along its unit normal.
    """
    lam, t, iz = _validated(tau, z, x, y)
    xi = iz / t
    return t * _metric(lam, iz, x, y) - (lam / t) * _metric(lam, iz, x, xi) * _metric(lam, iz, y, xi)


def ambient_mean_curvature(tau, d: int, xi_top_norm_sq) -> float:
    """Mean-curvature coefficient of a d-submanifold seen in projective space.

    For a minimal d-submanifold of the Berger sphere with tangential
    Killing-field norm squared ``xi_top_norm_sq``, the mean curvature in
    the ambient projective space points along the normal direction with
    coefficient (1/d)(tau d - ((1-tau^2)/tau) |xi^T|^2).  ``xi_top_norm_sq``
    is an exact rational, so zero detection is exact; a float raises.
    """
    p = BergerParam.coerce(tau)
    if d < 1:
        raise GeometryDomainError("d must be a positive integer")
    x = _as_fraction(xi_top_norm_sq, "xi_top_norm_sq", hint="")
    if not (0 <= x <= 1):
        raise GeometryDomainError("xi_top_norm_sq must lie in [0, 1]")
    return float(p.tau_sq * d - p.one_minus * x) / (d * p.tau)


def tai_embed_rows(tau, reps: np.ndarray) -> np.ndarray:
    """Projector embedding of projective space into Hermitian matrices.

    Maps [z] with |z|^2 = 1/(1-tau^2) to (sqrt(1-tau^2)/sqrt(2)) z^t zbar.
    ``reps`` holds complex representatives of length n+1 on its last axis,
    any leading axes, already normalised to that radius: they are not
    rescaled.  Returns matrices of shape (..., n+1, n+1); only tau < 1 is
    defined.
    """
    p = BergerParam.coerce(tau)
    if p.is_round:
        raise RoundSphereUnsupportedError("the projector embedding needs tau < 1")
    coef = math.sqrt(float(p.one_minus)) / math.sqrt(2.0)
    return coef * (reps[..., :, None] * reps.conj()[..., None, :])


def tai_sphere_center(tau, n: int) -> np.ndarray:
    """Center of the sphere containing the projector-embedded projective space."""
    p = BergerParam.coerce(tau)
    if p.is_round:
        raise RoundSphereUnsupportedError("the projector embedding needs tau < 1")
    c = 1.0 / ((n + 1) * math.sqrt(2.0 * float(p.one_minus)))
    return c * np.eye(n + 1, dtype=complex)


def tai_sphere_radius_sq(tau, n: int) -> Fraction:
    """Squared radius n / (2 (n+1) (1-tau^2)) of that sphere, exact."""
    p = BergerParam.coerce(tau)
    if p.is_round:
        raise RoundSphereUnsupportedError("the projector embedding needs tau < 1")
    return Fraction(n) / (2 * (n + 1) * p.one_minus)


def tai_sff_inner_rows(tau, reps: np.ndarray, scale: float, x, y, v, w) -> np.ndarray:
    """Closed-form inner product of second-fundamental-form values.

    For horizontal lifts x, y, v, w at representatives normalised to
    ``scale``, the second fundamental form of the projector embedding
    satisfies

        <s(x,y), s(v,w)> = (1-tau^2) [ 2<x,y><v,w> + <x,w><y,v>
                            + <x,v><y,w> + <x,Jw><y,Jv> + <x,Jv><y,Jw> ],

    with J multiplication by i and <.,.> the Fubini-Study metric; row-wise.
    The six vectors x, y, v, w, Jw and Jv are each projected horizontally
    once, and the ten products paired from the projections: bit for bit the
    ten ``fubini_study_inner_rows`` calls of the formula.
    """
    lam = float(BergerParam.coerce(tau).one_minus)
    horiz = _fs_horizontal(reps, scale)
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    hx, hy, hv, hw, hjw, hjv = map(horiz, (x, y, v, w, 1j * w, 1j * v))
    ip = _hermitian_re
    return lam * (2.0 * ip(hx, hy) * ip(hv, hw)
                  + ip(hx, hw) * ip(hy, hv)
                  + ip(hx, hv) * ip(hy, hw)
                  + ip(hx, hjw) * ip(hy, hjv)
                  + ip(hx, hjv) * ip(hy, hjw))
