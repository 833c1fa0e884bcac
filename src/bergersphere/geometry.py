"""Exact and floating-point geometry of Berger spheres.

A Berger sphere is the unit sphere S^{2n+1} in C^{n+1} carrying the round
metric shrunk by a factor tau^2 along the Hopf circle direction:

    <v, w>_tau = g(v, w) - (1 - tau^2) g(v, iz) g(w, iz),   0 < tau <= 1,

with g the Euclidean metric.  Ambient objects live in interleaved real
coordinates (Re z_1, Im z_1, Re z_2, Im z_2, ...); the complex structure is
the fixed linear map pairing those slots.  The deformation parameter is
an exact rational tau^2 (``params.BergerParam``, re-exported here with the
domain errors); square roots are taken only where a float is required.

The float geometry has one entry point, the batched ``*_rows`` kernel: a
batch of points and a batch of tangent vectors are float arrays of shape
(samples, 2n+2), one sample per row; a single sample is the batch ``x[None]``.
The exact ``tai_sphere_radius_sq`` takes no points.

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
from fractions import Fraction
from typing import Optional

import numpy as np

from .params import BergerParam, GeometryDomainError, RoundSphereUnsupportedError


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
    """Riemann curvature R(x, y, z, w) of the Berger metric (five-term form):
    the one-order case of ``curvature_orders_rows``."""
    return curvature_orders_rows(tau, z, (x, y, zz, w), ((0, 1, 2, 3),))[0]


def curvature_orders_rows(tau, z: np.ndarray, vectors, orders, pairs=()) -> np.ndarray:
    """R(v_a, v_b, v_c, v_d) for every order (a, b, c, d) of indices into
    ``vectors``, then the Berger product <v_p, v_q> for every index pair
    (p, q) of ``pairs``, stacked on a new leading axis.

    With (x, y, z, w) an order's four vectors, the five-term form is

        R = <y,z><x,w> - <x,z><y,w>
            + lam (<Jy,z><Jx,w> - <Jx,z><Jy,w> - 2 <Jx,y><Jz,w>)
            + lam <z,xi> (<x,xi><y,w> - <y,xi><x,w>)
            + lam <w,xi> (<y,xi><x,z> - <x,xi><y,z>),   lam = 1 - tau^2.

    Each vector's g(v, iz) and <v, xi> is formed once.  The Berger products
    <v_p, v_q> and <Jv_p, v_q> are formed once per ordered pair, however
    many orders read it, by one ``einsum`` call each over a block of pairs:
    p runs from the least to the greatest index that the orders and
    ``pairs`` read on the left, q likewise on the right, and J v is formed
    for the left vectors of the second block only.  One order thus forms
    4 + 9 products and 3 J v, not 16 + 16 and 4.  A product is kept per
    ordered pair: (lam g(v, iz)) g(w, iz) and (lam g(w, iz)) g(v, iz) may
    differ in the last bit.  Every value is that of evaluating the form term
    by term on the order's own arguments, bit for bit.
    """
    lam, t, iz = _validated(tau, z, *vectors)
    vecs = np.stack(vectors)
    xi = iz / t
    v_iz = _dot(vecs, iz)
    lam_v = lam * v_iz
    v_xi = _dot(vecs, xi) - lam_v * _dot(xi, iz)

    a, b, c, d = np.array(orders).T
    # tables of the products of every ordered pair, of which only the blocks
    # read are formed
    metric, j_metric = np.empty((2, len(vectors)) + v_iz.shape)
    left, right = _span(orders, (0, 1), pairs, 0), _span(orders, (2, 3), pairs, 1)
    products = metric[left, right]
    np.einsum("pri,qri->pqr", vecs[left], vecs[right], out=products)
    products -= lam_v[left, None] * v_iz[right]
    left, right = _span(orders, (0, 1, 2)), _span(orders, (1, 2, 3))
    jv = _j(z, vecs[left], v_iz[left])
    products = j_metric[left, right]
    np.einsum("pri,qri->pqr", jv, vecs[right], out=products)
    products -= (lam * _dot(jv, iz))[:, None] * v_iz[right]

    yz, xw, xz, yw = metric[[b, a, a, b], [c, d, c, d]]
    jy_z, jx_w, jx_z, jy_w, jx_y, jz_w = j_metric[[b, a, a, b, a, c], [c, d, c, d, b, d]]
    pair_products = metric[tuple(np.array(pairs).T)] if pairs else None
    del metric, j_metric, products  # the tables are freed before the terms are formed
    x_xi, y_xi, z_xi, w_xi = v_xi[[a, b, c, d]]
    val = yz * xw - xz * yw
    val += lam * (jy_z * jx_w - jx_z * jy_w - 2.0 * jx_y * jz_w)
    val += lam * z_xi * (x_xi * yw - y_xi * xw)
    val += lam * w_xi * (y_xi * xz - x_xi * yz)
    if not pairs:
        return val
    return np.concatenate((val, pair_products))


def _span(orders, slots, pairs=(), side=0) -> slice:
    """The slice from the least to the greatest vector index that the
    ``orders`` read in their ``slots`` and, with ``pairs``, that the pairs
    read at their index ``side``."""
    every = [order[slot] for order in orders for slot in slots] + [pair[side] for pair in pairs]
    return slice(min(every), max(every) + 1)


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
    out = reps[..., :, None] * reps.conj()[..., None, :]
    out *= math.sqrt(float(p.one_minus)) / math.sqrt(2.0)
    return out


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
