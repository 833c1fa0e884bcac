"""Sampled differential-geometry checks and the standard verification suite.

Each check evaluates an identity of the float geometry kernel
(``geometry``) at seeded random points, by finite differences where it
needs a derivative, and reports its worst error against a stated tolerance
as an ``oracle.CheckReport``.  ``verify_all`` runs them together with the
exact cross-checks of ``oracle``.

All sampling checks are deterministic: each owns an RNG stream derived
from (seed, check name), so identical seeds give identical reports.
"""

from __future__ import annotations

import functools
import math
import zlib
from fractions import Fraction

import numpy as np

from . import geometry
from .geometry import (_berger_grams, _dot, berger_inner_rows, berger_orthonormalize_rows,
                       check_dimension, check_points, check_tangents, curvature_orders_rows,
                       fubini_study_inner_rows, geodesic_sphere_reps, killing_field_rows,
                       killing_flow_differential_rows, killing_flow_rows, mult_i, ricci_rows,
                       sectional_curvature_rows, tai_embed_rows, tai_sff_inner_rows,
                       tai_sphere_center, tai_sphere_radius_sq)
from .models import CliffordHypersurface, ModelSubmanifold, TotallyRealSphere
from .oracle import (DEFAULT_SEED, CheckReport, _report, bidegree_cross_check,
                     lattice_cross_check, vertical_spectrum_cross_check)
from .params import BergerParam, GeometryDomainError

# Bytes that one kernel call of a sampled check may hold.  A batch, and a
# group of stacked finite-difference directions, gets as many rows as fit: a
# row of a real-vector check counts as five vectors of 2n+2 floats (a
# metric-definiteness row as its 2n+2 vectors), and a direction-row of a
# projector curve call as two steps of (n+1)^2 complex entries.  At n = 16
# no call gets more rows than it did when every batch had 256 rows and every
# probe call 64; at n <= 3 calls are up to 16 times longer, and memory, not
# speed, sets the size (README).
CALL_BYTES = 2 ** 17

# Largest n that the command-line curvature and projector checks accept: at
# n = 16 ``tai-check --samples 300`` traces 1.8 MiB, and the Ricci check's
# roundoff on 2n tau^2 grows with n (at n = 128 it exceeds 1e-12).
N_LIMIT = 16


def _rng(seed: int, name: str) -> np.random.Generator:
    """The check's stream for ``seed``, which must lie in [0, 2^32): distinct
    seeds give distinct streams."""
    if not 0 <= seed < 2 ** 32:
        raise GeometryDomainError(f"seed must lie in [0, 2^32), got {seed}")
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


# ---------------------------------------------------------------------------
# Sampled differential-geometry checks
# ---------------------------------------------------------------------------
#
# Each check draws its samples in batches that fit ``CALL_BYTES`` and
# evaluates them with the batched kernel of ``geometry``; memory therefore
# does not grow with the sample count.  A batch takes its normals from the
# check's stream in one (rows, slots, dim) block, which is the order in which
# a one-sample-at-a-time loop would draw them, so the samples do not depend
# on the batch size.  A check that evaluates one kernel on several argument
# sets of a batch (the two ends of a finite difference) stacks them
# ``_in_groups`` that fit the same budget, so a small batch pays the per-call
# cost once; the curvature checks pass all their argument orders to one
# ``curvature_orders_rows`` call instead.  A check that ``verify`` runs at
# two tau draws each batch once for both.


def _vector_bytes(n: int, vectors: int = 5) -> int:
    """Bytes of a row of ``vectors`` real vectors of S^{2n+1}.  A row of a
    real-vector check counts five, the most that a curvature check draws per
    sample, whatever the check draws; only metric-definiteness, whose rows
    hold a point and 2n+1 tangents, counts more."""
    return vectors * (2 * n + 2) * 8


def _curve_bytes(n: int) -> int:
    """Bytes of a direction-row of a projector curve call: its two steps,
    complex (n+1) x (n+1) matrices."""
    return 2 * (n + 1) ** 2 * 16


def _rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` bytes that fit one call, at least one (also for
    the empty rows of a dimension that the draw then refuses)."""
    return max(1, CALL_BYTES // max(1, row_bytes))


def _chunks(samples: int, row_bytes: int):
    """Sizes of the consecutive batches of ``_rows(row_bytes)`` rows covering
    ``samples`` draws."""
    size = _rows(row_bytes)
    for start in range(0, samples, size):
        yield min(size, samples - start)


def _groups(fn, directions: np.ndarray, row_bytes: int):
    """``fn`` of stacked ``directions`` (k, rows, ...), evaluated on
    consecutive groups of directions: yields (start, values), values stacked
    on the leading axis.

    A group holds as many directions as fit ``CALL_BYTES`` at ``row_bytes``
    per direction-row, and at least one, so a small batch shares one call
    among several directions.  ``fn`` works on each direction independently,
    so the grouping does not change the values.  A group of one direction is
    passed unstacked, as a plain (rows, ...) batch: operands of equal shape
    keep numpy's fast path, which a leading axis of length one would leave.
    """
    k, rows = directions.shape[:2]
    size = _rows(row_bytes * rows)
    if size >= k:
        yield 0, fn(directions)
        return
    for start in range(0, k, size):
        if size == 1:
            yield start, fn(directions[start])[None]
        else:
            yield start, fn(directions[start:start + size])


def _in_groups(fn, directions: np.ndarray, row_bytes: int) -> np.ndarray:
    """``_groups`` of ``directions``, stacked again on the leading axis."""
    groups = _groups(fn, directions, row_bytes)
    _, first = next(groups)
    if len(first) == len(directions):
        return first
    out = np.empty((len(directions),) + first.shape[1:], dtype=first.dtype)
    out[:len(first)] = first
    del first  # freed before the next group is evaluated
    for start, values in groups:
        out[start:start + len(values)] = values
        del values  # freed before the next group is evaluated
    return out


def _stacked(fn, arguments: list[tuple], row_bytes: int) -> np.ndarray:
    """``fn(*args)`` for every argument tuple of ``arguments``, stacked on a
    new leading axis.

    Every tuple holds batches of the same rows, ``row_bytes`` per row;
    ``_in_groups`` decides which tuples share one call.  A shared call gets
    each argument's batches joined row-wise; ``fn`` works row by row, so the
    joining does not change the values.  A tuple alone is passed as it is.
    """
    rows = len(arguments[0][0])
    ids = np.broadcast_to(np.arange(len(arguments))[:, None], (len(arguments), rows))

    def group(ids: np.ndarray) -> np.ndarray:
        if ids.ndim == 1:
            return fn(*arguments[ids[0]])
        out = fn(*map(np.concatenate, zip(*(arguments[i] for i in ids[:, 0]))))
        return out.reshape(ids.shape + out.shape[1:])

    return _in_groups(group, ids, row_bytes)


def _draw(rng, n: int, count: int, tangents: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """``count`` random points of S^{2n+1}, each with ``tangents`` random tangent vectors.

    Per sample: the point's normals, then each tangent vector's, projected
    off the point.  Points and vectors are validated once per batch.
    """
    dim = 2 * n + 2
    check_dimension(dim)
    g = rng.standard_normal((count, 1 + tangents, dim))
    z = check_points(g[:, 0] / np.linalg.norm(g[:, 0], axis=1, keepdims=True))
    vecs = [u - np.einsum("ij,ij->i", u, z)[:, None] * z for u in np.moveaxis(g[:, 1:], 1, 0)]
    check_tangents(z, *vecs)
    return z, vecs


def _worst(worst: float, errors: np.ndarray) -> float:
    return float(np.max(errors, initial=worst))


def killing_check(tau, n: int, samples: int = 500, seed: int = DEFAULT_SEED) -> CheckReport:
    """Metric invariance under the vertical flow, by finite differences."""
    return _killing_checks((tau,), n, samples, seed)[0]


def _killing_checks(taus, n: int, samples: int, seed: int) -> list[CheckReport]:
    """``killing_check`` at each of ``taus``.  Every tau draws the same
    samples from the check's stream, so each batch is drawn once."""
    h = 1e-5
    params = [BergerParam.coerce(tau) for tau in taus]
    rng = _rng(seed, "killing")
    worst = [0.0] * len(params)
    row_bytes = _vector_bytes(n)
    for count in _chunks(samples, row_bytes):
        z, (v, w) = _draw(rng, n, count, 2)
        for k, param in enumerate(params):
            ends = _stacked(functools.partial(_moved_inner, param),
                            [(killing_flow_rows(param, t, z),
                              killing_flow_differential_rows(param, t, v),
                              killing_flow_differential_rows(param, t, w)) for t in (h, -h)],
                            row_bytes)
            worst[k] = _worst(worst[k], np.abs((ends[0] - ends[1]) / (2 * h)))
    return [_report("killing-flow-isometry", w, samples, 1e-6, seed) for w in worst]


def _moved_inner(param: BergerParam, zt: np.ndarray, vt: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """The Berger metric on points and tangent rows moved by a flow, which
    are checked again first."""
    zt = check_points(zt)
    check_tangents(zt, vt, wt)
    return berger_inner_rows(param, zt, vt, wt)


# R(x, y, z, w) and the rearrangements R(y, x, z, w), R(x, y, w, z),
# R(z, w, x, y), R(y, z, x, w) and R(z, x, y, w), as indices into (x, y, z, w)
_SYMMETRY_ORDERS = ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1), (1, 2, 0, 3),
                    (2, 0, 1, 3))


def curvature_symmetry_check(tau, n: int, samples: int = 500,
                             seed: int = DEFAULT_SEED) -> CheckReport:
    """Antisymmetries, pair symmetry and the cyclic identity of the curvature.

    The reference value R(x, y, z, w) and its five rearrangements are one
    ``curvature_orders_rows`` call per batch, which forms every product the
    six orders share once.
    """
    param = BergerParam.coerce(tau)
    rng = _rng(seed, "curvature-symmetry")
    worst = 0.0
    for count in _chunks(samples, _vector_bytes(n)):
        z, vectors = _draw(rng, n, count, 4)
        r = curvature_orders_rows(param, z, vectors, _SYMMETRY_ORDERS)
        worst = _worst(worst, np.max([
            np.abs(r[0] + r[1]),
            np.abs(r[0] + r[2]),
            np.abs(r[0] - r[3]),
            np.abs(r[0] + r[4] + r[5]),
        ], axis=0))
    return _report("curvature-symmetries", worst, samples, 1e-10, seed)


def round_degeneration_check(n: int, samples: int = 500, seed: int = DEFAULT_SEED) -> CheckReport:
    """At tau = 1 the curvature is the constant-curvature-one tensor.

    R(x, y, z, w) and the products <y,z>, <x,w>, <x,z> and <y,w> are one
    ``curvature_orders_rows`` call per batch.  At tau = 1 every term of the
    curvature but <y,z><x,w> - <x,z><y,w> carries the factor 1 - tau^2 = 0,
    so the check sees only that term.
    """
    param = BergerParam(Fraction(1))
    rng = _rng(seed, "round-degeneration")
    worst = 0.0
    for count in _chunks(samples, _vector_bytes(n)):
        z, vectors = _draw(rng, n, count, 4)
        r, yz, xw, xz, yw = curvature_orders_rows(param, z, vectors, ((0, 1, 2, 3),),
                                                  ((1, 2), (0, 3), (0, 2), (1, 3)))
        worst = _worst(worst, np.abs(r - (yz * xw - xz * yw)))
    return _report("round-sphere-degeneration", worst, samples, 1e-12, seed)


def sectional_consistency_check(tau, n: int, samples: int = 500,
                                seed: int = DEFAULT_SEED) -> CheckReport:
    """Sectional curvature equals the curvature tensor on orthonormal pairs.

    A sample whose frame degenerates is dropped and replaced by the next
    draw of the stream.
    """
    param = BergerParam.coerce(tau)
    rng = _rng(seed, "sectional-consistency")
    worst = 0.0
    done = 0
    while done < samples:
        z, (a, b) = _draw(rng, n, min(_rows(_vector_bytes(n)), samples - done), 2)
        frames, kept = berger_orthonormalize_rows(param, z, np.stack([a, b], axis=1))
        full = kept.all(axis=1)
        z, v, w = z[full], frames[full, 0], frames[full, 1]
        k = sectional_curvature_rows(param, z, v, w)
        r = curvature_orders_rows(param, z, (v, w), ((0, 1, 1, 0),))[0]
        worst = _worst(worst, np.abs(k - r))
        done += int(full.sum())
    return _report("sectional-consistency", worst, samples, 1e-12, seed)


def ricci_vertical_check(tau, n: int, samples: int = 500, seed: int = DEFAULT_SEED) -> CheckReport:
    """Ricci curvature of the vertical direction equals 2n tau^2."""
    param = BergerParam.coerce(tau)
    rng = _rng(seed, "ricci-vertical")
    expected = 2 * n * float(param.tau_sq)
    worst = 0.0
    for count in _chunks(samples, _vector_bytes(n)):
        z, _ = _draw(rng, n, count, 0)
        xi = killing_field_rows(param, z)
        worst = _worst(worst, np.abs(ricci_rows(param, z, xi) - expected))
    return _report("ricci-vertical", worst, samples, 1e-12, seed)


def metric_definiteness_check(tau, n: int, samples: int = 200, seed: int = DEFAULT_SEED) -> CheckReport:
    """Positive definiteness of the metric on random tangent frames.

    Reports the most negative Gram eigenvalue seen; passing means every
    Gram matrix was positive definite (tolerance 0).
    """
    param = BergerParam.coerce(tau)
    rng = _rng(seed, "metric-definiteness")
    worst = -math.inf
    for count in _chunks(samples, _vector_bytes(n, 2 * n + 2)):
        z, vecs = _draw(rng, n, count, 2 * n + 1)
        frame = np.stack(vecs, axis=1)
        gram = berger_inner_rows(param, z[:, None, None, :],
                                 frame[:, :, None, :], frame[:, None, :, :])
        worst = _worst(worst, -np.linalg.eigvalsh(gram)[:, 0])
    return _report("metric-definiteness", worst, samples, 0.0, seed)


def geodesic_sphere_isometry_check(tau, n: int, samples: int = 500,
                                   seed: int = DEFAULT_SEED) -> CheckReport:
    """Pullback of the Fubini-Study metric matches the Berger metric.

    The pushforward is a central finite difference of the homogeneous
    representative curve; the Fubini-Study pairing projects out the scale
    and phase drift.
    """
    return _geodesic_sphere_checks((tau,), n, samples, seed)[0]


def _geodesic_sphere_checks(taus, n: int, samples: int, seed: int) -> list[CheckReport]:
    """``geodesic_sphere_isometry_check`` at each of ``taus``, from one draw
    per batch.  A representative differs between taus only in its constant
    first coordinate, which the central differences cancel to exactly 0, so
    the pushforwards are formed once, at the first tau."""
    h = 1e-6
    params = [BergerParam.coerce(tau) for tau in taus]
    if any(param.is_round for param in params):
        raise GeometryDomainError("the geodesic-sphere picture needs tau < 1")
    rng = _rng(seed, "geodesic-sphere-isometry")
    scales = [1.0 / math.sqrt(float(param.one_minus)) for param in params]
    worst = [0.0] * len(params)

    def rep(zc: np.ndarray) -> np.ndarray:
        return geodesic_sphere_reps(params[0], zc / np.linalg.norm(zc, axis=1, keepdims=True))

    row_bytes = _vector_bytes(n)
    for count in _chunks(samples, row_bytes):
        z, (u, v) = _draw(rng, n, count, 2)
        ends = _stacked(rep, [(z + h * u,), (z - h * u,), (z + h * v,), (z - h * v,)], row_bytes)
        push_u, push_v = (ends[0] - ends[1]) / (2 * h), (ends[2] - ends[3]) / (2 * h)
        for k, (param, scale) in enumerate(zip(params, scales)):
            p0 = geodesic_sphere_reps(param, z)
            p0 = p0 * (scale / np.linalg.norm(p0, axis=1))[:, None]
            got = fubini_study_inner_rows(p0, scale, push_u, push_v)
            worst[k] = _worst(worst[k], np.abs(got - berger_inner_rows(param, z, u, v)))
    return [_report("geodesic-sphere-isometry", w, samples, 1e-8, seed) for w in worst]


# ---------------------------------------------------------------------------
# Projector-embedding checks
# ---------------------------------------------------------------------------
#
# Complex vectors come in rows of shape (samples, n+1); Hermitian matrices in
# stacks of shape (samples, n+1, n+1).


def _hm_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _hm_dot(a, b.conj())


def _hm_dot(a: np.ndarray, b_conj: np.ndarray) -> np.ndarray:
    """``_hm_inner(a, b)`` given the conjugate of b."""
    return np.real(np.sum(a * b_conj, axis=(-2, -1)))


def _cdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise vdot(a, b)."""
    return np.einsum("ij,ij->i", a.conj(), b)


def _draw_horizontal(rng, n: int, count: int, vectors: int,
                     radius: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """``count`` representatives in C^{n+1} of norm ``radius``, each with
    ``vectors`` unit horizontal vectors.

    Per sample: the representative, then each vector; every complex vector
    draws its real parts, then its imaginary parts.
    """
    g = rng.standard_normal((count, 1 + vectors, 2, n + 1))
    c = g[:, :, 0] + 1j * g[:, :, 1]
    zc = c[:, 0] * (radius / np.linalg.norm(c[:, 0], axis=1))[:, None]
    out = []
    for j in range(1, 1 + vectors):
        u = c[:, j] - (_cdot(zc, c[:, j]) / radius ** 2)[:, None] * zc
        out.append(u / np.linalg.norm(u, axis=1)[:, None])
    return zc, out


def _tai_curve(param: BergerParam, zc: np.ndarray, radius: float, direction: np.ndarray,
               steps) -> np.ndarray:
    """The projector embedding along the rays zc + t direction, renormalised
    to ``radius``, at every step t: shape (len(steps), *direction.shape[:-1],
    n+1, n+1).  ``direction`` is a batch of rows (rows, n+1) or a stack of
    such batches."""
    w = np.asarray(steps, dtype=float).reshape((-1,) + (1,) * direction.ndim) * direction
    w += zc
    w *= (radius / np.linalg.norm(w, axis=-1))[..., None]
    return tai_embed_rows(param, w)


def _tai_push(param: BergerParam, zc: np.ndarray, radius: float,
              direction: np.ndarray, h: float = 1e-6) -> np.ndarray:
    plus, minus = _tai_curve(param, zc, radius, direction, (h, -h))
    out = plus - minus
    out /= 2 * h
    return out


class _TaiProbe:
    """Numeric second fundamental form of the projector embedding at a batch of points.

    Finite-difference directions are stacked on a leading axis and evaluated
    in ``_groups`` that fit ``CALL_BYTES``, two steps of (n+1)^2 complex
    entries per direction-row; a batch is half a group, so that every call
    evaluates at least two directions.  The probe is lean, so that these
    calls do not raise the peak memory: per row it keeps its 2n tangent
    matrices (not also their conjugates), the base value and the curve's
    value at 0; the second derivative holds two of its four curve steps at a
    time; the normal part is subtracted in place; and ``sff`` polarises each
    group's normal parts as they come and sums a trace without keeping its
    forms.  Every value is the one of evaluating each direction and step
    alone, bit for bit.
    """

    def __init__(self, param: BergerParam, zc: np.ndarray, radius: float):
        self.param = param
        self.zc = zc
        self.radius = radius
        self.base = tai_embed_rows(param, zc)
        # complex orthonormal basis of the horizontal space, in coordinate
        # order; a dependent coordinate vector is left at zero and skipped
        rows, nc = zc.shape
        cbasis = np.zeros((rows, nc, nc), dtype=complex)
        kept = np.zeros((rows, nc), dtype=bool)
        for j in range(nc):
            e = np.zeros((rows, nc), dtype=complex)
            e[:, j] = 1.0
            e = e - (_cdot(zc, e) / radius ** 2)[:, None] * zc
            for i in range(j):
                e = e - _cdot(cbasis[:, i], e)[:, None] * cbasis[:, i]
            nrm = np.linalg.norm(e, axis=1)
            kept[:, j] = nrm > 1e-8
            cbasis[kept[:, j], j] = e[kept[:, j]] / nrm[kept[:, j], None]
        if np.any(kept.sum(axis=1) != nc - 1):
            raise GeometryDomainError("failed to build a full horizontal basis")
        order = np.argsort(~kept, axis=1, kind="stable")[:, :nc - 1]
        cbasis = np.take_along_axis(cbasis, order[:, :, None], axis=1)
        # real orthonormal horizontal basis {b_1, i b_1, b_2, i b_2, ...},
        # stacked (2n, rows, n+1)
        self.real_basis = np.stack([b for i in range(nc - 1)
                                    for b in (cbasis[:, i], 1j * cbasis[:, i])])
        # tangent span of the image, orthonormal in the Frobenius metric
        pushes = _in_groups(lambda d: _tai_push(param, zc, radius, d), self.real_basis,
                            _curve_bytes(nc - 1))
        tangent = []
        for t in pushes:  # in place, so the tangent matrices are the pushes' memory
            for s in tangent:
                t -= _hm_inner(t, s)[:, None, None] * s
            t /= np.sqrt(_hm_inner(t, t))[:, None, None]
            tangent.append(t)
        self.tangent = tangent
        # every curve through the base point takes this value at 0, whatever
        # its direction
        self.c0 = _tai_curve(param, zc, radius, np.zeros_like(zc), (0.0,))[0]

    def _second_derivative(self, direction: np.ndarray, h: float = 2e-3) -> np.ndarray:
        """Richardson-extrapolated second derivative of the curve in each of
        the stacked ``direction``, from two ``_tai_curve`` calls of two steps.

        The base step is larger than the first-derivative default because the
        h^-2 roundoff amplification of plain second differences would not
        reach the 1e-8 tolerances; extrapolation removes the h^2 truncation.
        """
        def d2(step):
            plus, minus = _tai_curve(self.param, self.zc, self.radius, direction, (step, -step))
            out = plus - 2.0 * self.c0  # a new array: the curve is freed on return
            out += minus
            out /= step * step
            return out

        out = d2(h / 2)
        out *= 4.0
        out -= d2(h)
        out /= 3.0
        return out

    def _normal_part(self, mat: np.ndarray) -> np.ndarray:
        """``mat`` without its tangent part, in place."""
        for t in self.tangent:
            mat -= _hm_dot(mat, t.conj())[..., None, None] * t
        return mat

    def sff(self, pairs, traced=()) -> np.ndarray:
        """Second fundamental form s(x, y) of every pair (x, y), stacked, by
        polarised second derivatives in the directions x + y and x - y; with
        ``traced`` vectors, then the sum of s(b, b) over them.

        A form s(b, b) of ``traced`` has no x - y direction to evaluate: its
        curve is constant, every step of the stencil gives the base value,
        and the second difference is exactly 0, so s(b, b) is the x + y part
        alone, bit for bit.  Each group's normal parts are polarised into
        the result as they come, and the forms of ``traced`` are added to
        the sum in order and not kept.
        """
        directions = np.stack([x + y for x, y in pairs] + [b + b for b in traced]
                              + [x - y for x, y in pairs])
        traced_end = len(pairs) + len(traced)
        s = np.empty((len(pairs) + (len(traced) > 0),) + self.base.shape, dtype=self.base.dtype)
        s[len(pairs):] = 0.0
        for start, normal in _groups(lambda d: self._normal_part(self._second_derivative(d)),
                                     directions, _curve_bytes(self.zc.shape[1] - 1)):
            for i, part in enumerate(normal, start):
                if i < len(pairs):
                    s[i] = part
                elif i < traced_end:
                    part /= 4.0
                    s[-1] += part
                else:
                    s[i - traced_end] -= part
            del normal, part  # freed before the next group is evaluated
        s[:len(pairs)] /= 4.0
        return s


def _tai_sff_errors(param: BergerParam, radius: float, center: np.ndarray, r_sq: float,
                    zc: np.ndarray, x, y, v, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row errors of the second-fundamental-form law, its invariance
    under J and minimality into the sphere, at one batch of points.

    A function of its own so that the batch's forms are freed before the
    next batch is drawn.
    """
    probe = _TaiProbe(param, zc, radius)
    s_xy, s_vw, s_ixy, trace = probe.sff([(x, y), (v, w), (1j * x, 1j * y)], probe.real_basis)
    law = np.abs(_hm_inner(s_xy, s_vw) - tai_sff_inner_rows(param, zc, radius, x, y, v, w))
    j = np.max(np.abs(s_ixy - s_xy), axis=(1, 2))
    n = zc.shape[1] - 1
    residual = trace + (2 * n / r_sq) * (probe.base - center)
    return law, j, np.max(np.abs(residual), axis=(1, 2))


def tai_checks(tau, n: int, samples: int = 200, seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """Verification suite for the projector embedding of projective space.

    Returns one report per property: isometry of the pullback metric
    (1e-8), containment in the predicted sphere (1e-10), the closed-form
    law for inner products of second-fundamental-form values (1e-6),
    invariance of that form under the complex structure (1e-8), and
    minimality into the sphere (1e-6).
    """
    param = BergerParam.coerce(tau)
    if param.is_round:
        raise GeometryDomainError("the projector embedding needs tau^2 < 1")
    if n < 1:
        raise GeometryDomainError("the projector embedding needs n >= 1")
    rng = _rng(seed, "tai")
    radius = 1.0 / math.sqrt(float(param.one_minus))
    center = tai_sphere_center(param, n)
    r_sq = float(tai_sphere_radius_sq(param, n))

    err_iso = err_sphere = 0.0
    for count in _chunks(samples, _curve_bytes(n)):
        zc, (u, v) = _draw_horizontal(rng, n, count, 2, radius)
        got = _hm_inner(*_in_groups(lambda d: _tai_push(param, zc, radius, d),
                                    np.stack([u, v]), _curve_bytes(n)))
        err_iso = _worst(err_iso, np.abs(got - np.real(_cdot(v, u))))
        diff = tai_embed_rows(param, zc) - center
        err_sphere = _worst(err_sphere, np.abs(_hm_inner(diff, diff) - r_sq))

    sff_samples = max(10, samples // 5)
    err_law = err_j = err_min = 0.0
    for count in _chunks(sff_samples, 2 * _curve_bytes(n)):
        zc, vectors = _draw_horizontal(rng, n, count, 4, radius)
        law, j, minimality = _tai_sff_errors(param, radius, center, r_sq, zc, *vectors)
        err_law = _worst(err_law, law)
        err_j = _worst(err_j, j)
        err_min = _worst(err_min, minimality)

    return [
        _report("tai-isometry", err_iso, samples, 1e-8, seed),
        _report("tai-sphere-containment", err_sphere, samples, 1e-10, seed),
        _report("tai-sff-law", err_law, sff_samples, 1e-6, seed),
        _report("tai-sff-j-invariance", err_j, sff_samples, 1e-8, seed),
        _report("tai-minimality", err_min, sff_samples, 1e-6, seed),
    ]


# ---------------------------------------------------------------------------
# Flatness and minimality of the explicit models
# ---------------------------------------------------------------------------


def gauss_flatness_check(tau, samples: int = 64, seed: int = DEFAULT_SEED) -> CheckReport:
    """The Clifford surface in S^3_tau is flat.

    The induced metric in the flat covering coordinates is constant
    ((1+tau^2)/4 on the diagonal, (tau^2-1)/4 off it); the check compares
    those coefficients with samples of the embedding.
    """
    return _gauss_flatness_checks((tau,), samples, seed)[0]


def _gauss_flatness_checks(taus, samples: int, seed: int) -> list[CheckReport]:
    """``gauss_flatness_check`` at each of ``taus``, from one draw per batch;
    the products of the Gram coefficients that do not depend on tau are
    formed once."""
    params = [BergerParam.coerce(tau) for tau in taus]
    worst = [0.0] * len(params)
    rng = _rng(seed, "gauss-flatness")
    exact = [(float((1 + p.tau_sq) / 4), float((p.tau_sq - 1) / 4)) for p in params]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for count in _chunks(samples, _vector_bytes(1)):
        t, s = rng.uniform(0, 2 * math.pi, size=(count, 2)).T
        zero = np.zeros(count)
        z = check_points(np.stack([np.cos(t), np.sin(t), np.cos(s), np.sin(s)], axis=1) * inv_sqrt2)
        dt = np.stack([-np.sin(t), np.cos(t), zero, zero], axis=1) * inv_sqrt2
        ds = np.stack([zero, zero, -np.sin(s), np.cos(s)], axis=1) * inv_sqrt2
        check_tangents(z, dt, ds)
        grams = _berger_grams(params, z, dt, ds)
        for k, ((g_tt, g_ts, g_ss), (e_exact, f_exact)) in enumerate(zip(grams, exact)):
            worst[k] = _worst(worst[k], np.max([
                np.abs(g_tt - e_exact), np.abs(g_ss - e_exact), np.abs(g_ts - f_exact),
            ], axis=0))
    return [_report("gauss-flatness", w, samples, 1e-12, seed) for w in worst]


def _bump_periodic(x: np.ndarray, center: float, kappa: float = 3.0) -> np.ndarray:
    return np.exp(kappa * (np.cos(x - center) - 1.0))


def _normal_frame(param: BergerParam, pts: np.ndarray, tangents):
    """The chart's normal field as a function of a constant vector ``a``:
    ``a`` projected off the radial direction, then off each tangent row field
    in turn (Berger-orthogonally), scaled to unit Berger length, and the
    lengths before scaling.  i z and each tangent's g(tv, iz) and squared
    length are formed once per chart."""
    lam, iz = float(param.one_minus), mult_i(pts)
    known = []
    for tv in tangents:
        tv_iz = _dot(tv, iz)
        known.append((tv, tv_iz, geometry._metric(lam, iz, tv, tv, tv_iz, tv_iz)))

    def normal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = a[None, :] - np.einsum("ij,j->i", pts, a)[:, None] * pts
        for tv, tv_iz, tv_sq in known:
            w = w - (geometry._metric(lam, iz, w, tv, None, tv_iz) / tv_sq)[:, None] * tv
        w_iz = _dot(w, iz)
        nrm = np.sqrt(geometry._metric(lam, iz, w, w, w_iz, w_iz))
        return w / nrm[:, None], nrm

    return normal


# A first-variation check evaluates its chart at a few finite-difference
# argument sets (the grid itself, then each parameter moved by +-h).  At each
# set a *frame* holds the chart points, the bump and the unit normal field
# eta; the bumped surface at eps is chart + eps * bump * eta, back on the
# unit sphere.  Frames that depend on neither the sample nor eps are built
# once per check, the rest once per sample, and +eps and -eps share them.
# A two-parameter grid is a mesh flattened in meshgrid "ij" order, built from
# 1-D factors by ``np.repeat`` (first parameter) and ``np.tile`` (second).

_EPS = 1e-4  # bump amplitude
_HFD = 1e-5  # finite-difference step


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Row norms as a column sum of squares, faster than ``np.linalg.norm(x,
    axis=1)`` and equal to it bit for bit below 8 columns, where numpy also
    adds left to right (from 8 on it adds pairwise; the last bit may differ)."""
    sq = x * x
    total = sq[:, 0].copy()
    for j in range(1, x.shape[1]):
        total += sq[:, j]
    return np.sqrt(total)


def _bumped(frame, e: float) -> np.ndarray:
    """chart + e * bump * eta at one frame, back on the unit sphere; in place,
    so that a call holds one array of the frame's size."""
    pts, bump, eta = frame
    out = e * bump[:, None] * eta
    out += pts
    out /= _row_norms(out)[:, None]
    return out


def _central(plus, minus, e: float) -> np.ndarray:
    """Central difference of the bumped surface between two frames."""
    out = _bumped(plus, e)
    out -= _bumped(minus, e)
    out /= 2 * _HFD
    return out


def _bumped_patch(frames, e: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bumped surface at eps = e and its two coordinate derivatives, on
    frames (grid, t + h, t - h, s + h, s - h); free of tau."""
    base, t_plus, t_minus, s_plus, s_minus = frames
    return _bumped(base, e), _central(t_plus, t_minus, e), _central(s_plus, s_minus, e)


def _area_densities(params: list[BergerParam], patch) -> list[np.ndarray]:
    """sqrt(det g) on a ``_bumped_patch`` at each of ``params``; the products
    free of tau are formed once."""
    return [np.sqrt(g11 * g22 - g12 * g12) for g11, g12, g22 in _berger_grams(params, *patch)]


def _draw_normal(rng, normal, dim: int):
    """A random constant vector ``a`` and its unit ``normal`` field (a
    ``_normal_frame``) on the chart; redrawn while a length is not above 0.3
    (NaN included), up to 32 draws.  A field that then still nearly vanishes
    raises; one with NaN lengths, which a NaN metric gives, is kept, so that
    the estimate is NaN and the check fails."""
    for _ in range(32):
        a = rng.standard_normal(dim)
        eta, nrm = normal(a)
        if nrm.min() > 0.3:
            break
    else:
        if not np.isnan(nrm).any():
            raise GeometryDomainError("the normal field nearly vanished on 32 draws")
    return a, eta


@functools.cache
def _gauss_legendre_32() -> tuple[np.ndarray, np.ndarray]:
    """The 32-point Gauss-Legendre rule on [-1, 1], read-only, computed on
    first use (importing ``numpy.polynomial`` costs memory)."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _clifford_variations(params: list[BergerParam], samples: int, rng) -> list[float]:
    """Worst first-variation ratio of the Clifford surface at each of
    ``params``, from one draw: only the metric depends on tau."""
    grid_n = 48
    cell = (2 * math.pi / grid_n) ** 2
    t = np.arange(grid_n) * (2 * math.pi / grid_n)
    steps = (t, t + _HFD, t - _HFD)
    sets = ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2))  # grid, t +- h, s +- h
    inv = 1.0 / math.sqrt(2.0)
    trig = [(np.cos(x) * inv, np.sin(x) * inv) for x in steps]
    charts = [np.stack([np.repeat(trig[i][0], grid_n), np.repeat(trig[i][1], grid_n),
                        np.tile(trig[j][0], grid_n), np.tile(trig[j][1], grid_n)], axis=1)
              for i, j in sets]
    # the unit normal is the chart with its second complex coordinate negated
    normals = [pts * np.array([1.0, 1.0, -1.0, -1.0]) for pts in charts]
    # the induced metric is constant, and so is its volume element
    dvols = [math.sqrt((1 + ts) / 4 * (1 + ts) / 4 - ((ts - 1) / 4) ** 2) * cell
             for ts in (float(param.tau_sq) for param in params)]

    def areas(frames, e):  # holds one bumped surface at a time
        return [float(np.sum(density)) * cell
                for density in _area_densities(params, _bumped_patch(frames, e))]

    worst = [0.0] * len(params)
    for _ in range(samples):
        first, second = ([_bump_periodic(x, c) for x in steps]
                         for c in rng.uniform(0, 2 * math.pi, size=2))
        bumps = [np.repeat(first[i], grid_n) * np.tile(second[j], grid_n) for i, j in sets]
        frames = list(zip(charts, bumps, normals))
        plus, minus = areas(frames, _EPS), areas(frames, -_EPS)
        for k, dvol in enumerate(dvols):
            weight = float(np.sum(bumps[0] * dvol))
            worst[k] = _worst(worst[k], abs((plus[k] - minus[k]) / (2 * _EPS) / (2 * weight)))
    return worst


def _great_circle_variation(param: BergerParam, n: int, samples: int, rng) -> float:
    """Worst first-variation ratio of the great circle in S^{2n+1}."""
    grid_n = 256
    cell = 2 * math.pi / grid_n
    th = np.arange(grid_n) * cell
    args = [th, th + _HFD, th - _HFD]
    charts, normals = [], []
    for arg in args:
        pts = np.zeros((grid_n, 2 * n + 2))
        tv = np.zeros_like(pts)
        pts[:, 0] = tv[:, 2] = np.cos(arg)
        pts[:, 2] = np.sin(arg)
        tv[:, 0] = -pts[:, 2]
        charts.append(pts)
        normals.append(_normal_frame(param, pts, (tv,)))

    def length(frames, e):
        dv = _central(frames[1], frames[2], e)
        return float(np.sum(np.sqrt(
            berger_inner_rows(param, _bumped(frames[0], e), dv, dv)))) * cell

    worst = 0.0
    for _ in range(samples):
        a, eta = _draw_normal(rng, normals[0], 2 * n + 2)
        c0 = rng.uniform(0, 2 * math.pi)
        etas = [eta] + [normal(a)[0] for normal in normals[1:]]
        bumps = [_bump_periodic(arg, c0) for arg in args]
        frames = list(zip(charts, bumps, etas))
        weight = float(np.sum(bumps[0])) * cell
        delta = (length(frames, _EPS) - length(frames, -_EPS)) / (2 * _EPS)
        worst = _worst(worst, abs(delta / weight))
    return worst


def _real_sphere_variation(param: BergerParam, n: int, samples: int, rng) -> float:
    """Worst first-variation ratio of the totally real 2-sphere in S^{2n+1},
    under a compactly supported bump on a Gauss-Legendre coordinate patch."""
    nodes, weights = _gauss_legendre_32()
    grid_n = len(nodes)
    width = 0.5

    def patch(th, ph):
        """Chart points and coordinate tangent fields on the mesh of th, ph."""
        sin_th, cos_th = np.repeat(np.sin(th), grid_n), np.repeat(np.cos(th), grid_n)
        sin_ph, cos_ph = np.tile(np.sin(ph), grid_n), np.tile(np.cos(ph), grid_n)
        pts = np.zeros((grid_n * grid_n, 2 * n + 2))
        t1, t2 = np.zeros_like(pts), np.zeros_like(pts)
        pts[:, 0] = sin_th * cos_ph
        pts[:, 2] = sin_th * sin_ph
        pts[:, 4] = cos_th
        t1[:, 0] = cos_th * cos_ph
        t1[:, 2] = cos_th * sin_ph
        t1[:, 4] = -sin_th
        t2[:, 0] = -sin_th * sin_ph
        t2[:, 2] = sin_th * cos_ph
        return pts, (t1, t2)

    def bump(th, ph, c):
        r_sq = np.repeat(((th - c[0]) / width) ** 2, grid_n)
        r_sq += np.tile(((ph - c[1]) / width) ** 2, grid_n)
        out = np.zeros_like(r_sq)
        inside = r_sq < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r_sq[inside]))
        return out

    wgrid = np.repeat(width * weights, grid_n) * np.tile(width * weights, grid_n)

    def patch_area(frames, e):
        return float(np.sum(_area_densities((param,), _bumped_patch(frames, e))[0] * wgrid))

    worst = 0.0
    for _ in range(samples):
        c = np.array([rng.uniform(1.0, math.pi - 1.0), rng.uniform(0.8, 2 * math.pi - 0.8)])
        th_n = c[0] + width * nodes
        ph_n = c[1] + width * nodes
        pts, tangents = patch(th_n, ph_n)
        a, eta = _draw_normal(rng, _normal_frame(param, pts, tangents), 2 * n + 2)
        frames = [(pts, bump(th_n, ph_n, c), eta)]
        for th, ph in [(th_n + _HFD, ph_n), (th_n - _HFD, ph_n),
                       (th_n, ph_n + _HFD), (th_n, ph_n - _HFD)]:
            pts, tangents = patch(th, ph)
            frames.append((pts, bump(th, ph, c), _normal_frame(param, pts, tangents)(a)[0]))
        weight = float(np.sum(frames[0][1] * np.repeat(np.sin(th_n), grid_n) * wgrid))
        delta = (patch_area(frames, _EPS) - patch_area(frames, -_EPS)) / (2 * _EPS)
        worst = _worst(worst, abs(delta / (2 * weight)))
    return worst


def _clifford_minimality_checks(taus, samples: int, seed: int) -> list[CheckReport]:
    """``minimality_first_variation_check`` of the Clifford surface at each of
    ``taus``.  Every tau draws the same samples, and the surface's normal
    field is free of tau, so its bumped surfaces are built once per draw."""
    params = [BergerParam.coerce(tau) for tau in taus]
    stream = f"minimality-{CliffordHypersurface(0, 0).label()}"
    worst = _clifford_variations(params, samples, _rng(seed, stream))
    return [_report("minimality-clifford", w, samples, 1e-4, seed) for w in worst]


def minimality_first_variation_check(model: ModelSubmanifold, tau, samples: int = 3,
                                     seed: int = DEFAULT_SEED) -> CheckReport:
    """First variation of volume under localised normal bumps is zero.

    Supported models: the Clifford surface (m1 = m2 = 0) and the totally
    real spheres with d = 1 or d = 2.  The area/length functional is
    integrated on the parametrised model perturbed by eps * bump * normal,
    and the mean-curvature component is estimated from the symmetric
    difference quotient; the assertion is |estimate| < 1e-4, and a NaN
    estimate fails.  The random stream is named by the model, so every tau
    draws the same samples.
    """
    param = BergerParam.coerce(tau)
    if isinstance(model, CliffordHypersurface) and model.m1 == 0 and model.m2 == 0:
        return _clifford_minimality_checks((param,), samples, seed)[0]
    if isinstance(model, TotallyRealSphere) and model.d in (1, 2):
        name, vary = (("minimality-great-circle", _great_circle_variation) if model.d == 1
                      else ("minimality-real-sphere", _real_sphere_variation))
        rng = _rng(seed, f"minimality-{getattr(model, 'label', lambda: model)()}")
        return _report(name, vary(param, model.n, samples, rng), samples, 1e-4, seed)
    raise GeometryDomainError(f"no explicit parametrisation wired up for {model!r}")


# ---------------------------------------------------------------------------
# The standard suite
# ---------------------------------------------------------------------------


def verify_all(samples: int = 200, seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """The standard verification suite used by the command-line front end."""
    third = Fraction(1, 3)
    half = Fraction(1, 2)
    reports = [
        *_killing_checks((third, Fraction(1)), 2, samples, seed),
        curvature_symmetry_check(third, 2, samples, seed),
        round_degeneration_check(2, samples, seed),
        sectional_consistency_check(third, 2, samples, seed),
        ricci_vertical_check(third, 2, samples, seed),
        metric_definiteness_check(third, 2, max(50, samples // 4), seed),
        *_geodesic_sphere_checks((third, half), 2, samples, seed),
        *_gauss_flatness_checks((third, Fraction(1)), 64, seed),
        *tai_checks(half, 2, max(50, samples // 4), seed),
        *_clifford_minimality_checks((third, Fraction(1)), 2, seed),
        minimality_first_variation_check(TotallyRealSphere(2, 1), third, 2, seed),
        minimality_first_variation_check(TotallyRealSphere(2, 2), half, 1, seed),
        lattice_cross_check(seed),
        vertical_spectrum_cross_check(seed),
        bidegree_cross_check(seed),
    ]
    return reports
