"""Metric, curvature and embedding tests against hand-checked values."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergersphere import geometry as geo
from bergersphere.geometry import (AmbientPoint, BergerParam, GeometryDomainError,
                                   ProjectivePoint, RoundSphereUnsupportedError,
                                   TangentVector, ambient_mean_curvature,
                                   connection_correction, curvature_tensor,
                                   geodesic_sphere_embed, horizontal_frame,
                                   killing_field, killing_flow, metric_eval, ricci,
                                   scalar_curvature, sectional_curvature,
                                   sff_geodesic_sphere, tai_embed, tai_sff_inner)

RNG = np.random.default_rng(20240817)


def random_point(n):
    v = RNG.standard_normal(2 * n + 2)
    return AmbientPoint(v / np.linalg.norm(v))


def random_tangent(z):
    u = RNG.standard_normal(len(z.coords))
    u -= np.dot(u, z.coords) * z.coords
    return TangentVector(z, u)


class TestBergerParam:
    def test_range_validation(self):
        with pytest.raises(GeometryDomainError):
            BergerParam(F(0))
        with pytest.raises(GeometryDomainError):
            BergerParam(F(3, 2))
        assert BergerParam(F(1)).is_round

    def test_float_rejected_without_optin(self):
        with pytest.raises(GeometryDomainError):
            BergerParam.coerce(0.5)
        assert BergerParam.from_float(0.5).tau_sq == F(1, 4)

    def test_tau_is_sqrt(self):
        p = BergerParam(F(1, 3))
        assert p.tau == pytest.approx(math.sqrt(1 / 3), abs=1e-16)


class TestMetric:
    def test_round_metric_is_euclidean(self):
        z = random_point(2)
        for _ in range(20):
            v, w = random_tangent(z), random_tangent(z)
            assert metric_eval(F(1), z, v, w) == pytest.approx(
                np.dot(v.comps, w.comps), abs=1e-12)

    def test_killing_field_is_unit(self):
        for ts in (F(1, 3), F(1, 2), F(9, 10)):
            z = random_point(2)
            xi = killing_field(ts, z)
            assert metric_eval(ts, z, xi, xi) == pytest.approx(1.0, abs=1e-12)

    def test_horizontal_coordinate_vector(self):
        z = AmbientPoint(np.array([1.0, 0.0, 0.0, 0.0]))
        v = TangentVector(z, np.array([0.0, 0.0, 1.0, 0.0]))
        assert metric_eval(F(1, 3), z, v, v) == pytest.approx(1.0, abs=1e-15)

    def test_mismatched_base_rejected(self):
        z1, z2 = random_point(1), random_point(1)
        with pytest.raises(GeometryDomainError):
            metric_eval(F(1, 2), z1, random_tangent(z1), random_tangent(z2))

    def test_symmetric_bilinear(self):
        ts = F(2, 5)
        z = random_point(2)
        u, v, w = (random_tangent(z) for _ in range(3))
        assert metric_eval(ts, z, u, v) == pytest.approx(metric_eval(ts, z, v, u), abs=1e-13)
        lin = TangentVector(z, 2.0 * u.comps + 3.0 * v.comps)
        assert metric_eval(ts, z, lin, w) == pytest.approx(
            2 * metric_eval(ts, z, u, w) + 3 * metric_eval(ts, z, v, w), abs=1e-11)


class TestKilling:
    def test_round_killing_is_iz(self):
        z = random_point(1)
        assert np.allclose(killing_field(F(1), z).comps, geo.mult_i(z.coords))

    def test_quarter_param_scaling(self):
        z = AmbientPoint.from_complex([0.0, 1.0, 0.0])
        assert np.allclose(killing_field(F(1, 4), z).comps, 2.0 * geo.mult_i(z.coords))

    def test_flow_identity_and_period(self):
        ts = F(1, 3)
        z = random_point(2)
        assert np.allclose(killing_flow(ts, 0.0, z).coords, z.coords)
        period = 2 * math.pi * BergerParam(ts).tau
        assert np.allclose(killing_flow(ts, period, z).coords, z.coords, atol=1e-12)

    def test_flow_derivative_matches_field(self):
        ts = F(1, 2)
        z = random_point(2)
        h = 1e-6
        fd = (killing_flow(ts, h, z).coords - killing_flow(ts, -h, z).coords) / (2 * h)
        assert np.max(np.abs(fd - killing_field(ts, z).comps)) < 1e-6


class TestConnectionCorrection:
    def test_round_metric_vanishes(self):
        z = random_point(2)
        x, y = random_tangent(z), random_tangent(z)
        assert np.max(np.abs(connection_correction(F(1), z, x, y).comps)) < 1e-14

    def test_horizontal_pair_vanishes(self):
        ts = F(1, 3)
        z = random_point(2)
        frame = horizontal_frame(ts, z)
        out = connection_correction(ts, z, frame[0], frame[1])
        assert np.max(np.abs(out.comps)) < 1e-12

    def test_killing_with_horizontal(self):
        ts = F(1, 2)
        z = random_point(2)
        xi = killing_field(ts, z)
        y = horizontal_frame(ts, z)[0]
        expected = (float(1 - ts) / BergerParam(ts).tau) * geo.tangent_j(z, y.comps)
        assert np.allclose(connection_correction(ts, z, xi, y).comps, expected, atol=1e-12)


class TestCurvature:
    def test_round_sphere_constant_curvature(self):
        z = random_point(2)
        for _ in range(20):
            x, y, zz, w = (random_tangent(z) for _ in range(4))
            expected = (metric_eval(F(1), z, y, zz) * metric_eval(F(1), z, x, w)
                        - metric_eval(F(1), z, x, zz) * metric_eval(F(1), z, y, w))
            assert curvature_tensor(F(1), z, x, y, zz, w) == pytest.approx(expected, abs=1e-12)

    def test_antisymmetry_sampled(self):
        ts = F(1, 3)
        for _ in range(100):
            z = random_point(1)
            x, y, zz, w = (random_tangent(z) for _ in range(4))
            r = curvature_tensor(ts, z, x, y, zz, w)
            assert abs(r + curvature_tensor(ts, z, y, x, zz, w)) < 1e-10
            assert abs(r + curvature_tensor(ts, z, x, y, w, zz)) < 1e-10

    def test_vertical_plane_curvature_is_tau_sq(self):
        # a plane spanned by the vertical direction and a horizontal vector
        ts = F(2, 7)
        z = random_point(2)
        xi = killing_field(ts, z)
        w = horizontal_frame(ts, z)[0]
        assert sectional_curvature(ts, z, xi, w) == pytest.approx(float(ts), abs=1e-12)

    def test_holomorphic_horizontal_plane(self):
        # span{v, Jv} attains 1 + 3(1 - tau^2)
        ts = F(1, 3)
        z = random_point(2)
        v = horizontal_frame(ts, z)[0]
        jv = TangentVector(z, geo.tangent_j(z, v.comps))
        expected = 1 + 3 * float(1 - ts)
        assert sectional_curvature(ts, z, v, jv) == pytest.approx(expected, abs=1e-12)

    def test_sectional_requires_orthonormal(self):
        ts = F(1, 2)
        z = random_point(1)
        v = random_tangent(z)
        with pytest.raises(GeometryDomainError):
            sectional_curvature(ts, z, v, v)

    def test_ricci_of_vertical(self):
        for n, ts in [(1, F(1, 3)), (2, F(1, 2)), (3, F(4, 5))]:
            z = random_point(n)
            got = ricci(ts, z, killing_field(ts, z))
            assert got == pytest.approx(2 * n * float(ts), abs=1e-12)

    def test_round_values(self):
        n = 2
        z = random_point(n)
        frame = geo.berger_orthonormalize(F(1), z, [random_tangent(z).comps for _ in range(2)])
        v, w = TangentVector(z, frame[0]), TangentVector(z, frame[1])
        assert sectional_curvature(F(1), z, v, w) == pytest.approx(1.0, abs=1e-12)
        assert ricci(F(1), z, v) == pytest.approx(2 * n, abs=1e-12)
        assert scalar_curvature(F(1), n) == 2 * n * (2 * (n + 1) - 1)

    def test_scalar_curvature_exact(self):
        assert scalar_curvature(F(1, 3), 1) == F(22, 3)


class TestGeodesicSphereEmbedding:
    def test_first_coordinate_modulus(self):
        for ts in (F(1, 3), F(1, 2), F(9, 10)):
            z = random_point(2)
            p = geodesic_sphere_embed(ts, z)
            assert abs(p.rep[0]) ** 2 == pytest.approx(float(ts / (1 - ts)), rel=1e-12)

    def test_half_param_representative(self):
        z = random_point(1)
        p = geodesic_sphere_embed(F(1, 2), z)
        zc = geo.to_complex(z.coords)
        # representative proportional to (1, z); the stored one is normalised
        ratio = p.rep[1:] / zc
        assert np.allclose(ratio, ratio[0])
        assert p.rep[0] / ratio[0] == pytest.approx(1.0, abs=1e-12)

    def test_round_sphere_unsupported(self):
        z = random_point(1)
        with pytest.raises(RoundSphereUnsupportedError):
            geodesic_sphere_embed(F(1), z)

    def test_pullback_is_berger_metric(self):
        from bergersphere.oracle import geodesic_sphere_isometry_check
        report = geodesic_sphere_isometry_check(F(1, 3), 2, samples=100, seed=7)
        assert report.passed, report


class TestSecondFundamentalForm:
    def test_vertical_principal_curvature(self):
        ts = F(1, 3)
        z = random_point(2)
        xi = killing_field(ts, z)
        tau = BergerParam(ts).tau
        assert sff_geodesic_sphere(ts, xi, xi) == pytest.approx(
            (2 * float(ts) - 1) / tau, abs=1e-12)

    def test_horizontal_principal_curvature(self):
        ts = F(1, 2)
        z = random_point(2)
        frame = horizontal_frame(ts, z)
        tau = BergerParam(ts).tau
        assert sff_geodesic_sphere(ts, frame[0], frame[0]) == pytest.approx(tau, abs=1e-12)
        assert sff_geodesic_sphere(ts, frame[0], frame[1]) == pytest.approx(0.0, abs=1e-12)


class TestAmbientMeanCurvature:
    def test_balanced_parameter_is_minimal(self):
        for d in (1, 2, 3, 5):
            assert ambient_mean_curvature(F(1, d + 1), d, 1) == 0.0

    def test_normal_killing_gives_tau(self):
        ts = F(1, 3)
        assert ambient_mean_curvature(ts, 4, 0) == pytest.approx(BergerParam(ts).tau)

    def test_surface_value(self):
        got = ambient_mean_curvature(F(1, 2), 2, 1)
        assert got == pytest.approx(math.sqrt(2) / 4, abs=1e-15)

    def test_range_check(self):
        with pytest.raises(GeometryDomainError):
            ambient_mean_curvature(F(1, 2), 2, 2)


class TestTaiEmbedding:
    def test_trace(self):
        ts = F(1, 2)
        zc = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        h = tai_embed(ts, ProjectivePoint(zc, 1.0))
        assert h.trace() == pytest.approx(1 / math.sqrt(2 * float(1 - ts)), abs=1e-12)

    def test_sphere_containment(self):
        ts = F(1, 2)
        n = 2
        center = geo.tai_sphere_center(ts, n)
        r_sq = float(geo.tai_sphere_radius_sq(ts, n))
        assert r_sq == pytest.approx(2 / 3)
        for _ in range(20):
            zc = RNG.standard_normal(n + 1) + 1j * RNG.standard_normal(n + 1)
            h = tai_embed(ts, ProjectivePoint(zc, 1.0))
            diff = h.entries - center.entries
            assert float(np.real(np.sum(diff * diff.conj()))) == pytest.approx(r_sq, abs=1e-10)

    def test_phase_invariance(self):
        ts = F(1, 3)
        zc = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
        a = tai_embed(ts, ProjectivePoint(zc, 1.0))
        b = tai_embed(ts, ProjectivePoint(np.exp(0.7j) * zc, 1.0))
        assert np.allclose(a.entries, b.entries, atol=1e-14)

    def test_round_sphere_unsupported(self):
        with pytest.raises(RoundSphereUnsupportedError):
            tai_embed(F(1), ProjectivePoint(np.array([1.0 + 0j, 0.0]), 1.0))

    def test_zero_rep_rejected(self):
        with pytest.raises(GeometryDomainError):
            ProjectivePoint(np.zeros(3, dtype=complex), 1.0)


class TestTaiSffInner:
    def _setup(self, ts, n=2):
        radius = 1 / math.sqrt(float(1 - ts))
        zc = RNG.standard_normal(n + 1) + 1j * RNG.standard_normal(n + 1)
        zc *= radius / np.linalg.norm(zc)
        point = ProjectivePoint(zc, radius)

        def horizontal():
            u = RNG.standard_normal(n + 1) + 1j * RNG.standard_normal(n + 1)
            u -= (np.vdot(zc, u) / radius ** 2) * zc
            return u / np.linalg.norm(u)

        return point, horizontal

    def test_diagonal_value(self):
        ts = F(1, 3)
        point, horizontal = self._setup(ts)
        x = horizontal()
        assert tai_sff_inner(ts, point, x, x, x, x) == pytest.approx(
            4 * float(1 - ts), abs=1e-12)

    def test_orthogonal_pair_value(self):
        ts = F(1, 2)
        point, horizontal = self._setup(ts)
        x = horizontal()
        # build y orthogonal to both x and Jx so only one cross term survives
        y = horizontal()
        y -= np.real(np.vdot(x, y)) * x
        y -= np.real(np.vdot(1j * x, y)) * (1j * x)
        y /= np.linalg.norm(y)
        assert tai_sff_inner(ts, point, x, y, x, y) == pytest.approx(
            float(1 - ts), abs=1e-12)

    def test_symmetries_sampled(self):
        ts = F(2, 5)
        point, horizontal = self._setup(ts)
        for _ in range(20):
            x, y, v, w = (horizontal() for _ in range(4))
            base = tai_sff_inner(ts, point, x, y, v, w)
            assert abs(base - tai_sff_inner(ts, point, y, x, v, w)) < 1e-12
            assert abs(base - tai_sff_inner(ts, point, x, y, w, v)) < 1e-12
            assert abs(base - tai_sff_inner(ts, point, v, w, x, y)) < 1e-12


class TestMetricDefiniteness:
    def test_positive_definite_on_random_frames(self):
        # 200 frames of 5 tangent vectors = 1000 sampled vectors
        from bergersphere.oracle import metric_definiteness_check
        for ts in (F(1, 12), F(1, 3), F(1)):
            report = metric_definiteness_check(ts, 2, samples=200, seed=11)
            assert report.passed and report.max_error < 0


class TestFrames:
    def test_horizontal_frame_size_and_orthonormality(self):
        ts = F(1, 3)
        z = random_point(2)
        frame = horizontal_frame(ts, z)
        assert len(frame) == 4
        iz = geo.mult_i(z.coords)
        for i, e in enumerate(frame):
            assert abs(np.dot(e.comps, iz)) < 1e-12
            for j, f in enumerate(frame):
                assert metric_eval(ts, z, e, f) == pytest.approx(float(i == j), abs=1e-12)


# ---------------------------------------------------------------------------
# Batched kernel against the one-sample-at-a-time formulas
# ---------------------------------------------------------------------------
#
# The functions below are the scalar formulas the batched kernel replaced,
# kept here verbatim (on raw coordinate arrays) as an independent reference.


def _ref_mult_i(v):
    out = np.empty_like(v)
    out[0::2] = -v[1::2]
    out[1::2] = v[0::2]
    return out


def ref_berger_inner(tau, z, v, w):
    p = BergerParam.coerce(tau)
    iz = _ref_mult_i(z)
    return float(np.dot(v, w) - float(p.one_minus) * np.dot(v, iz) * np.dot(w, iz))


def ref_tangent_j(z, v):
    return _ref_mult_i(v) + float(np.dot(v, _ref_mult_i(z))) * z


def ref_curvature_tensor(tau, z, x, y, zz, w):
    p = BergerParam.coerce(tau)
    lam = float(p.one_minus)

    def ip(a, b):
        return ref_berger_inner(p, z, a, b)

    xi = _ref_mult_i(z) / p.tau
    jx, jy, jz = ref_tangent_j(z, x), ref_tangent_j(z, y), ref_tangent_j(z, zz)
    X, Y, Z, W = x, y, zz, w
    val = ip(Y, Z) * ip(X, W) - ip(X, Z) * ip(Y, W)
    val += lam * (ip(jy, Z) * ip(jx, W) - ip(jx, Z) * ip(jy, W) - 2.0 * ip(jx, Y) * ip(jz, W))
    val += lam * ip(Z, xi) * (ip(X, xi) * ip(Y, W) - ip(Y, xi) * ip(X, W))
    val += lam * ip(W, xi) * (ip(Y, xi) * ip(X, Z) - ip(X, xi) * ip(Y, Z))
    return val


def ref_sectional_curvature(tau, z, v, w):
    p = BergerParam.coerce(tau)
    xi = _ref_mult_i(z) / p.tau
    a = ref_berger_inner(p, z, v, ref_tangent_j(z, w))
    xi_v = ref_berger_inner(p, z, xi, v)
    xi_w = ref_berger_inner(p, z, xi, w)
    return 1.0 + float(p.one_minus) * (3.0 * a * a - (xi_v * xi_v + xi_w * xi_w))


def ref_ricci(tau, z, v):
    p = BergerParam.coerce(tau)
    n = len(z) // 2 - 1
    a = ref_berger_inner(p, z, _ref_mult_i(z) / p.tau, v)
    return 2.0 * n + 2.0 * float(p.one_minus) * (1.0 - (n + 1) * a * a)


THRESHOLDS = sorted({F(1, 2 * m + 2) for m in range(3)} | {F(1, 2 * n + 1) for n in (1, 2, 3)}
                    | {F(1, d + 1) for d in (1, 2, 3)} | {F(1, 4), F(1, 8), F(1)})
TAU_SQ = st.one_of(st.sampled_from(THRESHOLDS),
                   st.fractions(min_value=0, max_value=1, max_denominator=64).filter(bool))


def _unit_rows(rng, z, count):
    """Random tangent rows at the points z, of unit Euclidean length."""
    rows = []
    for _ in range(count):
        u = rng.standard_normal(z.shape)
        u -= np.einsum("ij,ij->i", u, z)[:, None] * z
        rows.append(u / np.linalg.norm(u, axis=1, keepdims=True))
    return rows


class TestBatchedKernelAgainstReference:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(n=st.sampled_from([1, 2, 3]), ts=TAU_SQ, seed=st.integers(0, 2 ** 32 - 1))
    def test_agrees_with_scalar_formulas(self, n, ts, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((8, 2 * n + 2))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        x, y, zz, w = _unit_rows(rng, z, 4)
        inner = geo.berger_inner_rows(ts, z, x, y)
        jx = geo.tangent_j_rows(z, x)
        curv = geo.curvature_tensor_rows(ts, z, x, y, zz, w)
        frames, kept = geo.berger_orthonormalize_rows(ts, z, np.stack([x, y], axis=1))
        assert kept.all()
        v, u = frames[:, 0], frames[:, 1]
        sec = geo.sectional_curvature_rows(ts, z, v, u)
        ric = geo.ricci_rows(ts, z, v)
        for i in range(len(z)):
            assert abs(inner[i] - ref_berger_inner(ts, z[i], x[i], y[i])) <= 1e-13
            assert np.max(np.abs(jx[i] - ref_tangent_j(z[i], x[i]))) <= 1e-13
            assert abs(curv[i] - ref_curvature_tensor(ts, z[i], x[i], y[i], zz[i], w[i])) <= 1e-13
            assert abs(sec[i] - ref_sectional_curvature(ts, z[i], v[i], u[i])) <= 1e-13
            assert abs(ric[i] - ref_ricci(ts, z[i], v[i])) <= 1e-13

    def test_scalar_api_is_the_one_row_case(self):
        ts = F(2, 7)
        z = random_point(2)
        x, y, zz, w = (random_tangent(z) for _ in range(4))
        rows = [a[None] for a in (z.coords, x.comps, y.comps, zz.comps, w.comps)]
        assert curvature_tensor(ts, z, x, y, zz, w) == geo.curvature_tensor_rows(ts, *rows)[0]
        assert metric_eval(ts, z, x, y) == geo.berger_inner_rows(ts, *rows[:3])[0]

    @pytest.mark.parametrize("ts", [F(1, 3), F(1, 2), F(2, 5), F(1)], ids=str)
    @pytest.mark.parametrize("n", [1, 2])
    def test_gram_is_three_inner_products_bit_for_bit(self, ts, n):
        # raw rows, neither unit nor tangent, as the finite-difference callers pass
        rng = np.random.default_rng([5, n])
        z, u, v = rng.standard_normal((3, 300, 2 * n + 2))
        got = geo.berger_gram_rows(ts, z, u, v)
        want = (geo.berger_inner_rows(ts, z, u, u), geo.berger_inner_rows(ts, z, u, v),
                geo.berger_inner_rows(ts, z, v, v))
        for g, w in zip(got, want):
            assert g.shape == w.shape == (300,)
            assert g.tobytes() == w.tobytes()


class TestBatchedValidation:
    def test_every_row_is_checked(self):
        z = np.zeros((5, 4))
        z[:, 0] = 1.0
        z[3, 0] = 1.0 + 1e-9
        with pytest.raises(GeometryDomainError, match="unit Euclidean norm"):
            geo.check_points(z)

    def test_tangency_per_row(self):
        z = np.zeros((3, 4))
        z[:, 0] = 1.0
        v = np.zeros((3, 4))
        v[:, 1] = 1.0
        v[2, 0] = 1e-8
        with pytest.raises(GeometryDomainError, match="not tangent"):
            geo.curvature_tensor_rows(F(1, 2), z, v, v, v, v)

    def test_nan_rejected(self):
        z = np.zeros((2, 4))
        z[:, 0] = 1.0
        z[1, 0] = np.nan
        with pytest.raises(GeometryDomainError, match="unit Euclidean norm"):
            AmbientPoint(z[1])
        v = np.zeros((2, 4))
        v[:, 1] = 1.0
        v[0, 2] = np.nan
        with pytest.raises(GeometryDomainError, match="not tangent"):
            TangentVector(AmbientPoint(z[0]), v[0])
        with pytest.raises(GeometryDomainError, match="not tangent"):
            geo.ricci_rows(F(1, 2), z[:1], v[:1])

    def test_odd_or_short_rows_rejected(self):
        for shape in ((2, 2), (2, 5), (6,)):
            with pytest.raises(GeometryDomainError, match="even length >= 4"):
                geo.check_points(np.ones(shape))

    def test_orthonormality_checked_in_every_row(self):
        ts = F(1, 3)
        z = np.zeros((4, 4))
        z[:, 0] = 1.0
        v = np.zeros((4, 4))
        v[:, 2] = 1.0
        w = np.zeros((4, 4))
        w[:, 3] = 1.0
        # span{v, Jv} is a holomorphic horizontal plane
        assert np.allclose(geo.sectional_curvature_rows(ts, z, v, w), 1 + 3 * float(1 - ts))
        w[1, 3] = 1.1
        with pytest.raises(GeometryDomainError, match="orthonormal pair"):
            geo.sectional_curvature_rows(ts, z, v, w)
        with pytest.raises(GeometryDomainError, match="unit vector"):
            geo.ricci_rows(ts, z, w)

    def test_dependent_slot_dropped_per_row(self):
        ts = F(1, 2)
        z = random_point(1)
        a = random_tangent(z).comps
        b = random_tangent(z).comps
        vecs = np.array([[a, 2.0 * a, b], [a, b, b]])
        frames, kept = geo.berger_orthonormalize_rows(ts, np.array([z.coords, z.coords]), vecs)
        assert kept.tolist() == [[True, False, True], [True, True, False]]
        assert np.array_equal(frames[0, 2], frames[1, 1])
        assert np.array_equal(frames[0, 1], np.zeros(4))
        scalar = geo.berger_orthonormalize(ts, z, [a, 2.0 * a, b])
        assert len(scalar) == 2 and np.array_equal(scalar[1], frames[0, 2])
