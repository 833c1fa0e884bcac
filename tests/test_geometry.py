"""Metric, curvature and embedding tests against hand-checked values."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergersphere import geometry as geo
from bergersphere.geometry import (BergerParam, GeometryDomainError, RoundSphereUnsupportedError,
                                   ambient_mean_curvature, scalar_curvature)

RNG = np.random.default_rng(20240817)


def random_point(n, count=1):
    """``count`` random points of S^{2n+1}, one per row; one sample is one row."""
    v = RNG.standard_normal((count, 2 * n + 2))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_tangent(z):
    """A random tangent vector at every row of z."""
    u = RNG.standard_normal(z.shape)
    return u - np.einsum("ij,ij->i", u, z)[:, None] * z


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

    @pytest.mark.parametrize("text", ["0.5", "1e-1", "1E-1", ".5", "1/3.0", "2e0"])
    def test_decimal_string_rejected(self, text):
        with pytest.raises(GeometryDomainError, match="tau\\^2 must be an exact rational"):
            BergerParam.coerce(text)
        with pytest.raises(GeometryDomainError, match="tau\\^2 must be an exact rational"):
            BergerParam(text)

    def test_rational_string_accepted(self):
        assert BergerParam.coerce("1/3").tau_sq == F(1, 3)
        assert BergerParam("1").tau_sq == F(1)

    def test_tau_is_sqrt(self):
        p = BergerParam(F(1, 3))
        assert p.tau == pytest.approx(math.sqrt(1 / 3), abs=1e-16)


class TestMetric:
    def test_round_metric_is_euclidean(self):
        z = random_point(2)
        for _ in range(20):
            v, w = random_tangent(z), random_tangent(z)
            assert geo.berger_inner_rows(F(1), z, v, w)[0] == pytest.approx(
                np.dot(v[0], w[0]), abs=1e-12)

    def test_killing_field_is_unit(self):
        for ts in (F(1, 3), F(1, 2), F(9, 10)):
            z = random_point(2)
            xi = geo.killing_field_rows(ts, z)
            assert geo.berger_inner_rows(ts, z, xi, xi)[0] == pytest.approx(1.0, abs=1e-12)

    def test_horizontal_coordinate_vector(self):
        z = np.array([[1.0, 0.0, 0.0, 0.0]])
        v = np.array([[0.0, 0.0, 1.0, 0.0]])
        assert geo.berger_inner_rows(F(1, 3), z, v, v)[0] == pytest.approx(1.0, abs=1e-15)

    def test_mismatched_base_rejected(self):
        # a vector tangent at another point is not tangent at this row's point
        z1, z2 = random_point(1), random_point(1)
        with pytest.raises(GeometryDomainError, match="not tangent"):
            geo.connection_correction_rows(F(1, 2), z1, random_tangent(z1), random_tangent(z2))

    def test_symmetric_bilinear(self):
        ts = F(2, 5)
        z = random_point(2)
        u, v, w = (random_tangent(z) for _ in range(3))
        ip = geo.berger_inner_rows
        assert ip(ts, z, u, v)[0] == pytest.approx(ip(ts, z, v, u)[0], abs=1e-13)
        lin = 2.0 * u + 3.0 * v
        assert ip(ts, z, lin, w)[0] == pytest.approx(
            2 * ip(ts, z, u, w)[0] + 3 * ip(ts, z, v, w)[0], abs=1e-11)


class TestKilling:
    def test_round_killing_is_iz(self):
        z = random_point(1)
        assert np.allclose(geo.killing_field_rows(F(1), z), geo.mult_i(z))

    def test_quarter_param_scaling(self):
        z = np.array([[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]])  # (0, 1, 0) in C^3
        assert np.allclose(geo.killing_field_rows(F(1, 4), z), 2.0 * geo.mult_i(z))

    def test_flow_identity_and_period(self):
        ts = F(1, 3)
        z = random_point(2)
        assert np.allclose(geo.killing_flow_rows(ts, 0.0, z), z)
        period = 2 * math.pi * BergerParam(ts).tau
        assert np.allclose(geo.killing_flow_rows(ts, period, z), z, atol=1e-12)

    def test_flow_derivative_matches_field(self):
        ts = F(1, 2)
        z = random_point(2)
        h = 1e-6
        fd = (geo.killing_flow_rows(ts, h, z) - geo.killing_flow_rows(ts, -h, z)) / (2 * h)
        assert np.max(np.abs(fd - geo.killing_field_rows(ts, z))) < 1e-6


class TestConnectionCorrection:
    def test_round_metric_vanishes(self):
        z = random_point(2)
        x, y = random_tangent(z), random_tangent(z)
        assert np.max(np.abs(geo.connection_correction_rows(F(1), z, x, y))) < 1e-14

    def test_horizontal_pair_vanishes(self):
        ts = F(1, 3)
        z = random_point(2)
        frame = geo.horizontal_frame_rows(ts, z)
        out = geo.connection_correction_rows(ts, z, frame[:, 0], frame[:, 1])
        assert np.max(np.abs(out)) < 1e-12

    def test_killing_with_horizontal(self):
        ts = F(1, 2)
        z = random_point(2)
        xi = geo.killing_field_rows(ts, z)
        y = geo.horizontal_frame_rows(ts, z)[:, 0]
        expected = (float(1 - ts) / BergerParam(ts).tau) * geo.tangent_j_rows(z, y)
        assert np.allclose(geo.connection_correction_rows(ts, z, xi, y), expected, atol=1e-12)


class TestCurvature:
    def test_round_sphere_constant_curvature(self):
        z = random_point(2)
        ip = geo.berger_inner_rows
        for _ in range(20):
            x, y, zz, w = (random_tangent(z) for _ in range(4))
            expected = (ip(F(1), z, y, zz) * ip(F(1), z, x, w)
                        - ip(F(1), z, x, zz) * ip(F(1), z, y, w))[0]
            assert geo.curvature_tensor_rows(F(1), z, x, y, zz, w)[0] == pytest.approx(
                expected, abs=1e-12)

    def test_antisymmetry_sampled(self):
        ts = F(1, 3)
        z = random_point(1, 100)
        x, y, zz, w = (random_tangent(z) for _ in range(4))
        r = geo.curvature_tensor_rows(ts, z, x, y, zz, w)
        assert np.max(np.abs(r + geo.curvature_tensor_rows(ts, z, y, x, zz, w))) < 1e-10
        assert np.max(np.abs(r + geo.curvature_tensor_rows(ts, z, x, y, w, zz))) < 1e-10

    def test_vertical_plane_curvature_is_tau_sq(self):
        # a plane spanned by the vertical direction and a horizontal vector
        ts = F(2, 7)
        z = random_point(2)
        xi = geo.killing_field_rows(ts, z)
        w = geo.horizontal_frame_rows(ts, z)[:, 0]
        assert geo.sectional_curvature_rows(ts, z, xi, w)[0] == pytest.approx(
            float(ts), abs=1e-12)

    def test_holomorphic_horizontal_plane(self):
        # span{v, Jv} attains 1 + 3(1 - tau^2)
        ts = F(1, 3)
        z = random_point(2)
        v = geo.horizontal_frame_rows(ts, z)[:, 0]
        jv = geo.tangent_j_rows(z, v)
        expected = 1 + 3 * float(1 - ts)
        assert geo.sectional_curvature_rows(ts, z, v, jv)[0] == pytest.approx(expected, abs=1e-12)

    def test_sectional_requires_orthonormal(self):
        ts = F(1, 2)
        z = random_point(1)
        v = random_tangent(z)
        with pytest.raises(GeometryDomainError):
            geo.sectional_curvature_rows(ts, z, v, v)

    def test_ricci_of_vertical(self):
        for n, ts in [(1, F(1, 3)), (2, F(1, 2)), (3, F(4, 5))]:
            z = random_point(n)
            got = geo.ricci_rows(ts, z, geo.killing_field_rows(ts, z))[0]
            assert got == pytest.approx(2 * n * float(ts), abs=1e-12)

    def test_round_values(self):
        n = 2
        z = random_point(n)
        vecs = np.stack([random_tangent(z) for _ in range(2)], axis=1)
        frames, kept = geo.berger_orthonormalize_rows(F(1), z, vecs)
        assert kept.all()
        v, w = frames[:, 0], frames[:, 1]
        assert geo.sectional_curvature_rows(F(1), z, v, w)[0] == pytest.approx(1.0, abs=1e-12)
        assert geo.ricci_rows(F(1), z, v)[0] == pytest.approx(2 * n, abs=1e-12)
        assert scalar_curvature(F(1), n) == 2 * n * (2 * (n + 1) - 1)

    def test_scalar_curvature_exact(self):
        assert scalar_curvature(F(1, 3), 1) == F(22, 3)


class TestGeodesicSphereEmbedding:
    def test_first_coordinate_modulus(self):
        for ts in (F(1, 3), F(1, 2), F(9, 10)):
            z = random_point(2)
            rep = geo.geodesic_sphere_reps(ts, z)[0]
            assert abs(rep[0]) ** 2 == pytest.approx(float(ts / (1 - ts)), rel=1e-12)
            # so the representative already has the source-sphere radius
            assert np.linalg.norm(rep) ** 2 == pytest.approx(float(1 / (1 - ts)), rel=1e-12)

    def test_half_param_representative(self):
        z = random_point(1)
        rep = geo.geodesic_sphere_reps(F(1, 2), z)[0]
        zc = geo.to_complex(z[0])
        # representative proportional to (1, z)
        ratio = rep[1:] / zc
        assert np.allclose(ratio, ratio[0])
        assert rep[0] / ratio[0] == pytest.approx(1.0, abs=1e-12)

    def test_round_sphere_unsupported(self):
        z = random_point(1)
        with pytest.raises(RoundSphereUnsupportedError):
            geo.geodesic_sphere_reps(F(1), z)

    def test_pullback_is_berger_metric(self):
        from bergersphere.oracle import geodesic_sphere_isometry_check
        report = geodesic_sphere_isometry_check(F(1, 3), 2, samples=100, seed=7)
        assert report.passed, report


class TestSecondFundamentalForm:
    def test_vertical_principal_curvature(self):
        ts = F(1, 3)
        z = random_point(2)
        xi = geo.killing_field_rows(ts, z)
        tau = BergerParam(ts).tau
        assert geo.sff_geodesic_sphere_rows(ts, z, xi, xi)[0] == pytest.approx(
            (2 * float(ts) - 1) / tau, abs=1e-12)

    def test_horizontal_principal_curvature(self):
        ts = F(1, 2)
        z = random_point(2)
        frame = geo.horizontal_frame_rows(ts, z)
        tau = BergerParam(ts).tau
        e0, e1 = frame[:, 0], frame[:, 1]
        assert geo.sff_geodesic_sphere_rows(ts, z, e0, e0)[0] == pytest.approx(tau, abs=1e-12)
        assert geo.sff_geodesic_sphere_rows(ts, z, e0, e1)[0] == pytest.approx(0.0, abs=1e-12)


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

    def test_float_rejected(self):
        with pytest.raises(GeometryDomainError, match="xi_top_norm_sq must be an exact rational"):
            ambient_mean_curvature(F(1, 2), 2, 0.5)


def random_rep(n, ts):
    """A random representative in C^{n+1} of norm 1/sqrt(1 - tau^2), as one row."""
    zc = RNG.standard_normal(n + 1) + 1j * RNG.standard_normal(n + 1)
    return (zc / (np.linalg.norm(zc) * math.sqrt(float(1 - ts))))[None]


class TestTaiEmbedding:
    def test_trace(self):
        ts = F(1, 2)
        h = geo.tai_embed_rows(ts, random_rep(2, ts))[0]
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12
        assert np.real(np.trace(h)) == pytest.approx(1 / math.sqrt(2 * float(1 - ts)), abs=1e-12)

    def test_sphere_containment(self):
        ts = F(1, 2)
        n = 2
        center = geo.tai_sphere_center(ts, n)
        r_sq = float(geo.tai_sphere_radius_sq(ts, n))
        assert r_sq == pytest.approx(2 / 3)
        for _ in range(20):
            h = geo.tai_embed_rows(ts, random_rep(n, ts))[0]
            diff = h - center
            assert float(np.real(np.sum(diff * diff.conj()))) == pytest.approx(r_sq, abs=1e-10)

    def test_phase_invariance(self):
        ts = F(1, 3)
        zc = random_rep(3, ts)
        a = geo.tai_embed_rows(ts, zc)
        b = geo.tai_embed_rows(ts, np.exp(0.7j) * zc)
        assert np.allclose(a, b, atol=1e-14)

    def test_round_sphere_unsupported(self):
        with pytest.raises(RoundSphereUnsupportedError):
            geo.tai_embed_rows(F(1), np.array([[1.0 + 0j, 0.0]]))

    def test_round_sphere_error_is_a_domain_error(self):
        assert issubclass(RoundSphereUnsupportedError, GeometryDomainError)
        with pytest.raises(GeometryDomainError):
            geo.tai_sphere_radius_sq(F(1), 2)


class TestTaiSffInner:
    def _setup(self, ts, n=2):
        radius = 1 / math.sqrt(float(1 - ts))
        zc = random_rep(n, ts)[0]

        def horizontal():
            u = RNG.standard_normal(n + 1) + 1j * RNG.standard_normal(n + 1)
            u -= (np.vdot(zc, u) / radius ** 2) * zc
            return u / np.linalg.norm(u)

        def sff_inner(x, y, v, w):
            return geo.tai_sff_inner_rows(ts, zc[None], radius, x[None], y[None], v[None],
                                          w[None])[0]

        return sff_inner, horizontal

    def test_diagonal_value(self):
        ts = F(1, 3)
        sff_inner, horizontal = self._setup(ts)
        x = horizontal()
        assert sff_inner(x, x, x, x) == pytest.approx(4 * float(1 - ts), abs=1e-12)

    def test_orthogonal_pair_value(self):
        ts = F(1, 2)
        sff_inner, horizontal = self._setup(ts)
        x = horizontal()
        # build y orthogonal to both x and Jx so only one cross term survives
        y = horizontal()
        y -= np.real(np.vdot(x, y)) * x
        y -= np.real(np.vdot(1j * x, y)) * (1j * x)
        y /= np.linalg.norm(y)
        assert sff_inner(x, y, x, y) == pytest.approx(float(1 - ts), abs=1e-12)

    def test_symmetries_sampled(self):
        ts = F(2, 5)
        sff_inner, horizontal = self._setup(ts)
        for _ in range(20):
            x, y, v, w = (horizontal() for _ in range(4))
            base = sff_inner(x, y, v, w)
            assert abs(base - sff_inner(y, x, v, w)) < 1e-12
            assert abs(base - sff_inner(x, y, w, v)) < 1e-12
            assert abs(base - sff_inner(v, w, x, y)) < 1e-12


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
        z = random_point(2, 3)
        frames = geo.horizontal_frame_rows(ts, z)
        assert frames.shape == (3, 4, 6)
        iz = geo.mult_i(z)
        for i in range(4):
            assert np.max(np.abs(np.einsum("ij,ij->i", frames[:, i], iz))) < 1e-12
            for j in range(4):
                got = geo.berger_inner_rows(ts, z, frames[:, i], frames[:, j])
                assert np.allclose(got, float(i == j), rtol=0, atol=1e-12)


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


def termwise_curvature_rows(tau, z, x, y, zz, w):
    """The batched five-term curvature with every inner product, and the
    g(v, iz) inside it, evaluated on its own."""
    p = BergerParam.coerce(tau)
    lam = float(p.one_minus)

    def ip(a, b):
        return geo.berger_inner_rows(p, z, a, b)

    xi = geo.mult_i(z) / p.tau
    jx, jy, jz = geo.tangent_j_rows(z, x), geo.tangent_j_rows(z, y), geo.tangent_j_rows(z, zz)
    X, Y, Z, W = x, y, zz, w
    val = ip(Y, Z) * ip(X, W) - ip(X, Z) * ip(Y, W)
    val += lam * (ip(jy, Z) * ip(jx, W) - ip(jx, Z) * ip(jy, W) - 2.0 * ip(jx, Y) * ip(jz, W))
    val += lam * ip(Z, xi) * (ip(X, xi) * ip(Y, W) - ip(Y, xi) * ip(X, W))
    val += lam * ip(W, xi) * (ip(Y, xi) * ip(X, Z) - ip(X, xi) * ip(Y, Z))
    return val


class TestCurvatureSharedProducts:
    @pytest.mark.parametrize("ts", [F(1, 3), F(2, 7), F(1)], ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_termwise_evaluation_bit_for_bit(self, n, ts):
        rng = np.random.default_rng([13, n])
        for rows in (1, 7, 256):
            z = rng.standard_normal((rows, 2 * n + 2))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            x, y, zz, w = (u - np.einsum("ij,ij->i", u, z)[:, None] * z
                           for u in rng.standard_normal((4, rows, 2 * n + 2)))
            got = geo.curvature_tensor_rows(ts, z, x, y, zz, w)
            want = termwise_curvature_rows(ts, z, x, y, zz, w)
            assert got.shape == (rows,)
            assert got.tobytes() == want.tobytes()


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
            geo.check_points(z)
        v = np.zeros((2, 4))
        v[:, 1] = 1.0
        v[0, 2] = np.nan
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
        a = random_tangent(z)[0]
        b = random_tangent(z)[0]
        vecs = np.array([[a, 2.0 * a, b], [a, b, b]])
        frames, kept = geo.berger_orthonormalize_rows(ts, np.concatenate([z, z]), vecs)
        assert kept.tolist() == [[True, False, True], [True, True, False]]
        assert np.array_equal(frames[0, 2], frames[1, 1])
        assert np.array_equal(frames[0, 1], np.zeros(4))

    @pytest.mark.parametrize("name", ["connection_correction_rows", "sff_geodesic_sphere_rows"])
    def test_pair_functions_check_their_batch(self, name):
        z = np.zeros((3, 4))
        z[:, 0] = 1.0
        v = np.zeros((3, 4))
        v[:, 2] = 1.0
        v[1, 0] = 1e-8
        with pytest.raises(GeometryDomainError, match="not tangent"):
            getattr(geo, name)(F(1, 3), z, v, v)
        z[2, 0] = 1.0 + 1e-9
        with pytest.raises(GeometryDomainError, match="unit Euclidean norm"):
            getattr(geo, name)(F(1, 3), z, v, v)

    def test_horizontal_frame_checks_its_batch(self):
        z = np.zeros((3, 4))
        z[:, 0] = 1.0
        z[2, 0] = np.nan
        with pytest.raises(GeometryDomainError, match="unit Euclidean norm"):
            geo.horizontal_frame_rows(F(1, 3), z)
        with pytest.raises(GeometryDomainError, match="even length >= 4"):
            geo.horizontal_frame_rows(F(1, 3), np.ones((2, 3)))
