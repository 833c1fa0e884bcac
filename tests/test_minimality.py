"""First-variation minimality checks: bitwise equality with the unhoisted
loops, NaN handling, and metric mutations that the checks must catch."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from bergersphere import geometry, oracle
from bergersphere.geometry import BergerParam
from bergersphere.models import CliffordHypersurface, TotallyRealSphere

CLIFFORD = CliffordHypersurface(0, 0)
GREAT_CIRCLE = TotallyRealSphere(2, 1)
REAL_SPHERE = TotallyRealSphere(2, 2)
SEEDS = [1, 7, 12345, 0x5EED]


# ---------------------------------------------------------------------------
# Reference: the checks as loops that rebuild every array in every embedding
# ---------------------------------------------------------------------------


def _ref_normal_rows(param, pts, a, tangents):
    w = a[None, :] - np.einsum("ij,j->i", pts, a)[:, None] * pts
    for tv in tangents:
        coef = (geometry.berger_inner_rows(param, pts, w, tv)
                / geometry.berger_inner_rows(param, pts, tv, tv))
        w = w - coef[:, None] * tv
    return w, np.sqrt(geometry.berger_inner_rows(param, pts, w, w))


def _ref_clifford(model, param, samples, rng):
    ts = float(param.tau_sq)
    eps = 1e-4
    grid_n = 48
    t = np.arange(grid_n) * (2 * math.pi / grid_n)
    tt, ss = np.meshgrid(t, t, indexing="ij")
    tt, ss = tt.ravel(), ss.ravel()
    inv = 1.0 / math.sqrt(2.0)
    cell = (2 * math.pi / grid_n) ** 2
    hfd = 1e-5

    def embed(t_arr, s_arr, bump_c, e):
        pts = np.stack([np.cos(t_arr), np.sin(t_arr), np.cos(s_arr), np.sin(s_arr)], axis=1) * inv
        nrm = np.stack([np.cos(t_arr), np.sin(t_arr), -np.cos(s_arr), -np.sin(s_arr)], axis=1) * inv
        b = oracle._bump_periodic(t_arr, bump_c[0]) * oracle._bump_periodic(s_arr, bump_c[1])
        out = pts + e * b[:, None] * nrm
        return out / np.linalg.norm(out, axis=1, keepdims=True)

    def area(bump_c, e):
        du = (embed(tt + hfd, ss, bump_c, e) - embed(tt - hfd, ss, bump_c, e)) / (2 * hfd)
        dv = (embed(tt, ss + hfd, bump_c, e) - embed(tt, ss - hfd, bump_c, e)) / (2 * hfd)
        base = embed(tt, ss, bump_c, e)
        g11 = geometry.berger_inner_rows(param, base, du, du)
        g12 = geometry.berger_inner_rows(param, base, du, dv)
        g22 = geometry.berger_inner_rows(param, base, dv, dv)
        return float(np.sum(np.sqrt(g11 * g22 - g12 * g12))) * cell

    worst = 0.0
    dvol = np.sqrt(np.full(len(tt), (1 + ts) / 4 * (1 + ts) / 4 - ((ts - 1) / 4) ** 2)) * cell
    for _ in range(samples):
        c = rng.uniform(0, 2 * math.pi, size=2)
        b = oracle._bump_periodic(tt, c[0]) * oracle._bump_periodic(ss, c[1])
        weight = float(np.sum(b * dvol))
        delta = (area(c, eps) - area(c, -eps)) / (2 * eps)
        worst = max(worst, abs(delta / (model.dimension * weight)))
    return worst


def _ref_great_circle(model, param, samples, rng):
    eps = 1e-4
    dim = 2 * model.n + 2
    grid_n = 256
    th = np.arange(grid_n) * (2 * math.pi / grid_n)
    cell = 2 * math.pi / grid_n
    hfd = 1e-5

    def chart(th_arr):
        pts = np.zeros((len(th_arr), dim))
        pts[:, 0] = np.cos(th_arr)
        pts[:, 2] = np.sin(th_arr)
        return pts

    def tangent(th_arr):
        v = np.zeros((len(th_arr), dim))
        v[:, 0] = -np.sin(th_arr)
        v[:, 2] = np.cos(th_arr)
        return v

    worst = 0.0
    for _ in range(samples):
        for _ in range(32):
            a = rng.standard_normal(dim)
            if _ref_normal_rows(param, chart(th), a, (tangent(th),))[1].min() > 0.3:
                break
        c0 = rng.uniform(0, 2 * math.pi)

        def eta(th_arr):
            w, nrm = _ref_normal_rows(param, chart(th_arr), a, (tangent(th_arr),))
            return w / nrm[:, None]

        def embed(th_arr, e):
            pts = chart(th_arr) + e * oracle._bump_periodic(th_arr, c0)[:, None] * eta(th_arr)
            return pts / np.linalg.norm(pts, axis=1, keepdims=True)

        def length(e):
            dv = (embed(th + hfd, e) - embed(th - hfd, e)) / (2 * hfd)
            return float(np.sum(np.sqrt(
                geometry.berger_inner_rows(param, embed(th, e), dv, dv)))) * cell

        weight = float(np.sum(oracle._bump_periodic(th, c0))) * cell
        delta = (length(eps) - length(-eps)) / (2 * eps)
        worst = max(worst, abs(delta / weight))
    return worst


def _ref_real_sphere(model, param, samples, rng):
    eps = 1e-4
    dim = 2 * model.n + 2
    nodes, weights = np.polynomial.legendre.leggauss(32)
    width = 0.5
    hfd = 1e-5

    def chart(th_arr, ph_arr):
        pts = np.zeros((len(th_arr), dim))
        pts[:, 0] = np.sin(th_arr) * np.cos(ph_arr)
        pts[:, 2] = np.sin(th_arr) * np.sin(ph_arr)
        pts[:, 4] = np.cos(th_arr)
        return pts

    def bump(th_arr, ph_arr, c):
        r_sq = ((th_arr - c[0]) / width) ** 2 + ((ph_arr - c[1]) / width) ** 2
        out = np.zeros_like(th_arr)
        inside = r_sq < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r_sq[inside]))
        return out

    def normal(a, th_arr, ph_arr):
        pts = chart(th_arr, ph_arr)
        t1 = np.zeros_like(pts)
        t1[:, 0] = np.cos(th_arr) * np.cos(ph_arr)
        t1[:, 2] = np.cos(th_arr) * np.sin(ph_arr)
        t1[:, 4] = -np.sin(th_arr)
        t2 = np.zeros_like(pts)
        t2[:, 0] = -np.sin(th_arr) * np.sin(ph_arr)
        t2[:, 2] = np.sin(th_arr) * np.cos(ph_arr)
        return _ref_normal_rows(param, pts, a, (t1, t2))

    worst = 0.0
    for _ in range(samples):
        c = np.array([rng.uniform(1.0, math.pi - 1.0), rng.uniform(0.8, 2 * math.pi - 0.8)])
        th_n = c[0] + width * nodes
        ph_n = c[1] + width * nodes
        thg, phg = np.meshgrid(th_n, ph_n, indexing="ij")
        thg, phg = thg.ravel(), phg.ravel()
        wgrid = (width * weights)[:, None] * (width * weights)[None, :]
        wgrid = wgrid.ravel()
        for _ in range(32):
            a = rng.standard_normal(dim)
            if normal(a, thg, phg)[1].min() > 0.3:
                break

        def eta(th_arr, ph_arr):
            w, nrm = normal(a, th_arr, ph_arr)
            return w / nrm[:, None]

        def embed(th_arr, ph_arr, e):
            pts = (chart(th_arr, ph_arr)
                   + e * bump(th_arr, ph_arr, c)[:, None] * eta(th_arr, ph_arr))
            return pts / np.linalg.norm(pts, axis=1, keepdims=True)

        def patch_area(e):
            du = (embed(thg + hfd, phg, e) - embed(thg - hfd, phg, e)) / (2 * hfd)
            dv = (embed(thg, phg + hfd, e) - embed(thg, phg - hfd, e)) / (2 * hfd)
            base = embed(thg, phg, e)
            g11 = geometry.berger_inner_rows(param, base, du, du)
            g12 = geometry.berger_inner_rows(param, base, du, dv)
            g22 = geometry.berger_inner_rows(param, base, dv, dv)
            return float(np.sum(np.sqrt(g11 * g22 - g12 * g12) * wgrid))

        weight = float(np.sum(bump(thg, phg, c) * np.sin(thg) * wgrid))
        delta = (patch_area(eps) - patch_area(-eps)) / (2 * eps)
        worst = max(worst, abs(delta / (2 * weight)))
    return worst


REFERENCES = {
    CLIFFORD: ("minimality-clifford", _ref_clifford),
    GREAT_CIRCLE: ("minimality-great-circle", _ref_great_circle),
    REAL_SPHERE: ("minimality-real-sphere", _ref_real_sphere),
}


def _reference(model, tau, samples, seed):
    return REFERENCES[model][1](model, BergerParam.coerce(tau), samples,
                                oracle._rng(seed, f"minimality-{model.label()}"))


# ---------------------------------------------------------------------------
# Metric mutations: every one goes through the single metric formula
# ---------------------------------------------------------------------------


def _perturbed_metric(extra):
    true_metric = geometry._metric

    def metric(lam, iz, v, w, *known):
        return true_metric(lam, iz, v, w, *known) + extra(v, w)
    return metric


def _reflection_even(v, w):
    """2 v0 w0 (+ 1.5 v4 w1 where there is a fifth coordinate)."""
    out = 2 * v[..., 0] * w[..., 0]
    if v.shape[-1] > 4:
        out = out + 1.5 * v[..., 4] * w[..., 1]
    return out


def _conjugation_odd(v, w):
    """A small form mixing the real and imaginary part of the first complex
    coordinate; the perturbed metric stays positive definite for tau^2 > 1/4."""
    return 0.25 * (v[..., 0] * w[..., 1] + v[..., 1] * w[..., 0])


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model, metric", [
    (CLIFFORD, None), (GREAT_CIRCLE, None), (REAL_SPHERE, None),
    (GREAT_CIRCLE, _conjugation_odd), (REAL_SPHERE, _conjugation_odd),
], ids=["clifford", "great-circle", "real-sphere",
        "great-circle-conjugation-odd", "real-sphere-conjugation-odd"])
@pytest.mark.parametrize("tau", [F(1, 3), F(1, 2), F(2, 5), F(1)], ids=str)
def test_max_error_bitwise_equals_unhoisted_loops(model, metric, tau, monkeypatch):
    """The totally real spheres read exactly 0 under the Berger metric, so
    their comparison also runs under a perturbed metric that gives every
    sample a nonzero value."""
    if metric is not None:
        monkeypatch.setattr(geometry, "_metric", _perturbed_metric(metric))
    nonzero = 0
    for samples in (1, 2, 3):
        for seed in SEEDS:
            got = oracle.minimality_first_variation_check(model, tau, samples, seed)
            want = _reference(model, tau, samples, seed)
            assert got.name == REFERENCES[model][0]
            assert got.max_error.hex() == want.hex(), (samples, seed)
            nonzero += want != 0.0
    if metric is not None or model == CLIFFORD:
        assert nonzero == 3 * len(SEEDS)


@pytest.mark.parametrize("model, tau, samples", [
    (CLIFFORD, F(1, 3), 2), (GREAT_CIRCLE, F(1, 3), 2), (REAL_SPHERE, F(1, 2), 1),
], ids=["clifford", "great-circle", "real-sphere"])
def test_nan_metric_fails(model, tau, samples, monkeypatch):
    monkeypatch.setattr(geometry, "_metric", _perturbed_metric(lambda v, w: np.nan))
    report = oracle.minimality_first_variation_check(model, tau, samples)
    assert math.isnan(report.max_error)
    assert not report.passed


# The minimality checks as verify_all runs them.
VERIFY_CASES = [
    pytest.param(CLIFFORD, F(1, 3), 2, id="clifford-1/3"),
    pytest.param(CLIFFORD, F(1), 2, id="clifford-1"),
    pytest.param(REAL_SPHERE, F(1, 2), 1, id="real-sphere-1/2"),
]


@pytest.mark.parametrize("model, tau, samples", VERIFY_CASES)
def test_reflection_even_metric_mutation_fails(model, tau, samples, monkeypatch):
    assert oracle.minimality_first_variation_check(model, tau, samples).passed
    monkeypatch.setattr(geometry, "_metric", _perturbed_metric(_reflection_even))
    assert not oracle.minimality_first_variation_check(model, tau, samples).passed


def test_reflection_even_metric_mutation_leaves_great_circle_at_zero(monkeypatch):
    """The normal field lies in the -1 eigenspace of the reflection that fixes
    the circle, and this perturbation is invariant under it, so the +eps and
    -eps lengths agree bit for bit."""
    assert oracle.minimality_first_variation_check(GREAT_CIRCLE, F(1, 3), 2).passed
    monkeypatch.setattr(geometry, "_metric", _perturbed_metric(_reflection_even))
    for samples in (1, 2, 3):
        for seed in SEEDS:
            report = oracle.minimality_first_variation_check(GREAT_CIRCLE, F(1, 3), samples, seed)
            assert report.max_error == 0.0 and report.passed, (samples, seed)


@pytest.mark.parametrize("model, tau, samples", [
    (GREAT_CIRCLE, F(1, 3), 2), (REAL_SPHERE, F(1, 2), 1),
], ids=["great-circle", "real-sphere"])
def test_conjugation_odd_metric_mutation_fails(model, tau, samples, monkeypatch):
    monkeypatch.setattr(geometry, "_metric", _perturbed_metric(_conjugation_odd))
    report = oracle.minimality_first_variation_check(model, tau, samples)
    assert report.max_error > report.tolerance


# ---------------------------------------------------------------------------
# The Clifford pair of verify_all: one draw, one report per tau
# ---------------------------------------------------------------------------

CLIFFORD_PAIR = (F(1, 3), F(1))


def test_shared_draw_clifford_pair_bitwise_equals_reference():
    for samples in (1, 2, 3):
        for seed in SEEDS:
            reports = oracle._clifford_minimality_checks(CLIFFORD_PAIR, samples, seed)
            assert [r.name for r in reports] == ["minimality-clifford"] * 2
            for report, tau in zip(reports, CLIFFORD_PAIR):
                want = _reference(CLIFFORD, tau, samples, seed)
                assert want != 0.0
                assert report.max_error.hex() == want.hex(), (tau, samples, seed)
                assert (report.samples, report.seed) == (samples, seed)


@pytest.mark.parametrize("extra", [lambda v, w: np.nan, _reflection_even, _conjugation_odd],
                         ids=["nan", "reflection-even", "conjugation-odd"])
def test_shared_draw_clifford_pair_fails_under_metric_mutations(extra, monkeypatch):
    reports = oracle._clifford_minimality_checks(CLIFFORD_PAIR, 2, oracle.DEFAULT_SEED)
    assert all(r.passed for r in reports)
    monkeypatch.setattr(geometry, "_metric", _perturbed_metric(extra))
    reports = oracle._clifford_minimality_checks(CLIFFORD_PAIR, 2, oracle.DEFAULT_SEED)
    assert len(reports) == 2
    for report in reports:
        assert not report.passed
        assert math.isnan(report.max_error) or report.max_error > report.tolerance


@pytest.mark.parametrize("metric", [None, _conjugation_odd], ids=["berger", "conjugation-odd"])
def test_real_sphere_with_rows_of_length_8_matches_reference(metric, monkeypatch):
    """S^2 in S^7: rows of 8 coordinates.  numpy's norm adds these pairwise
    and the check's column sum left to right, so they agree to rounding."""
    if metric is not None:
        monkeypatch.setattr(geometry, "_metric", _perturbed_metric(metric))
    model = TotallyRealSphere(3, 2)
    for samples in (1, 2):
        for seed in SEEDS:
            got = oracle.minimality_first_variation_check(model, F(1, 2), samples, seed)
            want = _ref_real_sphere(model, BergerParam(F(1, 2)), samples,
                                    oracle._rng(seed, f"minimality-{model.label()}"))
            assert abs(got.max_error - want) <= 1e-8, (samples, seed)
            assert got.passed == (metric is None)
            assert metric is None or want > 1e-3
