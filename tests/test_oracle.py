"""Brute-force oracles and the sampled verification checks."""

from fractions import Fraction as F

import pytest

from bergersphere import oracle, spectra
from bergersphere.geometry import GeometryDomainError
from bergersphere.models import (CliffordHypersurface, TotallyRealSphere,
                                 clifford_index_nullity)


class TestHarmonicBruteforce:
    def test_constants(self):
        assert oracle.harmonic_dim_bruteforce(2, 0, 0) == 1

    def test_pure_bidegrees_are_harmonic(self):
        assert oracle.harmonic_dim_bruteforce(1, 2, 0) == 3

    def test_mixed_bidegree(self):
        assert oracle.harmonic_dim_bruteforce(1, 1, 1) == 3

    def test_cap_enforced(self):
        with pytest.raises(GeometryDomainError):
            oracle.harmonic_dim_bruteforce(1, 5, 4)

    def test_exact_agreement_with_closed_form(self):
        for n in (0, 1, 2):
            for a in range(5):
                for b in range(5 - a):
                    assert oracle.harmonic_dim_bruteforce(n, a, b) == \
                        spectra.bidegree_dimension(n, a, b)


class TestVerticalSpectrum:
    def test_constants(self):
        assert oracle.lxi_squared_spectrum(1, F(1, 2), 0) == [(F(0), 1)]

    def test_degree_one(self):
        ts = F(1, 3)
        assert oracle.lxi_squared_spectrum(1, ts, 1) == [(-1 / ts, 4)]

    def test_degree_two(self):
        ts = F(1, 3)
        assert oracle.lxi_squared_spectrum(1, ts, 2) == [(F(0), 3), (-4 / ts, 6)]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_matches_frequency_split(self, n):
        ts = F(2, 5)
        for k in range(6):
            got = dict(oracle.lxi_squared_spectrum(n, ts, k))
            expected = {}
            for p in range(k // 2 + 1):
                mult = spectra.berger_multiplicity(n, k, p)
                if mult:
                    key = F(-((k - 2 * p) ** 2)) / ts
                    expected[key] = expected.get(key, 0) + mult
            assert got == expected

    def test_cap(self):
        with pytest.raises(GeometryDomainError):
            oracle.lxi_squared_spectrum(1, F(1, 2), 9)


class TestTorusFourier:
    def test_lattice_generators(self):
        import math
        spec = oracle.clifford_lattice(F(1, 4))
        (a, b), (c, d) = spec.generators
        assert a == pytest.approx(math.pi * 0.5) and b == pytest.approx(math.pi)
        assert c == pytest.approx(math.pi * 0.5) and d == pytest.approx(-math.pi)

    def test_zero_mode(self):
        report = oracle.torus_fourier_index(F(1, 3), 4)
        bottom = report.nonpositive_modes[0]
        assert bottom.labels == (0, 0) and bottom.multiplicity == 1
        assert bottom.value == -4

    def test_equilateral_parameter(self):
        report = oracle.torus_fourier_index(F(1, 3), 4)
        assert (report.index, report.nullity) == (1, 6)

    def test_half_parameter_matches_table(self):
        report = oracle.torus_fourier_index(F(1, 2), 4)
        assert report.index == 5  # 2n+3 with n = 1

    @pytest.mark.parametrize("ts", [F(1, 5), F(1, 4), F(1, 3), F(1, 2), F(1)])
    def test_exact_crosscheck_with_closed_form(self, ts):
        fourier = oracle.torus_fourier_index(ts, 4)
        closed = clifford_index_nullity(0, 0, ts)
        assert (fourier.index, fourier.nullity) == (closed.index, closed.nullity)

    def test_search_radius_recorded(self):
        report = oracle.torus_fourier_index(F(1, 3), 4)
        assert "scanned" in report.certificate


class TestSampledChecks:
    def test_killing_round(self):
        assert oracle.killing_check(F(1), 1, samples=50).passed

    def test_killing_deformed(self):
        assert oracle.killing_check(F(1, 3), 2, samples=50).passed

    def test_curvature_symmetries(self):
        report = oracle.curvature_symmetry_check(F(1, 3), 2, samples=100)
        assert report.passed and report.tolerance == 1e-10

    def test_gauss_flatness_any_parameter(self):
        for ts in (F(1, 5), F(1, 3), F(1)):
            report = oracle.gauss_flatness_check(ts)
            assert report.passed and report.max_error < 1e-12

    def test_seeded_determinism(self):
        a = oracle.curvature_symmetry_check(F(1, 3), 1, samples=40, seed=123)
        b = oracle.curvature_symmetry_check(F(1, 3), 1, samples=40, seed=123)
        c = oracle.curvature_symmetry_check(F(1, 3), 1, samples=40, seed=124)
        assert a == b
        assert a.max_error != c.max_error

    def test_tai_suite(self):
        reports = oracle.tai_checks(F(1, 2), 2, samples=60)
        assert all(r.passed for r in reports)
        names = {r.name for r in reports}
        assert {"tai-isometry", "tai-sphere-containment", "tai-sff-law",
                "tai-sff-j-invariance", "tai-minimality"} == names

    def test_no_samples_fails(self):
        report = oracle.curvature_symmetry_check(F(1, 3), 1, samples=0)
        assert report.samples == 0 and not report.passed

    def test_reports_serialise(self):
        report = oracle.ricci_vertical_check(F(1, 2), 1, samples=10)
        blob = report.to_json()
        assert blob["pass"] is True and blob["name"] == "ricci-vertical"


class TestMinimality:
    def test_clifford_torus(self):
        for ts in (F(1, 3), F(1)):
            report = oracle.minimality_first_variation_check(
                CliffordHypersurface(0, 0), ts, samples=2)
            assert report.passed, report

    def test_great_circle(self):
        report = oracle.minimality_first_variation_check(
            TotallyRealSphere(2, 1), F(1, 3), samples=2)
        assert report.passed

    def test_real_two_sphere(self):
        report = oracle.minimality_first_variation_check(
            TotallyRealSphere(2, 2), F(1, 2), samples=1)
        assert report.passed

    def test_unsupported_model_refused(self):
        with pytest.raises(GeometryDomainError):
            oracle.minimality_first_variation_check(
                CliffordHypersurface(1, 0), F(1, 3), samples=1)


class TestCrossChecks:
    def test_lattice_crosscheck(self):
        assert oracle.lattice_cross_check().passed

    def test_vertical_crosscheck(self):
        assert oracle.vertical_spectrum_cross_check().passed

    def test_bidegree_crosscheck(self):
        assert oracle.bidegree_cross_check().passed
