"""Laplace spectrum tables and multiplicity bookkeeping."""

import io
import json
from fractions import Fraction as F

import pytest

from bergersphere import cli, spectra
from bergersphere.geometry import GeometryDomainError
from bergersphere.oracle import harmonic_dim_bruteforce


class TestRoundSpectrum:
    def test_first_eigenvalue_three_sphere(self):
        assert spectra.round_eigenvalue(1, 1) == 3
        assert spectra.round_multiplicity(1, 1) == 4

    def test_constants(self):
        assert spectra.round_eigenvalue(2, 0) == 0
        assert spectra.round_multiplicity(2, 0) == 1

    def test_degree_two_three_sphere(self):
        # brute-force count of degree-2 harmonics in 4 real variables
        brute = sum(harmonic_dim_bruteforce(1, a, 2 - a) for a in range(3))
        assert spectra.round_eigenvalue(1, 2) == 8
        assert spectra.round_multiplicity(1, 2) == brute == 9


class TestBergerEigenvalue:
    def test_no_vertical_frequency(self):
        for k in (0, 2, 4):
            assert spectra.berger_eigenvalue(2, F(1, 3), k, k // 2) == \
                spectra.round_eigenvalue(2, k)

    def test_degree_one(self):
        assert spectra.berger_eigenvalue(1, F(1, 3), 1, 0) == 5

    def test_degree_two(self):
        assert spectra.berger_eigenvalue(1, F(1, 3), 2, 0) == 16

    def test_label_validation(self):
        with pytest.raises(GeometryDomainError):
            spectra.berger_eigenvalue(1, F(1, 2), 2, 2)

    def test_round_degeneration(self):
        for k in range(7):
            for p in range(k // 2 + 1):
                assert spectra.berger_eigenvalue(2, F(1), k, p) == \
                    spectra.round_eigenvalue(2, k)

    def test_monotone_growth(self):
        ts = F(2, 7)
        for k in range(9):
            for p in range(k // 2 + 1):
                assert spectra.berger_eigenvalue(3, ts, k, p) >= k * (6 + k)


class TestBidegreeDimensions:
    def test_constants(self):
        assert spectra.bidegree_dimension(2, 0, 0) == 1

    def test_three_sphere_values(self):
        assert spectra.bidegree_dimension(1, 1, 1) == 3
        assert spectra.bidegree_dimension(1, 2, 0) == 3
        assert sum(spectra.bidegree_dimension(1, a, 2 - a) for a in range(3)) == 9

    def test_circle_case(self):
        # on the circle only pure bidegrees survive
        assert spectra.bidegree_dimension(0, 3, 0) == 1
        assert spectra.bidegree_dimension(0, 2, 1) == 0

    @pytest.mark.parametrize("n,deg", [(0, 5), (1, 5), (2, 4), (3, 3)])
    def test_agrees_with_bruteforce(self, n, deg):
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                assert spectra.bidegree_dimension(n, a, b) == \
                    harmonic_dim_bruteforce(n, a, b)


class TestBergerMultiplicity:
    def test_middle_label_nontrivial(self):
        assert spectra.berger_multiplicity(1, 2, 1) == 3

    def test_circle_only_top_frequency(self):
        for k in range(1, 6):
            assert spectra.berger_multiplicity(0, k, 0) == 2
            for p in range(1, k // 2 + 1):
                assert spectra.berger_multiplicity(0, k, p) == 0

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_partition_of_round_multiplicity(self, n):
        for k in range(9):
            total = sum(spectra.berger_multiplicity(n, k, p) for p in range(k // 2 + 1))
            assert total == spectra.round_multiplicity(n, k)

    def test_mode_listing_order_and_content(self):
        modes = spectra.berger_modes(1, F(1, 3), 2)
        assert [(m.k, m.p, m.value, m.multiplicity) for m in modes] == [
            (0, 0, F(0), 1), (1, 0, F(5), 4), (2, 0, F(16), 6), (2, 1, F(8), 3)]


class TestCliffordSpectrum:
    def test_zero_mode(self):
        assert spectra.clifford_eigenvalue(0, 0, F(1, 3), 0, 0, 0) == 0

    def test_first_factor_mode(self):
        for m1, m2 in [(0, 0), (1, 0), (1, 1)]:
            n = m1 + m2 + 1
            ts = F(1, 3)
            expected = 2 * n + (1 - ts) / ts
            assert spectra.clifford_eigenvalue(m1, m2, ts, 1, 0, 0) == expected

    def test_pair_mode_multiplicity(self):
        for m1, m2 in [(0, 0), (1, 0), (2, 1)]:
            assert spectra.clifford_multiplicity(m1, m2, 1, 1, 1) == \
                2 * (m1 + 1) * (m2 + 1)

    def test_low_modes_table(self):
        # the rows of ``spectrum --low``
        for m1, m2 in [(1, 0), (0, 2), (2, 3)]:
            out = io.StringIO()
            assert cli.main(["spectrum", "--space", "clifford", "--m1", str(m1),
                             "--m2", str(m2), "--tau-sq", "1/4", "--low", "--format", "json"],
                            out=out) == 0
            rows = [(r["k1"], r["k2"], r["p"], F(r["value"]), r["multiplicity"])
                    for r in json.loads(out.getvalue())["modes"]]
            assert rows == [
                (*label, spectra.clifford_eigenvalue(m1, m2, F(1, 4), *label), mult)
                for label, mult in zip(spectra.LOW_LABELS, [1, 2 * m1 + 2, 2 * m2 + 2,
                                                            2 * (m1 + 1) * (m2 + 1)])]

    def test_product_partition(self):
        # the (k1, k2) shell splits into frequency pieces of the right total
        for m1, m2 in [(0, 0), (1, 0)]:
            for k1 in range(3):
                for k2 in range(3):
                    total = sum(spectra.clifford_multiplicity(m1, m2, k1, k2, p)
                                for p in range((k1 + k2) // 2 + 1))
                    factor1 = spectra.round_multiplicity(m1, k1)
                    factor2 = spectra.round_multiplicity(m2, k2)
                    assert total == factor1 * factor2
