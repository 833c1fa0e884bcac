"""Laplace spectrum tables and multiplicity bookkeeping."""

import functools
import io
import json
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bergersphere import cli, models, spectra
from bergersphere.geometry import GeometryDomainError
from bergersphere.models import CliffordHypersurface, enumerate_index, jacobi_modes
from bergersphere.oracle import harmonic_dim_bruteforce
from bergersphere.spectra import ModeRow
from test_models import family_library


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


class TestScalarFormsValidate:
    """Every bad integer argument of a per-label closed form is a domain error."""

    BAD_CALLS = [
        ("clifford_multiplicity", (-1, 0, 1, 0, 0)),
        ("berger_multiplicity", (-1, 2, 0)),
        ("bidegree_dimension", (-1, 1, 1)),
        ("round_multiplicity", (-1, 2)),
        ("clifford_multiplicity", (0, 0, -1, 0, 0)),
        ("clifford_multiplicity", (0, 0, 1, 1, 5)),
        ("clifford_eigenvalue", (-1, 0, F(1, 3), 1, 0, 0)),
        ("berger_eigenvalue", (-1, F(1, 3), 1, 0)),
    ]

    @pytest.mark.parametrize("name,args", BAD_CALLS,
                             ids=[f"{name}({','.join(map(str, args))})"
                                  for name, args in BAD_CALLS])
    def test_bad_argument_raises_domain_error(self, name, args):
        with pytest.raises(GeometryDomainError):
            getattr(spectra, name)(*args)

    def test_bidegree_dimension_is_zero_off_the_quadrant(self):
        assert spectra.bidegree_dimension(2, -1, 3) == 0
        assert spectra.bidegree_dimension(2, 3, -1) == 0


# Test-side copies of the per-label Fraction formulas and the double loop
# over factor bidegrees that the tables were built from before they became
# integer rows.
def parent_berger_eigenvalue(n, ts, k, p):
    return F(k * (2 * n + k)) + (1 - ts) / ts * (k - 2 * p) ** 2


def parent_clifford_eigenvalue(m1, m2, ts, k1, k2, p):
    n = m1 + m2 + 1
    base = 2 * n * (F(k1 * (2 * m1 + k1), 2 * m1 + 1) + F(k2 * (2 * m2 + k2), 2 * m2 + 1))
    return base + (1 - ts) / ts * (k1 + k2 - 2 * p) ** 2


@functools.lru_cache(maxsize=None)
def parent_clifford_multiplicity(m1, m2, k1, k2, p):
    q = k1 + k2 - 2 * p
    total = 0
    for a1 in range(k1 + 1):
        for a2 in range(k2 + 1):
            if abs((2 * a1 - k1) + (2 * a2 - k2)) == q:
                total += (spectra.bidegree_dimension(m1, a1, k1 - a1)
                          * spectra.bidegree_dimension(m2, a2, k2 - a2))
    return total


def parent_berger_modes(n, ts, k_max):
    return [(k, p, parent_berger_eigenvalue(n, ts, k, p), spectra.berger_multiplicity(n, k, p))
            for k in range(k_max + 1) for p in range(k // 2 + 1)
            if spectra.berger_multiplicity(n, k, p)]


def parent_clifford_modes(m1, m2, ts, sum_max):
    return [(k1, k2, p, parent_clifford_eigenvalue(m1, m2, ts, k1, k2, p),
             parent_clifford_multiplicity(m1, m2, k1, k2, p))
            for k1 in range(sum_max + 1) for k2 in range(sum_max + 1 - k1)
            for p in range((k1 + k2) // 2 + 1)
            if parent_clifford_multiplicity(m1, m2, k1, k2, p)]


def parent_clifford_table(m1, m2, sum_max):
    """The Jacobi table as built from the Laplace modes at tau^2 = 1."""
    shift = 4 * (m1 + m2 + 1)
    rows = []
    for k1, k2, p, h, mult in parent_clifford_modes(m1, m2, F(1), sum_max):
        v = (k1 + k2 - 2 * p) ** 2
        rows.append(ModeRow("hypersurface", (k1, k2, p), mult,
                            h.numerator - (shift + v) * h.denominator, 0,
                            v * h.denominator, h.denominator))
    return tuple(rows)


# The thresholds 1/(2m+2), 1/(2n+1) and 1/(d+1) of the index tables with
# n <= 9 (the Clifford products of m1, m2 <= 4), and their neighbours.
_CUTS = ({F(1, 2 * m + 2) for m in range(7)} | {F(1, 2 * n + 1) for n in range(1, 10)}
         | {F(1, d + 1) for d in range(1, 7)})
THRESHOLDS = sorted({t + e for t in _CUTS for e in (-F(1, 1000), 0, F(1, 1000))
                     if 0 < t + e <= 1})
TAU_SQ = st.one_of(st.sampled_from(THRESHOLDS),
                   st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(bool))


class TestRowTables:
    """The integer rows against the per-label formulas they replaced."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(0, 6), ts=TAU_SQ, k_max=st.integers(0, 12))
    def test_berger_modes_match_the_per_label_formulas(self, n, ts, k_max):
        got = [(m.k, m.p, m.value, m.multiplicity) for m in spectra.berger_modes(n, ts, k_max)]
        assert got == parent_berger_modes(n, ts, k_max)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(m1=st.integers(0, 4), m2=st.integers(0, 4), ts=TAU_SQ, sum_max=st.integers(0, 12))
    def test_clifford_modes_match_the_per_label_formulas(self, m1, m2, ts, sum_max):
        got = [(m.k1, m.k2, m.p, m.value, m.multiplicity)
               for m in spectra.clifford_modes(m1, m2, ts, sum_max)]
        assert got == parent_clifford_modes(m1, m2, ts, sum_max)

    def test_berger_rows_split_the_round_shells(self):
        for n in range(7):
            totals = Counter()
            for row in spectra.berger_rows(n, 12):
                totals[row.labels[0]] += row.multiplicity
            assert totals == {k: spectra.round_multiplicity(n, k) for k in range(13)}

    def test_clifford_rows_split_the_product_shells(self):
        for m1 in range(5):
            for m2 in range(5):
                totals = Counter()
                for row in spectra.clifford_rows(m1, m2, 12):
                    totals[row.labels[:2]] += row.multiplicity
                assert totals == {(k1, k2): spectra.round_multiplicity(m1, k1)
                                  * spectra.round_multiplicity(m2, k2)
                                  for k1 in range(13) for k2 in range(13 - k1)}

    def test_clifford_jacobi_table_is_the_parent_construction(self):
        for m2 in range(5):
            for m1 in range(m2 + 1):
                for k in range(13):
                    table = CliffordHypersurface(m1, m2).table(k)
                    assert all(type(row) is ModeRow for row in table)
                    assert tuple(table) == parent_clifford_table(m1, m2, k), (m1, m2, k)

    def test_models_share_the_row_type(self):
        assert models.ModeRow is ModeRow


class TestTablesAvoidTheClosedForms:
    def test_no_table_calls_a_per_label_closed_form(self, monkeypatch):
        """The printed modes are checked against the per-label closed forms,
        so no table may be built from them."""
        def refuse(*args):
            raise AssertionError("a table called a per-label closed form")

        for name in ("berger_eigenvalue", "clifford_eigenvalue", "berger_multiplicity",
                     "clifford_multiplicity"):
            monkeypatch.setattr(spectra, name, refuse)
        ts = F(2, 7)
        for n in range(4):
            spectra.berger_modes(n, ts, 8)
        for m1 in range(3):
            for m2 in range(3):
                spectra.clifford_modes(m1, m2, ts, 6)
        for model in family_library():
            # a depth other than the certified one is built afresh, not memoised
            model.table(model.certified_k + 3)
            jacobi_modes(model, ts, model.certified_k + 2)
            enumerate_index(model, ts, k_max=model.certified_k + 1)
        for argv in (["spectrum", "--space", "berger", "--n", "2", "--kmax", "6"],
                     ["spectrum", "--space", "clifford", "--m1", "1", "--m2", "2", "--low"],
                     ["spectrum", "--space", "clifford", "--m1", "1", "--m2", "2"],
                     ["index", "--model", "clifford", "--m1", "1", "--m2", "2", "--kmax", "7"],
                     ["index", "--model", "tg-berger", "--n", "3", "--m", "1", "--kmax", "5"],
                     ["index", "--model", "veronese-s3", "--kmax", "6"]):
            assert cli.main([*argv, "--tau-sq", "2/7"], out=io.StringIO()) == 0
