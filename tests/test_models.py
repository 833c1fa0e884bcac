"""Jacobi mode families and the index/nullity tables."""

import math
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from bergersphere import models, spectra
from bergersphere.geometry import GeometryDomainError
from bergersphere.models import (CircleCover, CliffordHypersurface, JacobiMode,
                                 ModelSubmanifold, ModeRow, Surd,
                                 TotallyGeodesicBergerSphere, TotallyRealSphere,
                                 TruncationError, VeroneseRP3, VeroneseS3, circle_stability,
                                 clifford_index_nullity, enumerate_index, jacobi_modes,
                                 minus_sqrt, tg_berger_index_nullity,
                                 totally_real_sphere_index_nullity, veronese_index_nullity)

TAU_GRID = [F(1, 12), F(1, 8), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(3, 5), F(1)]


def tg_table(n, m, ts):
    """Frozen piecewise table for the totally geodesic Berger spheres."""
    slots = n - m
    threshold = F(1, 2 * (m + 1))
    index = 0 if ts <= threshold else 2 * slots
    if ts == 1:
        nullity = 4 * slots * (m + 1)
    elif ts == threshold:
        nullity = 2 * slots * (m + 2)
    else:
        nullity = 2 * slots * (m + 1)
    return index, nullity


class TestTotallyGeodesicBergerSpheres:
    def test_positive_for_high_degree(self):
        modes = jacobi_modes(TotallyGeodesicBergerSphere(3, 1), F(1, 2), 6)
        assert all(m.value > 0 for m in modes if m.labels[0] >= 2)

    def test_lowest_mode_value(self):
        ts = F(2, 5)
        m = 1
        modes = jacobi_modes(TotallyGeodesicBergerSphere(3, m), ts, 2)
        k0 = [mo for mo in modes if mo.labels[:2] == (0, 0)]
        assert len(k0) == 1 and k0[0].value == 1 / ts - (2 * m + 2)

    def test_degree_one_zero_mode(self):
        modes = jacobi_modes(TotallyGeodesicBergerSphere(2, 0), F(1, 3), 2)
        zero = [mo for mo in modes if mo.labels == (1, 0, -1)]
        assert len(zero) == 1 and zero[0].value == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_table_and_enumeration_agree(self, n):
        for m in range(n):
            for ts in TAU_GRID:
                expected = tg_table(n, m, ts)
                closed = tg_berger_index_nullity(n, m, ts)
                enum = enumerate_index(TotallyGeodesicBergerSphere(n, m), ts)
                assert (closed.index, closed.nullity) == expected
                assert (enum.index, enum.nullity) == expected

    def test_spot_values(self):
        assert (lambda r: (r.index, r.nullity))(tg_berger_index_nullity(2, 1, F(3, 5))) == (2, 4)
        assert (lambda r: (r.index, r.nullity))(tg_berger_index_nullity(2, 1, F(1, 4))) == (0, 6)
        r = tg_berger_index_nullity(3, 0, F(1))
        assert r.nullity == 4 * 3 * 1

    def test_boundary_nullity_jump(self):
        for n, m in [(2, 0), (3, 1), (3, 2)]:
            boundary = F(1, 2 * (m + 1))
            generic = tg_berger_index_nullity(n, m, boundary / 2).nullity
            at_boundary = tg_berger_index_nullity(n, m, boundary).nullity
            assert at_boundary - generic == 2 * (n - m)

    def test_parameter_validation(self):
        with pytest.raises(GeometryDomainError):
            tg_berger_index_nullity(2, 2, F(1, 2))
        with pytest.raises(GeometryDomainError):
            TotallyGeodesicBergerSphere(1, 2)


class TestCircleCovers:
    def test_near_top_mode_value(self):
        for s in (1, 2, 3):
            ts = F(1, 3)
            modes = jacobi_modes(CircleCover(1, s), ts, s)
            if s == 1:
                target = [m for m in modes if m.labels == (0, 0)]
            else:
                target = [m for m in modes if m.labels == (s - 1, -1)]
            assert target[0].value == F(1, s * s) * (1 / ts - 2 * s)

    def test_boundary_stability(self):
        assert circle_stability(2, F(1, 4))
        report = enumerate_index(CircleCover(2, 2), F(1, 4))
        assert report.index == 0
        zero = [m for m in report.nonpositive_modes if m.labels == (1, -1)]
        assert zero and zero[0].value == 0

    def test_round_single_cover_unstable(self):
        assert not circle_stability(1, F(1))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_stability_matches_enumeration(self, s):
        for ts in TAU_GRID:
            report = enumerate_index(CircleCover(2, s), ts)
            assert (report.index == 0) == circle_stability(s, ts)

    def test_single_cover_equals_tg_circle(self):
        for ts in TAU_GRID:
            a = enumerate_index(CircleCover(3, 1), ts)
            b = enumerate_index(TotallyGeodesicBergerSphere(3, 0), ts)
            assert (a.index, a.nullity) == (b.index, b.nullity)


RP3_INDEX = [(F(1, 12), 0), (F(1, 8), 0), (F(1, 4), 0), (F(3, 10), 6), (F(1, 2), 6),
             (F(3, 5), 8), (F(1), 8)]
RP3_NULLITY = [(F(1), 16), (F(1, 4), 16), (F(1, 2), 12), (F(3, 10), 10), (F(1, 8), 10)]


class TestVeronese:
    @pytest.mark.parametrize("ts,expected", RP3_INDEX)
    def test_projective_index(self, ts, expected):
        report = veronese_index_nullity(ts, quotient=True)
        assert report.index == expected
        assert not report.index_is_lower_bound

    @pytest.mark.parametrize("ts,expected", RP3_NULLITY)
    def test_projective_nullity(self, ts, expected):
        assert veronese_index_nullity(ts, quotient=True).nullity == expected

    def test_covering_sphere_determinate_entries(self):
        assert veronese_index_nullity(F(1, 8), quotient=False).index == 0
        assert veronese_index_nullity(F(1, 8), quotient=False).nullity == 18
        r = veronese_index_nullity(F(1, 4), quotient=False)
        assert (r.index, r.nullity) == (8, 16)
        assert veronese_index_nullity(F(1), quotient=False).nullity == 16

    def test_covering_sphere_lower_bound_region(self):
        r = veronese_index_nullity(F(3, 10), quotient=False)
        assert r.index >= 14 and r.index_is_lower_bound
        assert r.nullity >= 10 and r.nullity_is_lower_bound

    def test_quotient_keeps_even_degrees_only(self):
        ks = {m.labels[0] for m in jacobi_modes(VeroneseRP3(), F(1, 2), 5)}
        assert ks == {0, 2, 4}


class TestTotallyRealSpheres:
    def test_spot_value(self):
        r = totally_real_sphere_index_nullity(2, 2, F(1, 2))
        assert (r.index, r.nullity) == (6, 6)

    def test_round_branch(self):
        for n in (1, 2, 3):
            for d in range(1, n + 1):
                r = totally_real_sphere_index_nullity(n, d, F(1))
                assert (r.index, r.nullity) == (2 * n + 1 - d, (d + 1) * (2 * n + 1 - d))

    @pytest.mark.parametrize("ts", [F(1, 4), F(1, 2), F(3, 4)])
    def test_deformed_branch_formulas(self, ts):
        for n in (1, 2, 3):
            for d in range(1, n + 1):
                r = totally_real_sphere_index_nullity(n, d, ts)
                assert r.index == 2 * n + 1 + d * (d - 1) // 2
                assert r.nullity == (d + 1) * (2 * (2 * n + 1) - 3 * d) // 2

    def test_gradient_pair_counts(self):
        # the coupled gradient/function family contributes d+1 negatives and
        # (d+2)(d+1)/2 zeros
        for n, d, ts in [(2, 2, F(1, 2)), (3, 3, F(1, 4)), (3, 1, F(2, 3))]:
            modes = jacobi_modes(TotallyRealSphere(n, d), ts, 3)
            fam = [m for m in modes if m.family == "gradient-pair"]
            neg = sum(m.multiplicity for m in fam if m.sign < 0)
            zero = sum(m.multiplicity for m in fam if m.sign == 0)
            assert neg == d + 1
            assert zero == (d + 2) * (d + 1) // 2

    def test_validation(self):
        with pytest.raises(GeometryDomainError):
            totally_real_sphere_index_nullity(2, 3, F(1, 2))


class TestCliffordHypersurfaces:
    def test_small_torus_at_equilateral_parameter(self):
        r = clifford_index_nullity(0, 0, F(1, 3))
        assert (r.index, r.nullity) == (1, 6)

    def test_five_sphere_value(self):
        assert clifford_index_nullity(1, 0, F(1, 2)).index == 2 * 2 + 3

    def test_first_eigenvalue(self):
        for m1, m2 in [(0, 0), (1, 0), (1, 1)]:
            n = m1 + m2 + 1
            r = clifford_index_nullity(m1, m2, F(1, 2))
            lowest = r.nonpositive_modes[0]
            assert lowest.value == -4 * n and lowest.multiplicity == 1

    @pytest.mark.parametrize("m1,m2", [(0, 0), (1, 0), (1, 1), (2, 0)])
    def test_piecewise_table(self, m1, m2):
        n = m1 + m2 + 1
        for ts in TAU_GRID:
            r = clifford_index_nullity(m1, m2, ts)
            assert r.index == (1 if ts <= F(1, 2 * n + 1) else 2 * n + 3)
            base = 2 * (m1 + 1) * (m2 + 1)
            if ts == F(1, 2 * n + 1):
                assert r.nullity == base + 2 * (n + 1)
            elif ts == 1:
                assert r.nullity == 2 * base
            else:
                assert r.nullity == base

    @pytest.mark.parametrize("m1,m2", [(0, 0), (1, 0), (1, 1)])
    def test_generic_enumeration_agrees(self, m1, m2):
        for ts in TAU_GRID:
            closed = clifford_index_nullity(m1, m2, ts)
            enum = enumerate_index(CliffordHypersurface(m1, m2), ts)
            assert (closed.index, closed.nullity) == (enum.index, enum.nullity)

    def test_hypersurface_first_eigenvalue_bound(self):
        for m1, m2 in [(0, 0), (1, 1)]:
            n = m1 + m2 + 1
            for ts in TAU_GRID:
                r = clifford_index_nullity(m1, m2, ts)
                assert r.index >= 1
                assert r.nonpositive_modes[0].value <= -2 * n * ts


class TestEvenness:
    @pytest.mark.parametrize("model", [
        TotallyGeodesicBergerSphere(2, 0), TotallyGeodesicBergerSphere(3, 1),
        CircleCover(2, 2), CircleCover(1, 3), VeroneseRP3(), VeroneseS3()])
    def test_bundle_models_have_even_counts(self, model):
        for ts in TAU_GRID:
            r = enumerate_index(model, ts)
            assert r.index % 2 == 0
            assert r.nullity % 2 == 0


class TestEnumerationDriver:
    @pytest.mark.parametrize("model", [
        TotallyGeodesicBergerSphere(3, 1), CircleCover(2, 3), VeroneseRP3(),
        VeroneseS3(), TotallyRealSphere(3, 2), CliffordHypersurface(1, 1)])
    def test_truncation_stability(self, model):
        for ts in (F(1, 6), F(1, 2), F(1)):
            base = enumerate_index(model, ts)
            doubled = enumerate_index(model, ts, k_max=2 * base.truncation_k)
            assert (base.index, base.nullity) == (doubled.index, doubled.nullity)
            assert base.nonpositive_modes == doubled.nonpositive_modes

    def test_too_small_truncation_rejected(self):
        with pytest.raises(TruncationError):
            enumerate_index(CircleCover(1, 5), F(1, 2), k_max=3)

    def test_limit_exceeded_rejected(self):
        with pytest.raises(TruncationError):
            enumerate_index(CircleCover(1, 5), F(1, 2), k_max=100)

    def test_identity_model_rejected(self):
        with pytest.raises(GeometryDomainError):
            enumerate_index(TotallyGeodesicBergerSphere(2, 2), F(1, 2))


@dataclass(frozen=True)
class OneZeroMode(ModelSubmanifold):
    """A synthetic family whose whole table is one zero mode of multiplicity 3."""

    name = "synthetic"
    certified_k = 0

    def table(self, k):
        return [ModeRow("synthetic", (0,), 3, 0, 0, 0, 1)]

    def certificate(self, k):
        return "synthetic"


class TestModeBookkeeping:
    @pytest.mark.parametrize("value", [1e-14, 0.0, -2.5])
    def test_float_value_rejected(self, value):
        with pytest.raises(TypeError):
            JacobiMode("synthetic", (0,), value, 3)

    def test_exact_zero_counts(self):
        report = enumerate_index(OneZeroMode(), F(1, 3))
        assert (report.index, report.nullity) == (0, 3)
        assert report.nonpositive_modes == (JacobiMode("synthetic", (0,), F(0), 3),)

    def test_multiplicity_validation(self):
        with pytest.raises(GeometryDomainError):
            JacobiMode("synthetic", (0,), F(1), 0)


EXAMPLES = [TotallyGeodesicBergerSphere(3, 1), CircleCover(2, 3), VeroneseRP3(), VeroneseS3(),
            TotallyRealSphere(3, 2), CliffordHypersurface(1, 0)]


class TestModelProtocol:
    def test_registry_order_and_names(self):
        assert models.MODELS == tuple(type(m) for m in EXAMPLES)
        assert [cls.name for cls in models.MODELS] == [
            "tg-berger", "circle", "veronese-rp3", "veronese-s3", "totally-real", "clifford"]

    @pytest.mark.parametrize("model,label,bundle", [
        (EXAMPLES[0], "tg-berger(n=3,m=1)", (1, 1)),
        (EXAMPLES[1], "circle(n=2,s=3)", (0, 3)),
        (EXAMPLES[2], "veronese-rp3", (1, 1)),
        (EXAMPLES[3], "veronese-s3", (1, 2)),
        (EXAMPLES[4], "totally-real(n=3,d=2)", None),
        (EXAMPLES[5], "clifford(m1=1,m2=0)", None),
    ])
    def test_label_and_bundle(self, model, label, bundle):
        assert model.label() == label
        assert model.bundle == bundle

    def test_quadratic_curve_models_are_distinct_classes(self):
        assert not isinstance(VeroneseS3(), VeroneseRP3)
        assert not isinstance(VeroneseRP3(), VeroneseS3)
        assert VeroneseRP3() != VeroneseS3()


# Every rational threshold at which a table of a family with n <= 4 changes:
# 1/(2m+2), 1/(2n+1), 1/(d+1), 1/(2s) for the circles, 1/4, 1/8 and 1.
THRESHOLDS = sorted({F(1, 2 * m + 2) for m in range(4)} | {F(1, 2 * n + 1) for n in range(1, 5)}
                    | {F(1, d + 1) for d in range(1, 5)} | {F(1, 2 * s) for s in (1, 2, 3)}
                    | {F(1, 4), F(1, 8), F(1)})
TAU_SQ = st.one_of(st.sampled_from(THRESHOLDS),
                   st.fractions(min_value=0, max_value=1, max_denominator=64).filter(bool))


def family_library(n_max=4):
    out = [VeroneseRP3(), VeroneseS3()]
    for n in range(1, n_max + 1):
        out += [TotallyGeodesicBergerSphere(n, m) for m in range(n)]
        out += [CircleCover(n, s) for s in (1, 2, 3)]
        out += [TotallyRealSphere(n, d) for d in range(1, n + 1)]
        out += [CliffordHypersurface(m1, n - 1 - m1) for m1 in range(n)]
    return out


CLOSED_FORMS = {
    TotallyGeodesicBergerSphere: lambda mo, ts: tg_berger_index_nullity(mo.n, mo.m, ts),
    VeroneseRP3: lambda mo, ts: veronese_index_nullity(ts, quotient=True),
    VeroneseS3: lambda mo, ts: veronese_index_nullity(ts, quotient=False),
    TotallyRealSphere: lambda mo, ts: totally_real_sphere_index_nullity(mo.n, mo.d, ts),
    CliffordHypersurface: lambda mo, ts: clifford_index_nullity(mo.m1, mo.m2, ts),
}


def assert_enumeration_matches_closed_form(model, ts):
    got = enumerate_index(model, ts)
    if isinstance(model, CircleCover):
        assert (got.index == 0) == circle_stability(model.s, ts), (model.label(), ts)
        return
    ref = CLOSED_FORMS[type(model)](model, ts)
    assert ((got.index, got.nullity, got.index_is_lower_bound, got.nullity_is_lower_bound)
            == (ref.index, ref.nullity, ref.index_is_lower_bound, ref.nullity_is_lower_bound)
            ), (model.label(), ts)


class TestEnumerationAgainstClosedForms:
    def test_every_family_at_every_threshold(self):
        for model in family_library():
            for ts in THRESHOLDS:
                assert_enumeration_matches_closed_form(model, ts)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(model=st.sampled_from(family_library()), ts=TAU_SQ)
    def test_random_exact_parameters(self, model, ts):
        assert_enumeration_matches_closed_form(model, ts)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(model=st.sampled_from([m for m in family_library() if type(m) in CLOSED_FORMS]),
           ts=TAU_SQ)
    def test_closed_forms_return_the_enumeration_report(self, model, ts):
        # index, nullity, modes, truncation_k, certificate and both flags
        assert CLOSED_FORMS[type(model)](model, ts) == enumerate_index(model, ts)

    def test_a_moved_threshold_is_caught(self, monkeypatch):
        # Move the Clifford torus threshold 1/(2n+1) = 1/3 to 1/4: while
        # patched, every Fraction that ``models`` and ``spectra`` (which
        # evaluates the rows) build is still a Fraction, but Fraction(1, 3)
        # comes out as 1/4.  The enumeration builds values only for
        # nonpositive modes, never 1/3, so only the formula moves.
        class MovedThreshold(F):
            def __new__(cls, numerator=0, denominator=None):
                if (numerator, denominator) == (1, 3):
                    numerator, denominator = 1, 4
                return super().__new__(cls, numerator, denominator)

        assert clifford_index_nullity(0, 0, F(1, 3)).nullity == 6
        monkeypatch.setattr(models, "Fraction", MovedThreshold)
        monkeypatch.setattr(spectra, "Fraction", MovedThreshold)
        with pytest.raises(AssertionError, match="disagrees with the enumeration"):
            clifford_index_nullity(0, 0, F(1, 3))


# Test-side copies of the per-tau mode formulas the tables replaced; each
# returns (family, labels, value, multiplicity) in the order of the modes.
def reference_tg_berger(n, m, ts, k_max):
    t = (1 - ts) / ts
    out = []
    for k in range(k_max + 1):
        base = (2 * m + 1 + k) * (k - 1)
        for p in range(k // 2 + 1):
            mult = spectra.berger_multiplicity(m, k, p)
            if mult == 0:
                continue
            q = k - 2 * p
            if q == 0:
                out.append(("normal-slot", (k, p, 0), F(base) + t, 2 * mult * (n - m)))
            else:
                out += [("normal-slot", (k, p, s), F(base) + t * (q + s) ** 2, mult * (n - m))
                        for s in (1, -1)]
    return out


def reference_circle(n, s, ts, k_max):
    t = (1 - ts) / ts
    out = []
    for k in range(k_max + 1):
        base = F(k * k, s * s) - 1
        if k == 0:
            out.append(("circle", (0, 0), base + t, 2 * n))
            continue
        out += [("circle", (k, sgn), base + t * (F(k, s) + sgn) ** 2, 2 * n) for sgn in (1, -1)]
    return out


def reference_veronese(quotient, ts, k_max):
    out = []
    for k in range(k_max + 1):
        if quotient and k % 2 == 1:
            continue
        half_shell = F(1 + k * (2 + k), 2) - 8
        for p in range(k // 2 + 1):
            mult = spectra.berger_multiplicity(1, k, p)
            q = k - 2 * p
            if q == 0:
                out.append(("bundle-pair", (k, p, 0), half_shell + 4 / ts - F(1, 2), 2 * mult))
            else:
                out += [("bundle-pair", (k, p, s),
                         half_shell + F((q + 4 * s) ** 2, 4) / ts - F((q + s) ** 2, 2), mult)
                        for s in (1, -1)]
    return out


def reference_totally_real(n, d, ts, k_max):
    c = d + 1 - 2 * ts
    out = []
    for k in range(max(k_max, 2) + 1):
        mult = spectra.sphere_harmonic_multiplicity(d, k)
        lam = k * (d + k - 1)
        if d < n:
            out.append(("constant-normal", (k,), F(lam - d), 2 * (n - d) * mult))
        if k == 0:
            out.append(("gradient-pair", (0,), F(0), 1))
        else:
            out.append(("gradient-pair", (k,), minus_sqrt(lam - c, c * c + 4 * ts * lam), mult))
    out.append(("coexact-form", (2,), -4 * (1 - ts), d * (d + 1) // 2))
    return out


def reference_clifford(m1, m2, ts, sum_max):
    # the per-label closed forms: the table is built from ``clifford_rows``
    labels = [(k1, k2, p) for k1 in range(sum_max + 1) for k2 in range(sum_max + 1 - k1)
              for p in range((k1 + k2) // 2 + 1)]
    out = []
    for label in labels:
        mult = spectra.clifford_multiplicity(m1, m2, *label)
        if mult:
            value = spectra.clifford_eigenvalue(m1, m2, ts, *label) - 4 * (m1 + m2 + 1)
            out.append(("hypersurface", label, value, mult))
    return out


REFERENCE = {
    TotallyGeodesicBergerSphere: lambda mo, ts, k: reference_tg_berger(mo.n, mo.m, ts, k),
    CircleCover: lambda mo, ts, k: reference_circle(mo.n, mo.s, ts, k),
    VeroneseRP3: lambda mo, ts, k: reference_veronese(True, ts, k),
    VeroneseS3: lambda mo, ts, k: reference_veronese(False, ts, k),
    TotallyRealSphere: lambda mo, ts, k: reference_totally_real(mo.n, mo.d, ts, k),
    CliffordHypersurface: lambda mo, ts, k: reference_clifford(mo.m1, mo.m2, ts, k),
}


def reference_modes(model, ts, k):
    """(family, labels, value, multiplicity, sign) of every mode, sorted as
    the mode lists are: by float value, then family and labels."""
    out = []
    for family, labels, value, mult in REFERENCE[type(model)](model, ts, k):
        sign = value.sign if isinstance(value, Surd) else (value > 0) - (value < 0)
        out.append((family, labels, value, mult, sign))
    return sorted(out, key=lambda r: (float(r[2]), r[0], r[1]))


def as_rows(modes):
    return [(m.family, m.labels, m.value, m.multiplicity, m.sign) for m in modes]


class TestModeTables:
    """The tau-free tables against the per-tau formulas they replaced."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(model=st.sampled_from(family_library()), ts=TAU_SQ, extra=st.sampled_from([0, 3]))
    def test_tables_match_the_per_tau_formulas(self, model, ts, extra):
        k = model.certified_k + extra
        want = reference_modes(model, ts, k)
        assert as_rows(jacobi_modes(model, ts, k)) == want
        got = enumerate_index(model, ts, k_max=k)
        nonpositive = [row for row in want if row[4] <= 0]
        assert as_rows(got.nonpositive_modes) == nonpositive
        assert got.index == sum(row[3] for row in want if row[4] < 0)
        assert got.nullity == sum(row[3] for row in want if row[4] == 0)
        assert got.truncation_k == k

    def test_tables_are_integers_and_take_no_tau(self):
        models._mode_table.cache_clear()
        library = family_library(2)
        for ts in (F(1, 7), F(1, 3), F(2, 5), F(1)):
            for model in library:
                enumerate_index(model, ts)
                jacobi_modes(model, ts, model.certified_k)
        info = models._mode_table.cache_info()
        assert info.currsize == info.misses == len(library)
        for model in library:
            for row in models._mode_table(model):
                if isinstance(row, models.GradientPairRow):
                    assert row.sign in (-1, 0, 1)
                else:
                    assert all(type(x) is int for x in row[2:]) and row.den > 0

    def test_only_certified_depth_tables_are_kept(self):
        models._mode_table.cache_clear()
        for model in family_library(2):
            enumerate_index(model, F(1, 3))
        before = models._mode_table.cache_info()
        for model in family_library(2):
            deeper = model.certified_k + 3
            enumerate_index(model, F(1, 3), k_max=deeper)
            jacobi_modes(model, F(2, 5), deeper)
        after = models._mode_table.cache_info()
        assert after.currsize == before.currsize


def gradient_pair_float(d, k, ts):
    """The float formula the gradient-pair values were stored with before
    they became exact."""
    lam = k * (d + k - 1)
    c = d + 1 - 2 * float(ts)
    return lam - c - math.sqrt(c * c + 4 * float(ts) * lam)


class TestExactGradientPair:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(nd=st.sampled_from([(n, d) for n in range(1, 5) for d in range(1, n + 1)]),
           ts=TAU_SQ)
    def test_sign_is_that_of_the_eigenvalue_gap(self, nd, ts):
        n, d = nd
        pairs = [m for m in jacobi_modes(TotallyRealSphere(n, d), ts, 6)
                 if m.family == "gradient-pair" and m.labels != (0,)]
        assert [m.labels for m in pairs] == [(k,) for k in range(1, 7)]
        for mode in pairs:
            (k,) = mode.labels
            gap = k * (d + k - 1) - 2 * (d + 1)
            assert mode.sign == (gap > 0) - (gap < 0), (n, d, ts, k)
            assert abs(float(mode.value) - gradient_pair_float(d, k, ts)) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rational_cases(self, d):
        for ts in (F(1, 7), F(1, 3), F(1)):
            values = {m.labels: m.value for m in jacobi_modes(TotallyRealSphere(4, d), ts, 4)
                      if m.family == "gradient-pair"}
            assert values[(2,)] == 0 and isinstance(values[(2,)], F)
            assert all(isinstance(v, F) for v in values.values()) == (ts == 1)
            assert (values[(1,)] == -d) == (ts == 1)

    def test_rendering(self):
        assert str(minus_sqrt(F(-1, 3), F(73, 9))) == "-1/3-sqrt(73/9)"
        assert str(minus_sqrt(F(0), F(3))) == "-sqrt(3)"
        assert str(minus_sqrt(F(2), F(4, 9))) == "4/3"

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(a=st.fractions(min_value=-20, max_value=20, max_denominator=30),
           r=st.one_of(st.fractions(min_value=0, max_value=50, max_denominator=30),
                       st.fractions(min_value=0, max_value=7, max_denominator=30)
                       .map(lambda q: q * q)))
    def test_fraction_exactly_for_square_radicands(self, a, r):
        value = minus_sqrt(a, r)
        root = sympy.sqrt(sympy.Rational(r.numerator, r.denominator))
        exact = sympy.Rational(a.numerator, a.denominator) - root
        if root.is_rational:
            assert isinstance(value, F) and value == F(int(exact.p), int(exact.q))
        else:
            assert isinstance(value, Surd) and (value.a, value.r) == (a, r)
            assert JacobiMode("synthetic", (0,), value, 1).sign == sympy.sign(exact)
            assert abs(float(value) - float(exact)) <= 1e-12 * max(1, abs(float(exact)))
