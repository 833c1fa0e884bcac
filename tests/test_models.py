"""Jacobi mode families and the index/nullity tables."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bergersphere import models
from bergersphere.geometry import GeometryDomainError
from bergersphere.models import (CircleCover, CliffordHypersurface, JacobiMode,
                                 TotallyGeodesicBergerSphere, TotallyRealSphere,
                                 TruncationError, TruncationPolicy, VeroneseRP3,
                                 VeroneseS3, circle_modes, circle_stability,
                                 clifford_index_nullity, enumerate_index,
                                 tg_berger_index_nullity, tg_berger_modes,
                                 totally_real_sphere_index_nullity,
                                 totally_real_sphere_modes, veronese_index_nullity,
                                 veronese_modes)

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
        modes = tg_berger_modes(3, 1, F(1, 2), k_max=6)
        assert all(m.value > 0 for m in modes if m.labels[0] >= 2)

    def test_lowest_mode_value(self):
        ts = F(2, 5)
        m = 1
        modes = tg_berger_modes(3, m, ts, k_max=2)
        k0 = [mo for mo in modes if mo.labels[:2] == (0, 0)]
        assert len(k0) == 1 and k0[0].value == 1 / ts - (2 * m + 2)

    def test_degree_one_zero_mode(self):
        modes = tg_berger_modes(2, 0, F(1, 3), k_max=2)
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
            modes = circle_modes(s, ts, k_max=s)
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
        ks = {m.labels[0] for m in veronese_modes(F(1, 2), k_max=5, quotient=True)}
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
            modes = totally_real_sphere_modes(n, d, ts)
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
            doubled = enumerate_index(model, ts,
                                      TruncationPolicy(k_max=2 * base.truncation_k))
            assert (base.index, base.nullity) == (doubled.index, doubled.nullity)
            assert base.nonpositive_modes == doubled.nonpositive_modes

    def test_too_small_truncation_rejected(self):
        with pytest.raises(TruncationError):
            enumerate_index(CircleCover(1, 5), F(1, 2), TruncationPolicy(k_max=3))

    def test_limit_exceeded_rejected(self):
        with pytest.raises(TruncationError):
            enumerate_index(CircleCover(1, 5), F(1, 2), TruncationPolicy(k_max=100))

    def test_identity_model_rejected(self):
        with pytest.raises(GeometryDomainError):
            enumerate_index(TotallyGeodesicBergerSphere(2, 2), F(1, 2))


class TestModeBookkeeping:
    def test_indeterminate_float_zero_is_flagged(self):
        mode = JacobiMode("synthetic", (0,), 1e-14, 3)
        assert mode.sign is None
        report = models._collect_report([mode], 0, "synthetic")
        assert report.warnings and report.nullity == 0

    def test_exact_zero_counts(self):
        mode = JacobiMode("synthetic", (0,), F(0), 3)
        report = models._collect_report([mode], 0, "synthetic")
        assert report.nullity == 3 and not report.warnings

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
