"""Stability predicates, the proof polynomial, moduli curve and consistency."""

import math
from fractions import Fraction as F
from operator import attrgetter, itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from bergersphere import cli
from bergersphere.geometry import BergerParam, GeometryDomainError
from bergersphere.models import (CircleCover, CliffordHypersurface,
                                 TotallyGeodesicBergerSphere, TotallyRealSphere,
                                 VeroneseRP3, VeroneseS3, certified_table, enumerate_index,
                                 jacobi_modes)
from bergersphere.spectra import sign_counts
from bergersphere.stability import (CliffordTorus, MinimalSphere, OtherSurface,
                                    Verdict, clifford_moduli_vector,
                                    dimension_instability, genus_index_bound,
                                    hypersurface_first_eigenvalue_bound,
                                    index_lower_bound, moduli_curve, phase_rows,
                                    proof_polynomial_coefficients,
                                    proof_polynomial_P, proof_polynomial_max_sign,
                                    s1_bundle_stability,
                                    surface_index_one_classification)

TAU_GRID = [F(1, 12), F(1, 8), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(3, 5), F(1)]


class TestBundleStability:
    def test_simple_window(self):
        assert s1_bundle_stability(0, 1, F(1, 2)).verdict is Verdict.STABLE

    def test_window_boundary(self):
        assert s1_bundle_stability(1, 1, F(1, 4)).verdict is Verdict.STABLE

    def test_gap_resolved_by_modes(self):
        verdict = s1_bundle_stability(0, 2, F(1, 3))
        assert verdict.verdict is Verdict.UNDETERMINED
        modes = jacobi_modes(CircleCover(1, 2), F(1, 3), 2)
        assert any(m.sign < 0 for m in modes)  # unstable in the gap

    def test_boundary_with_covering(self):
        assert s1_bundle_stability(0, 2, F(1, 2)).verdict is Verdict.BOUNDARY

    def test_obstruction_above_threshold(self):
        assert s1_bundle_stability(1, 1, F(1, 2)).verdict is Verdict.UNSTABLE

    def test_window_is_downward_closed(self):
        for m, s in [(0, 1), (0, 2), (1, 1), (1, 2)]:
            stable = [ts for ts in TAU_GRID
                      if s1_bundle_stability(m, s, ts).verdict is Verdict.STABLE]
            window = F(1, s * (2 * m + 2))
            assert stable == [ts for ts in TAU_GRID if ts <= window]


class TestDimensionObstruction:
    def test_unstable_region(self):
        assert dimension_instability(3, F(3, 10)).verdict is Verdict.UNSTABLE

    def test_even_dimension_boundary(self):
        verdict = dimension_instability(2, F(1, 3))
        assert verdict.verdict is Verdict.BOUNDARY
        assert "even" in verdict.reason

    def test_odd_dimension_boundary(self):
        verdict = dimension_instability(3, F(1, 4))
        assert verdict.verdict is Verdict.BOUNDARY
        assert "circle bundles" in verdict.reason

    def test_below_threshold_undetermined(self):
        assert dimension_instability(3, F(1, 5)).verdict is Verdict.UNDETERMINED


def grid_max_sign(d, q, tau):
    """Reference: the sign of the largest P(j/100), j = 0..100, in integer
    arithmetic after scaling by the common denominator.  The grid holds both
    endpoints, so on a convex P it finds the maximum over [0, 1]."""
    a, b, c = proof_polynomial_coefficients(d, q, tau)
    den = 100
    common = math.lcm(a.denominator, b.denominator, c.denominator)
    ai = a.numerator * (common // a.denominator)
    bi = b.numerator * (common // b.denominator)
    ci = c.numerator * (common // c.denominator)
    best = max(ai * j * j + bi * j * den + ci * den * den for j in range(den + 1))
    return (best > 0) - (best < 0)


class TestProofPolynomial:
    def test_value_at_zero(self):
        for d, q, ts in [(2, 1, F(1, 2)), (4, 3, F(2, 3))]:
            assert proof_polynomial_P(d, q, ts, 0) == -q * (d + 1 - 1 / ts)

    def test_threshold_root(self):
        for d in (1, 2, 3, 5):
            assert proof_polynomial_P(d, 2, F(1, d + 1), 0) == 0

    def test_negative_above_threshold(self):
        for d, q in [(2, 1), (3, 4)]:
            for ts in (F(1, d + 1) + F(1, 100), F(1, 2) + F(1, 7), F(1)):
                if ts > 1:
                    continue
                assert proof_polynomial_max_sign(d, q, ts) == -1

    @pytest.mark.parametrize("d", range(1, 12))
    def test_max_sign_matches_grid_reference(self, d):
        threshold = F(1, d + 1)
        taus = [F(i, 197) for i in range(1, 198)]
        taus += [threshold, threshold - F(1, 1000), threshold + F(1, 1000)]
        for q in range(1, 12):
            for ts in taus:
                assert proof_polynomial_max_sign(d, q, ts) == grid_max_sign(d, q, ts), (d, q, ts)

    def test_float_rejected(self):
        with pytest.raises(GeometryDomainError, match="x must be an exact rational"):
            proof_polynomial_P(2, 1, F(1, 2), 0.5)

    @pytest.mark.parametrize("x", ["0.5", "5e-1", "5E-1"])
    def test_decimal_string_rejected(self, x):
        with pytest.raises(GeometryDomainError, match="x must be an exact rational"):
            proof_polynomial_P(2, 1, "1/3", x)

    def test_rational_strings_accepted(self):
        assert proof_polynomial_P(2, 1, "1/3", "1/2") == proof_polynomial_P(2, 1, F(1, 3), F(1, 2))
        assert proof_polynomial_P(2, 1, "1/3", "1") == proof_polynomial_P(2, 1, F(1, 3), 1)

    def test_domain(self):
        with pytest.raises(GeometryDomainError):
            proof_polynomial_P(2, 1, F(1, 2), 2)


class TestIndexLowerBounds:
    def test_hypersurface(self):
        assert index_lower_bound(1, 2, F(1, 2), "tangent", is_hypersurface=True) == 5

    def test_normal_case(self):
        assert index_lower_bound(2, 1, F(1, 2), "normal") == 6

    def test_totally_geodesic_equality_case(self):
        assert index_lower_bound(2, 3, F(1, 2), "tangent", is_tg_berger_sphere=True) == 2

    def test_generic_tangent(self):
        assert index_lower_bound(2, 3, F(1, 2), "tangent") == 6

    def test_flag_validation(self):
        with pytest.raises(GeometryDomainError):
            index_lower_bound(2, 3, F(1, 2), "tangent",
                              is_hypersurface=True, is_tg_berger_sphere=True)
        with pytest.raises(GeometryDomainError):
            index_lower_bound(2, 3, F(1, 8), "tangent")

    @pytest.mark.parametrize("args", [(1, 1, 0.5, "normal"), (1, 1, 7, "normal"),
                                      (1, -1, F(1, 2), "tangent"), (-3, 1, F(1), "tangent")],
                             ids=["float-tau-normal", "tau-out-of-range-normal",
                                  "negative-d", "negative-n"])
    def test_every_branch_validates(self, args):
        # tau and 1 <= d <= 2n are checked before the Killing-field case
        with pytest.raises(GeometryDomainError):
            index_lower_bound(*args)

    def test_bounds_hold_on_models(self):
        # hypersurface bound against the product hypersurface table
        for m1, m2 in [(0, 0), (1, 0)]:
            n = m1 + m2 + 1
            d = 2 * n
            for ts in (F(1, 2), F(1)):
                if ts <= F(1, d + 1):
                    continue
                report = enumerate_index(CliffordHypersurface(m1, m2), ts)
                assert report.index >= index_lower_bound(
                    n, d, ts, "tangent", is_hypersurface=True)
        # normal-field bound against the totally real spheres with d >= 2
        # (the d = 1 circle sits below this bound: its index is 2n+1)
        for n, d in [(2, 2), (3, 2), (3, 3)]:
            report = enumerate_index(TotallyRealSphere(n, d), F(1, 2))
            assert report.index >= index_lower_bound(n, d, F(1, 2), "normal")


class TestFirstEigenvalueBound:
    def test_round_value(self):
        assert hypersurface_first_eigenvalue_bound(1, F(1)) == -2

    def test_exact_value(self):
        assert hypersurface_first_eigenvalue_bound(2, F(1, 5)) == F(-4, 5)

    def test_nonpositive(self):
        for ts in TAU_GRID:
            assert hypersurface_first_eigenvalue_bound(3, ts) <= 0


class TestModuliCurve:
    def test_square_corner(self):
        v = clifford_moduli_vector(F(1))
        assert abs(v.x) < 1e-12 and abs(v.y - 1) < 1e-12

    def test_equilateral_point(self):
        v = clifford_moduli_vector(F(1, 3))
        assert abs(v.x - 0.5) < 1e-12
        assert abs(v.y - math.sqrt(3) / 2) < 1e-12

    def test_branch_continuity(self):
        ts = F(1, 3)
        upper = clifford_moduli_vector(ts)  # circle branch at the joint
        lower_y = 1.0 / (2 * math.sqrt(ts))  # vertical branch formula
        assert abs(upper.y - lower_y) < 1e-12
        assert abs(upper.x - 0.5) < 1e-12

    def test_curve_continuity(self):
        curve = moduli_curve(65)
        for a, b in zip(curve, curve[1:]):
            assert math.hypot(a.x - b.x, a.y - b.y) < 0.05

    def test_below_equilateral_branch(self):
        v = clifford_moduli_vector(F(1, 8))
        assert v.x == 0.5 and v.y == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_sample_validation(self):
        with pytest.raises(GeometryDomainError):
            moduli_curve(1)


class TestSurfaceClassification:
    def test_minimal_sphere_always_index_one(self):
        for ts in (F(1, 3), F(1, 2), F(1)):
            assert surface_index_one_classification(ts, MinimalSphere()).index_one

    def test_flat_surface_at_equilateral(self):
        assert surface_index_one_classification(F(1, 3), CliffordTorus()).index_one

    def test_flat_surface_above(self):
        verdict = surface_index_one_classification(F(1, 2), CliffordTorus())
        assert not verdict.index_one and verdict.index_lower_bound == 5

    def test_flat_surface_index_is_the_enumerated_one(self):
        grid = sorted({F(1, 3) + F(2, 3) * F(j, den)
                       for den in (1, 5, 7, 12) for j in range(den + 1)})
        assert grid[0] == F(1, 3) and grid[-1] == 1
        torus = CliffordHypersurface(0, 0)
        for ts in grid:
            verdict = surface_index_one_classification(ts, CliffordTorus())
            assert verdict.index_lower_bound == enumerate_index(torus, ts).index, ts
            assert verdict.index_one == (ts == F(1, 3))

    def test_genus_bound(self):
        verdict = surface_index_one_classification(F(1, 2), OtherSurface(9))
        assert not verdict.index_one and verdict.index_lower_bound == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(GeometryDomainError):
            surface_index_one_classification(F(1, 4), MinimalSphere())

    def test_genus_index_bound_values(self):
        assert genus_index_bound(0) == 0
        assert genus_index_bound(4) == 1
        assert genus_index_bound(20) == 5


def model_library():
    out = []
    for n in (1, 2, 3):
        out += [TotallyGeodesicBergerSphere(n, m) for m in range(n)]
        out += [CircleCover(n, s) for s in (1, 2, 3)]
        out += [TotallyRealSphere(n, d) for d in range(1, n + 1)]
        out += [CliffordHypersurface(m1, n - 1 - m1) for m1 in range(n)
                if m1 <= n - 1 - m1]
    out += [VeroneseRP3(), VeroneseS3()]
    return out


class TestConsistency:
    def test_obstruction_never_contradicted(self):
        for model in model_library():
            d = model.dimension
            for ts in TAU_GRID:
                if ts > F(1, d + 1):
                    report = enumerate_index(model, ts)
                    assert report.index > 0, (model.label(), ts)

    def test_stable_verdicts_have_index_zero(self):
        cases = []
        for n in (1, 2, 3):
            for m in range(n):
                cases.append((m, 1, TotallyGeodesicBergerSphere(n, m)))
            for s in (1, 2, 3):
                cases.append((0, s, CircleCover(n, s)))
        cases.append((1, 1, VeroneseRP3()))
        cases.append((1, 2, VeroneseS3()))
        for m, s, model in cases:
            for ts in TAU_GRID:
                if s1_bundle_stability(m, s, ts).verdict is Verdict.STABLE:
                    assert enumerate_index(model, ts).index == 0, (model.label(), ts)


# ---------------------------------------------------------------------------
# Count-only phase rows against the enumeration
# ---------------------------------------------------------------------------


def _count_models():
    """Every phase model up to n = 8, tg-berger, circle (s <= 4) and totally
    real spheres up to n = 6, and Clifford hypersurfaces with m1, m2 <= 4."""
    out = list(cli._phase_models(8))
    for n in range(1, 7):
        out += [TotallyGeodesicBergerSphere(n, m) for m in range(n)]
        out += [CircleCover(n, s) for s in range(1, 5)]
        out += [TotallyRealSphere(n, d) for d in range(1, n + 1)]
    out += [CliffordHypersurface(m1, m2) for m1 in range(5) for m2 in range(5)]
    return list(dict.fromkeys(out))


COUNT_MODELS = _count_models()


def _thresholds():
    """1/(2m+2), 1/(s(2m+2)), 1/(d+1), 1/(2n+1), 1/4, 1/8 and 1 over the models
    above, each with its neighbours at distance 1/1000 inside (0, 1]."""
    base = {F(1, 4), F(1, 8), F(1)}
    base |= {F(1, s * (2 * m + 2)) for m in range(8) for s in range(1, 5)}
    base |= {F(1, m.dimension + 1) for m in COUNT_MODELS}
    base |= {F(1, 2 * n + 1) for n in range(1, 10)}
    return sorted({t + e for t in base for e in (F(-1, 1000), 0, F(1, 1000)) if 0 < t + e <= 1})


THRESHOLDS = _thresholds()

random_tau_sq = st.integers(1, 1000).flatmap(
    lambda den: st.integers(1, den).map(lambda num: F(num, den)))


def _assert_counts_match(tau_sq):
    for model in COUNT_MODELS:
        report = enumerate_index(model, tau_sq)
        assert sign_counts(certified_table(model), tau_sq) == (report.index, report.nullity), \
            (model.label(), tau_sq)


def _reference_verdict(model, tau, report) -> tuple[str, str]:
    """The phase verdict and tag as the deleted ``phase_verdict`` decided them,
    with the window and dimension criteria restated here in ``Fraction``s."""
    ts = BergerParam.coerce(tau).tau_sq
    if model.bundle is not None:
        m, s = model.bundle
        if ts <= F(1, s * (2 * m + 2)):
            return "stable", "stability-window"
        if ts > F(1, 2 * m + 2):
            return "unstable", "dimension-obstruction"
    elif ts > F(1, model.dimension + 1):
        return "unstable", "dimension-obstruction"
    return ("stable" if report.index == 0 else "unstable"), "mode-enumeration"


def _reference_phase_rows(model_list, tau_sq_grid):
    """Phase rows from ``enumerate_index`` reports and the verdicts above."""
    params = sorted(set(map(BergerParam.coerce, tau_sq_grid)), key=attrgetter("tau_sq"))
    labelled = [(model.label(), model) for model in model_list]
    rows = []
    for param in params:
        ts = param.tau_sq
        for label, model in labelled:
            report = enumerate_index(model, param)
            rows.append((label, model.dimension, ts.numerator, ts.denominator,
                         report.index, report.nullity, *_reference_verdict(model, param, report)))
    rows.sort(key=itemgetter(0))
    return rows


class TestCountOnlyPhase:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(random_tau_sq)
    def test_counts_match_enumeration_at_random_tau(self, tau_sq):
        _assert_counts_match(tau_sq)

    @pytest.mark.parametrize("tau_sq", THRESHOLDS, ids=str)
    def test_counts_match_enumeration_at_thresholds(self, tau_sq):
        _assert_counts_match(tau_sq)

    @pytest.mark.parametrize("n_max", range(1, 9))
    def test_rows_match_reference_on_threshold_grid(self, n_max):
        model_list = cli._phase_models(n_max)
        assert phase_rows(model_list, THRESHOLDS) == _reference_phase_rows(model_list,
                                                                            THRESHOLDS)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 8), st.lists(random_tau_sq, min_size=1, max_size=6))
    def test_rows_match_reference_on_random_grids(self, n_max, grid):
        model_list = cli._phase_models(n_max)
        assert phase_rows(model_list, grid) == _reference_phase_rows(model_list, grid)
