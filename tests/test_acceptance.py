"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every criterion is checked at its stated tolerance; the integer tables
are compared exactly.
"""

import math
import time
from fractions import Fraction as F

from bergersphere import oracle, spectra, stability
from bergersphere.models import (CircleCover, CliffordHypersurface,
                                 TotallyGeodesicBergerSphere, TotallyRealSphere,
                                 VeroneseRP3, VeroneseS3, clifford_index_nullity,
                                 enumerate_index, totally_real_sphere_index_nullity,
                                 veronese_index_nullity)

GRID = [F(1, 12), F(1, 8), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(1)]


def _criterion(number, description):
    def deco(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} [{description}]: FAIL")
                raise
            print(f"criterion {number} [{description}]: PASS")
        wrapper.__name__ = fn.__name__
        return wrapper
    return deco


@_criterion(1, "totally geodesic Berger sphere table")
def test_criterion_1_tg_berger_table():
    start = time.monotonic()
    for n in (1, 2, 3):
        for m in range(n):
            threshold = F(1, 2 * (m + 1))
            for ts in GRID:
                expected_index = 0 if ts <= threshold else 2 * (n - m)
                if ts == 1:
                    expected_nullity = 4 * (n - m) * (m + 1)
                elif ts == threshold:
                    expected_nullity = 2 * (n - m) * (m + 2)
                else:
                    expected_nullity = 2 * (n - m) * (m + 1)
                report = enumerate_index(TotallyGeodesicBergerSphere(n, m), ts)
                assert (report.index, report.nullity) == (expected_index, expected_nullity)
    assert time.monotonic() - start < 1.0


@_criterion(2, "quadratic-curve bundle table")
def test_criterion_2_veronese_table():
    # embedded projective model: all branches exact
    for ts, idx in [(F(3, 5), 8), (F(1), 8), (F(3, 10), 6), (F(1, 2), 6),
                    (F(1, 4), 0), (F(1, 8), 0), (F(1, 12), 0)]:
        assert veronese_index_nullity(ts, quotient=True).index == idx
    for ts, nul in [(F(1), 16), (F(1, 4), 16), (F(1, 2), 12), (F(3, 10), 10),
                    (F(1, 8), 10), (F(1, 12), 10)]:
        assert veronese_index_nullity(ts, quotient=True).nullity == nul
    # covering sphere: the determinate entries
    for ts, idx in [(F(1, 4), 8), (F(3, 16), 8), (F(1, 8), 0), (F(1, 12), 0)]:
        report = veronese_index_nullity(ts, quotient=False)
        assert report.index == idx and not report.index_is_lower_bound
    for ts, nul in [(F(1), 16), (F(1, 4), 16), (F(1, 8), 18)]:
        report = veronese_index_nullity(ts, quotient=False)
        assert report.nullity == nul and not report.nullity_is_lower_bound


@_criterion(3, "totally real sphere table")
def test_criterion_3_totally_real_table():
    for ts in (F(1, 4), F(1, 2), F(3, 4)):
        for n in (1, 2, 3):
            for d in range(1, n + 1):
                report = totally_real_sphere_index_nullity(n, d, ts)
                assert report.index == 2 * n + 1 + d * (d - 1) // 2
                assert report.nullity == (d + 1) * (2 * (2 * n + 1) - 3 * d) // 2
                enum = enumerate_index(TotallyRealSphere(n, d), ts)
                assert (enum.index, enum.nullity) == (report.index, report.nullity)


@_criterion(4, "product hypersurface vs dual-lattice oracle")
def test_criterion_4_clifford_crosscheck():
    n = 1
    results = {}
    for ts in (F(1, 5), F(1, 4), F(1, 3), F(1, 2), F(1)):
        fourier = oracle.torus_fourier_index(ts, 4)
        closed = clifford_index_nullity(0, 0, ts)
        assert (fourier.index, fourier.nullity) == (closed.index, closed.nullity)
        results[ts] = (closed.index, closed.nullity)
    # nullity jump of 2(n+1) exactly at the threshold 1/(2n+1)
    assert results[F(1, 3)][1] - results[F(1, 4)][1] == 2 * (n + 1)


@_criterion(5, "frequency-split spectrum and multiplicity partition")
def test_criterion_5_frequency_split_spectrum():
    for n in (0, 1, 2, 3):
        for k in range(9):
            total = sum(spectra.berger_multiplicity(n, k, p) for p in range(k // 2 + 1))
            assert total == spectra.round_multiplicity(n, k)
    ts = F(1, 3)
    for n in (1, 2):
        for k in range(6):
            got = dict(oracle.lxi_squared_spectrum(n, ts, k))
            expected = {}
            for p in range(k // 2 + 1):
                mult = spectra.berger_multiplicity(n, k, p)
                if mult:
                    key = F(-((k - 2 * p) ** 2)) / ts
                    expected[key] = expected.get(key, 0) + mult
            assert got == expected


@_criterion(6, "geometry verification suite")
def test_criterion_6_geometry_suite():
    start = time.monotonic()
    ts = F(1, 3)
    reports = [
        oracle.killing_check(ts, 2, samples=500),
        oracle.curvature_symmetry_check(ts, 2, samples=500),
        oracle.round_degeneration_check(2, samples=500),
        oracle.sectional_consistency_check(ts, 2, samples=500),
        oracle.ricci_vertical_check(ts, 2, samples=500),
        oracle.geodesic_sphere_isometry_check(ts, 2, samples=500),
        *oracle.tai_checks(F(1, 2), 2, samples=500),
    ]
    for report in reports:
        assert report.passed, report
        assert 1e-12 <= report.tolerance <= 1e-6
    assert time.monotonic() - start < 30.0


@_criterion(7, "stability consistency over the parameter grid")
def test_criterion_7_stability_consistency():
    library = []
    for n in (1, 2, 3):
        library += [(0, 1, TotallyGeodesicBergerSphere(n, m)) for m in range(1)]
        library += [(m, 1, TotallyGeodesicBergerSphere(n, m)) for m in range(n)]
        library += [(0, s, CircleCover(n, s)) for s in (1, 2, 3)]
        library += [(None, None, TotallyRealSphere(n, d)) for d in range(1, n + 1)]
        library += [(None, None, CliffordHypersurface(m1, n - 1 - m1))
                    for m1 in range(n) if m1 <= n - 1 - m1]
    library += [(1, 1, VeroneseRP3()), (1, 2, VeroneseS3())]
    for m, s, model in library:
        for ts in GRID:
            report = enumerate_index(model, ts)
            if ts > F(1, model.dimension + 1):
                assert report.index > 0, (model.label(), ts)
            if m is not None:
                verdict = stability.s1_bundle_stability(m, s, ts)
                if verdict.verdict is stability.Verdict.STABLE:
                    assert report.index == 0, (model.label(), ts)


@_criterion(8, "moduli curve endpoints and branch continuity")
def test_criterion_8_moduli_curve():
    top = stability.clifford_moduli_vector(F(1))
    assert abs(top.x - 0.0) < 1e-12 and abs(top.y - 1.0) < 1e-12
    joint = stability.clifford_moduli_vector(F(1, 3))
    assert abs(joint.x - 0.5) < 1e-12
    assert abs(joint.y - math.sqrt(3) / 2) < 1e-12
    # both closed forms agree at the branch point
    circle_branch_y = 2 * math.sqrt(1 / 3) / (1 + 1 / 3)
    edge_branch_y = 1 / (2 * math.sqrt(1 / 3))
    assert abs(circle_branch_y - edge_branch_y) < 1e-12


@_criterion(9, "negativity of the proof polynomial")
def test_criterion_9_proof_polynomial():
    for d in range(1, 6):
        threshold = F(1, d + 1)
        span = 1 - threshold
        for q in range(1, 5):
            for i in range(1, 51):
                ts = threshold + span * F(i, 50)
                assert stability.proof_polynomial_max_sign(d, q, ts) == -1
