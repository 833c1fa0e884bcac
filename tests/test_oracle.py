"""Brute-force oracles and the sampled verification checks."""

import io
import itertools
import json
import math
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergersphere import cli, oracle, spectra
from bergersphere.exactlinalg import integer_rank, kernel_basis
from bergersphere.geometry import BergerParam, GeometryDomainError
from bergersphere.models import (CliffordHypersurface, IndexReport, JacobiMode,
                                 TotallyRealSphere, clifford_index_nullity)


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
        with pytest.raises(GeometryDomainError):
            oracle.harmonic_dim_bruteforce(-1, 1, 1)

    def test_exact_agreement_with_closed_form(self):
        for n in (0, 1, 2, 3):
            for a in range(9):
                for b in range(9 - a):
                    assert oracle.harmonic_dim_bruteforce(n, a, b) == \
                        spectra.bidegree_dimension(n, a, b)

    def test_monomials_are_every_exponent_tuple_of_the_degree(self):
        for nvars in range(1, 5):
            for degree in range(6):
                assert oracle._monomials(nvars, degree) == [
                    t for t in itertools.product(range(degree + 1), repeat=nvars)
                    if sum(t) == degree]

    def test_weight_blocks_match_their_sorted_weight(self):
        # Permuting the variables maps a weight block onto the block of the
        # permuted weight; the oracle enumerates and solves only the sorted
        # one, and each sorted weight's class must account for every pair.
        for n in range(4):
            for a in range(7):
                for b in range(7 - a):
                    sources, targets = _all_weight_blocks(n, a, b)
                    nullity = {w: oracle._weight_block_nullity(n, cols, targets.get(w, ()))
                               for w, cols in sources.items()}
                    for w, value in nullity.items():
                        assert value == nullity[tuple(sorted(w))], (n, a, b, w)
                    classes = Counter(tuple(sorted(w)) for w in sources)
                    blocks = list(oracle._sorted_weight_blocks(n, a, b))
                    assert {w: size for w, size, _, _ in blocks} == classes, (n, a, b)
                    for w, _, cols, tgts in blocks:
                        assert sorted(cols) == sorted(sources[w]), (n, a, b, w)
                        assert sorted(tgts) == sorted(targets.get(w, [])), (n, a, b, w)
                    assert sum(size * len(cols) for _, size, cols, _ in blocks) == \
                        sum(map(len, sources.values())), (n, a, b)

    def test_matches_every_weight_block_solved(self):
        """The shortcut against the kernel rank of every weight block."""
        for n in range(6):
            for a in range(9):
                for b in range(9 - a):
                    sources, targets = _all_weight_blocks(n, a, b)
                    expected = sum(oracle._weight_block_nullity(n, cols, targets.get(w, ()))
                                   for w, cols in sources.items())
                    assert oracle.harmonic_dim_bruteforce(n, a, b) == expected, (n, a, b)

    def test_never_calls_the_binomials_it_checks(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the oracle called a closed form")

        monkeypatch.setattr(spectra, "bidegree_dimension", refuse)
        monkeypatch.setattr(spectra, "berger_multiplicity", refuse)
        for n in range(4):
            for a in range(9):
                for b in range(9 - a):
                    oracle.harmonic_dim_bruteforce(n, a, b)


def _all_weight_blocks(n, a, b):
    """Reference enumeration: every exponent pair (alpha, beta) of bidegree
    (a, b), and of (a-1, b-1), grouped by the weight alpha - beta."""
    def by_weight(a, b):
        blocks = {}
        if a < 0 or b < 0:
            return blocks
        for al in oracle._monomials(n + 1, a):
            for be in oracle._monomials(n + 1, b):
                blocks.setdefault(tuple(x - y for x, y in zip(al, be)), []).append((al, be))
        return blocks

    return by_weight(a, b), by_weight(a - 1, b - 1)


class TestVerticalSpectrum:
    def test_constants(self):
        assert oracle.lxi_squared_spectrum(1, F(1, 2), 0) == [(F(0), 1)]

    def test_degree_one(self):
        ts = F(1, 3)
        assert oracle.lxi_squared_spectrum(1, ts, 1) == [(-1 / ts, 4)]

    def test_degree_two(self):
        ts = F(1, 3)
        assert oracle.lxi_squared_spectrum(1, ts, 2) == [(F(0), 3), (-4 / ts, 6)]

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_frequency_split(self, n):
        ts = F(2, 5)
        for k in range({0: 8, 1: 8, 2: 6, 3: 5}[n] + 1):
            got = dict(oracle.lxi_squared_spectrum(n, ts, k))
            expected = {}
            for p in range(k // 2 + 1):
                mult = spectra.berger_multiplicity(n, k, p)
                if mult:
                    key = F(-((k - 2 * p) ** 2)) / ts
                    expected[key] = expected.get(key, 0) + mult
            assert got == expected

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_relabelled_kernels_solve_each_block(self, n):
        """Each block's kernel of rot^2 + m^2, relabelled from its sorted dvec,
        is a basis of the kernel of the operator built for that block."""
        for k in range(1, 7):
            dvecs = list(oracle._monomials(n + 1, k))
            halves = {key: oracle._parity_halves(key)
                      for key in {tuple(sorted(d)) for d in dvecs}}
            for m in range(k + 1):
                got = {}
                for dvec, basis, vec in oracle._frequency_vectors(dvecs, m, halves):
                    got.setdefault(dvec, []).append(dict(zip(basis, vec)))
                for dvec in dvecs:
                    basis, rot_sq = oracle._block_vertical_sq(dvec)
                    shifted = [[x + m * m * (i == j) for j, x in enumerate(row)]
                               for i, row in enumerate(rot_sq)]
                    vecs = [[v.get(t, 0) for t in basis] for v in got.get(dvec, [])]
                    for vec in vecs:
                        assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in shifted)
                    own = len(kernel_basis(shifted, len(basis)))
                    assert len(vecs) == integer_rank(vecs) == own, (dvec, m)

    def test_rotation_square_keeps_the_parity_of_the_x_degree(self):
        for n in range(4):
            for k in range(7):
                for dvec in oracle._monomials(n + 1, k):
                    basis, rot_sq = oracle._block_vertical_sq(dvec)
                    assert all(x == 0 for s, row in zip(basis, rot_sq)
                               for t, x in zip(basis, row) if (sum(s) - sum(t)) % 2)

    def test_a_cross_parity_entry_is_caught(self, monkeypatch):
        build = oracle._block_vertical_sq

        def mixed(dvec):
            basis, rot_sq = build(dvec)
            rot_sq[0][1] += 1  # a = (0, ..., 0) and (0, ..., 1) differ in parity
            return basis, rot_sq

        monkeypatch.setattr(oracle, "_block_vertical_sq", mixed)
        with pytest.raises(AssertionError, match="mixes the parities"):
            oracle.lxi_squared_spectrum(1, F(1, 3), 2)

    def test_cap(self):
        with pytest.raises(GeometryDomainError):
            oracle.lxi_squared_spectrum(1, F(1, 2), 9)
        with pytest.raises(GeometryDomainError):
            oracle.lxi_squared_spectrum(-1, F(1, 3), 2)
        with pytest.raises(GeometryDomainError):
            oracle.lxi_squared_spectrum(1, F(1, 3), -1)


class TestTorusFourier:
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

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(ts=st.one_of(
        st.sampled_from([F(1, 3), F(1, 3) - F(1, 4096), F(1, 3) + F(1, 4096),
                         F(1), F(4095, 4096)]),
        st.fractions(min_value=0, max_value=1, max_denominator=64).filter(bool)))
    def test_exact_crosscheck_random_parameters(self, ts):
        fourier = oracle.torus_fourier_index(ts, 4)
        closed = clifford_index_nullity(0, 0, ts)
        assert (fourier.index, fourier.nullity) == (closed.index, closed.nullity)

    @pytest.mark.parametrize("potential", [4.1, "4.1", "1e1"])
    def test_inexact_potential_is_rejected(self, potential):
        with pytest.raises(GeometryDomainError, match="potential must be an exact rational"):
            oracle.torus_fourier_index(F(1, 3), potential)

    @pytest.mark.parametrize("potential, exact", [(4, F(4)), (F(9, 2), F(9, 2)),
                                                  ("9/2", F(9, 2))])
    def test_exact_potential_is_accepted(self, potential, exact):
        assert oracle.torus_fourier_index(F(1, 3), potential) == \
            _fraction_torus_index(F(1, 3), exact)

    def test_search_radius_recorded(self):
        report = oracle.torus_fourier_index(F(1, 3), 4)
        assert "scanned" in report.certificate

    def test_integer_oracle_matches_fraction_reference(self):
        """The integer scan against the same scan in Fraction arithmetic, over
        random tau^2, the breakpoints 1/3 and 1 and their neighbours."""
        rng = np.random.default_rng(15)
        grid = [F(1, 3), F(1), F(1, 3) - F(1, 10 ** 6), F(1, 3) + F(1, 10 ** 6), F(999, 1000)]
        while len(grid) < 520:
            den = int(rng.integers(1, 2000))
            grid.append(F(int(rng.integers(1, den + 1)), den))
        for ts in grid:
            for potential in (2, 4, F(7, 2), 8):
                assert oracle.torus_fourier_index(ts, potential) == _fraction_torus_index(
                    ts, potential), (ts, potential)


def _fraction_torus_index(ts, potential):
    """Reference for ``oracle.torus_fourier_index``: every lattice point's
    value Q(a, b) - potential as a Fraction."""
    pot = F(potential)
    radius = math.isqrt(max(0, int(pot / 2))) + 1
    buckets = {}
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            if a * a + b * b > pot / 2:
                continue
            val = ((a * a + b * b) * (ts + 1) + 2 * a * b * (1 - ts)) / ts - pot
            if val <= 0:
                buckets.setdefault(val, []).append((a, b))
    modes = tuple(JacobiMode("dual-lattice", sorted(buckets[val])[0], val, len(buckets[val]))
                  for val in sorted(buckets))
    cert = (f"Q(a,b) >= 2(a^2+b^2): every dual point with a^2+b^2 > {pot}/2 "
            f"exceeds the potential; scanned |a|,|b| <= {radius}")
    return IndexReport(sum(m.multiplicity for m in modes if m.sign < 0),
                       sum(m.multiplicity for m in modes if m.sign == 0), modes, radius, cert)


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

    def test_tai_suite_rejects_the_round_sphere(self):
        with pytest.raises(GeometryDomainError,
                           match=r"^the projector embedding needs tau\^2 < 1$"):
            oracle.tai_checks(1, 2)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tai_probe_sff_matches_per_call_evaluation(self, n):
        """The probe's cached curve value at 0, conjugated tangent basis and
        stacked four-step stencil over stacked directions give the second
        fundamental form of evaluating the curve one direction and one step
        per call, bit for bit; so do its stacked tangent pushes."""
        param, radius = BergerParam(F(3, 4)), 2.0  # radius 1/sqrt(1 - tau^2)
        zc, (x, y, v, w) = oracle._draw_horizontal(np.random.default_rng([11, n]), n, 5, 4,
                                                   radius)
        probe = oracle._TaiProbe(param, zc, radius)

        tangent = []
        for b in probe.real_basis:
            t = oracle._tai_push(param, zc, radius, b)
            for s in tangent:
                t = t - oracle._hm_inner(t, s)[:, None, None] * s
            tangent.append(t / np.sqrt(oracle._hm_inner(t, t))[:, None, None])
        assert [t.tobytes() for t in probe.tangent] == [t.tobytes() for t in tangent]

        def second_derivative(direction, h=2e-3):
            def curve(step):
                return oracle._tai_curve(param, zc, radius, direction, [step])[0]

            def d2(step):
                return (curve(step) - 2.0 * curve(0.0) + curve(-step)) / (step * step)
            return (4.0 * d2(h / 2) - d2(h)) / 3.0

        def normal_part(mat):
            for t in probe.tangent:
                mat = mat - oracle._hm_inner(mat, t)[:, None, None] * t
            return mat

        pairs = [(x, y), (v, w), (1j * x, 1j * y), (x, x)] + [(b, b) for b in probe.real_basis]
        got = probe.sff(pairs)
        assert got.shape == (len(pairs), 5, n + 1, n + 1)
        for (a, b), s in zip(pairs, got):
            want = (normal_part(second_derivative(a + b))
                    - normal_part(second_derivative(a - b))) / 4.0
            assert s.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tai_checks_do_not_depend_on_the_group_budget(self, n, monkeypatch):
        """Stacking directions in groups of any size gives the same reports,
        bit for bit: from one direction per call to all of them."""
        grouped = oracle._in_groups

        def reports():
            return [repr(oracle.tai_checks(F(2, 7), n, samples, seed=5)) for samples in (7, 330)]

        want = reports()
        for budget in (1, 3, 64, 10 ** 6):
            monkeypatch.setattr(oracle, "_in_groups",
                                lambda fn, directions, _, b=budget: grouped(fn, directions, b))
            assert reports() == want

    def test_seed_outside_32_bits_rejected(self):
        for seed in (-1, 2 ** 32):
            with pytest.raises(GeometryDomainError, match="seed"):
                oracle.ricci_vertical_check(F(1, 2), 1, samples=3, seed=seed)
        assert oracle.ricci_vertical_check(F(1, 2), 1, samples=3, seed=2 ** 32 - 1).passed

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


# Scalar samplers of the one-sample-at-a-time checks, kept as the reference
# for the draw order of the batched checks.
def _random_point(rng, n):
    v = rng.standard_normal(2 * n + 2)
    return v / np.linalg.norm(v)


def _random_tangent(rng, z):
    u = rng.standard_normal(len(z))
    return u - float(np.dot(u, z)) * z


def _random_rep(rng, n, radius):
    zc = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return zc * (radius / np.linalg.norm(zc))


def _random_horizontal(rng, zc, radius):
    u = rng.standard_normal(len(zc)) + 1j * rng.standard_normal(len(zc))
    u = u - (np.vdot(zc, u) / radius ** 2) * zc
    return u / np.linalg.norm(u)


def _sampled_reports(samples, seed=3):
    third, half = F(1, 3), F(1, 2)
    return [
        oracle.killing_check(third, 2, samples, seed),
        oracle.curvature_symmetry_check(third, 2, samples, seed),
        oracle.round_degeneration_check(1, samples, seed),
        oracle.sectional_consistency_check(third, 3, samples, seed),
        oracle.ricci_vertical_check(third, 2, samples, seed),
        oracle.metric_definiteness_check(third, 2, samples, seed),
        oracle.geodesic_sphere_isometry_check(half, 2, samples, seed),
        oracle.gauss_flatness_check(third, samples, seed),
        *oracle.tai_checks(half, 2, samples, seed),
    ]


# (name, samples, tolerance, pass) of ``verify --format json`` at the default
# 200 samples, captured from the one-sample-at-a-time implementation; the
# list is the same at every seed.
VERIFY_REPORTS = [
    ("killing-flow-isometry", 200, 1e-06, True),
    ("killing-flow-isometry", 200, 1e-06, True),
    ("curvature-symmetries", 200, 1e-10, True),
    ("round-sphere-degeneration", 200, 1e-12, True),
    ("sectional-consistency", 200, 1e-12, True),
    ("ricci-vertical", 200, 1e-12, True),
    ("metric-definiteness", 50, 0.0, True),
    ("geodesic-sphere-isometry", 200, 1e-08, True),
    ("geodesic-sphere-isometry", 200, 1e-08, True),
    ("gauss-flatness", 64, 1e-12, True),
    ("gauss-flatness", 64, 1e-12, True),
    ("tai-isometry", 50, 1e-08, True),
    ("tai-sphere-containment", 50, 1e-10, True),
    ("tai-sff-law", 10, 1e-06, True),
    ("tai-sff-j-invariance", 10, 1e-08, True),
    ("tai-minimality", 10, 1e-06, True),
    ("minimality-clifford", 2, 0.0001, True),
    ("minimality-clifford", 2, 0.0001, True),
    ("minimality-great-circle", 2, 0.0001, True),
    ("minimality-real-sphere", 1, 0.0001, True),
    ("clifford-lattice-crosscheck", 5, 0.0, True),
    ("vertical-spectrum-crosscheck", 8, 0.0, True),
    ("bidegree-crosscheck", 45, 0.0, True),
]


class TestBatchedSampling:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_batch_draws_the_scalar_stream(self, n):
        scalar = np.random.default_rng([5, n])
        z = _random_point(scalar, n)
        tangents = [_random_tangent(scalar, z) for _ in range(4)]
        after = scalar.standard_normal()
        batched = np.random.default_rng([5, n])
        zb, vecs = oracle._draw(batched, n, 1, 4)
        assert batched.standard_normal() == after
        np.testing.assert_allclose(zb[0], z, rtol=0, atol=1e-15)
        for got, want in zip(vecs, tangents):
            np.testing.assert_allclose(got[0], want, rtol=0, atol=1e-14)
        # and the first row of a larger batch is the same sample
        zb3, vecs3 = oracle._draw(np.random.default_rng([5, n]), n, 3, 4)
        assert np.array_equal(zb3[0], zb[0])
        assert all(np.array_equal(a[0], b[0]) for a, b in zip(vecs3, vecs))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tai_batch_draws_the_scalar_stream(self, n):
        radius = 2.0
        scalar = np.random.default_rng([9, n])
        zc = _random_rep(scalar, n, radius)
        horizontal = [_random_horizontal(scalar, zc, radius) for _ in range(4)]
        after = scalar.standard_normal()
        batched = np.random.default_rng([9, n])
        zb, vecs = oracle._draw_horizontal(batched, n, 1, 4, radius)
        assert batched.standard_normal() == after
        np.testing.assert_allclose(zb[0], zc, rtol=0, atol=1e-14)
        for got, want in zip(vecs, horizontal):
            np.testing.assert_allclose(got[0], want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("samples", [6, 7, 8])
    def test_chunking_does_not_change_any_error(self, samples, monkeypatch):
        whole = _sampled_reports(samples)
        monkeypatch.setattr(oracle, "SAMPLE_CHUNK", 7)
        chunked = _sampled_reports(samples)
        assert [r.name for r in chunked] == [r.name for r in whole]
        for a, b in zip(chunked, whole):
            assert a.max_error == b.max_error, a.name
            assert a.passed and a.samples == b.samples

    @pytest.mark.parametrize("n", ["0", "-1", "-2"])
    def test_curvature_check_rejects_small_n(self, n, capsys):
        out = io.StringIO()
        code = cli.main(["curvature-check", "--tau-sq", "1/3", "--n", n, "--samples", "5"], out)
        assert (code, out.getvalue()) == (2, "")
        assert capsys.readouterr().err == "error: ambient coordinates must have even length >= 4\n"

    @pytest.mark.parametrize("seed", ["1", "7", "12345", "0x5EED"])
    def test_verify_report_list_unchanged(self, seed):
        out = io.StringIO()
        assert cli.main(["verify", "--seed", seed, "--format", "json"], out) == 0
        got = [(c["name"], c["samples"], c["tolerance"], c["pass"])
               for c in json.loads(out.getvalue())["checks"]]
        assert got == VERIFY_REPORTS
        assert {c["seed"] for c in json.loads(out.getvalue())["checks"]} == {int(seed, 0)}
