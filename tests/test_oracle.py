"""Brute-force oracles and the sampled verification checks."""

import inspect
import io
import itertools
import json
import math
import operator
import sys
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergersphere import cli, oracle, sampled, spectra
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
            for a in range(9):
                for b in range(9 - a):
                    sources, _ = _all_weight_blocks(n, a, b)
                    blocks = _assembled_blocks(n, a, b)
                    nullity = {w: len(block[0]) - integer_rank(rows)
                               for w, (block, rows) in blocks.items()}
                    for w, value in nullity.items():
                        assert value == nullity[tuple(sorted(w))], (n, a, b, w)
                    classes = Counter(tuple(sorted(w)) for w in sources)
                    weights = list(oracle._sorted_weights(n, a, b))
                    assert {w: size for w, size, _ in weights} == classes, (n, a, b)
                    for w, _, d in weights:
                        assert len(oracle._monomials(n + 1, d)) == len(sources[w]), (n, a, b, w)
                    assert sum(size * len(sources[w]) for w, size, _ in weights) == \
                        sum(map(len, sources.values())), (n, a, b)

    def test_assembled_blocks_are_the_differentiated_blocks(self):
        """Every weight block assembled from the lowering maps, entry by
        entry, against the block differentiated on the exponent pairs."""
        for n in range(4):
            for a in range(9):
                for b in range(9 - a):
                    _check_assembled_blocks(n, a, b)

    def test_a_shifted_lowering_target_is_caught(self, monkeypatch):
        build = oracle._lowering_maps

        def shifted(nvars, top):
            maps = build(nvars, top)
            # one entry of the top degree lowered onto the next monomial
            image = maps[top][len(maps[top]) // 2]
            v, g, i = image[0]
            image[0] = (v, g, (i + 1) % len(maps[top - 1]))
            return maps

        monkeypatch.setattr(oracle, "_lowering_maps", shifted)
        for n in range(1, 4):
            for a in range(2, 7):
                for b in range(2, 9 - a):
                    with pytest.raises(AssertionError):
                        _check_assembled_blocks(n, a, b)

    def test_matches_every_weight_block_solved(self):
        """The shortcut against the kernel rank of every weight block."""
        for n in range(6):
            for a in range(9):
                for b in range(9 - a):
                    sources, targets = _all_weight_blocks(n, a, b)
                    expected = sum(len(cols) - integer_rank(
                        _differentiated_rows(n, cols, targets.get(w, [])))
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


def _differentiated_rows(n, cols, targets):
    """The mixed second derivative sum on one weight block, differentiated
    on its exponent pairs: column j is the pair cols[j], one row per pair of
    ``targets``."""
    rows = [[0] * len(cols) for _ in targets]
    for j, (al, be) in enumerate(cols):
        for v in range(n + 1):
            if al[v] >= 1 and be[v] >= 1:
                al2 = al[:v] + (al[v] - 1,) + al[v + 1:]
                be2 = be[:v] + (be[v] - 1,) + be[v + 1:]
                rows[targets.index((al2, be2))][j] = al[v] * be[v]
    return rows


def _assembled_blocks(n, a, b):
    """Every weight's block as the oracle assembles it: {w: ((column pairs,
    row pairs), rows)}, the pairs (gamma + w+, gamma + w-) of the monomials
    gamma in the lowering maps' order."""
    lowering = oracle._lowering_maps(n + 1, max(min(a, b), 0))
    blocks = {}
    for w in _all_weight_blocks(n, a, b)[0]:
        pos = tuple(max(x, 0) for x in w)
        neg = tuple(p - x for p, x in zip(pos, w))
        d = b - sum(neg)

        def pairs(degree):
            return [(tuple(map(operator.add, g, pos)), tuple(map(operator.add, g, neg)))
                    for g in oracle._monomials(n + 1, degree)] if degree >= 0 else []

        block = (pairs(d), pairs(d - 1))
        blocks[w] = block, oracle._weight_block_rows(w, lowering[d], len(block[1]))
    return blocks


def _check_assembled_blocks(n, a, b):
    """Raise unless every assembled weight block has the entries of the
    differentiated one, pair by pair."""
    sources, targets = _all_weight_blocks(n, a, b)
    for w, ((cols, tgts), rows) in _assembled_blocks(n, a, b).items():
        assert sorted(cols) == sorted(sources[w]), (n, a, b, w)
        assert sorted(tgts) == sorted(targets.get(w, [])), (n, a, b, w)
        want = _differentiated_rows(n, cols, tgts)
        assert rows == want, (n, a, b, w)


def _rot_square_reference(dvec):
    """rot^2 on the whole block of ``dvec`` by direct differentiation: the
    x-exponent tuples in product order, and the matrix whose column j is
    rot^2 of monomial j."""
    basis = list(itertools.product(*(range(d + 1) for d in dvec)))

    def rot(poly):
        out = Counter()
        for a, c in poly.items():
            for j, dj in enumerate(dvec):
                if a[j] < dj:  # x_j d/dy_j
                    out[a[:j] + (a[j] + 1,) + a[j + 1:]] += c * (dj - a[j])
                if a[j] > 0:  # -y_j d/dx_j
                    out[a[:j] + (a[j] - 1,) + a[j + 1:]] -= c * a[j]
        return out

    images = [rot(rot({t: 1})) for t in basis]
    return basis, [[image[s] for image in images] for s in basis]


def _shifted(square, m):
    """The matrix ``square`` + m^2 times the identity."""
    return [[x + m * m * (i == j) for j, x in enumerate(row)] for i, row in enumerate(square)]


class TestVerticalSpectrum:
    def test_constants(self):
        assert oracle.lxi_squared_spectrum(1, F(1, 2), 0) == [(F(0), 1)]

    def test_degree_one(self):
        ts = F(1, 3)
        assert oracle.lxi_squared_spectrum(1, ts, 1) == [(-1 / ts, 4)]

    def test_degree_one_builds_no_laplacian(self, monkeypatch):
        """At k = 1 the Laplacian is zero: no target, image or class block is
        built, and every frequency vector counts."""
        expected = {n: oracle.lxi_squared_spectrum(n, F(2, 7), 1) for n in range(4)}

        def refuse(*args):
            raise AssertionError("a Laplacian was built at degree one")

        for name in ("_laplacian_targets", "_laplacian_images", "_class_rows"):
            monkeypatch.setattr(oracle, name, refuse)
        for n in range(4):
            assert oracle.lxi_squared_spectrum(n, F(2, 7), 1) == expected[n] == \
                [(F(-7, 2), 2 * (n + 1))]
        with pytest.raises(AssertionError, match="degree one"):
            oracle.lxi_squared_spectrum(1, F(2, 7), 2)

    def test_degree_two(self):
        ts = F(1, 3)
        assert oracle.lxi_squared_spectrum(1, ts, 2) == [(F(0), 3), (-4 / ts, 6)]

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_frequency_split(self, n):
        ts = F(2, 5)
        for k in range({0: 8, 1: 8, 2: 8, 3: 6}[n] + 1):
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
            for dvec in oracle._monomials(n + 1, k):
                key = tuple(sorted(dvec))
                # pair j of dvec is pair perm[j] of the sorted block
                perm = next(p for p in itertools.permutations(range(n + 1))
                            if all(key[p[j]] == dvec[j] for j in range(n + 1)))
                halves, _, squares = oracle._rotation_block(key)
                basis, rot_sq = _rot_square_reference(dvec)
                for m in range(k + 1):
                    vecs = []
                    for half, square in zip(halves, squares):
                        for vec in kernel_basis(_shifted(square, m), len(half)):
                            coords = {tuple(t[p] for p in perm): x for t, x in zip(half, vec)}
                            vecs.append([coords.get(t, 0) for t in basis])
                    shifted = _shifted(rot_sq, m)
                    for vec in vecs:
                        assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in shifted)
                    own = len(kernel_basis(shifted, len(basis)))
                    assert len(vecs) == integer_rank(vecs) == own, (dvec, m)

    def test_rotation_square_keeps_the_parity_of_the_x_degree(self):
        for n in range(4):
            for k in range(7):
                for dvec in oracle._monomials(n + 1, k):
                    basis, rot_sq = _rot_square_reference(dvec)
                    assert all(x == 0 for s, row in zip(basis, rot_sq)
                               for t, x in zip(basis, row) if (sum(s) - sum(t)) % 2)
                    halves, _, squares = oracle._rotation_block(dvec)
                    for h, (half, square) in enumerate(zip(halves, squares)):
                        assert half == [t for t in basis if sum(t) % 2 == h]
                        idx = [basis.index(t) for t in half]
                        assert square == [[rot_sq[i][j] for j in idx] for i in idx], (dvec, h)

    def test_a_cross_parity_entry_is_caught(self, monkeypatch):
        build = oracle._block_basis

        def mixed(dvec):
            even, odd = build(dvec)
            # one odd sum(a) filed with the even ones, on the degree-k blocks
            return [even + odd[:1], odd[1:]] if sum(dvec) == k else [even, odd]

        monkeypatch.setattr(oracle, "_block_basis", mixed)
        for n in range(4):
            for k in range(1, 7):
                with pytest.raises(AssertionError, match="mixes the parities"):
                    oracle.lxi_squared_spectrum(n, F(1, 3), k)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_rot_carries_one_half_kernel_onto_the_other(self, n):
        """For m >= 1, rot maps the kernel of rot^2 + m^2 on either half of a
        block onto the kernel on the other half."""
        for k in range(1, 7):
            for key in {tuple(sorted(dvec)) for dvec in oracle._monomials(n + 1, k)}:
                halves, rot, squares = oracle._rotation_block(key)
                for m in range(max(1, k % 2), k + 1, 2):
                    for h in (0, 1):
                        size = len(halves[1 - h])
                        images = [oracle._apply(rot[h], v, size)
                                  for v in kernel_basis(_shifted(squares[h], m), len(halves[h]))]
                        shifted = _shifted(squares[1 - h], m)
                        for w in images:
                            assert all(sum(x * y for x, y in zip(row, w)) == 0 for row in shifted)
                        own = len(kernel_basis(shifted, size))
                        assert len(images) == integer_rank(images) == own, (key, m, h)

    def test_a_wrong_rot_image_is_caught(self, monkeypatch):
        build = oracle._rotation_block

        def doubled(dvec):
            halves, rot, squares = build(dvec)
            return halves, [[[(i, 2 * c) for i, c in image] for image in half]
                            for half in rot], squares

        monkeypatch.setattr(oracle, "_rotation_block", doubled)
        for n in range(4):
            for k in range(1, 7):
                with pytest.raises(AssertionError, match="does not solve"):
                    oracle.lxi_squared_spectrum(n, F(1, 3), k)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_class_ranks_sum_to_the_unsplit_rank(self, n):
        """On every frequency space, the ranks of the Laplacian's class blocks
        add up to the rank of the whole Laplacian, differentiated directly;
        over all frequencies, to the number of degree-(k-2) monomials, since
        the Laplacian maps onto them."""
        for k in range(2, 7):
            targets, sizes = oracle._laplacian_targets(n + 1, k - 2)
            total = 0
            for m in range(k % 2, k + 1, 2):
                columns, polys = {}, []
                for dvec in oracle._monomials(n + 1, k):
                    parity = tuple(d % 2 for d in dvec)
                    halves, _, squares = oracle._rotation_block(dvec)
                    for h, (half, square) in enumerate(zip(halves, squares)):
                        cls = (parity, h)
                        images = oracle._laplacian_images(dvec, half, cls, targets)
                        for vec in kernel_basis(_shifted(square, m), len(half)):
                            columns.setdefault(cls, []).append((images, vec))
                            # exponents of x_0, y_0, x_1, y_1, ...
                            polys.append({tuple(e for a, d in zip(t, dvec) for e in (a, d - a)): x
                                          for t, x in zip(half, vec) if x})
                split = sum(integer_rank(oracle._class_rows(cols, sizes.get(cls, 0)))
                            for cls, cols in columns.items())
                rows = {}
                for col, poly in enumerate(polys):
                    for e, x in poly.items():
                        for v, ev in enumerate(e):
                            if ev >= 2:
                                row = rows.setdefault(e[:v] + (ev - 2,) + e[v + 1:],
                                                      [0] * len(polys))
                                row[col] += x * ev * (ev - 1)
                assert split == integer_rank(list(rows.values())), (k, m)
                total += split
            assert total == len(targets) == sum(sizes.values()), k

    @pytest.mark.parametrize("flip", ["sum(a) parity", "dvec mod 2"])
    def test_a_misfiled_laplacian_target_is_caught(self, monkeypatch, flip):
        number = oracle._laplacian_targets

        def misfiled(npairs, degree):
            targets, sizes = number(npairs, degree)
            # one degree-(k-2) target filed under a class it does not lie in
            key = list(targets)[len(targets) // 2]
            (parity, h), i = targets[key]
            targets[key] = (((parity, 1 - h) if flip == "sum(a) parity"
                             else ((1 - parity[0],) + parity[1:], h)), i)
            return targets, sizes

        monkeypatch.setattr(oracle, "_laplacian_targets", misfiled)
        for n in range(4):
            for k in range(2, 7):
                with pytest.raises(AssertionError, match="leaves its class"):
                    oracle.lxi_squared_spectrum(n, F(1, 3), k)

    def test_cap(self):
        with pytest.raises(GeometryDomainError):
            oracle.lxi_squared_spectrum(1, F(1, 2), 9)
        with pytest.raises(GeometryDomainError):
            oracle.lxi_squared_spectrum(-1, F(1, 3), 2)
        with pytest.raises(GeometryDomainError):
            oracle.lxi_squared_spectrum(1, F(1, 3), -1)


# The (n, k) sizes at which the exact-oracles benchmark calls lxi_squared_spectrum.
BENCHMARK_LXI_SIZES = ([(0, k) for k in range(1, 9)] + [(1, k) for k in range(1, 9)]
                       + [(2, k) for k in range(1, 6)] + [(3, k) for k in range(1, 5)])


def test_exact_oracles_read_no_closed_form_but_the_round_total(monkeypatch):
    """With every public spectra function but round_multiplicity refusing to
    run, both kernel-rank oracles return what they return with them."""
    def run():
        return ([oracle.lxi_squared_spectrum(n, F(2, 7), k) for n, k in BENCHMARK_LXI_SIZES],
                [oracle.harmonic_dim_bruteforce(n, a, b)
                 for n in range(4) for a in range(9) for b in range(9 - a)])

    def refusing(name, fn):
        def refuse(*args, **kwargs):
            if sys._getframe(1).f_code is total.__code__:  # a helper of round_multiplicity
                return fn(*args, **kwargs)
            raise AssertionError(f"the oracle called spectra.{name}")
        return refuse

    expected = run()
    total = spectra.round_multiplicity
    public = [name for name, fn in vars(spectra).items() if inspect.isfunction(fn)
              and fn.__module__ == spectra.__name__ and not name.startswith("_")]
    assert {"round_multiplicity", "berger_multiplicity", "bidegree_dimension"} <= set(public)
    for name in public:
        if name != "round_multiplicity":
            monkeypatch.setattr(spectra, name, refusing(name, getattr(spectra, name)))
    with pytest.raises(AssertionError, match="sphere_harmonic_multiplicity"):
        spectra.sphere_harmonic_multiplicity(3, 2)
    assert run() == expected


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
        assert sampled.killing_check(F(1), 1, samples=50).passed

    def test_killing_deformed(self):
        assert sampled.killing_check(F(1, 3), 2, samples=50).passed

    def test_curvature_symmetries(self):
        report = sampled.curvature_symmetry_check(F(1, 3), 2, samples=100)
        assert report.passed and report.tolerance == 1e-10

    def test_gauss_flatness_any_parameter(self):
        for ts in (F(1, 5), F(1, 3), F(1)):
            report = sampled.gauss_flatness_check(ts)
            assert report.passed and report.max_error < 1e-12

    def test_seeded_determinism(self):
        a = sampled.curvature_symmetry_check(F(1, 3), 1, samples=40, seed=123)
        b = sampled.curvature_symmetry_check(F(1, 3), 1, samples=40, seed=123)
        c = sampled.curvature_symmetry_check(F(1, 3), 1, samples=40, seed=124)
        assert a == b
        assert a.max_error != c.max_error

    def test_tai_suite(self):
        reports = sampled.tai_checks(F(1, 2), 2, samples=60)
        assert all(r.passed for r in reports)
        names = {r.name for r in reports}
        assert {"tai-isometry", "tai-sphere-containment", "tai-sff-law",
                "tai-sff-j-invariance", "tai-minimality"} == names

    def test_tai_suite_rejects_the_round_sphere(self):
        with pytest.raises(GeometryDomainError,
                           match=r"^the projector embedding needs tau\^2 < 1$"):
            sampled.tai_checks(1, 2)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tai_probe_sff_matches_per_call_evaluation(self, n):
        """The probe's cached curve value at 0, conjugated tangent basis and
        stacked four-step stencil over stacked directions give the second
        fundamental form of evaluating the curve one direction and one step
        per call, bit for bit; so do its stacked tangent pushes."""
        param, radius = BergerParam(F(3, 4)), 2.0  # radius 1/sqrt(1 - tau^2)
        zc, (x, y, v, w) = sampled._draw_horizontal(np.random.default_rng([11, n]), n, 5, 4,
                                                   radius)
        probe = sampled._TaiProbe(param, zc, radius)

        tangent = []
        for b in probe.real_basis:
            t = sampled._tai_push(param, zc, radius, b)
            for s in tangent:
                t = t - sampled._hm_inner(t, s)[:, None, None] * s
            tangent.append(t / np.sqrt(sampled._hm_inner(t, t))[:, None, None])
        assert [t.tobytes() for t in probe.tangent] == [t.tobytes() for t in tangent]

        def second_derivative(direction, h=2e-3):
            def curve(step):
                return sampled._tai_curve(param, zc, radius, direction, [step])[0]

            def d2(step):
                return (curve(step) - 2.0 * curve(0.0) + curve(-step)) / (step * step)
            return (4.0 * d2(h / 2) - d2(h)) / 3.0

        def normal_part(mat):
            for t in probe.tangent:
                mat = mat - sampled._hm_inner(mat, t)[:, None, None] * t
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
        grouped = sampled._groups

        def reports():
            return [repr(sampled.tai_checks(F(2, 7), n, samples, seed=5)) for samples in (7, 330)]

        want = reports()
        for row_bytes in (sampled.CALL_BYTES, 2 ** 13, 2 ** 9, 1):
            monkeypatch.setattr(sampled, "_groups",
                                lambda fn, directions, _, b=row_bytes: grouped(fn, directions, b))
            assert reports() == want

    def test_seed_outside_32_bits_rejected(self):
        for seed in (-1, 2 ** 32):
            with pytest.raises(GeometryDomainError, match="seed"):
                sampled.ricci_vertical_check(F(1, 2), 1, samples=3, seed=seed)
        assert sampled.ricci_vertical_check(F(1, 2), 1, samples=3, seed=2 ** 32 - 1).passed

    def test_no_samples_fails(self):
        report = sampled.curvature_symmetry_check(F(1, 3), 1, samples=0)
        assert report.samples == 0 and not report.passed

    def test_reports_serialise(self):
        report = sampled.ricci_vertical_check(F(1, 2), 1, samples=10)
        blob = report.to_json()
        assert blob["pass"] is True and blob["name"] == "ricci-vertical"


class TestMinimality:
    def test_clifford_torus(self):
        for ts in (F(1, 3), F(1)):
            report = sampled.minimality_first_variation_check(
                CliffordHypersurface(0, 0), ts, samples=2)
            assert report.passed, report

    def test_great_circle(self):
        report = sampled.minimality_first_variation_check(
            TotallyRealSphere(2, 1), F(1, 3), samples=2)
        assert report.passed

    def test_real_two_sphere(self):
        report = sampled.minimality_first_variation_check(
            TotallyRealSphere(2, 2), F(1, 2), samples=1)
        assert report.passed

    def test_normal_draw_takes_the_first_field_that_does_not_vanish(self):
        lengths = iter([0.3, 0.1, np.nan, 0.9])
        drawn = []

        def normal(a):
            drawn.append(a)
            return a[None] * 2.0, np.array([1.0, next(lengths)])

        a, eta = sampled._draw_normal(np.random.default_rng(4), normal, 4)
        assert len(drawn) == 4 and a is drawn[-1]
        assert np.array_equal(eta, 2.0 * a[None])

    def test_normal_draw_raises_after_32_vanishing_fields(self):
        """The redraw rule ends in an error, not in the last, nearly
        vanishing field."""
        drawn = []

        def vanishing(a):
            drawn.append(a)
            return np.zeros((3, 4)), np.array([1.0, 0.3, 1.0])

        with pytest.raises(GeometryDomainError, match="on 32 draws"):
            sampled._draw_normal(np.random.default_rng(4), vanishing, 4)
        assert len(drawn) == 32

    def test_normal_draw_keeps_a_nan_field_after_32_draws(self):
        """A field of NaN lengths is redrawn like a vanishing one, but the
        last is kept, so that a NaN metric gives a NaN estimate."""
        drawn = []

        def undefined(a):
            drawn.append(a)
            return np.full((3, 4), np.nan), np.array([1.0, np.nan, 0.2])

        a, eta = sampled._draw_normal(np.random.default_rng(4), undefined, 4)
        assert len(drawn) == 32 and a is drawn[-1] and np.isnan(eta).all()

    def test_vanishing_normal_field_is_an_error_line(self, monkeypatch, capsys):
        def vanishing(param, pts, tangents):
            return lambda a: (np.zeros_like(pts), np.zeros(len(pts)))

        monkeypatch.setattr(sampled, "_normal_frame", vanishing)
        out = io.StringIO()
        assert cli.main(["verify", "--samples", "1"], out) == 2
        assert out.getvalue() == ""
        assert capsys.readouterr().err == "error: the normal field nearly vanished on 32 draws\n"

    def test_unsupported_model_refused(self):
        with pytest.raises(GeometryDomainError):
            sampled.minimality_first_variation_check(
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


def _sampled_reports(samples, n, seed=3):
    """Every batched sampled report at dimension n, with the tau pairs that
    verify runs, as JSON."""
    third, half = F(1, 3), F(1, 2)
    return [report.to_json() for report in (
        *sampled._killing_checks((third, F(1)), n, samples, seed),
        sampled.curvature_symmetry_check(third, n, samples, seed),
        sampled.round_degeneration_check(n, samples, seed),
        sampled.sectional_consistency_check(third, n, samples, seed),
        sampled.ricci_vertical_check(third, n, samples, seed),
        sampled.metric_definiteness_check(third, n, samples, seed),
        *sampled._geodesic_sphere_checks((third, half), n, samples, seed),
        *sampled._gauss_flatness_checks((third, F(1)), samples, seed),
        *sampled.tai_checks(half, n, samples, seed),
    )]


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
        zb, vecs = sampled._draw(batched, n, 1, 4)
        assert batched.standard_normal() == after
        np.testing.assert_allclose(zb[0], z, rtol=0, atol=1e-15)
        for got, want in zip(vecs, tangents):
            np.testing.assert_allclose(got[0], want, rtol=0, atol=1e-14)
        # and the first row of a larger batch is the same sample
        zb3, vecs3 = sampled._draw(np.random.default_rng([5, n]), n, 3, 4)
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
        zb, vecs = sampled._draw_horizontal(batched, n, 1, 4, radius)
        assert batched.standard_normal() == after
        np.testing.assert_allclose(zb[0], zc, rtol=0, atol=1e-14)
        for got, want in zip(vecs, horizontal):
            np.testing.assert_allclose(got[0], want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("samples", [6, 7, 8])
    def test_chunking_does_not_change_any_error(self, samples, monkeypatch):
        """A one-row budget (every batch one row, every call one direction)
        and a one-batch budget (every check one batch, every stack one call)
        give the reports of the byte budget, exactly."""
        for n in (1, 2, 3, sampled.N_LIMIT):
            want = _sampled_reports(samples, n)
            assert all(report["pass"] for report in want)
            for budget in (1, 2 ** 40):
                monkeypatch.setattr(sampled, "CALL_BYTES", budget)
                assert _sampled_reports(samples, n) == want, (n, budget)
            monkeypatch.undo()

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
