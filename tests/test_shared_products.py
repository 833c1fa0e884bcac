"""Sampled checks that share products within a batch: bitwise equality with
their per-call forms, independence of the grouping budget, and the row
bound of every kernel call."""

import io
from fractions import Fraction as F

import numpy as np
import pytest

from bergersphere import cli, geometry, oracle
from bergersphere.geometry import BergerParam

NS = [1, 2, 3]
TAUS = [F(1, 3), F(2, 7), F(1, 2)]
SEEDS = [1, 7, 12345, 0x5EED]
# 256 // 6 = 42: the six curvature arrangements of up to 42 rows share one call
SAMPLES = [1, 7, 42, 43, 255, 256, 257, 600]


# ---------------------------------------------------------------------------
# Reference: the checks with one kernel call per argument set
# ---------------------------------------------------------------------------


def _ref_killing(tau, n, samples, seed):
    h = 1e-5
    param = BergerParam.coerce(tau)
    rng = oracle._rng(seed, "killing")
    worst = 0.0
    for count in oracle._chunks(samples):
        z, (v, w) = oracle._draw(rng, n, count, 2)

        def moved(t):
            zt = geometry.check_points(geometry.killing_flow_rows(param, t, z))
            vt = geometry.killing_flow_differential_rows(param, t, v)
            wt = geometry.killing_flow_differential_rows(param, t, w)
            geometry.check_tangents(zt, vt, wt)
            return geometry.berger_inner_rows(param, zt, vt, wt)

        worst = oracle._worst(worst, np.abs((moved(h) - moved(-h)) / (2 * h)))
    return worst


def _ref_curvature_symmetry(tau, n, samples, seed):
    param = BergerParam.coerce(tau)
    rng = oracle._rng(seed, "curvature-symmetry")
    worst = 0.0
    for count in oracle._chunks(samples):
        z, (x, y, zz, w) = oracle._draw(rng, n, count, 4)

        def curv(a, b, c, d):
            return geometry.curvature_tensor_rows(param, z, a, b, c, d)

        r = curv(x, y, zz, w)
        worst = oracle._worst(worst, np.max([
            np.abs(r + curv(y, x, zz, w)),
            np.abs(r + curv(x, y, w, zz)),
            np.abs(r - curv(zz, w, x, y)),
            np.abs(r + curv(y, zz, x, w) + curv(zz, x, y, w)),
        ], axis=0))
    return worst


def _ref_round_degeneration(n, samples, seed):
    param = BergerParam(F(1))
    rng = oracle._rng(seed, "round-degeneration")
    worst = 0.0
    for count in oracle._chunks(samples):
        z, (x, y, zz, w) = oracle._draw(rng, n, count, 4)

        def ip(a, b):
            return geometry.berger_inner_rows(param, z, a, b)

        expected = ip(y, zz) * ip(x, w) - ip(x, zz) * ip(y, w)
        worst = oracle._worst(worst, np.abs(
            geometry.curvature_tensor_rows(param, z, x, y, zz, w) - expected))
    return worst


def _ref_geodesic_sphere(tau, n, samples, seed):
    h = 1e-6
    param = BergerParam.coerce(tau)
    rng = oracle._rng(seed, "geodesic-sphere-isometry")
    scale = 1.0 / np.sqrt(float(param.one_minus))
    worst = 0.0

    def rep(zc):
        return geometry.geodesic_sphere_reps(param, zc / np.linalg.norm(zc, axis=1, keepdims=True))

    for count in oracle._chunks(samples):
        z, (u, v) = oracle._draw(rng, n, count, 2)
        p0 = geometry.geodesic_sphere_reps(param, z)
        p0 = p0 * (scale / np.linalg.norm(p0, axis=1))[:, None]

        def push(t):
            return (rep(z + h * t) - rep(z - h * t)) / (2 * h)

        got = _ref_fubini_study(p0, scale, push(u), push(v))
        worst = oracle._worst(worst, np.abs(got - geometry.berger_inner_rows(param, z, u, v)))
    return worst


def _hermitian_re(a, b):
    return np.einsum("...i,...i->...", a.conj(), b).real


def _ref_fubini_study(reps, scale, x, y):
    r2 = scale * scale

    def horiz(u):
        u = np.asarray(u, dtype=complex)
        a = (_hermitian_re(reps, u) / r2)[..., None]
        b = (_hermitian_re(1j * reps, u) / r2)[..., None]
        return u - a * reps - b * (1j * reps)

    return _hermitian_re(horiz(x), horiz(y))


def _ref_tai_sff_inner(tau, reps, scale, x, y, v, w):
    lam = float(BergerParam.coerce(tau).one_minus)

    def ip(a, b):
        return _ref_fubini_study(reps, scale, a, b)

    x, y, v, w = (np.asarray(u, dtype=complex) for u in (x, y, v, w))
    return lam * (2.0 * ip(x, y) * ip(v, w)
                  + ip(x, w) * ip(y, v)
                  + ip(x, v) * ip(y, w)
                  + ip(x, 1j * w) * ip(y, 1j * v)
                  + ip(x, 1j * v) * ip(y, 1j * w))


def _perturb_unshared_products(monkeypatch):
    """At tau = 1 the curvature tensor is the round-degeneration formula term
    for term, so that check reads exactly 0.  Perturbing only the metric
    calls given no precomputed g(v, iz) (the ``berger_inner_rows`` products;
    the curvature kernel passes its own) makes every error nonzero and a
    function of those products."""
    true_metric = geometry._metric

    def metric(lam, iz, v, w, *known):
        out = true_metric(lam, iz, v, w, *known)
        return out if known else out + 0.25 * v[..., 0] * w[..., 1]

    monkeypatch.setattr(geometry, "_metric", metric)


# ---------------------------------------------------------------------------
# Bitwise equality
# ---------------------------------------------------------------------------

CHECKS = {
    "curvature-symmetries": (oracle.curvature_symmetry_check, _ref_curvature_symmetry),
    "killing-flow-isometry": (oracle.killing_check, _ref_killing),
    "geodesic-sphere-isometry": (oracle.geodesic_sphere_isometry_check, _ref_geodesic_sphere),
}


@pytest.mark.parametrize("name", CHECKS)
@pytest.mark.parametrize("tau", TAUS, ids=str)
@pytest.mark.parametrize("n", NS)
def test_stacked_check_bitwise_equals_per_call_reference(name, tau, n):
    check, reference = CHECKS[name]
    nonzero = 0
    for samples in SAMPLES:
        for seed in SEEDS:
            got = check(tau, n, samples, seed)
            want = reference(tau, n, samples, seed)
            assert got.name == name
            assert got.max_error.hex() == want.hex(), (samples, seed)
            nonzero += want != 0.0
    assert nonzero >= len(SAMPLES) * len(SEEDS) - 2


@pytest.mark.parametrize("perturbed", [False, True], ids=["berger", "perturbed"])
@pytest.mark.parametrize("n", NS)
def test_round_degeneration_bitwise_equals_per_call_reference(n, perturbed, monkeypatch):
    if perturbed:
        _perturb_unshared_products(monkeypatch)
    for samples in SAMPLES:
        for seed in SEEDS:
            got = oracle.round_degeneration_check(n, samples, seed)
            want = _ref_round_degeneration(n, samples, seed)
            assert got.max_error.hex() == want.hex(), (samples, seed)
            assert (want != 0.0) == perturbed
            assert got.passed != perturbed


@pytest.mark.parametrize("tau", TAUS, ids=str)
@pytest.mark.parametrize("n", NS)
def test_tai_sff_law_bitwise_equals_per_call_reference(n, tau, monkeypatch):
    cases = [(samples, seed) for samples in SAMPLES for seed in SEEDS]
    got = [oracle.tai_checks(tau, n, samples, seed)[2] for samples, seed in cases]
    monkeypatch.setattr(oracle, "tai_sff_inner_rows", _ref_tai_sff_inner)
    want = [oracle.tai_checks(tau, n, samples, seed)[2] for samples, seed in cases]
    for case, a, b in zip(cases, got, want):
        assert a.name == "tai-sff-law"
        assert a.max_error.hex() == b.max_error.hex(), case
        assert b.max_error != 0.0


@pytest.mark.parametrize("n", NS)
def test_shared_projections_equal_per_call_products(n):
    """``tai_sff_inner_rows`` projects each of its six vectors once, and
    ``fubini_study_inner_rows`` shares that projection: both equal the
    per-call forms bit for bit, also over a leading stack axis."""
    rng = np.random.default_rng([3, n])
    radius = 2.0
    zc, vectors = oracle._draw_horizontal(rng, n, 9, 4, radius)
    stacked = [np.stack([u, 1j * u, u + 2.0]) for u in vectors]
    for reps, (x, y, v, w) in ((zc, vectors), (zc[None], stacked)):
        for tau in TAUS:
            got = geometry.tai_sff_inner_rows(tau, reps, radius, x, y, v, w)
            assert got.tobytes() == _ref_tai_sff_inner(tau, reps, radius, x, y, v, w).tobytes()
        got = geometry.fubini_study_inner_rows(reps, radius, x, w)
        assert got.tobytes() == _ref_fubini_study(reps, radius, x, w).tobytes()


# ---------------------------------------------------------------------------
# Grouping: the budget decides only which argument sets share a call
# ---------------------------------------------------------------------------


def _stacked_reports(n, samples):
    return [repr(check(F(2, 7), n, samples, 5)) for check in (
        oracle.curvature_symmetry_check, oracle.killing_check,
        oracle.geodesic_sphere_isometry_check,
        lambda _, n, samples, seed: oracle.round_degeneration_check(n, samples, seed))]


@pytest.mark.parametrize("n", NS)
def test_stacked_checks_do_not_depend_on_the_group_budget(n, monkeypatch):
    """From one argument set per call to all of them in one, the reports are
    the same, bit for bit."""
    grouped = oracle._in_groups
    want = [_stacked_reports(n, samples) for samples in (1, 43, 300)]
    for budget in (1, 3, 64, 10 ** 6):
        monkeypatch.setattr(oracle, "_in_groups",
                            lambda fn, directions, _, b=budget: grouped(fn, directions, b))
        assert [_stacked_reports(n, samples) for samples in (1, 43, 300)] == want


# ---------------------------------------------------------------------------
# Row bound: no kernel call of a sampled check gets more than SAMPLE_CHUNK rows
# ---------------------------------------------------------------------------

# oracle's name of each kernel it calls on sampled batches -> position of the
# batch (points, representatives or curve directions) among its arguments
KERNELS = {
    "berger_gram_rows": 1, "_berger_grams": 1, "berger_inner_rows": 1,
    "berger_orthonormalize_rows": 1, "check_points": 0, "check_tangents": 0,
    "curvature_tensor_rows": 1, "sectional_curvature_rows": 1, "ricci_rows": 1,
    "fubini_study_inner_rows": 0, "geodesic_sphere_reps": 1, "killing_field_rows": 1,
    "killing_flow_rows": 2, "killing_flow_differential_rows": 2, "tai_sff_inner_rows": 1,
    "_tai_curve": 3,
}
# The first-variation checks integrate over fixed quadrature grids (up to
# 48 x 48 rows), which no sample count changes; their calls are not recorded.
GRID_CHECKS = ["_clifford_variations", "_great_circle_variation", "_real_sphere_variation"]


@pytest.fixture
def kernel_rows(monkeypatch):
    """Rows of every kernel call, as (kernel, rows) in call order."""
    calls = []
    on_grid = [False]

    def recording(name, fn, position):
        def wrapper(*args, **kwargs):
            if not on_grid[0]:
                calls.append((name, int(np.prod(np.shape(args[position])[:-1]))))
            return fn(*args, **kwargs)
        return wrapper

    def grid(fn):
        def wrapper(*args, **kwargs):
            on_grid[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                on_grid[0] = False
        return wrapper

    for name, position in KERNELS.items():
        monkeypatch.setattr(oracle, name, recording(name, getattr(oracle, name), position))
    for name in GRID_CHECKS:
        monkeypatch.setattr(oracle, name, grid(getattr(oracle, name)))
    return calls


@pytest.mark.parametrize("run, kernel", [
    (lambda samples: oracle.verify_all(samples), "geodesic_sphere_reps"),
    (lambda samples: cli.main(["tai-check", "--tau-sq", "2/7", "--n", "3",
                               "--samples", str(samples)], io.StringIO()), "_tai_curve"),
    (lambda samples: cli.main(["curvature-check", "--tau-sq", "2/7", "--n", "3",
                               "--samples", str(samples)], io.StringIO()), "curvature_tensor_rows"),
], ids=["verify_all", "tai-check", "curvature-check"])
def test_no_kernel_call_exceeds_the_chunk(run, kernel, kernel_rows):
    for samples in (1, 16, 43, 300, 600):
        kernel_rows.clear()
        run(samples)
        assert kernel in {name for name, _ in kernel_rows}
        assert max(rows for _, rows in kernel_rows) <= oracle.SAMPLE_CHUNK, samples


@pytest.mark.parametrize("samples, calls", [
    (16, [96]), (42, [252]), (43, [215, 43]), (256, [256] * 6), (300, [256] * 6 + [220, 44]),
])
def test_curvature_arrangements_share_calls(samples, calls, kernel_rows):
    """The six arrangements share a call while they fit in SAMPLE_CHUNK rows."""
    oracle.curvature_symmetry_check(F(1, 3), 2, samples)
    assert [rows for name, rows in kernel_rows if name == "curvature_tensor_rows"] == calls
