"""Sampled checks that share products within a batch: bitwise equality with
their per-call forms, independence of the grouping budget, the row bound of
every kernel call, and a named perturbation of what each restructured check
examines that makes it fail."""

import __future__
import inspect
import io
import json
import textwrap
import tracemalloc
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest

from bergersphere import cli, geometry, sampled
from bergersphere.geometry import BergerParam

NS = [1, 2, 3]
TAUS = [F(1, 3), F(2, 7), F(1, 2)]
SEEDS = [1, 7, 12345, 0x5EED]
# sizes around the 256-row batch of earlier versions and its sixth, 42, and
# around the 409-row curvature batch at n = 3 (``sampled.CALL_BYTES`` over
# five vectors of 8 floats)
SAMPLES = [1, 7, 42, 43, 255, 256, 257, 409, 410, 600]


# ---------------------------------------------------------------------------
# Reference: the checks with one kernel call per argument set
# ---------------------------------------------------------------------------


def _ref_killing(tau, n, samples, seed):
    h = 1e-5
    param = BergerParam.coerce(tau)
    rng = sampled._rng(seed, "killing")
    worst = 0.0
    for count in sampled._chunks(samples, sampled._vector_bytes(n)):
        z, (v, w) = sampled._draw(rng, n, count, 2)

        def moved(t):
            zt = geometry.check_points(geometry.killing_flow_rows(param, t, z))
            vt = geometry.killing_flow_differential_rows(param, t, v)
            wt = geometry.killing_flow_differential_rows(param, t, w)
            geometry.check_tangents(zt, vt, wt)
            return geometry.berger_inner_rows(param, zt, vt, wt)

        worst = sampled._worst(worst, np.abs((moved(h) - moved(-h)) / (2 * h)))
    return worst


def _ref_curvature_symmetry(tau, n, samples, seed):
    param = BergerParam.coerce(tau)
    rng = sampled._rng(seed, "curvature-symmetry")
    worst = 0.0
    for count in sampled._chunks(samples, sampled._vector_bytes(n)):
        z, (x, y, zz, w) = sampled._draw(rng, n, count, 4)

        def curv(a, b, c, d):
            return geometry.curvature_tensor_rows(param, z, a, b, c, d)

        r = curv(x, y, zz, w)
        worst = sampled._worst(worst, np.max([
            np.abs(r + curv(y, x, zz, w)),
            np.abs(r + curv(x, y, w, zz)),
            np.abs(r - curv(zz, w, x, y)),
            np.abs(r + curv(y, zz, x, w) + curv(zz, x, y, w)),
        ], axis=0))
    return worst


def _ref_round_degeneration(n, samples, seed):
    param = BergerParam(F(1))
    rng = sampled._rng(seed, "round-degeneration")
    worst = 0.0
    for count in sampled._chunks(samples, sampled._vector_bytes(n)):
        z, (x, y, zz, w) = sampled._draw(rng, n, count, 4)

        def ip(a, b):
            return geometry.berger_inner_rows(param, z, a, b)

        expected = ip(y, zz) * ip(x, w) - ip(x, zz) * ip(y, w)
        worst = sampled._worst(worst, np.abs(
            geometry.curvature_tensor_rows(param, z, x, y, zz, w) - expected))
    return worst


def _ref_geodesic_sphere(tau, n, samples, seed):
    h = 1e-6
    param = BergerParam.coerce(tau)
    rng = sampled._rng(seed, "geodesic-sphere-isometry")
    scale = 1.0 / np.sqrt(float(param.one_minus))
    worst = 0.0

    def rep(zc):
        return geometry.geodesic_sphere_reps(param, zc / np.linalg.norm(zc, axis=1, keepdims=True))

    for count in sampled._chunks(samples, sampled._vector_bytes(n)):
        z, (u, v) = sampled._draw(rng, n, count, 2)
        p0 = geometry.geodesic_sphere_reps(param, z)
        p0 = p0 * (scale / np.linalg.norm(p0, axis=1))[:, None]

        def push(t):
            return (rep(z + h * t) - rep(z - h * t)) / (2 * h)

        got = _ref_fubini_study(p0, scale, push(u), push(v))
        worst = sampled._worst(worst, np.abs(got - geometry.berger_inner_rows(param, z, u, v)))
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


def _mutated(owner, name: str, old: str, new: str):
    """``owner.name`` recompiled from its source with the text ``old``, which
    must occur once, replaced by ``new``; it keeps its module's globals."""
    fn = getattr(owner, name)
    lines, first = inspect.getsourcelines(fn)
    src = textwrap.dedent("".join(lines))
    assert src.count(old) == 1, (name, old)
    namespace = dict(fn.__globals__)
    # padded so that a traceback names the function's own lines
    exec(compile("\n" * (first - 1) + src.replace(old, new), inspect.getsourcefile(fn), "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    return namespace[name]


def _edit(owner, name: str, old: str, new: str):
    """A perturbation: ``_mutated`` installed on ``owner`` and, for a
    geometry kernel, on the name ``sampled`` imported it under."""
    def apply(monkeypatch):
        fn = _mutated(owner, name, old, new)
        monkeypatch.setattr(owner, name, fn)
        if owner is geometry and hasattr(sampled, name):
            monkeypatch.setattr(sampled, name, fn)
    return apply


# At tau = 1 every term of the curvature but the constant-curvature one
# carries 1 - tau^2 = 0, so round-sphere-degeneration reads exactly 0 and can
# see only that term; flipping its sign makes every error nonzero.
_FLIP_CONSTANT_TERM = _edit(geometry, "curvature_orders_rows",
                            "val = yz * xw - xz * yw", "val = yz * xw + xz * yw")


# ---------------------------------------------------------------------------
# Bitwise equality
# ---------------------------------------------------------------------------

CHECKS = {
    "curvature-symmetries": (sampled.curvature_symmetry_check, _ref_curvature_symmetry),
    "killing-flow-isometry": (sampled.killing_check, _ref_killing),
    "geodesic-sphere-isometry": (sampled.geodesic_sphere_isometry_check, _ref_geodesic_sphere),
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
    """The check takes R and its four products from one kernel call; the
    reference takes the products from ``berger_inner_rows``.  They agree bit
    for bit, also with the kernel's constant-curvature term perturbed."""
    if perturbed:
        _FLIP_CONSTANT_TERM(monkeypatch)
    for samples in SAMPLES:
        for seed in SEEDS:
            got = sampled.round_degeneration_check(n, samples, seed)
            want = _ref_round_degeneration(n, samples, seed)
            assert got.max_error.hex() == want.hex(), (samples, seed)
            assert (want != 0.0) == perturbed
            assert got.passed != perturbed


@pytest.mark.parametrize("tau", TAUS, ids=str)
@pytest.mark.parametrize("n", NS)
def test_tai_sff_law_bitwise_equals_per_call_reference(n, tau, monkeypatch):
    cases = [(samples, seed) for samples in SAMPLES for seed in SEEDS]
    got = [sampled.tai_checks(tau, n, samples, seed)[2] for samples, seed in cases]
    monkeypatch.setattr(sampled, "tai_sff_inner_rows", _ref_tai_sff_inner)
    want = [sampled.tai_checks(tau, n, samples, seed)[2] for samples, seed in cases]
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
    zc, vectors = sampled._draw_horizontal(rng, n, 9, 4, radius)
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
        sampled.curvature_symmetry_check, sampled.killing_check,
        sampled.geodesic_sphere_isometry_check,
        lambda _, n, samples, seed: sampled.round_degeneration_check(n, samples, seed))]


@pytest.mark.parametrize("n", NS)
def test_stacked_checks_do_not_depend_on_the_group_budget(n, monkeypatch):
    """From one argument set per call to all of them in one, the reports are
    the same, bit for bit."""
    grouped = sampled._groups
    want = [_stacked_reports(n, samples) for samples in (1, 43, 300)]
    for row_bytes in (sampled.CALL_BYTES, 2 ** 13, 2 ** 9, 1):
        monkeypatch.setattr(sampled, "_groups",
                            lambda fn, directions, _, b=row_bytes: grouped(fn, directions, b))
        assert [_stacked_reports(n, samples) for samples in (1, 43, 300)] == want


# ---------------------------------------------------------------------------
# Byte budget: no kernel call of a sampled check holds more than CALL_BYTES
# ---------------------------------------------------------------------------

# sampled's name of each kernel it calls on sampled batches -> position of the
# batch (points, representatives or curve directions) among its arguments
KERNELS = {
    "_berger_grams": 1, "berger_inner_rows": 1,
    "berger_orthonormalize_rows": 1, "check_points": 0, "check_tangents": 0,
    "curvature_orders_rows": 1, "sectional_curvature_rows": 1, "ricci_rows": 1,
    "fubini_study_inner_rows": 0, "geodesic_sphere_reps": 1, "killing_field_rows": 1,
    "killing_flow_rows": 2, "killing_flow_differential_rows": 2, "tai_sff_inner_rows": 1,
    "_tai_curve": 3,
}
# The first-variation checks integrate over fixed quadrature grids (up to
# 48 x 48 rows), which no sample count changes; their calls are not recorded.
GRID_CHECKS = ["_clifford_variations", "_great_circle_variation", "_real_sphere_variation"]
# Rows of a sampled batch before batches were sized by bytes, and the
# direction-rows of a projector probe call then
OLD_BATCH_ROWS, OLD_PROBE_ROWS = 256, 64


def _call_bytes(name, args) -> int:
    """Bytes a kernel call holds: the matrices of every step of a projector
    curve call, and the arrays passed to any other kernel, those in a list
    or tuple argument included."""
    if name == "_tai_curve":
        direction, steps = args[3], args[4]
        return len(steps) * int(np.prod(direction.shape[:-1])) * direction.shape[-1] ** 2 * 16
    arrays = [a for arg in args for a in (arg if isinstance(arg, (list, tuple)) else [arg])]
    held = []
    for a in arrays:  # views of one array, such as a frame paired with itself, count once
        if isinstance(a, np.ndarray) and not any(np.shares_memory(a, b) for b in held):
            held.append(a)
    return sum(a.nbytes for a in held)


@pytest.fixture
def kernel_rows(monkeypatch):
    """Every kernel call, as (kernel, rows, bytes) in call order."""
    calls = []
    on_grid = [False]

    def recording(name, fn, position):
        def wrapper(*args, **kwargs):
            if not on_grid[0]:
                calls.append((name, int(np.prod(np.shape(args[position])[:-1])),
                              _call_bytes(name, args)))
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
        monkeypatch.setattr(sampled, name, recording(name, getattr(sampled, name), position))
    for name in GRID_CHECKS:
        monkeypatch.setattr(sampled, name, grid(getattr(sampled, name)))
    return calls


def _command(cmd, n):
    return lambda samples: cli.main([cmd, "--tau-sq", "2/7", "--n", str(n),
                                     "--samples", str(samples)], io.StringIO())


@pytest.mark.parametrize("run, kernel, n, sample_counts", [
    (lambda samples: sampled.verify_all(samples), "geodesic_sphere_reps", 2,
     (1, 16, 43, 300, 600, 1100)),
    (_command("tai-check", 3), "_tai_curve", 3, (1, 16, 43, 300, 600, 1300)),
    (_command("curvature-check", 3), "curvature_orders_rows", 3, (1, 16, 43, 300, 600, 1100)),
    (_command("tai-check", sampled.N_LIMIT), "_tai_curve", sampled.N_LIMIT, (1, 43, 300)),
    (_command("curvature-check", sampled.N_LIMIT), "curvature_orders_rows", sampled.N_LIMIT,
     (1, 43, 300, 600)),
], ids=["verify_all", "tai-check", "curvature-check", "tai-check-n-limit",
        "curvature-check-n-limit"])
def test_no_kernel_call_exceeds_the_chunk(run, kernel, n, sample_counts, kernel_rows):
    """Every kernel call fits the byte budget; at n = N_LIMIT no call gets
    more rows than a fixed-row batch gave it."""
    for samples in sample_counts:
        kernel_rows.clear()
        run(samples)
        assert kernel in {name for name, _, _ in kernel_rows}
        assert max(size for _, _, size in kernel_rows) <= sampled.CALL_BYTES, samples
        if n == sampled.N_LIMIT:
            assert max(rows for _, rows, _ in kernel_rows) <= OLD_BATCH_ROWS, samples
            assert max((rows for name, rows, _ in kernel_rows if name == "_tai_curve"),
                       default=0) <= OLD_PROBE_ROWS, samples


# 546 rows of five vectors of S^5 fit CALL_BYTES
@pytest.mark.parametrize("samples, calls", [
    (16, [16]), (42, [42]), (43, [43]), (256, [256]), (300, [300]), (546, [546]),
    (547, [546, 1]), (1100, [546, 546, 8]),
])
def test_curvature_arrangements_share_calls(samples, calls, kernel_rows):
    """The six arrangements share one kernel call per batch."""
    sampled.curvature_symmetry_check(F(1, 3), 2, samples)
    assert [rows for name, rows, _ in kernel_rows if name == "curvature_orders_rows"] == calls


def _traced_peak(argv) -> int:
    """tracemalloc peak of one warm run of the command ``argv``, in bytes."""
    cli.main(argv, io.StringIO())
    tracemalloc.start()
    try:
        cli.main(argv, io.StringIO())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def verify_peak():
    """The traced peak of verify --samples 512, the largest operation of the
    sampled-verify benchmark; its first-variation grids do not depend on
    --samples or on the call budget."""
    return _traced_peak(["verify", "--samples", "512"])


# Traced peaks with numpy 2.4 in MiB: verify --samples 512 1.31 (also with
# fixed-row batches); tai-check --samples 2048 at n = 1, 2, 3: 1.01, 1.11,
# 1.18 (0.22, 0.44, 0.83 with fixed-row batches); curvature-check --samples
# 1024 at n = 1, 2, 3: 1.17, 0.91, 0.79 (0.45, 0.50, 0.56).
@pytest.mark.parametrize("argv", [
    *[["tai-check", "--tau-sq", "2/7", "--n", str(n), "--samples", "2048"] for n in (1, 2, 3)],
    *[["curvature-check", "--tau-sq", "2/7", "--n", str(n), "--samples", "1024"]
      for n in (1, 2, 3)],
], ids=" ".join)
def test_traced_peak_at_the_benchmark_caps_stays_within_verify(argv, verify_peak):
    """At n <= 3 and the benchmark's sample caps the longer calls do not
    make a sampled command trace more than the largest operation does."""
    assert _traced_peak(argv) <= verify_peak


# tai-check --n 16 --samples 300 traced 30.81 MiB with fixed-row batches,
# while the projector probe kept every direction's normal part; it traces 1.81
N_LIMIT_PEAK_MIB = 30.81


def test_traced_peak_at_n_limit_stays_within_the_fixed_row_batches():
    argv = ["tai-check", "--tau-sq", "2/7", "--n", str(sampled.N_LIMIT), "--samples", "300"]
    assert _traced_peak(argv) / 2 ** 20 <= N_LIMIT_PEAK_MIB


# ---------------------------------------------------------------------------
# The multi-order curvature kernel
# ---------------------------------------------------------------------------


def _ref_curvature_tensor(tau, z, x, y, zz, w):
    """The five-term curvature of one order, every product formed for that
    order alone."""
    lam, t, iz = geometry._validated(tau, z, x, y, zz, w)
    xi = iz / t
    dot, metric = geometry._dot, geometry._metric
    x_iz, y_iz, z_iz, w_iz, xi_iz = (dot(v, iz) for v in (x, y, zz, w, xi))
    jx, jy, jz = (geometry._j(z, v, v_iz) for v, v_iz in ((x, x_iz), (y, y_iz), (zz, z_iz)))
    jx_iz, jy_iz, jz_iz = dot(jx, iz), dot(jy, iz), dot(jz, iz)
    yz = metric(lam, iz, y, zz, y_iz, z_iz)
    xw = metric(lam, iz, x, w, x_iz, w_iz)
    xz = metric(lam, iz, x, zz, x_iz, z_iz)
    yw = metric(lam, iz, y, w, y_iz, w_iz)
    x_xi = metric(lam, iz, x, xi, x_iz, xi_iz)
    y_xi = metric(lam, iz, y, xi, y_iz, xi_iz)
    val = yz * xw - xz * yw
    val += lam * (metric(lam, iz, jy, zz, jy_iz, z_iz) * metric(lam, iz, jx, w, jx_iz, w_iz)
                  - metric(lam, iz, jx, zz, jx_iz, z_iz) * metric(lam, iz, jy, w, jy_iz, w_iz)
                  - 2.0 * metric(lam, iz, jx, y, jx_iz, y_iz)
                  * metric(lam, iz, jz, w, jz_iz, w_iz))
    val += lam * metric(lam, iz, zz, xi, z_iz, xi_iz) * (x_xi * yw - y_xi * xw)
    val += lam * metric(lam, iz, w, xi, w_iz, xi_iz) * (y_xi * xz - x_xi * yz)
    return val


# (vector count, orders, pairs): the six symmetry orders, the round check's
# order with its four products, the sectional check's R(v, w, w, v), and
# orders that repeat a vector in other slots
KERNEL_CALLS = [
    (4, sampled._SYMMETRY_ORDERS, ()),
    (4, ((0, 1, 2, 3),), ((1, 2), (0, 3), (0, 2), (1, 3))),
    (2, ((0, 1, 1, 0),), ()),
    (4, ((0, 1, 1, 0), (3, 3, 3, 3), (2, 0, 0, 2), (1, 2, 3, 0)), ((2, 2), (3, 1), (1, 3))),
]


@pytest.mark.parametrize("tau", [F(1, 1000), F(2, 7), F(1, 3), F(1)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 16])
def test_multi_order_kernel_equals_one_call_per_order(n, tau):
    rng = np.random.default_rng([21, n])
    for rows in (1, 42, 43, 256, 257):
        z, vectors = sampled._draw(rng, n, rows, 4)
        for count, orders, pairs in KERNEL_CALLS:
            vecs = vectors[:count]
            got = geometry.curvature_orders_rows(tau, z, vecs, orders, pairs)
            assert got.shape == (len(orders) + len(pairs), rows)
            for r, order in zip(got, orders):
                args = [vecs[i] for i in order]
                assert r.tobytes() == geometry.curvature_tensor_rows(tau, z, *args).tobytes()
                assert r.tobytes() == _ref_curvature_tensor(tau, z, *args).tobytes()
            for product, (p, q) in zip(got[len(orders):], pairs):
                want = geometry.berger_inner_rows(tau, z, vecs[p], vecs[q])
                assert product.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# The projector probe evaluates no zero direction for the forms it traces
# ---------------------------------------------------------------------------


def _ref_sff(probe, pairs, traced=()):
    """``_TaiProbe.sff`` evaluating the zero direction b - b of every traced
    form too, with every form of the trace stacked before it is summed."""
    every = list(pairs) + [(b, b) for b in traced]
    directions = np.stack([x + y for x, y in every] + [x - y for x, y in every])
    normal = sampled._in_groups(lambda d: probe._normal_part(probe._second_derivative(d)),
                               directions, sampled._curve_bytes(probe.zc.shape[1] - 1))
    s = normal[:len(every)]
    s -= normal[len(every):]
    s /= 4.0
    if not len(traced):
        return s
    trace = np.zeros_like(probe.base)
    for form in s[len(pairs):]:
        trace = trace + form
    return np.concatenate((s[:len(pairs)], trace[None]))


@pytest.mark.parametrize("tau", [F(1, 1000), F(2, 7), F(1, 3), F(3, 4)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 16])
def test_probe_without_zero_directions_equals_probe_with_them(n, tau):
    param = BergerParam.coerce(tau)
    radius = 1.0 / np.sqrt(float(param.one_minus))
    rng = np.random.default_rng([22, n])
    for rows in (1, 5, 64):
        zc, (x, y, v, w) = sampled._draw_horizontal(rng, n, rows, 4, radius)
        probe = sampled._TaiProbe(param, zc, radius)
        # a pair (b, b) is evaluated in its zero direction b - b too
        pairs = ([(x, y), (v, w), (1j * x, 1j * y), (x, x), (v, v.copy())]
                 + [(b, b) for b in probe.real_basis])
        assert probe.sff(pairs).tobytes() == _ref_sff(probe, pairs).tobytes()
        got = probe.sff(pairs[:5], probe.real_basis)
        assert got.shape == (6, rows, n + 1, n + 1)
        assert got.tobytes() == _ref_sff(probe, pairs[:5], probe.real_basis).tobytes()


@pytest.mark.parametrize("n", NS)
def test_tai_reports_equal_those_of_the_probe_with_zero_directions(n, monkeypatch):
    cases = [(tau, samples, seed) for tau in (F(1, 1000), F(2, 7), F(1, 2))
             for samples in (1, 50, 257) for seed in (1, 0x5EED)]
    got = [sampled.tai_checks(tau, n, samples, seed) for tau, samples, seed in cases]
    monkeypatch.setattr(sampled._TaiProbe, "sff", _ref_sff)
    want = [sampled.tai_checks(tau, n, samples, seed) for tau, samples, seed in cases]
    assert [[r.max_error.hex() for r in reports] for reports in got] == \
        [[r.max_error.hex() for r in reports] for reports in want]
    assert got == want


# ---------------------------------------------------------------------------
# verify evaluates each tau pair from one draw
# ---------------------------------------------------------------------------


def _ref_gauss_flatness(tau, samples, seed):
    param = BergerParam.coerce(tau)
    rng = sampled._rng(seed, "gauss-flatness")
    e_exact, f_exact = float((1 + param.tau_sq) / 4), float((param.tau_sq - 1) / 4)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    worst = 0.0
    for count in sampled._chunks(samples, sampled._vector_bytes(1)):
        t, s = rng.uniform(0, 2 * np.pi, size=(count, 2)).T
        zero = np.zeros(count)
        z = np.stack([np.cos(t), np.sin(t), np.cos(s), np.sin(s)], axis=1) * inv_sqrt2
        dt = np.stack([-np.sin(t), np.cos(t), zero, zero], axis=1) * inv_sqrt2
        ds = np.stack([zero, zero, -np.sin(s), np.cos(s)], axis=1) * inv_sqrt2

        def ip(a, b):
            return geometry.berger_inner_rows(param, z, a, b)

        worst = sampled._worst(worst, np.max([
            np.abs(ip(dt, dt) - e_exact), np.abs(ip(ds, ds) - e_exact),
            np.abs(ip(dt, ds) - f_exact)], axis=0))
    return worst


@pytest.mark.parametrize("seed", [1, 0x5EED])
@pytest.mark.parametrize("samples", [1, 22, 43, 257])
def test_verify_tau_pairs_equal_their_one_tau_checks(samples, seed):
    third, half, one = F(1, 3), F(1, 2), F(1)
    one_tau = {
        "killing-flow-isometry": [
            (sampled.killing_check(tau, 2, samples, seed), _ref_killing(tau, 2, samples, seed))
            for tau in (third, one)],
        "geodesic-sphere-isometry": [
            (sampled.geodesic_sphere_isometry_check(tau, 2, samples, seed),
             _ref_geodesic_sphere(tau, 2, samples, seed)) for tau in (third, half)],
        "gauss-flatness": [
            (sampled.gauss_flatness_check(tau, seed=seed), _ref_gauss_flatness(tau, 64, seed))
            for tau in (third, one)],
    }
    reports = sampled.verify_all(samples, seed)
    for name, want in one_tau.items():
        got = [r for r in reports if r.name == name]
        assert got == [report for report, _ in want]
        assert [r.max_error.hex() for r in got] == [ref.hex() for _, ref in want]


# ---------------------------------------------------------------------------
# Each restructured check fails under a named perturbation of what it examines
# ---------------------------------------------------------------------------


def _curvature_reports():
    return [sampled.curvature_symmetry_check(F(2, 7), 2, 64),
            sampled.sectional_consistency_check(F(2, 7), 2, 64),
            sampled.round_degeneration_check(2, 64)]


def _curvature_command_n1():
    """The reports of ``curvature-check --n 1``, read from its JSON output."""
    out = io.StringIO()
    cli.main(["curvature-check", "--tau-sq", "2/7", "--n", "1", "--format", "json"], out)
    return [SimpleNamespace(name=c["name"], passed=c["pass"])
            for c in json.loads(out.getvalue())["checks"]]


def _round_report():
    return [sampled.round_degeneration_check(2, 64)]


def _tai_reports():
    return sampled.tai_checks(F(1, 2), 2, 50)


def _verify_reports():
    return sampled.verify_all(16)


def _swap_pair_order(monkeypatch):
    orders = tuple((2, 3, 1, 0) if order == (2, 3, 0, 1) else order
                   for order in sampled._SYMMETRY_ORDERS)
    monkeypatch.setattr(sampled, "_SYMMETRY_ORDERS", orders)


_KERNEL = (geometry, "curvature_orders_rows")
_PRODUCTS_FORMED = "products -= lam_v[left, None] * v_iz[right]"


def _scale_product(p, q):
    """The kernel with its Berger product <v_p, v_q> scaled by 1.001 where
    its block of products holds it."""
    return _edit(*_KERNEL, _PRODUCTS_FORMED, _PRODUCTS_FORMED + f"; metric[{p}, {q}] *= (1.001 if "
                 f"left.start <= {p} < left.stop and right.start <= {q} < right.stop else 1.0)")

# name -> (perturbation, reports, names of the reports that must all fail)
PERTURBATIONS = {
    "kernel -2 <Jx,y><Jz,w> as -1": (
        _edit(*_KERNEL, "- 2.0 * jx_y * jz_w", "- 1.0 * jx_y * jz_w"), _curvature_reports,
        ["curvature-symmetries", "sectional-consistency"]),
    # <x,z><y,w> of R(v, w, w, v) is <v,w>^2 = 0 on orthonormal pairs, so
    # sectional-consistency passes
    "kernel constant-curvature term with + <x,z><y,w>": (
        _FLIP_CONSTANT_TERM, _curvature_reports,
        ["curvature-symmetries", "round-sphere-degeneration"]),
    # only R(z, x, y, w) reads <x, y>, so the cyclic identity breaks
    "kernel <x,y> alone scaled by 1.001": (
        _scale_product(0, 1),
        _curvature_reports, ["curvature-symmetries"]),
    "kernel <w,w> of R(v, w, w, v) scaled by 1.001": (
        _scale_product(1, 1),
        _curvature_reports, ["sectional-consistency"]),
    "R(z, w, x, y) evaluated as R(z, w, y, x)": (
        _swap_pair_order, _curvature_reports, ["curvature-symmetries"]),
    "sectional order R(v, w, v, w)": (
        _edit(sampled, "sectional_consistency_check", "((0, 1, 1, 0),)", "((0, 1, 0, 1),)"),
        _curvature_reports, ["sectional-consistency"]),
    "closed-form law 2 <x,y><v,w> as 1 <x,y><v,w>": (
        _edit(geometry, "tai_sff_inner_rows", "2.0 * ip(hx, hy)", "1.0 * ip(hx, hy)"),
        _tai_reports, ["tai-sff-law"]),
    "probe skips x - y for every pair": (
        _edit(sampled._TaiProbe, "sff", "+ [x - y for x, y in pairs]", ""),
        _tai_reports, ["tai-sff-law"]),
    "J-rotated pair as (i x, -i y)": (
        _edit(sampled, "_tai_sff_errors", "(1j * x, 1j * y)", "(1j * x, -1j * y)"),
        _tai_reports, ["tai-sff-j-invariance"]),
    "trace without its last basis vector": (
        _edit(sampled, "_tai_sff_errors", "probe.real_basis)", "probe.real_basis[:-1])"),
        _tai_reports, ["tai-minimality"]),
    # the trace's directions b + b polarise the pairs (b, b)
    "trace pairs (b, b) probed as (b, i b)": (
        _edit(sampled._TaiProbe, "sff", "[b + b for b in traced]", "[b + 1j * b for b in traced]"),
        _tai_reports, ["tai-minimality"]),
    "flow differential scaled by 1 + t": (
        _edit(geometry, "killing_flow_differential_rows",
              "return math.cos(th) * v + math.sin(th) * mult_i(v)",
              "return (1.0 + t) * (math.cos(th) * v + math.sin(th) * mult_i(v))"),
        _verify_reports, ["killing-flow-isometry"]),
    "each tau compared with the other tau's Berger metric": (
        _edit(sampled, "_geodesic_sphere_checks", "berger_inner_rows(param, z, u, v)",
              "berger_inner_rows(params[-1 - k], z, u, v)"),
        _verify_reports, ["geodesic-sphere-isometry"]),
}

# Perturbations a check cannot see, with the reason; each check still passes.
BLIND_SPOTS = {
    # every term but the constant-curvature one carries 1 - tau^2 = 0 at tau = 1
    "kernel -2 <Jx,y><Jz,w> as -1": (
        PERTURBATIONS["kernel -2 <Jx,y><Jz,w> as -1"][0], _curvature_reports,
        ["round-sphere-degeneration"]),
    # R and the expected <y,z><x,w> - <x,z><y,w> read the same product
    "kernel <y,z> scaled by 1.001": (
        _scale_product(1, 2),
        _round_report, ["round-sphere-degeneration"]),
    # the flow turns z, v and w by one phase, an isometry of every Berger
    # metric, and the report does not say which tau it ran at
    "each tau's slot evaluated at the other tau": (
        _edit(sampled, "_killing_checks", "enumerate(params)", "enumerate(params[::-1])"),
        _verify_reports, ["killing-flow-isometry"]),
    # at n = 1 the edited tensor keeps every curvature symmetry: an exact
    # evaluation on the 81 basis 4-tuples at z = e_0 finds no violation (24
    # at n = 2), and U(2)-homogeneity and multilinearity carry that to every
    # point and vector; K(e, ie) = 4 - 3 tau^2 would read 3 - 2 tau^2, and
    # the command's sectional-consistency fails
    "kernel -2 <Jx,y><Jz,w> as -1, at n = 1": (
        PERTURBATIONS["kernel -2 <Jx,y><Jz,w> as -1"][0], _curvature_command_n1,
        ["curvature-symmetries"]),
}


def _by_name(reports, names):
    found = [r for r in reports if r.name in names]
    assert {r.name for r in found} == set(names)
    return found


@pytest.mark.parametrize("run", [_curvature_reports, _tai_reports, _verify_reports])
def test_unperturbed_checks_pass(run):
    assert all(r.passed for r in run())


@pytest.mark.parametrize("name", PERTURBATIONS)
def test_perturbation_fails_the_check(name, monkeypatch):
    perturb, run, names = PERTURBATIONS[name]
    perturb(monkeypatch)
    assert not any(r.passed for r in _by_name(run(), names))


@pytest.mark.parametrize("name", BLIND_SPOTS)
def test_recorded_blind_spot_still_passes(name, monkeypatch):
    perturb, run, names = BLIND_SPOTS[name]
    perturb(monkeypatch)
    assert all(r.passed for r in _by_name(run(), names))
