"""Independent verification engines: brute-force algebra and sampling checks.

Everything here recomputes quantities of the closed-form modules by a
different route: harmonic dimension counts by exact kernel ranks, the
squared vertical derivative by exact block diagonalisation, the Clifford
torus index by dual-lattice enumeration, and the differential-geometric
identities by seeded finite-difference sampling.  Where an oracle and a
closed form overlap, agreement is required to be exact, not approximate.

All sampling checks are deterministic: each owns an RNG stream derived
from (seed, check name), so identical seeds give identical reports.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import spectra
from .exactlinalg import fraction_rank, integer_nullity, kernel_basis
from .geometry import (AmbientPoint, BergerParam, GeometryDomainError, ProjectivePoint,
                       TangentVector, berger_inner, berger_orthonormalize,
                       curvature_tensor, fubini_study_inner, geodesic_sphere_embed,
                       killing_field, killing_flow, killing_flow_differential,
                       metric_eval, ricci, sectional_curvature, tai_sff_inner,
                       tai_sphere_center, tai_sphere_radius_sq)
from .models import (CliffordHypersurface, IndexReport, JacobiMode, ModelSubmanifold,
                     TotallyRealSphere, clifford_index_nullity)

DEFAULT_SEED = 0x5EED


@dataclass(frozen=True)
class LatticeSpec:
    """A rank-two lattice in the plane, by two generator rows."""

    generators: tuple[tuple[float, float], tuple[float, float]]
    description: str

    def __post_init__(self):
        (a, b), (c, d) = self.generators
        if abs(a * d - b * c) < 1e-14:
            raise GeometryDomainError("lattice generators must be linearly independent")


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check; passed iff samples >= 1 and max_error <= tolerance."""

    name: str
    max_error: float
    samples: int
    passed: bool
    tolerance: float
    seed: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "samples": self.samples,
            "seed": self.seed,
        }


def _report(name: str, max_error: float, samples: int, tolerance: float,
            seed: Optional[int]) -> CheckReport:
    return CheckReport(name, float(max_error), samples,
                       samples >= 1 and float(max_error) <= tolerance, tolerance, seed)


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(name.encode())])


def _random_point(rng, n: int) -> AmbientPoint:
    v = rng.standard_normal(2 * n + 2)
    return AmbientPoint(v / np.linalg.norm(v))


def _random_tangent(rng, z: AmbientPoint) -> TangentVector:
    u = rng.standard_normal(len(z.coords))
    u -= float(np.dot(u, z.coords)) * z.coords
    return TangentVector(z, u)


# ---------------------------------------------------------------------------
# Exact polynomial oracles
# ---------------------------------------------------------------------------


def _monomials(nvars: int, degree: int):
    """All exponent tuples of the given total degree."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree + 1):
        for rest in _monomials(nvars - 1, degree - first):
            yield (first,) + rest


def harmonic_dim_bruteforce(n: int, a: int, b: int, cap: int = 8) -> int:
    """Dimension of bidegree-(a, b) harmonic polynomials by exact kernel rank.

    Assembles the mixed second derivative sum on the monomial basis
    z^alpha zbar^beta and returns the exact kernel dimension over the
    rationals.  Refuses degrees above the cap (the matrices grow fast).
    """
    if a < 0 or b < 0:
        return 0
    if a + b > cap:
        raise GeometryDomainError(f"bidegree {a}+{b} exceeds the configured cap {cap}")
    alphas = list(_monomials(n + 1, a))
    betas = list(_monomials(n + 1, b))
    cols = [(al, be) for al in alphas for be in betas]
    if a == 0 or b == 0:
        return len(cols)
    tgt_index = {}
    for al in _monomials(n + 1, a - 1):
        for be in _monomials(n + 1, b - 1):
            tgt_index[(al, be)] = len(tgt_index)
    rows = [[0] * len(cols) for _ in range(len(tgt_index))]
    for j, (al, be) in enumerate(cols):
        for v in range(n + 1):
            if al[v] >= 1 and be[v] >= 1:
                al2 = al[:v] + (al[v] - 1,) + al[v + 1:]
                be2 = be[:v] + (be[v] - 1,) + be[v + 1:]
                rows[tgt_index[(al2, be2)]][j] = al[v] * be[v]
    return integer_nullity(rows, len(cols))


def _block_basis(dvec: tuple[int, ...]) -> list[tuple[int, ...]]:
    """x-exponent tuples of one pair-degree block (y-exponents are d_j - a_j)."""
    basis = [()]
    for d in dvec:
        basis = [t + (v,) for t in basis for v in range(d + 1)]
    return basis


def _block_vertical_sq(dvec: tuple[int, ...]):
    """Matrix of the squared rotation derivative on one pair-degree block.

    The block basis is indexed by x-exponents a (0 <= a_j <= d_j), the
    monomial being prod x_j^{a_j} y_j^{d_j - a_j}.  The rotation field
    sends a basis monomial to an integer combination inside the block.
    """
    basis = _block_basis(dvec)
    index = {t: i for i, t in enumerate(basis)}

    def apply_rot(vec):
        out = [0] * len(basis)
        for i, coef in enumerate(vec):
            if coef == 0:
                continue
            t = basis[i]
            for j, dj in enumerate(dvec):
                aj = t[j]
                if aj < dj:  # x_j d/dy_j
                    out[index[t[:j] + (aj + 1,) + t[j + 1:]]] += coef * (dj - aj)
                if aj > 0:  # -y_j d/dx_j
                    out[index[t[:j] + (aj - 1,) + t[j + 1:]]] -= coef * aj
        return out

    mat = []
    for i in range(len(basis)):
        e = [0] * len(basis)
        e[i] = 1
        mat.append(apply_rot(apply_rot(e)))
    # columns of the operator: transpose the image list
    return basis, [[mat[j][i] for j in range(len(basis))] for i in range(len(basis))]


def lxi_squared_spectrum(n: int, tau, k: int, cap: int = 8):
    """Exact spectrum of the squared vertical derivative on degree-k harmonics.

    Splits the degree-k polynomials on R^{2(n+1)} into pair-degree blocks,
    computes the kernel of (rotation^2 + m^2) per block for every integer
    frequency m, restricts the Laplacian to each frequency space and takes
    exact kernel ranks.  Returns [(eigenvalue, multiplicity)] sorted by
    decreasing eigenvalue; eigenvalues are -m^2/tau^2 as exact fractions.
    Raises if the multiplicities fail to add up to the full harmonic count.
    """
    if k > cap:
        raise GeometryDomainError(f"degree {k} exceeds the configured cap {cap}")
    param = BergerParam.coerce(tau)
    npairs = n + 1
    if k == 0:
        return [(Fraction(0), 1)]

    blocks = []
    for dvec in _monomials(npairs, k):
        basis, rot_sq = _block_vertical_sq(dvec)
        blocks.append((dvec, basis, rot_sq))

    tgt_index = {}
    if k >= 2:
        for dvec in _monomials(npairs, k - 2):
            for t in _block_basis(dvec):
                tgt_index[(dvec, t)] = len(tgt_index)

    def laplacian_column(dvec, t, coef):
        """Second-derivative image of one monomial, as {target: coefficient}."""
        out = {}
        for j in range(npairs):
            aj, bj = t[j], dvec[j] - t[j]
            if dvec[j] >= 2:
                d2 = dvec[:j] + (dvec[j] - 2,) + dvec[j + 1:]
                if aj >= 2:
                    key = (d2, t[:j] + (aj - 2,) + t[j + 1:])
                    out[key] = out.get(key, 0) + coef * aj * (aj - 1)
                if bj >= 2:
                    key = (d2, t[:j] + (aj,) + t[j + 1:])
                    out[key] = out.get(key, 0) + coef * bj * (bj - 1)
        return out

    results = []
    total = 0
    for m in range(k % 2, k + 1, 2):
        vectors = []  # (dvec, basis, Fraction coords)
        for dvec, basis, rot_sq in blocks:
            dim = len(basis)
            shifted = [[rot_sq[i][j] + (m * m if i == j else 0) for j in range(dim)]
                       for i in range(dim)]
            for vec in kernel_basis(shifted, dim):
                vectors.append((dvec, basis, vec))
        if not vectors:
            continue
        if k >= 2:
            rows = [[Fraction(0)] * len(vectors) for _ in range(len(tgt_index))]
            for col, (dvec, basis, vec) in enumerate(vectors):
                for t, coef in zip(basis, vec):
                    if coef == 0:
                        continue
                    for key, val in laplacian_column(dvec, t, coef).items():
                        rows[tgt_index[key]][col] += val
            nullity = len(vectors) - fraction_rank(rows, len(vectors))
        else:
            nullity = len(vectors)
        if nullity > 0:
            results.append((Fraction(-m * m) / param.tau_sq, nullity))
            total += nullity

    expected = spectra.round_multiplicity(n, k)
    if total != expected:
        raise AssertionError(
            f"frequency multiplicities sum to {total}, expected {expected}")
    results.sort(key=lambda pair: pair[0], reverse=True)
    return results


# ---------------------------------------------------------------------------
# Flat-torus Fourier oracle
# ---------------------------------------------------------------------------


def clifford_lattice(tau) -> LatticeSpec:
    """Period lattice of the flat Clifford surface in S^3_tau.

    In the flat coordinates of the universal covering
    (t, s) -> (e^{it}, e^{is})/sqrt(2) the lattice is generated by
    pi (tau, 1) and pi (tau, -1).
    """
    param = BergerParam.coerce(tau)
    t = param.tau
    return LatticeSpec(((math.pi * t, math.pi), (math.pi * t, -math.pi)),
                       "flat coordinates of the square-torus universal covering; "
                       "x = tau (t+s)/2, y = (t-s)/2")


def torus_fourier_index(tau, potential=4) -> IndexReport:
    """Index/nullity of (Laplacian + potential) on the flat Clifford surface.

    Works on the dual lattice: the Laplace spectrum is 4 pi^2 |dual point|^2,
    which reduces to the exact rational quadratic form

        Q(a, b) = ((a^2+b^2)(tau^2+1) + 2ab(1-tau^2)) / tau^2

    on integer coordinates.  Q(a, b) >= 2(a^2+b^2), so scanning the box
    a^2+b^2 <= potential/2 is provably complete; the bound is recorded in
    the certificate.
    """
    param = BergerParam.coerce(tau)
    pot = Fraction(potential)
    ts = param.tau_sq

    def q_form(a: int, b: int) -> Fraction:
        return ((a * a + b * b) * (ts + 1) + 2 * a * b * (1 - ts)) / ts

    radius = math.isqrt(max(0, int(pot / 2))) + 1
    buckets: dict[Fraction, list] = {}
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            if a * a + b * b > pot / 2:
                continue
            val = q_form(a, b) - pot
            if val > 0:
                continue
            buckets.setdefault(val, []).append((a, b))
    modes = []
    for val in sorted(buckets):
        pts = sorted(buckets[val])
        modes.append(JacobiMode("dual-lattice", pts[0], val, len(pts)))
    cert = (f"Q(a,b) >= 2(a^2+b^2): every dual point with a^2+b^2 > {pot}/2 "
            f"exceeds the potential; scanned |a|,|b| <= {radius}")
    index = sum(m.multiplicity for m in modes if m.sign < 0)
    nullity = sum(m.multiplicity for m in modes if m.sign == 0)
    return IndexReport(index, nullity, tuple(modes), radius, cert)


# ---------------------------------------------------------------------------
# Sampled differential-geometry checks
# ---------------------------------------------------------------------------


def killing_check(tau, n: int, samples: int = 500, seed: int = DEFAULT_SEED,
                  h: float = 1e-5, tol: float = 1e-6) -> CheckReport:
    """Metric invariance under the vertical flow, by finite differences."""
    param = BergerParam.coerce(tau)
    rng = _rng(seed, "killing")
    worst = 0.0
    for _ in range(samples):
        z = _random_point(rng, n)
        v = _random_tangent(rng, z)
        w = _random_tangent(rng, z)

        def moved(t):
            zt = killing_flow(param, t, z)
            vt = killing_flow_differential(param, t, v)
            wt = killing_flow_differential(param, t, w)
            return metric_eval(param, zt, vt, wt)

        worst = max(worst, abs((moved(h) - moved(-h)) / (2 * h)))
    return _report("killing-flow-isometry", worst, samples, tol, seed)


def curvature_symmetry_check(tau, n: int, samples: int = 500, seed: int = DEFAULT_SEED,
                             tol: float = 1e-10) -> CheckReport:
    """Antisymmetries, pair symmetry and the cyclic identity of the curvature."""
    param = BergerParam.coerce(tau)
    rng = _rng(seed, "curvature-symmetry")
    worst = 0.0
    for _ in range(samples):
        z = _random_point(rng, n)
        x, y, zz, w = (_random_tangent(rng, z) for _ in range(4))
        r = curvature_tensor(param, z, x, y, zz, w)
        worst = max(
            worst,
            abs(r + curvature_tensor(param, z, y, x, zz, w)),
            abs(r + curvature_tensor(param, z, x, y, w, zz)),
            abs(r - curvature_tensor(param, z, zz, w, x, y)),
            abs(r + curvature_tensor(param, z, y, zz, x, w)
                + curvature_tensor(param, z, zz, x, y, w)),
        )
    return _report("curvature-symmetries", worst, samples, tol, seed)


def round_degeneration_check(n: int, samples: int = 500, seed: int = DEFAULT_SEED,
                             tol: float = 1e-12) -> CheckReport:
    """At tau = 1 the curvature is the constant-curvature-one tensor."""
    param = BergerParam(Fraction(1))
    rng = _rng(seed, "round-degeneration")
    worst = 0.0
    for _ in range(samples):
        z = _random_point(rng, n)
        x, y, zz, w = (_random_tangent(rng, z) for _ in range(4))
        expected = (metric_eval(param, z, y, zz) * metric_eval(param, z, x, w)
                    - metric_eval(param, z, x, zz) * metric_eval(param, z, y, w))
        worst = max(worst, abs(curvature_tensor(param, z, x, y, zz, w) - expected))
    return _report("round-sphere-degeneration", worst, samples, tol, seed)


def sectional_consistency_check(tau, n: int, samples: int = 500, seed: int = DEFAULT_SEED,
                                tol: float = 1e-12) -> CheckReport:
    """Sectional curvature equals the curvature tensor on orthonormal pairs."""
    param = BergerParam.coerce(tau)
    rng = _rng(seed, "sectional-consistency")
    worst = 0.0
    done = 0
    while done < samples:
        z = _random_point(rng, n)
        frame = berger_orthonormalize(
            param, z, [_random_tangent(rng, z).comps for _ in range(2)])
        if len(frame) < 2:
            continue
        v = TangentVector(z, frame[0])
        w = TangentVector(z, frame[1])
        k = sectional_curvature(param, z, v, w)
        worst = max(worst, abs(k - curvature_tensor(param, z, v, w, w, v)))
        done += 1
    return _report("sectional-consistency", worst, samples, tol, seed)


def ricci_vertical_check(tau, n: int, samples: int = 500, seed: int = DEFAULT_SEED,
                         tol: float = 1e-12) -> CheckReport:
    """Ricci curvature of the vertical direction equals 2n tau^2."""
    param = BergerParam.coerce(tau)
    rng = _rng(seed, "ricci-vertical")
    expected = 2 * n * float(param.tau_sq)
    worst = 0.0
    for _ in range(samples):
        z = _random_point(rng, n)
        worst = max(worst, abs(ricci(param, z, killing_field(param, z)) - expected))
    return _report("ricci-vertical", worst, samples, tol, seed)


def metric_definiteness_check(tau, n: int, samples: int = 200, seed: int = DEFAULT_SEED) -> CheckReport:
    """Positive definiteness of the metric on random tangent frames.

    Reports the most negative Gram eigenvalue seen; passing means every
    Gram matrix was positive definite (tolerance 0).
    """
    param = BergerParam.coerce(tau)
    rng = _rng(seed, "metric-definiteness")
    worst = -math.inf
    dim = 2 * n + 1
    for _ in range(samples):
        z = _random_point(rng, n)
        vecs = [_random_tangent(rng, z).comps for _ in range(dim)]
        gram = np.array([[berger_inner(param, z.coords, a, b) for b in vecs] for a in vecs])
        worst = max(worst, -float(np.linalg.eigvalsh(gram)[0]))
    return _report("metric-definiteness", worst, samples, 0.0, seed)


def geodesic_sphere_isometry_check(tau, n: int, samples: int = 500, seed: int = DEFAULT_SEED,
                                   h: float = 1e-6, tol: float = 1e-8) -> CheckReport:
    """Pullback of the Fubini-Study metric matches the Berger metric.

    The pushforward is a central finite difference of the homogeneous
    representative curve; the Fubini-Study pairing projects out the scale
    and phase drift.
    """
    param = BergerParam.coerce(tau)
    if param.is_round:
        raise GeometryDomainError("the geodesic-sphere picture needs tau < 1")
    rng = _rng(seed, "geodesic-sphere-isometry")
    first = param.tau / math.sqrt(float(param.one_minus))
    worst = 0.0

    def rep(zc: np.ndarray) -> np.ndarray:
        return np.concatenate(([first + 0j], zc[0::2] + 1j * zc[1::2]))

    for _ in range(samples):
        z = _random_point(rng, n)
        u = _random_tangent(rng, z)
        v = _random_tangent(rng, z)
        p0 = geodesic_sphere_embed(param, z)

        def push(t: TangentVector) -> np.ndarray:
            plus = z.coords + h * t.comps
            minus = z.coords - h * t.comps
            return (rep(plus / np.linalg.norm(plus))
                    - rep(minus / np.linalg.norm(minus))) / (2 * h)

        got = fubini_study_inner(p0, push(u), push(v))
        worst = max(worst, abs(got - metric_eval(param, z, u, v)))
    return _report("geodesic-sphere-isometry", worst, samples, tol, seed)


# ---------------------------------------------------------------------------
# Projector-embedding checks
# ---------------------------------------------------------------------------


def _tai_matrix(param: BergerParam, zc: np.ndarray) -> np.ndarray:
    coef = math.sqrt(float(param.one_minus)) / math.sqrt(2.0)
    return coef * np.outer(zc, zc.conj())


def _hm_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.sum(a * b.conj())))


def _second_derivative(curve, h: float = 2e-3) -> np.ndarray:
    """Richardson-extrapolated second derivative of a matrix-valued curve.

    The base step is larger than the first-derivative default because the
    h^-2 roundoff amplification of plain second differences would not
    reach the 1e-8 tolerances; extrapolation removes the h^2 truncation.
    """
    c0 = curve(0.0)

    def d2(step):
        return (curve(step) - 2.0 * c0 + curve(-step)) / (step * step)

    return (4.0 * d2(h / 2) - d2(h)) / 3.0


def _tai_curve(param: BergerParam, zc: np.ndarray, radius: float, direction: np.ndarray):
    def at(t: float) -> np.ndarray:
        w = zc + t * direction
        w = w * (radius / np.linalg.norm(w))
        return _tai_matrix(param, w)
    return at


def _tai_push(param: BergerParam, zc: np.ndarray, radius: float,
              direction: np.ndarray, h: float = 1e-6) -> np.ndarray:
    c = _tai_curve(param, zc, radius, direction)
    return (c(h) - c(-h)) / (2 * h)


class _TaiProbe:
    """Numeric second fundamental form of the projector embedding at one point."""

    def __init__(self, param: BergerParam, zc: np.ndarray, radius: float):
        self.param = param
        self.zc = zc
        self.radius = radius
        self.base = _tai_matrix(param, zc)
        # real orthonormal horizontal basis {b_1, i b_1, b_2, i b_2, ...}
        nc = len(zc)
        cbasis = []
        for j in range(nc):
            e = np.zeros(nc, dtype=complex)
            e[j] = 1.0
            e -= (np.vdot(zc, e) / radius ** 2) * zc
            for c in cbasis:
                e -= np.vdot(c, e) * c
            nrm = np.linalg.norm(e)
            if nrm > 1e-8:
                cbasis.append(e / nrm)
        self.real_basis = []
        for c in cbasis:
            self.real_basis.append(c)
            self.real_basis.append(1j * c)
        # tangent span of the image, orthonormal in the Frobenius metric
        tangent = []
        for b in self.real_basis:
            t = _tai_push(param, zc, radius, b)
            for s in tangent:
                t = t - _hm_inner(t, s) * s
            t = t / math.sqrt(_hm_inner(t, t))
            tangent.append(t)
        self.tangent = tangent

    def _curve(self, direction: np.ndarray):
        return _tai_curve(self.param, self.zc, self.radius, direction)

    def _normal_part(self, mat: np.ndarray) -> np.ndarray:
        out = mat
        for t in self.tangent:
            out = out - _hm_inner(out, t) * t
        return out

    def sff(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Second fundamental form by polarised second derivatives."""
        plus = self._normal_part(_second_derivative(self._curve(x + y)))
        minus = self._normal_part(_second_derivative(self._curve(x - y)))
        return (plus - minus) / 4.0


def tai_checks(tau, n: int, samples: int = 200, seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """Verification suite for the projector embedding of projective space.

    Returns one report per property: isometry of the pullback metric
    (1e-8), containment in the predicted sphere (1e-10), the closed-form
    law for inner products of second-fundamental-form values (1e-6),
    invariance of that form under the complex structure (1e-8), and
    minimality into the sphere (1e-6).
    """
    param = BergerParam.coerce(tau)
    if param.is_round:
        raise GeometryDomainError("the projector embedding needs tau < 1")
    if n < 1:
        raise GeometryDomainError("the projector embedding needs n >= 1")
    rng = _rng(seed, "tai")
    radius = 1.0 / math.sqrt(float(param.one_minus))
    center = tai_sphere_center(param, n).entries
    r_sq = float(tai_sphere_radius_sq(param, n))

    def random_rep():
        zc = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        return zc * (radius / np.linalg.norm(zc))

    def random_horizontal(zc):
        u = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        u = u - (np.vdot(zc, u) / radius ** 2) * zc
        return u / np.linalg.norm(u)

    err_iso = err_sphere = 0.0
    for _ in range(samples):
        zc = random_rep()
        u = random_horizontal(zc)
        v = random_horizontal(zc)
        got = _hm_inner(_tai_push(param, zc, radius, u), _tai_push(param, zc, radius, v))
        err_iso = max(err_iso, abs(got - float(np.real(np.vdot(v, u)))))
        mat = _tai_matrix(param, zc)
        err_sphere = max(err_sphere, abs(_hm_inner(mat - center, mat - center) - r_sq))

    sff_samples = max(10, samples // 5)
    err_law = err_j = err_min = 0.0
    for _ in range(sff_samples):
        zc = random_rep()
        probe = _TaiProbe(param, zc, radius)
        point = ProjectivePoint(zc, radius)
        x, y, v, w = (random_horizontal(zc) for _ in range(4))
        got = _hm_inner(probe.sff(x, y), probe.sff(v, w))
        err_law = max(err_law, abs(got - tai_sff_inner(param, point, x, y, v, w)))
        err_j = max(err_j, float(np.max(np.abs(probe.sff(1j * x, 1j * y) - probe.sff(x, y)))))
        trace = np.zeros_like(probe.base)
        for b in probe.real_basis:
            trace = trace + probe.sff(b, b)
        residual = trace + (2 * n / r_sq) * (probe.base - center)
        err_min = max(err_min, float(np.max(np.abs(residual))))

    return [
        _report("tai-isometry", err_iso, samples, 1e-8, seed),
        _report("tai-sphere-containment", err_sphere, samples, 1e-10, seed),
        _report("tai-sff-law", err_law, sff_samples, 1e-6, seed),
        _report("tai-sff-j-invariance", err_j, sff_samples, 1e-8, seed),
        _report("tai-minimality", err_min, sff_samples, 1e-6, seed),
    ]


# ---------------------------------------------------------------------------
# Flatness and minimality of the explicit models
# ---------------------------------------------------------------------------


def gauss_flatness_check(tau, samples: int = 64, seed: int = DEFAULT_SEED) -> CheckReport:
    """The Clifford surface in S^3_tau is flat.

    The induced metric in the flat covering coordinates is constant
    ((1+tau^2)/4 on the diagonal, (tau^2-1)/4 off it) and the intrinsic
    curvature -|sff|^2/2 + tau^2 + 4(1-tau^2) nu^2 vanishes for
    |sff|^2 = 2 tau^2 and nu = 0.  Both are checked: the curvature value
    exactly, the metric coefficients against samples of the embedding.
    """
    param = BergerParam.coerce(tau)
    ts = param.tau_sq
    sff_sq = 2 * ts
    gauss = -sff_sq / 2 + ts + 4 * (1 - ts) * Fraction(0)  # nu = 0 on this surface
    worst = abs(float(gauss))
    rng = _rng(seed, "gauss-flatness")
    e_exact = float((1 + ts) / 4)
    f_exact = float((ts - 1) / 4)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for _ in range(samples):
        t, s = rng.uniform(0, 2 * math.pi, size=2)
        z = AmbientPoint(np.array([math.cos(t), math.sin(t), math.cos(s), math.sin(s)]) * inv_sqrt2)
        dt = TangentVector(z, np.array([-math.sin(t), math.cos(t), 0.0, 0.0]) * inv_sqrt2)
        ds = TangentVector(z, np.array([0.0, 0.0, -math.sin(s), math.cos(s)]) * inv_sqrt2)
        worst = max(worst,
                    abs(metric_eval(param, z, dt, dt) - e_exact),
                    abs(metric_eval(param, z, ds, ds) - e_exact),
                    abs(metric_eval(param, z, dt, ds) - f_exact))
    return _report("gauss-flatness", worst, samples, 1e-12, seed)


def _bump_periodic(x: np.ndarray, center: float, kappa: float = 3.0) -> np.ndarray:
    return np.exp(kappa * (np.cos(x - center) - 1.0))


def _berger_inner_rows(ts: float, z: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Vectorised metric over rows of points/vectors."""
    iz = np.empty_like(z)
    iz[:, 0::2] = -z[:, 1::2]
    iz[:, 1::2] = z[:, 0::2]
    return (np.einsum("ij,ij->i", v, w)
            - (1.0 - ts) * np.einsum("ij,ij->i", v, iz) * np.einsum("ij,ij->i", w, iz))


def _normal_rows(ts: float, pts: np.ndarray, a: np.ndarray,
                 tangents) -> tuple[np.ndarray, np.ndarray]:
    """Project the constant vector ``a`` off the radial direction, then off
    each tangent row field in turn (Berger-orthogonally); return the rows and
    their Berger norms."""
    w = a[None, :] - np.einsum("ij,j->i", pts, a)[:, None] * pts
    for tv in tangents:
        coef = (_berger_inner_rows(ts, pts, w, tv)
                / _berger_inner_rows(ts, pts, tv, tv))
        w = w - coef[:, None] * tv
    return w, np.sqrt(_berger_inner_rows(ts, pts, w, w))


def minimality_first_variation_check(model: ModelSubmanifold, tau, samples: int = 3,
                                     seed: int = DEFAULT_SEED) -> CheckReport:
    """First variation of volume under localised normal bumps is zero.

    Supported models: the Clifford surface (m1 = m2 = 0) and the totally
    real spheres with d = 1 or d = 2.  The area/length functional is
    integrated on the parametrised model perturbed by eps * bump * normal,
    and the mean-curvature component is estimated from the symmetric
    difference quotient; the assertion is |estimate| < 1e-4.
    """
    param = BergerParam.coerce(tau)
    ts = float(param.tau_sq)
    rng = _rng(seed, f"minimality-{getattr(model, 'label', lambda: model)()}")
    eps = 1e-4
    tol = 1e-4

    if isinstance(model, CliffordHypersurface) and model.m1 == 0 and model.m2 == 0:
        grid_n = 48
        t = np.arange(grid_n) * (2 * math.pi / grid_n)
        tt, ss = np.meshgrid(t, t, indexing="ij")
        tt, ss = tt.ravel(), ss.ravel()
        inv = 1.0 / math.sqrt(2.0)
        points = np.stack([np.cos(tt), np.sin(tt), np.cos(ss), np.sin(ss)], axis=1) * inv
        normal = np.stack([np.cos(tt), np.sin(tt), -np.cos(ss), -np.sin(ss)], axis=1) * inv
        cell = (2 * math.pi / grid_n) ** 2
        hfd = 1e-5

        def embed(t_arr, s_arr, bump_c, e):
            pts = np.stack([np.cos(t_arr), np.sin(t_arr), np.cos(s_arr), np.sin(s_arr)], axis=1) * inv
            nrm = np.stack([np.cos(t_arr), np.sin(t_arr), -np.cos(s_arr), -np.sin(s_arr)], axis=1) * inv
            b = _bump_periodic(t_arr, bump_c[0]) * _bump_periodic(s_arr, bump_c[1])
            out = pts + e * b[:, None] * nrm
            return out / np.linalg.norm(out, axis=1, keepdims=True)

        def area(bump_c, e):
            du = (embed(tt + hfd, ss, bump_c, e) - embed(tt - hfd, ss, bump_c, e)) / (2 * hfd)
            dv = (embed(tt, ss + hfd, bump_c, e) - embed(tt, ss - hfd, bump_c, e)) / (2 * hfd)
            base = embed(tt, ss, bump_c, e)
            g11 = _berger_inner_rows(ts, base, du, du)
            g12 = _berger_inner_rows(ts, base, du, dv)
            g22 = _berger_inner_rows(ts, base, dv, dv)
            return float(np.sum(np.sqrt(g11 * g22 - g12 * g12))) * cell

        worst = 0.0
        dvol = np.sqrt(np.full(len(tt), (1 + ts) / 4 * (1 + ts) / 4 - ((ts - 1) / 4) ** 2)) * cell
        for _ in range(samples):
            c = rng.uniform(0, 2 * math.pi, size=2)
            b = _bump_periodic(tt, c[0]) * _bump_periodic(ss, c[1])
            weight = float(np.sum(b * dvol))
            delta = (area(c, eps) - area(c, -eps)) / (2 * eps)
            worst = max(worst, abs(delta / (model.dimension * weight)))
        return _report("minimality-clifford", worst, samples, tol, seed)

    if isinstance(model, TotallyRealSphere) and model.d in (1, 2):
        dim = 2 * model.n + 2
        if model.d == 1:
            grid_n = 256
            th = np.arange(grid_n) * (2 * math.pi / grid_n)
            cell = 2 * math.pi / grid_n
            hfd = 1e-5

            def chart(th_arr):
                pts = np.zeros((len(th_arr), dim))
                pts[:, 0] = np.cos(th_arr)
                pts[:, 2] = np.sin(th_arr)
                return pts

            def tangent(th_arr):
                v = np.zeros((len(th_arr), dim))
                v[:, 0] = -np.sin(th_arr)
                v[:, 2] = np.cos(th_arr)
                return v

            worst = 0.0
            for _ in range(samples):
                for _ in range(32):  # redraw if the projected field nearly vanishes
                    a = rng.standard_normal(dim)
                    if _normal_rows(ts, chart(th), a, (tangent(th),))[1].min() > 0.3:
                        break
                c0 = rng.uniform(0, 2 * math.pi)

                def eta(th_arr):
                    w, nrm = _normal_rows(ts, chart(th_arr), a, (tangent(th_arr),))
                    return w / nrm[:, None]

                def embed(th_arr, e):
                    pts = chart(th_arr) + e * _bump_periodic(th_arr, c0)[:, None] * eta(th_arr)
                    return pts / np.linalg.norm(pts, axis=1, keepdims=True)

                def length(e):
                    dv = (embed(th + hfd, e) - embed(th - hfd, e)) / (2 * hfd)
                    return float(np.sum(np.sqrt(
                        _berger_inner_rows(ts, embed(th, e), dv, dv)))) * cell

                weight = float(np.sum(_bump_periodic(th, c0))) * cell
                delta = (length(eps) - length(-eps)) / (2 * eps)
                worst = max(worst, abs(delta / weight))
            return _report("minimality-great-circle", worst, samples, tol, seed)

        # d = 2: compactly supported bump on a coordinate patch
        nodes, weights = np.polynomial.legendre.leggauss(32)
        width = 0.5
        hfd = 1e-5

        def chart(th_arr, ph_arr):
            pts = np.zeros((len(th_arr), dim))
            pts[:, 0] = np.sin(th_arr) * np.cos(ph_arr)
            pts[:, 2] = np.sin(th_arr) * np.sin(ph_arr)
            pts[:, 4] = np.cos(th_arr)
            return pts

        def bump(th_arr, ph_arr, c):
            r_sq = ((th_arr - c[0]) / width) ** 2 + ((ph_arr - c[1]) / width) ** 2
            out = np.zeros_like(th_arr)
            inside = r_sq < 1.0
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - r_sq[inside]))
            return out

        def normal(a, th_arr, ph_arr):
            pts = chart(th_arr, ph_arr)
            t1 = np.zeros_like(pts)
            t1[:, 0] = np.cos(th_arr) * np.cos(ph_arr)
            t1[:, 2] = np.cos(th_arr) * np.sin(ph_arr)
            t1[:, 4] = -np.sin(th_arr)
            t2 = np.zeros_like(pts)
            t2[:, 0] = -np.sin(th_arr) * np.sin(ph_arr)
            t2[:, 2] = np.sin(th_arr) * np.cos(ph_arr)
            return _normal_rows(ts, pts, a, (t1, t2))

        worst = 0.0
        for _ in range(samples):
            c = np.array([rng.uniform(1.0, math.pi - 1.0), rng.uniform(0.8, 2 * math.pi - 0.8)])
            th_n = c[0] + width * nodes
            ph_n = c[1] + width * nodes
            thg, phg = np.meshgrid(th_n, ph_n, indexing="ij")
            thg, phg = thg.ravel(), phg.ravel()
            wgrid = (width * weights)[:, None] * (width * weights)[None, :]
            wgrid = wgrid.ravel()
            for _ in range(32):  # redraw if the projected field nearly vanishes
                a = rng.standard_normal(dim)
                if normal(a, thg, phg)[1].min() > 0.3:
                    break

            def eta(th_arr, ph_arr):
                w, nrm = normal(a, th_arr, ph_arr)
                return w / nrm[:, None]

            def embed(th_arr, ph_arr, e):
                pts = (chart(th_arr, ph_arr)
                       + e * bump(th_arr, ph_arr, c)[:, None] * eta(th_arr, ph_arr))
                return pts / np.linalg.norm(pts, axis=1, keepdims=True)

            def patch_area(e):
                du = (embed(thg + hfd, phg, e) - embed(thg - hfd, phg, e)) / (2 * hfd)
                dv = (embed(thg, phg + hfd, e) - embed(thg, phg - hfd, e)) / (2 * hfd)
                base = embed(thg, phg, e)
                g11 = _berger_inner_rows(ts, base, du, du)
                g12 = _berger_inner_rows(ts, base, du, dv)
                g22 = _berger_inner_rows(ts, base, dv, dv)
                return float(np.sum(np.sqrt(g11 * g22 - g12 * g12) * wgrid))

            weight = float(np.sum(bump(thg, phg, c) * np.sin(thg) * wgrid))
            delta = (patch_area(eps) - patch_area(-eps)) / (2 * eps)
            worst = max(worst, abs(delta / (2 * weight)))
        return _report("minimality-real-sphere", worst, samples, tol, seed)

    raise GeometryDomainError(
        f"no explicit parametrisation wired up for {model!r}")


# ---------------------------------------------------------------------------
# Exact cross-checks and the standard suite
# ---------------------------------------------------------------------------


def lattice_cross_check(seed: int = DEFAULT_SEED) -> CheckReport:
    """Dual-lattice oracle vs the closed-form Clifford index/nullity (n = 1)."""
    worst = 0
    grid = [Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    for ts in grid:
        fourier = torus_fourier_index(ts, 4)
        closed = clifford_index_nullity(0, 0, ts)
        worst = max(worst, abs(fourier.index - closed.index),
                    abs(fourier.nullity - closed.nullity))
    return _report("clifford-lattice-crosscheck", float(worst), len(grid), 0.0, seed)


def vertical_spectrum_cross_check(seed: int = DEFAULT_SEED, n_max: int = 1,
                                  k_max: int = 3) -> CheckReport:
    """Block-diagonalisation oracle vs the closed-form frequency split."""
    ts = Fraction(1, 3)
    worst = 0
    count = 0
    for n in range(0, n_max + 1):
        for k in range(0, k_max + 1):
            got = dict(lxi_squared_spectrum(n, ts, k))
            expected: dict[Fraction, int] = {}
            for p in range(k // 2 + 1):
                mult = spectra.berger_multiplicity(n, k, p)
                if mult:
                    key = Fraction(-((k - 2 * p) ** 2)) / ts
                    expected[key] = expected.get(key, 0) + mult
            keys = set(got) | set(expected)
            worst = max([worst] + [abs(got.get(x, 0) - expected.get(x, 0)) for x in keys])
            count += 1
    return _report("vertical-spectrum-crosscheck", float(worst), count, 0.0, seed)


def bidegree_cross_check(seed: int = DEFAULT_SEED, n_max: int = 2,
                         deg_max: int = 4) -> CheckReport:
    """Brute-force harmonic dimensions vs the closed binomial expression."""
    worst = 0
    count = 0
    for n in range(0, n_max + 1):
        for a in range(deg_max + 1):
            for b in range(deg_max + 1 - a):
                worst = max(worst, abs(harmonic_dim_bruteforce(n, a, b)
                                       - spectra.bidegree_dimension(n, a, b)))
                count += 1
    return _report("bidegree-crosscheck", float(worst), count, 0.0, seed)


def verify_all(samples: int = 200, seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """The standard verification suite used by the command-line front end."""
    third = Fraction(1, 3)
    half = Fraction(1, 2)
    reports = [
        killing_check(third, 2, samples, seed),
        killing_check(Fraction(1), 2, samples, seed),
        curvature_symmetry_check(third, 2, samples, seed),
        round_degeneration_check(2, samples, seed),
        sectional_consistency_check(third, 2, samples, seed),
        ricci_vertical_check(third, 2, samples, seed),
        metric_definiteness_check(third, 2, max(50, samples // 4), seed),
        geodesic_sphere_isometry_check(third, 2, samples, seed),
        geodesic_sphere_isometry_check(half, 2, samples, seed),
        gauss_flatness_check(third, seed=seed),
        gauss_flatness_check(Fraction(1), seed=seed),
        *tai_checks(half, 2, max(50, samples // 4), seed),
        minimality_first_variation_check(CliffordHypersurface(0, 0), third, 2, seed),
        minimality_first_variation_check(CliffordHypersurface(0, 0), Fraction(1), 2, seed),
        minimality_first_variation_check(TotallyRealSphere(2, 1), third, 2, seed),
        minimality_first_variation_check(TotallyRealSphere(2, 2), half, 1, seed),
        lattice_cross_check(seed),
        vertical_spectrum_cross_check(seed),
        bidegree_cross_check(seed),
    ]
    return reports
