"""Independent verification engines: brute-force algebra and sampling checks.

Everything here recomputes quantities of the closed-form modules by a
different route: harmonic dimension counts by exact kernel ranks (one
weight block solved per sorted weight, counted once per permutation), the
squared vertical derivative by exact block diagonalisation, the Clifford
torus index by dual-lattice enumeration, and the differential-geometric
identities by seeded finite-difference sampling.  Where an oracle and a
closed form overlap, agreement is required to be exact, not approximate.

All sampling checks are deterministic: each owns an RNG stream derived
from (seed, check name), so identical seeds give identical reports.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Optional

import numpy as np

from . import geometry, spectra
from .exactlinalg import integer_rank, kernel_basis
from .geometry import (BergerParam, GeometryDomainError, _as_fraction, _berger_grams, _dot,
                       berger_gram_rows, berger_inner_rows, berger_orthonormalize_rows,
                       check_dimension, check_points, check_tangents, curvature_tensor_rows,
                       fubini_study_inner_rows, geodesic_sphere_reps, killing_field_rows,
                       killing_flow_differential_rows, killing_flow_rows, mult_i, ricci_rows,
                       sectional_curvature_rows, tai_embed_rows, tai_sff_inner_rows,
                       tai_sphere_center, tai_sphere_radius_sq)
from .models import (CliffordHypersurface, IndexReport, JacobiMode, ModelSubmanifold,
                     TotallyRealSphere, clifford_index_nullity)

DEFAULT_SEED = 0x5EED

# Rows per batch in the sampled checks.  The projector-embedding probe keeps
# about twenty complex (n+1)x(n+1) matrices per row, several times what the
# real-vector checks keep, so its batches are a quarter as long.
SAMPLE_CHUNK = 256

# Largest n that the command-line curvature and projector checks accept: at
# n = 16 a 256-sample projector batch traces about 35 MiB, and the Ricci
# check's roundoff on 2n tau^2 grows with n (at n = 128 it exceeds 1e-12).
N_LIMIT = 16

# Largest degree the exact kernel-rank oracles accept.
_CAP = 8


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
    """The check's stream for ``seed``, which must lie in [0, 2^32): distinct
    seeds give distinct streams."""
    if not 0 <= seed < 2 ** 32:
        raise GeometryDomainError(f"seed must lie in [0, 2^32), got {seed}")
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


# ---------------------------------------------------------------------------
# Exact polynomial oracles
# ---------------------------------------------------------------------------


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of ``nvars`` variables and the given total degree,
    in lexicographic order."""
    heads = [((), degree)]  # (leading exponents, degree left for the rest)
    for _ in range(nvars - 1):
        heads = [(head + (e,), left - e) for head, left in heads for e in range(left + 1)]
    return [head + (left,) for head, left in heads]


def _sorted_weight_blocks(n: int, a: int, b: int):
    """One weight block per sorted weight: (weight, class size, cols, targets).

    The sorted weights are the nondecreasing w in Z^{n+1} with sum a - b whose
    negative parts w-_j = max(0, -w_j) sum to at most b.  With w+ = w + w-,
    the block of w is the exponent pairs (gamma + w+, gamma + w-) of bidegree
    (a, b), so |gamma| = b - |w-|; its targets are those with |gamma| one
    less.  The class size (n+1)!/prod mult! counts the distinct permutations
    of w.
    """
    heads = [((), -b, a - b, b)]  # (entries so far, least next entry, sum left, |w-| left)
    for slots in range(n + 1, 1, -1):
        heads = [(w + (v,), v, left - v, budget + min(v, 0))
                 for w, least, left, budget in heads
                 for v in range(max(least, -budget), left // slots + 1)]
    # |gamma| = b - |w-| <= b - max(0, b - a) = min(a, b)
    monomials = [_monomials(n + 1, d) for d in range(min(a, b) + 1)]
    for w, _, left, budget in heads:
        free = budget + min(left, 0)  # b - |w-|
        if free < 0:
            continue
        w += (left,)
        pos = [max(x, 0) for x in w]
        neg = [p - x for p, x in zip(pos, w)]
        cols, targets = ([(tuple(map(add, gamma, pos)), tuple(map(add, gamma, neg)))
                          for gamma in monomials[d]] if d >= 0 else []
                         for d in (free, free - 1))
        size = math.factorial(n + 1)
        for x in set(w):
            size //= math.factorial(w.count(x))
        yield w, size, cols, targets


def _weight_block_nullity(n: int, cols: list, targets) -> int:
    """Kernel dimension of the mixed second derivative sum on one weight block.

    ``cols`` are the block's exponent pairs (alpha, beta), ``targets`` those
    of bidegree (a-1, b-1) and the same weight.
    """
    tgt_index = {t: i for i, t in enumerate(targets)}
    rows = [[0] * len(cols) for _ in range(len(tgt_index))]
    for j, (al, be) in enumerate(cols):
        for v in range(n + 1):
            if al[v] >= 1 and be[v] >= 1:
                al2 = al[:v] + (al[v] - 1,) + al[v + 1:]
                be2 = be[:v] + (be[v] - 1,) + be[v + 1:]
                rows[tgt_index[(al2, be2)]][j] = al[v] * be[v]
    return len(cols) - integer_rank(rows)


def harmonic_dim_bruteforce(n: int, a: int, b: int) -> int:
    """Dimension of bidegree-(a, b) harmonic polynomials by exact kernel rank.

    Assembles the mixed second derivative sum on the monomial basis
    z^alpha zbar^beta, one block per sorted weight alpha - beta, and returns
    the exact kernel dimension over the rationals.  Refuses degrees above
    the cap (the matrices grow fast).
    """
    if n < 0:
        raise GeometryDomainError(f"n must be nonnegative, got {n}")
    if a < 0 or b < 0:
        return 0
    if a + b > _CAP:
        raise GeometryDomainError(f"bidegree {a}+{b} exceeds the configured cap {_CAP}")
    if a == 0 or b == 0:  # the operator is zero: every monomial is harmonic
        return len(_monomials(n + 1, a)) * len(_monomials(n + 1, b))
    # The operator lowers alpha and beta at the same index, so it keeps the
    # weight alpha - beta: its matrix is block diagonal by weight.  It is
    # symmetric in the n+1 variables, and permuting them maps the block of a
    # weight onto the block of the permuted weight, so only the sorted weights
    # are enumerated, each block solved once and counted once per weight of
    # its class.
    return sum(size * _weight_block_nullity(n, cols, targets)
               for _, size, cols, targets in _sorted_weight_blocks(n, a, b))


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


def _parity_halves(dvec: tuple[int, ...]):
    """rot^2 of one pair-degree block as two blocks, by the parity of sum(a).

    The rotation field moves one a_j by one, so rot^2 changes sum(a) by 0
    or +-2 and never mixes the parities; raises if an entry would be dropped.
    Returns [(basis, matrix)] for even, then odd sum(a).
    """
    basis, rot_sq = _block_vertical_sq(dvec)
    parity = [sum(t) % 2 for t in basis]
    if any(row[j] and parity[i] != parity[j]
           for i, row in enumerate(rot_sq) for j in range(len(basis))):
        raise AssertionError(f"rot^2 mixes the parities of sum(a) on block {dvec}")
    halves = []
    for half in (0, 1):
        idx = [i for i in range(len(basis)) if parity[i] == half]
        halves.append(([basis[i] for i in idx], [[rot_sq[i][j] for j in idx] for i in idx]))
    return halves


def _frequency_vectors(dvecs, m: int, halves: dict) -> list:
    """Kernel of rot^2 + m^2 on every block of ``dvecs``, as (dvec, basis,
    integer coordinates) triples.

    rot is symmetric in the pairs, so permuting the pairs maps the block of
    a sorted dvec onto the block of each of its permutations.  The kernel is
    solved once per sorted dvec and parity (``halves`` maps each sorted dvec
    to its ``_parity_halves``) and relabelled to every dvec of the class.
    """
    kernels = {}
    vectors = []
    for dvec in dvecs:
        key = tuple(sorted(dvec))
        if key not in kernels:
            kernels[key] = []
            for basis, mat in halves[key]:
                shifted = [[x + m * m if i == j else x for j, x in enumerate(row)]
                           for i, row in enumerate(mat)]
                kernels[key].append(kernel_basis(shifted, len(basis)))
        # key[pos[j]] == dvec[j]: pair j of dvec is pair pos[j] of the sorted block
        order = sorted(range(len(dvec)), key=dvec.__getitem__)
        pos = [0] * len(dvec)
        for i, j in enumerate(order):
            pos[j] = i
        for (basis, _), vecs in zip(halves[key], kernels[key]):
            if vecs:
                relabelled = [tuple(t[p] for p in pos) for t in basis]
                vectors.extend((dvec, relabelled, vec) for vec in vecs)
    return vectors


def lxi_squared_spectrum(n: int, tau, k: int):
    """Exact spectrum of the squared vertical derivative on degree-k harmonics.

    Splits the degree-k polynomials on R^{2(n+1)} into pair-degree blocks,
    computes the kernel of (rotation^2 + m^2) per block for every integer
    frequency m, restricts the Laplacian to each frequency space and takes
    exact kernel ranks.  Returns [(eigenvalue, multiplicity)] sorted by
    decreasing eigenvalue; eigenvalues are -m^2/tau^2 as exact fractions.
    Raises if the multiplicities fail to add up to the full harmonic count.
    """
    if n < 0 or k < 0:
        raise GeometryDomainError(f"n and k must be nonnegative, got n={n}, k={k}")
    if k > _CAP:
        raise GeometryDomainError(f"degree {k} exceeds the configured cap {_CAP}")
    param = BergerParam.coerce(tau)
    npairs = n + 1
    if k == 0:
        return [(Fraction(0), 1)]

    dvecs = list(_monomials(npairs, k))
    halves = {key: _parity_halves(key) for key in {tuple(sorted(dvec)) for dvec in dvecs}}

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
        vectors = _frequency_vectors(dvecs, m, halves)
        if not vectors:
            continue
        rows = [[0] * len(vectors) for _ in range(len(tgt_index))]
        for col, (dvec, basis, vec) in enumerate(vectors):
            for t, coef in zip(basis, vec):
                if coef == 0:
                    continue
                for key, val in laplacian_column(dvec, t, coef).items():
                    rows[tgt_index[key]][col] += val
        nullity = len(vectors) - integer_rank(rows)
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


def torus_fourier_index(tau, potential=4) -> IndexReport:
    """Index/nullity of (Laplacian + potential) on the flat Clifford surface.

    Works on the dual lattice: the Laplace spectrum is 4 pi^2 |dual point|^2,
    which reduces to the exact rational quadratic form

        Q(a, b) = ((a^2+b^2)(tau^2+1) + 2ab(1-tau^2)) / tau^2

    on integer coordinates.  Q(a, b) >= 2(a^2+b^2), so scanning the box
    a^2+b^2 <= potential/2 is provably complete; the bound is recorded in
    the certificate.  With tau^2 = p/q and potential = P/R, Q - potential =
    N/(pR) with N = R((a^2+b^2)(p+q) + 2ab(q-p)) - Pp, decided in integers.
    The potential must be an exact rational, like tau^2: a float or a
    decimal string raises ``GeometryDomainError``.
    """
    param = BergerParam.coerce(tau)
    pot = _as_fraction(potential, "potential", hint="")
    p, q = param.tau_sq.numerator, param.tau_sq.denominator
    big_p, big_r = pot.numerator, pot.denominator

    radius = math.isqrt(max(0, big_p // (2 * big_r))) + 1
    buckets: dict[int, list] = {}
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            norm_sq = a * a + b * b
            if 2 * big_r * norm_sq > big_p:
                continue
            num = big_r * (norm_sq * (p + q) + 2 * a * b * (q - p)) - big_p * p
            if num > 0:
                continue
            buckets.setdefault(num, []).append((a, b))
    modes = [JacobiMode("dual-lattice", min(buckets[num]), Fraction(num, p * big_r),
                        len(buckets[num]))
             for num in sorted(buckets)]
    cert = (f"Q(a,b) >= 2(a^2+b^2): every dual point with a^2+b^2 > {pot}/2 "
            f"exceeds the potential; scanned |a|,|b| <= {radius}")
    index = sum(m.multiplicity for m in modes if m.sign < 0)
    nullity = sum(m.multiplicity for m in modes if m.sign == 0)
    return IndexReport(index, nullity, tuple(modes), radius, cert)


# ---------------------------------------------------------------------------
# Sampled differential-geometry checks
# ---------------------------------------------------------------------------
#
# Each check draws its samples in batches of at most SAMPLE_CHUNK rows and
# evaluates them with the batched kernel of ``geometry``; memory therefore
# does not grow with the sample count.  A batch takes its normals from the
# check's stream in one (rows, slots, dim) block, which is the order in which
# a one-sample-at-a-time loop would draw them, so the samples do not depend
# on the chunk size.  A check that evaluates one kernel on several argument
# sets of a batch (the rearrangements of a curvature identity, the two ends
# of a finite difference) stacks them ``_in_groups`` of at most SAMPLE_CHUNK
# rows per call, so a small batch pays the per-call cost once.


def _chunks(samples: int, divisor: int = 1):
    """Sizes of the consecutive batches of ``SAMPLE_CHUNK // divisor`` rows
    covering ``samples`` draws."""
    size = max(1, SAMPLE_CHUNK // divisor)
    for start in range(0, samples, size):
        yield min(size, samples - start)


def _in_groups(fn, directions: np.ndarray, budget: int) -> np.ndarray:
    """``fn`` of stacked ``directions`` (k, rows, ...), evaluated on
    consecutive groups of directions and stacked again on the leading axis.

    A group holds at most ``budget`` direction-rows, and at least one
    direction, so a small batch shares one call among several directions
    while memory per call stays that of one ``budget``-row batch.  ``fn``
    works on each direction independently, so the grouping does not change
    the values.  A group of one direction is passed unstacked, as a plain
    (rows, ...) batch: operands of equal shape keep numpy's fast path, which
    a leading axis of length one would leave.
    """
    k, rows = directions.shape[:2]
    size = max(1, budget // rows)
    if size >= k:
        return fn(directions)

    def group(start: int) -> np.ndarray:
        if size == 1:
            return fn(directions[start])[None]
        return fn(directions[start:start + size])

    first = group(0)
    out = np.empty((k,) + first.shape[1:], dtype=first.dtype)
    out[:size] = first
    del first  # freed before the next group is evaluated
    for start in range(size, k, size):
        out[start:start + size] = group(start)
    return out


def _stacked(fn, arguments: list[tuple]) -> np.ndarray:
    """``fn(*args)`` for every argument tuple of ``arguments``, stacked on a
    new leading axis.

    Every tuple holds batches of the same rows; ``_in_groups`` decides which
    tuples share one call.  A shared call gets each argument's batches joined
    row-wise; ``fn`` works row by row, so the joining does not change the
    values.  A tuple alone is passed as it is.
    """
    rows = len(arguments[0][0])
    ids = np.broadcast_to(np.arange(len(arguments))[:, None], (len(arguments), rows))

    def group(ids: np.ndarray) -> np.ndarray:
        if ids.ndim == 1:
            return fn(*arguments[ids[0]])
        out = fn(*map(np.concatenate, zip(*(arguments[i] for i in ids[:, 0]))))
        return out.reshape(ids.shape + out.shape[1:])

    return _in_groups(group, ids, SAMPLE_CHUNK)


def _draw(rng, n: int, count: int, tangents: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """``count`` random points of S^{2n+1}, each with ``tangents`` random tangent vectors.

    Per sample: the point's normals, then each tangent vector's, projected
    off the point.  Points and vectors are validated once per batch.
    """
    dim = 2 * n + 2
    check_dimension(dim)
    g = rng.standard_normal((count, 1 + tangents, dim))
    z = check_points(g[:, 0] / np.linalg.norm(g[:, 0], axis=1, keepdims=True))
    vecs = [u - np.einsum("ij,ij->i", u, z)[:, None] * z for u in np.moveaxis(g[:, 1:], 1, 0)]
    check_tangents(z, *vecs)
    return z, vecs


def _worst(worst: float, errors: np.ndarray) -> float:
    return float(np.max(errors, initial=worst))


def killing_check(tau, n: int, samples: int = 500, seed: int = DEFAULT_SEED) -> CheckReport:
    """Metric invariance under the vertical flow, by finite differences."""
    h = 1e-5
    param = BergerParam.coerce(tau)
    rng = _rng(seed, "killing")
    worst = 0.0

    def inner(zt, vt, wt):
        zt = check_points(zt)
        check_tangents(zt, vt, wt)
        return berger_inner_rows(param, zt, vt, wt)

    for count in _chunks(samples):
        z, (v, w) = _draw(rng, n, count, 2)
        ends = _stacked(inner, [(killing_flow_rows(param, t, z),
                                 killing_flow_differential_rows(param, t, v),
                                 killing_flow_differential_rows(param, t, w)) for t in (h, -h)])
        worst = _worst(worst, np.abs((ends[0] - ends[1]) / (2 * h)))
    return _report("killing-flow-isometry", worst, samples, 1e-6, seed)


def curvature_symmetry_check(tau, n: int, samples: int = 500,
                             seed: int = DEFAULT_SEED) -> CheckReport:
    """Antisymmetries, pair symmetry and the cyclic identity of the curvature.

    The reference value R(x, y, z, w) and its five rearrangements are one
    ``_stacked`` evaluation of ``curvature_tensor_rows``: a batch of up to
    SAMPLE_CHUNK // 6 rows takes one kernel call, a full batch six.
    """
    param = BergerParam.coerce(tau)
    rng = _rng(seed, "curvature-symmetry")
    worst = 0.0

    def curv(*args):
        return curvature_tensor_rows(param, *args)

    for count in _chunks(samples):
        z, (x, y, zz, w) = _draw(rng, n, count, 4)
        r = _stacked(curv, [(z, x, y, zz, w), (z, y, x, zz, w), (z, x, y, w, zz),
                            (z, zz, w, x, y), (z, y, zz, x, w), (z, zz, x, y, w)])
        worst = _worst(worst, np.max([
            np.abs(r[0] + r[1]),
            np.abs(r[0] + r[2]),
            np.abs(r[0] - r[3]),
            np.abs(r[0] + r[4] + r[5]),
        ], axis=0))
    return _report("curvature-symmetries", worst, samples, 1e-10, seed)


def round_degeneration_check(n: int, samples: int = 500, seed: int = DEFAULT_SEED) -> CheckReport:
    """At tau = 1 the curvature is the constant-curvature-one tensor."""
    param = BergerParam(Fraction(1))
    rng = _rng(seed, "round-degeneration")
    worst = 0.0

    def ip(*args):
        return berger_inner_rows(param, *args)

    for count in _chunks(samples):
        z, (x, y, zz, w) = _draw(rng, n, count, 4)
        yz, xw, xz, yw = _stacked(ip, [(z, y, zz), (z, x, w), (z, x, zz), (z, y, w)])
        expected = yz * xw - xz * yw
        worst = _worst(worst, np.abs(curvature_tensor_rows(param, z, x, y, zz, w) - expected))
    return _report("round-sphere-degeneration", worst, samples, 1e-12, seed)


def sectional_consistency_check(tau, n: int, samples: int = 500,
                                seed: int = DEFAULT_SEED) -> CheckReport:
    """Sectional curvature equals the curvature tensor on orthonormal pairs.

    A sample whose frame degenerates is dropped and replaced by the next
    draw of the stream.
    """
    param = BergerParam.coerce(tau)
    rng = _rng(seed, "sectional-consistency")
    worst = 0.0
    done = 0
    while done < samples:
        z, (a, b) = _draw(rng, n, min(SAMPLE_CHUNK, samples - done), 2)
        frames, kept = berger_orthonormalize_rows(param, z, np.stack([a, b], axis=1))
        full = kept.all(axis=1)
        z, v, w = z[full], frames[full, 0], frames[full, 1]
        k = sectional_curvature_rows(param, z, v, w)
        worst = _worst(worst, np.abs(k - curvature_tensor_rows(param, z, v, w, w, v)))
        done += int(full.sum())
    return _report("sectional-consistency", worst, samples, 1e-12, seed)


def ricci_vertical_check(tau, n: int, samples: int = 500, seed: int = DEFAULT_SEED) -> CheckReport:
    """Ricci curvature of the vertical direction equals 2n tau^2."""
    param = BergerParam.coerce(tau)
    rng = _rng(seed, "ricci-vertical")
    expected = 2 * n * float(param.tau_sq)
    worst = 0.0
    for count in _chunks(samples):
        z, _ = _draw(rng, n, count, 0)
        xi = killing_field_rows(param, z)
        worst = _worst(worst, np.abs(ricci_rows(param, z, xi) - expected))
    return _report("ricci-vertical", worst, samples, 1e-12, seed)


def metric_definiteness_check(tau, n: int, samples: int = 200, seed: int = DEFAULT_SEED) -> CheckReport:
    """Positive definiteness of the metric on random tangent frames.

    Reports the most negative Gram eigenvalue seen; passing means every
    Gram matrix was positive definite (tolerance 0).
    """
    param = BergerParam.coerce(tau)
    rng = _rng(seed, "metric-definiteness")
    worst = -math.inf
    for count in _chunks(samples):
        z, vecs = _draw(rng, n, count, 2 * n + 1)
        frame = np.stack(vecs, axis=1)
        gram = berger_inner_rows(param, z[:, None, None, :],
                                 frame[:, :, None, :], frame[:, None, :, :])
        worst = _worst(worst, -np.linalg.eigvalsh(gram)[:, 0])
    return _report("metric-definiteness", worst, samples, 0.0, seed)


def geodesic_sphere_isometry_check(tau, n: int, samples: int = 500,
                                   seed: int = DEFAULT_SEED) -> CheckReport:
    """Pullback of the Fubini-Study metric matches the Berger metric.

    The pushforward is a central finite difference of the homogeneous
    representative curve; the Fubini-Study pairing projects out the scale
    and phase drift.
    """
    h = 1e-6
    param = BergerParam.coerce(tau)
    if param.is_round:
        raise GeometryDomainError("the geodesic-sphere picture needs tau < 1")
    rng = _rng(seed, "geodesic-sphere-isometry")
    scale = 1.0 / math.sqrt(float(param.one_minus))
    worst = 0.0

    def rep(zc: np.ndarray) -> np.ndarray:
        return geodesic_sphere_reps(param, zc / np.linalg.norm(zc, axis=1, keepdims=True))

    for count in _chunks(samples):
        z, (u, v) = _draw(rng, n, count, 2)
        p0 = geodesic_sphere_reps(param, z)
        p0 = p0 * (scale / np.linalg.norm(p0, axis=1))[:, None]
        ends = _stacked(rep, [(z + h * u,), (z - h * u,), (z + h * v,), (z - h * v,)])
        got = fubini_study_inner_rows(p0, scale, (ends[0] - ends[1]) / (2 * h),
                                      (ends[2] - ends[3]) / (2 * h))
        worst = _worst(worst, np.abs(got - berger_inner_rows(param, z, u, v)))
    return _report("geodesic-sphere-isometry", worst, samples, 1e-8, seed)


# ---------------------------------------------------------------------------
# Projector-embedding checks
# ---------------------------------------------------------------------------
#
# Complex vectors come in rows of shape (samples, n+1); Hermitian matrices in
# stacks of shape (samples, n+1, n+1).


def _hm_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _hm_dot(a, b.conj())


def _hm_dot(a: np.ndarray, b_conj: np.ndarray) -> np.ndarray:
    """``_hm_inner(a, b)`` given the conjugate of b."""
    return np.real(np.sum(a * b_conj, axis=(-2, -1)))


def _cdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise vdot(a, b)."""
    return np.einsum("ij,ij->i", a.conj(), b)


def _draw_horizontal(rng, n: int, count: int, vectors: int,
                     radius: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """``count`` representatives in C^{n+1} of norm ``radius``, each with
    ``vectors`` unit horizontal vectors.

    Per sample: the representative, then each vector; every complex vector
    draws its real parts, then its imaginary parts.
    """
    g = rng.standard_normal((count, 1 + vectors, 2, n + 1))
    c = g[:, :, 0] + 1j * g[:, :, 1]
    zc = c[:, 0] * (radius / np.linalg.norm(c[:, 0], axis=1))[:, None]
    out = []
    for j in range(1, 1 + vectors):
        u = c[:, j] - (_cdot(zc, c[:, j]) / radius ** 2)[:, None] * zc
        out.append(u / np.linalg.norm(u, axis=1)[:, None])
    return zc, out


def _tai_curve(param: BergerParam, zc: np.ndarray, radius: float, direction: np.ndarray,
               steps) -> np.ndarray:
    """The projector embedding along the rays zc + t direction, renormalised
    to ``radius``, at every step t: shape (len(steps), *direction.shape[:-1],
    n+1, n+1).  ``direction`` is a batch of rows (rows, n+1) or a stack of
    such batches."""
    t = np.asarray(steps, dtype=float).reshape((-1,) + (1,) * direction.ndim)
    w = zc + t * direction
    w = w * (radius / np.linalg.norm(w, axis=-1))[..., None]
    return tai_embed_rows(param, w)


def _tai_push(param: BergerParam, zc: np.ndarray, radius: float,
              direction: np.ndarray, h: float = 1e-6) -> np.ndarray:
    c = _tai_curve(param, zc, radius, direction, (h, -h))
    return (c[0] - c[1]) / (2 * h)


class _TaiProbe:
    """Numeric second fundamental form of the projector embedding at a batch of points.

    Finite-difference directions are stacked on a leading axis and evaluated
    ``_in_groups`` of at most ``SAMPLE_CHUNK // 4`` direction-rows.
    """

    def __init__(self, param: BergerParam, zc: np.ndarray, radius: float):
        self.param = param
        self.zc = zc
        self.radius = radius
        self.base = tai_embed_rows(param, zc)
        # complex orthonormal basis of the horizontal space, in coordinate
        # order; a dependent coordinate vector is left at zero and skipped
        rows, nc = zc.shape
        cbasis = np.zeros((rows, nc, nc), dtype=complex)
        kept = np.zeros((rows, nc), dtype=bool)
        for j in range(nc):
            e = np.zeros((rows, nc), dtype=complex)
            e[:, j] = 1.0
            e = e - (_cdot(zc, e) / radius ** 2)[:, None] * zc
            for i in range(j):
                e = e - _cdot(cbasis[:, i], e)[:, None] * cbasis[:, i]
            nrm = np.linalg.norm(e, axis=1)
            kept[:, j] = nrm > 1e-8
            cbasis[kept[:, j], j] = e[kept[:, j]] / nrm[kept[:, j], None]
        if np.any(kept.sum(axis=1) != nc - 1):
            raise GeometryDomainError("failed to build a full horizontal basis")
        order = np.argsort(~kept, axis=1, kind="stable")[:, :nc - 1]
        cbasis = np.take_along_axis(cbasis, order[:, :, None], axis=1)
        # real orthonormal horizontal basis {b_1, i b_1, b_2, i b_2, ...},
        # stacked (2n, rows, n+1)
        self.real_basis = np.stack([b for i in range(nc - 1)
                                    for b in (cbasis[:, i], 1j * cbasis[:, i])])
        # tangent span of the image, orthonormal in the Frobenius metric
        pushes = _in_groups(lambda d: _tai_push(param, zc, radius, d), self.real_basis,
                            SAMPLE_CHUNK // 4)
        tangent = []
        for t in pushes:
            for s in tangent:
                t = t - _hm_inner(t, s)[:, None, None] * s
            t = t / np.sqrt(_hm_inner(t, t))[:, None, None]
            tangent.append(t)
        self.tangent = tangent
        self.tangent_conj = [t.conj() for t in tangent]
        # every curve through the base point takes this value at 0, whatever
        # its direction
        self.c0 = _tai_curve(param, zc, radius, np.zeros_like(zc), (0.0,))[0]

    def _second_derivative(self, direction: np.ndarray, h: float = 2e-3) -> np.ndarray:
        """Richardson-extrapolated second derivative of the curve in each of
        the stacked ``direction``, all four steps in one ``_tai_curve`` call.

        The base step is larger than the first-derivative default because the
        h^-2 roundoff amplification of plain second differences would not
        reach the 1e-8 tolerances; extrapolation removes the h^2 truncation.
        """
        c = _tai_curve(self.param, self.zc, self.radius, direction, (h / 2, -h / 2, h, -h))

        def d2(plus, minus, step):
            return (plus - 2.0 * self.c0 + minus) / (step * step)

        return (4.0 * d2(c[0], c[1], h / 2) - d2(c[2], c[3], h)) / 3.0

    def _normal_part(self, mat: np.ndarray) -> np.ndarray:
        out = mat
        for t, t_conj in zip(self.tangent, self.tangent_conj):
            out = out - _hm_dot(out, t_conj)[..., None, None] * t
        return out

    def sff(self, pairs) -> np.ndarray:
        """Second fundamental form s(x, y) of every pair (x, y), stacked, by
        polarised second derivatives in the directions x + y and x - y."""
        directions = np.stack([x + y for x, y in pairs] + [x - y for x, y in pairs])
        normal = _in_groups(lambda d: self._normal_part(self._second_derivative(d)),
                            directions, SAMPLE_CHUNK // 4)
        # (plus - minus) / 4 in place, so no further stack is allocated
        s = normal[:len(pairs)]
        s -= normal[len(pairs):]
        s /= 4.0
        return s


def _tai_sff_errors(param: BergerParam, radius: float, center: np.ndarray, r_sq: float,
                    zc: np.ndarray, x, y, v, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row errors of the second-fundamental-form law, its invariance
    under J and minimality into the sphere, at one batch of points.

    A function of its own so that the batch's forms are freed before the
    next batch is drawn.
    """
    probe = _TaiProbe(param, zc, radius)
    s_xy, s_vw, s_ixy, *s_bb = probe.sff([(x, y), (v, w), (1j * x, 1j * y)]
                                         + [(b, b) for b in probe.real_basis])
    law = np.abs(_hm_inner(s_xy, s_vw) - tai_sff_inner_rows(param, zc, radius, x, y, v, w))
    j = np.max(np.abs(s_ixy - s_xy), axis=(1, 2))
    trace = np.zeros_like(probe.base)
    for s in s_bb:
        trace = trace + s
    n = zc.shape[1] - 1
    residual = trace + (2 * n / r_sq) * (probe.base - center)
    return law, j, np.max(np.abs(residual), axis=(1, 2))


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
        raise GeometryDomainError("the projector embedding needs tau^2 < 1")
    if n < 1:
        raise GeometryDomainError("the projector embedding needs n >= 1")
    rng = _rng(seed, "tai")
    radius = 1.0 / math.sqrt(float(param.one_minus))
    center = tai_sphere_center(param, n)
    r_sq = float(tai_sphere_radius_sq(param, n))

    err_iso = err_sphere = 0.0
    for count in _chunks(samples):
        zc, (u, v) = _draw_horizontal(rng, n, count, 2, radius)
        got = _hm_inner(*_in_groups(lambda d: _tai_push(param, zc, radius, d),
                                    np.stack([u, v]), SAMPLE_CHUNK))
        err_iso = _worst(err_iso, np.abs(got - np.real(_cdot(v, u))))
        diff = tai_embed_rows(param, zc) - center
        err_sphere = _worst(err_sphere, np.abs(_hm_inner(diff, diff) - r_sq))

    sff_samples = max(10, samples // 5)
    err_law = err_j = err_min = 0.0
    for count in _chunks(sff_samples, 4):
        zc, vectors = _draw_horizontal(rng, n, count, 4, radius)
        law, j, minimality = _tai_sff_errors(param, radius, center, r_sq, zc, *vectors)
        err_law = _worst(err_law, law)
        err_j = _worst(err_j, j)
        err_min = _worst(err_min, minimality)

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
    ((1+tau^2)/4 on the diagonal, (tau^2-1)/4 off it); the check compares
    those coefficients with samples of the embedding.
    """
    param = BergerParam.coerce(tau)
    ts = param.tau_sq
    worst = 0.0
    rng = _rng(seed, "gauss-flatness")
    e_exact = float((1 + ts) / 4)
    f_exact = float((ts - 1) / 4)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for count in _chunks(samples):
        t, s = rng.uniform(0, 2 * math.pi, size=(count, 2)).T
        zero = np.zeros(count)
        z = check_points(np.stack([np.cos(t), np.sin(t), np.cos(s), np.sin(s)], axis=1) * inv_sqrt2)
        dt = np.stack([-np.sin(t), np.cos(t), zero, zero], axis=1) * inv_sqrt2
        ds = np.stack([zero, zero, -np.sin(s), np.cos(s)], axis=1) * inv_sqrt2
        check_tangents(z, dt, ds)
        g_tt, g_ts, g_ss = berger_gram_rows(param, z, dt, ds)
        worst = _worst(worst, np.max([
            np.abs(g_tt - e_exact), np.abs(g_ss - e_exact), np.abs(g_ts - f_exact),
        ], axis=0))
    return _report("gauss-flatness", worst, samples, 1e-12, seed)


def _bump_periodic(x: np.ndarray, center: float, kappa: float = 3.0) -> np.ndarray:
    return np.exp(kappa * (np.cos(x - center) - 1.0))


def _normal_frame(param: BergerParam, pts: np.ndarray, tangents):
    """The chart's normal field as a function of a constant vector ``a``:
    ``a`` projected off the radial direction, then off each tangent row field
    in turn (Berger-orthogonally), scaled to unit Berger length, and the
    lengths before scaling.  i z and each tangent's g(tv, iz) and squared
    length are formed once per chart."""
    lam, iz = float(param.one_minus), mult_i(pts)
    known = []
    for tv in tangents:
        tv_iz = _dot(tv, iz)
        known.append((tv, tv_iz, geometry._metric(lam, iz, tv, tv, tv_iz, tv_iz)))

    def normal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = a[None, :] - np.einsum("ij,j->i", pts, a)[:, None] * pts
        for tv, tv_iz, tv_sq in known:
            w = w - (geometry._metric(lam, iz, w, tv, None, tv_iz) / tv_sq)[:, None] * tv
        w_iz = _dot(w, iz)
        nrm = np.sqrt(geometry._metric(lam, iz, w, w, w_iz, w_iz))
        return w / nrm[:, None], nrm

    return normal


# A first-variation check evaluates its chart at a few finite-difference
# argument sets (the grid itself, then each parameter moved by +-h).  At each
# set a *frame* holds the chart points, the bump and the unit normal field
# eta; the bumped surface at eps is chart + eps * bump * eta, back on the
# unit sphere.  Frames that depend on neither the sample nor eps are built
# once per check, the rest once per sample, and +eps and -eps share them.
# A two-parameter grid is a mesh flattened in meshgrid "ij" order, built from
# 1-D factors by ``np.repeat`` (first parameter) and ``np.tile`` (second).

_EPS = 1e-4  # bump amplitude
_HFD = 1e-5  # finite-difference step


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Row norms as a column sum of squares, faster than ``np.linalg.norm(x,
    axis=1)`` and equal to it bit for bit below 8 columns, where numpy also
    adds left to right (from 8 on it adds pairwise; the last bit may differ)."""
    sq = x * x
    total = sq[:, 0].copy()
    for j in range(1, x.shape[1]):
        total += sq[:, j]
    return np.sqrt(total)


def _bumped(frame, e: float) -> np.ndarray:
    """chart + e * bump * eta at one frame, back on the unit sphere; in place,
    so that a call holds one array of the frame's size."""
    pts, bump, eta = frame
    out = e * bump[:, None] * eta
    out += pts
    out /= _row_norms(out)[:, None]
    return out


def _central(plus, minus, e: float) -> np.ndarray:
    """Central difference of the bumped surface between two frames."""
    out = _bumped(plus, e)
    out -= _bumped(minus, e)
    out /= 2 * _HFD
    return out


def _bumped_patch(frames, e: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bumped surface at eps = e and its two coordinate derivatives, on
    frames (grid, t + h, t - h, s + h, s - h); free of tau."""
    base, t_plus, t_minus, s_plus, s_minus = frames
    return _bumped(base, e), _central(t_plus, t_minus, e), _central(s_plus, s_minus, e)


def _area_densities(params: list[BergerParam], patch) -> list[np.ndarray]:
    """sqrt(det g) on a ``_bumped_patch`` at each of ``params``; the products
    free of tau are formed once."""
    return [np.sqrt(g11 * g22 - g12 * g12) for g11, g12, g22 in _berger_grams(params, *patch)]


def _draw_normal(rng, normal, dim: int):
    """A random constant vector ``a`` and its unit ``normal`` field (a
    ``_normal_frame``) on the chart; redrawn if the field nearly vanishes."""
    for _ in range(32):
        a = rng.standard_normal(dim)
        eta, nrm = normal(a)
        if nrm.min() > 0.3:
            break
    return a, eta


@functools.cache
def _gauss_legendre_32() -> tuple[np.ndarray, np.ndarray]:
    """The 32-point Gauss-Legendre rule on [-1, 1], read-only, computed on
    first use (importing ``numpy.polynomial`` costs memory)."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _clifford_variations(params: list[BergerParam], samples: int, rng) -> list[float]:
    """Worst first-variation ratio of the Clifford surface at each of
    ``params``, from one draw: only the metric depends on tau."""
    grid_n = 48
    cell = (2 * math.pi / grid_n) ** 2
    t = np.arange(grid_n) * (2 * math.pi / grid_n)
    steps = (t, t + _HFD, t - _HFD)
    sets = ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2))  # grid, t +- h, s +- h
    inv = 1.0 / math.sqrt(2.0)
    trig = [(np.cos(x) * inv, np.sin(x) * inv) for x in steps]
    charts = [np.stack([np.repeat(trig[i][0], grid_n), np.repeat(trig[i][1], grid_n),
                        np.tile(trig[j][0], grid_n), np.tile(trig[j][1], grid_n)], axis=1)
              for i, j in sets]
    # the unit normal is the chart with its second complex coordinate negated
    normals = [pts * np.array([1.0, 1.0, -1.0, -1.0]) for pts in charts]
    # the induced metric is constant, and so is its volume element
    dvols = [math.sqrt((1 + ts) / 4 * (1 + ts) / 4 - ((ts - 1) / 4) ** 2) * cell
             for ts in (float(param.tau_sq) for param in params)]

    def areas(frames, e):  # holds one bumped surface at a time
        return [float(np.sum(density)) * cell
                for density in _area_densities(params, _bumped_patch(frames, e))]

    worst = [0.0] * len(params)
    for _ in range(samples):
        first, second = ([_bump_periodic(x, c) for x in steps]
                         for c in rng.uniform(0, 2 * math.pi, size=2))
        bumps = [np.repeat(first[i], grid_n) * np.tile(second[j], grid_n) for i, j in sets]
        frames = list(zip(charts, bumps, normals))
        plus, minus = areas(frames, _EPS), areas(frames, -_EPS)
        for k, dvol in enumerate(dvols):
            weight = float(np.sum(bumps[0] * dvol))
            worst[k] = _worst(worst[k], abs((plus[k] - minus[k]) / (2 * _EPS) / (2 * weight)))
    return worst


def _great_circle_variation(param: BergerParam, n: int, samples: int, rng) -> float:
    """Worst first-variation ratio of the great circle in S^{2n+1}."""
    grid_n = 256
    cell = 2 * math.pi / grid_n
    th = np.arange(grid_n) * cell
    args = [th, th + _HFD, th - _HFD]
    charts, normals = [], []
    for arg in args:
        pts = np.zeros((grid_n, 2 * n + 2))
        tv = np.zeros_like(pts)
        pts[:, 0] = tv[:, 2] = np.cos(arg)
        pts[:, 2] = np.sin(arg)
        tv[:, 0] = -pts[:, 2]
        charts.append(pts)
        normals.append(_normal_frame(param, pts, (tv,)))

    def length(frames, e):
        dv = _central(frames[1], frames[2], e)
        return float(np.sum(np.sqrt(
            berger_inner_rows(param, _bumped(frames[0], e), dv, dv)))) * cell

    worst = 0.0
    for _ in range(samples):
        a, eta = _draw_normal(rng, normals[0], 2 * n + 2)
        c0 = rng.uniform(0, 2 * math.pi)
        etas = [eta] + [normal(a)[0] for normal in normals[1:]]
        bumps = [_bump_periodic(arg, c0) for arg in args]
        frames = list(zip(charts, bumps, etas))
        weight = float(np.sum(bumps[0])) * cell
        delta = (length(frames, _EPS) - length(frames, -_EPS)) / (2 * _EPS)
        worst = _worst(worst, abs(delta / weight))
    return worst


def _real_sphere_variation(param: BergerParam, n: int, samples: int, rng) -> float:
    """Worst first-variation ratio of the totally real 2-sphere in S^{2n+1},
    under a compactly supported bump on a Gauss-Legendre coordinate patch."""
    nodes, weights = _gauss_legendre_32()
    grid_n = len(nodes)
    width = 0.5

    def patch(th, ph):
        """Chart points and coordinate tangent fields on the mesh of th, ph."""
        sin_th, cos_th = np.repeat(np.sin(th), grid_n), np.repeat(np.cos(th), grid_n)
        sin_ph, cos_ph = np.tile(np.sin(ph), grid_n), np.tile(np.cos(ph), grid_n)
        pts = np.zeros((grid_n * grid_n, 2 * n + 2))
        t1, t2 = np.zeros_like(pts), np.zeros_like(pts)
        pts[:, 0] = sin_th * cos_ph
        pts[:, 2] = sin_th * sin_ph
        pts[:, 4] = cos_th
        t1[:, 0] = cos_th * cos_ph
        t1[:, 2] = cos_th * sin_ph
        t1[:, 4] = -sin_th
        t2[:, 0] = -sin_th * sin_ph
        t2[:, 2] = sin_th * cos_ph
        return pts, (t1, t2)

    def bump(th, ph, c):
        r_sq = np.repeat(((th - c[0]) / width) ** 2, grid_n)
        r_sq += np.tile(((ph - c[1]) / width) ** 2, grid_n)
        out = np.zeros_like(r_sq)
        inside = r_sq < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r_sq[inside]))
        return out

    wgrid = np.repeat(width * weights, grid_n) * np.tile(width * weights, grid_n)

    def patch_area(frames, e):
        return float(np.sum(_area_densities((param,), _bumped_patch(frames, e))[0] * wgrid))

    worst = 0.0
    for _ in range(samples):
        c = np.array([rng.uniform(1.0, math.pi - 1.0), rng.uniform(0.8, 2 * math.pi - 0.8)])
        th_n = c[0] + width * nodes
        ph_n = c[1] + width * nodes
        pts, tangents = patch(th_n, ph_n)
        a, eta = _draw_normal(rng, _normal_frame(param, pts, tangents), 2 * n + 2)
        frames = [(pts, bump(th_n, ph_n, c), eta)]
        for th, ph in [(th_n + _HFD, ph_n), (th_n - _HFD, ph_n),
                       (th_n, ph_n + _HFD), (th_n, ph_n - _HFD)]:
            pts, tangents = patch(th, ph)
            frames.append((pts, bump(th, ph, c), _normal_frame(param, pts, tangents)(a)[0]))
        weight = float(np.sum(frames[0][1] * np.repeat(np.sin(th_n), grid_n) * wgrid))
        delta = (patch_area(frames, _EPS) - patch_area(frames, -_EPS)) / (2 * _EPS)
        worst = _worst(worst, abs(delta / (2 * weight)))
    return worst


def _clifford_minimality_checks(taus, samples: int, seed: int) -> list[CheckReport]:
    """``minimality_first_variation_check`` of the Clifford surface at each of
    ``taus``.  Every tau draws the same samples, and the surface's normal
    field is free of tau, so its bumped surfaces are built once per draw."""
    params = [BergerParam.coerce(tau) for tau in taus]
    stream = f"minimality-{CliffordHypersurface(0, 0).label()}"
    worst = _clifford_variations(params, samples, _rng(seed, stream))
    return [_report("minimality-clifford", w, samples, 1e-4, seed) for w in worst]


def minimality_first_variation_check(model: ModelSubmanifold, tau, samples: int = 3,
                                     seed: int = DEFAULT_SEED) -> CheckReport:
    """First variation of volume under localised normal bumps is zero.

    Supported models: the Clifford surface (m1 = m2 = 0) and the totally
    real spheres with d = 1 or d = 2.  The area/length functional is
    integrated on the parametrised model perturbed by eps * bump * normal,
    and the mean-curvature component is estimated from the symmetric
    difference quotient; the assertion is |estimate| < 1e-4, and a NaN
    estimate fails.  The random stream is named by the model, so every tau
    draws the same samples.
    """
    param = BergerParam.coerce(tau)
    if isinstance(model, CliffordHypersurface) and model.m1 == 0 and model.m2 == 0:
        return _clifford_minimality_checks((param,), samples, seed)[0]
    if isinstance(model, TotallyRealSphere) and model.d in (1, 2):
        name, vary = (("minimality-great-circle", _great_circle_variation) if model.d == 1
                      else ("minimality-real-sphere", _real_sphere_variation))
        rng = _rng(seed, f"minimality-{getattr(model, 'label', lambda: model)()}")
        return _report(name, vary(param, model.n, samples, rng), samples, 1e-4, seed)
    raise GeometryDomainError(f"no explicit parametrisation wired up for {model!r}")


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


def vertical_spectrum_cross_check(seed: int = DEFAULT_SEED) -> CheckReport:
    """Block-diagonalisation oracle vs the closed-form frequency split, for
    n <= 1 and k <= 3."""
    ts = Fraction(1, 3)
    worst = 0
    count = 0
    for n in range(2):
        for k in range(4):
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


def bidegree_cross_check(seed: int = DEFAULT_SEED) -> CheckReport:
    """Brute-force harmonic dimensions vs the closed binomial expression, for
    n <= 2 and a + b <= 4."""
    worst = 0
    count = 0
    for n in range(3):
        for a in range(5):
            for b in range(5 - a):
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
        *_clifford_minimality_checks((third, Fraction(1)), 2, seed),
        minimality_first_variation_check(TotallyRealSphere(2, 1), third, 2, seed),
        minimality_first_variation_check(TotallyRealSphere(2, 2), half, 1, seed),
        lattice_cross_check(seed),
        vertical_spectrum_cross_check(seed),
        bidegree_cross_check(seed),
    ]
    return reports
