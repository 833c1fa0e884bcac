"""Exact verification engines: brute-force algebra over the integers.

Everything here recomputes quantities of the closed-form modules by a
different route: harmonic dimension counts by exact kernel ranks (one
weight block solved per sorted weight, counted once per permutation), the
squared vertical derivative by exact block diagonalisation, and the Clifford
torus index by dual-lattice enumeration.  Where an oracle and a closed form
overlap, agreement is required to be exact, not approximate; the three
cross-checks at the end compare them.

The module loads neither numpy nor the float kernel.  The sampled checks,
which do, are in ``sampled`` and report through the ``CheckReport`` defined
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import spectra
from .exactlinalg import integer_rank, kernel_basis
from .models import IndexReport, JacobiMode, clifford_index_nullity
from .params import BergerParam, GeometryDomainError, _as_fraction

DEFAULT_SEED = 0x5EED

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


def _sorted_weights(n: int, a: int, b: int):
    """One (weight, class size, degree) triple per sorted weight.

    The sorted weights are the nondecreasing w in Z^{n+1} with sum a - b whose
    negative parts w-_j = max(0, -w_j) sum to at most b.  With w+ = w + w-,
    the block of w is the exponent pairs (gamma + w+, gamma + w-) of bidegree
    (a, b), so gamma runs over the monomials of degree b - |w-|, the triple's
    last entry.  The class size (n+1)!/prod mult! counts the distinct
    permutations of w.
    """
    heads = [((), -b, a - b, b)]  # (entries so far, least next entry, sum left, |w-| left)
    for slots in range(n + 1, 1, -1):
        heads = [(w + (v,), v, left - v, budget + min(v, 0))
                 for w, least, left, budget in heads
                 for v in range(max(least, -budget), left // slots + 1)]
    perms = math.factorial(n + 1)
    for w, _, left, budget in heads:
        free = budget + min(left, 0)  # b - |w-|
        if free < 0:
            continue
        w += (left,)
        size = perms
        for x in set(w):
            size //= math.factorial(w.count(x))
        yield w, size, free


def _lowering_maps(nvars: int, top: int) -> list:
    """The lowering maps of degrees 0 to ``top``: per degree d, one list per
    monomial gamma of degree d in ``_monomials`` order, holding (v, gamma_v,
    index of gamma - e_v among the monomials of degree d - 1) for every v
    with gamma_v >= 1."""
    maps = [[[]]]  # the constant monomial lowers to nothing
    index = {(0,) * nvars: 0}
    for degree in range(1, top + 1):
        monomials = _monomials(nvars, degree)
        maps.append([[(v, g, index[gamma[:v] + (g - 1,) + gamma[v + 1:]])
                      for v, g in enumerate(gamma) if g] for gamma in monomials])
        index = {gamma: i for i, gamma in enumerate(monomials)}
    return maps


def _weight_block_rows(w, lowering, nrows: int) -> list[list[int]]:
    """Matrix of the mixed second derivative sum on the block of weight w.

    Column j is the pair (gamma + w+, gamma + w-) of the j-th monomial gamma
    of the degree that ``lowering`` (one degree's list of ``_lowering_maps``)
    lowers, row i the pair of the i-th monomial of one degree less (``nrows``
    of them).  Differentiating in z_v and zbar_v lowers gamma by e_v, with the
    coefficient (gamma_v + w+_v)(gamma_v + w-_v) = gamma_v (gamma_v + |w_v|),
    since w+_v w-_v = 0.
    """
    size = [abs(x) for x in w]
    rows = [[0] * len(lowering) for _ in range(nrows)]
    for j, image in enumerate(lowering):
        for v, g, i in image:
            rows[i][j] = g * (g + size[v])
    return rows


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
    # its class.  A block's entries depend on its weight only through |w_v|:
    # it is assembled from the lowering map of its degree, built once per call.
    lowering = _lowering_maps(n + 1, min(a, b))
    return sum(size * (len(lowering[d]) - integer_rank(
        _weight_block_rows(w, lowering[d], len(lowering[d - 1]) if d else 0)))
               for w, size, d in _sorted_weights(n, a, b))


def _block_basis(dvec: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
    """x-exponent tuples a of one pair-degree block (y-exponents are d_j - a_j),
    as two halves: even sum(a), then odd."""
    basis = [()]
    for d in dvec:
        basis = [t + (v,) for t in basis for v in range(d + 1)]
    return [[t for t in basis if sum(t) % 2 == h] for h in (0, 1)]


def _rotation_block(dvec: tuple[int, ...]):
    """rot and rot^2 on one pair-degree block, split by the parity of sum(a).

    Monomial i of half h is prod x_j^{a_j} y_j^{d_j - a_j} with a =
    halves[h][i] (``_block_basis``).  The rotation field sum_j (x_j d/dy_j -
    y_j d/dx_j) moves one a_j by one, so it maps each half into the other:
    rot[h][i] is the image of monomial i of half h as (index in half 1 - h,
    coefficient) pairs.  Each entry is checked as it is built: one that
    lands in half h raises, since rot^2 would then have an entry between the
    halves.  squares[h], composed from rot, is the matrix of rot^2 on half h.
    Returns (halves, rot, squares).
    """
    halves = _block_basis(dvec)
    index = {t: (h, i) for h, half in enumerate(halves) for i, t in enumerate(half)}
    rot = [[], []]
    for h, half in enumerate(halves):
        for t in half:
            image = []
            for j, dj in enumerate(dvec):
                for step, coef in ((1, dj - t[j]), (-1, -t[j])):  # x_j d/dy_j, -y_j d/dx_j
                    if coef:
                        half_of, i = index[t[:j] + (t[j] + step,) + t[j + 1:]]
                        if half_of == h:
                            raise AssertionError(f"rot^2 mixes the parities on block {dvec}")
                        image.append((i, coef))
            rot[h].append(image)
    squares = []
    for h, images in enumerate(rot):
        square = [[0] * len(images) for _ in images]
        for i, image in enumerate(images):
            for mid, coef in image:
                for r, coef2 in rot[1 - h][mid]:
                    square[r][i] += coef * coef2
        squares.append(square)
    return halves, rot, squares


def _apply(images, vec, size: int) -> list:
    """The sparse map whose i-th column is the (index, coefficient) list
    ``images[i]``, applied to ``vec``; ``size`` is the length of the result."""
    out = [0] * size
    for x, image in zip(vec, images):
        if x:
            for i, coef in image:
                out[i] += x * coef
    return out


def _laplacian_targets(npairs: int, degree: int):
    """Number the monomials of one degree within their Laplacian class.

    Monomial (dvec, a) of ``_block_basis`` form lies in class (dvec mod 2,
    parity of sum(a)).  Returns {(dvec, a): (class, index within the class)}
    and {class: size}.
    """
    index, sizes = {}, {}
    for dvec in _monomials(npairs, degree):
        parity = tuple(d % 2 for d in dvec)
        for h, half in enumerate(_block_basis(dvec)):
            cls = (parity, h)
            base = sizes.get(cls, 0)
            for i, t in enumerate(half, base):
                index[(dvec, t)] = (cls, i)
            sizes[cls] = base + len(half)
    return index, sizes


def _laplacian_images(dvec: tuple[int, ...], basis, cls, targets) -> list:
    """Laplacian images of the monomials prod x_j^{a_j} y_j^{d_j - a_j}, a in
    ``basis``, all of class ``cls``: per monomial, (index within the class,
    coefficient) pairs over the ``targets`` of ``_laplacian_targets``.  An
    entry whose target is filed under another class raises."""
    lowered = [(j, dj, dvec[:j] + (dj - 2,) + dvec[j + 1:])
               for j, dj in enumerate(dvec) if dj >= 2]
    images = []
    for t in basis:
        image = []
        for j, dj, d2 in lowered:
            aj = t[j]
            bj = dj - aj
            # d^2/dx_j^2 lowers a_j by two, d^2/dy_j^2 keeps it
            for a2, coef in ((aj - 2, aj * (aj - 1)), (aj, bj * (bj - 1))):
                if coef:
                    target_cls, i = targets[(d2, t[:j] + (a2,) + t[j + 1:])]
                    if target_cls != cls:
                        raise AssertionError(f"a Laplacian entry of block {dvec} leaves "
                                             f"its class {cls}")
                    image.append((i, coef))
        images.append(image)
    return images


def _class_rows(columns, size: int) -> list[list[int]]:
    """Matrix of one class block of the Laplacian: one row per target of the
    class (``size`` of them), one column per (images, vec) pair of
    ``columns``, the image of the vector whose coordinates on the monomials
    of ``images`` are ``vec``."""
    rows = [[0] * len(columns) for _ in range(size)]
    for col, (images, vec) in enumerate(columns):
        for x, image in zip(vec, images):
            if x:
                for r, coef in image:
                    rows[r][col] += x * coef
    return rows


def lxi_squared_spectrum(n: int, tau, k: int):
    """Exact spectrum of the squared vertical derivative on degree-k harmonics.

    Splits the degree-k polynomials on R^{2(n+1)} into pair-degree blocks,
    computes the kernel of (rotation^2 + m^2) per block for every integer
    frequency m, restricts the Laplacian to each frequency space and takes
    exact kernel ranks, one per Laplacian class.  Returns [(eigenvalue,
    multiplicity)] sorted by decreasing eigenvalue; eigenvalues are
    -m^2/tau^2 as exact fractions.  Raises if the multiplicities fail to add
    up to the full harmonic count.  The exact symmetries that shrink the
    eliminations, and the checks that every call makes of them, are in the
    README ("Exact oracles").
    """
    if n < 0 or k < 0:
        raise GeometryDomainError(f"n and k must be nonnegative, got n={n}, k={k}")
    if k > _CAP:
        raise GeometryDomainError(f"degree {k} exceeds the configured cap {_CAP}")
    param = BergerParam.coerce(tau)
    npairs = n + 1
    if k == 0:
        return [(Fraction(0), 1)]

    # Below degree 2 the Laplacian is zero: every frequency vector is harmonic.
    targets, sizes = _laplacian_targets(npairs, k - 2) if k >= 2 else (None, {})
    # rot is symmetric in the pairs: each sorted dvec's block is built once,
    # and its halves relabelled once to every dvec of its class, where the
    # Laplacian images of their monomials are formed.
    blocks = {}
    relabels = {}  # sorted dvec -> number of dvecs relabelled from it
    classes = {}  # Laplacian class -> (sorted dvec, half, Laplacian images) per member half
    for dvec in _monomials(npairs, k):
        key = tuple(sorted(dvec))
        if key not in blocks:
            blocks[key] = _rotation_block(key)
        relabels[key] = relabels.get(key, 0) + 1
        if targets is None:
            continue
        # key[pos[j]] == dvec[j]: pair j of dvec is pair pos[j] of the sorted block
        order = sorted(range(npairs), key=dvec.__getitem__)
        pos = sorted(range(npairs), key=order.__getitem__)
        parity = tuple(d % 2 for d in dvec)
        for h, half in enumerate(blocks[key][0]):
            cls = (parity, h)
            classes.setdefault(cls, []).append((key, h, _laplacian_images(
                dvec, [tuple(t[p] for p in pos) for t in half], cls, targets)))

    results = []
    total = 0
    for m in range(k % 2, k + 1, 2):
        shift = m * m
        kernels = {}
        for key, (halves, rot, squares) in blocks.items():
            small = int(len(halves[1]) < len(halves[0]))
            kernel = kernels[key] = [[], []]
            for h in (0, 1) if m == 0 else (small,):
                kernel[h] = kernel_basis([row[:i] + [row[i] + shift] + row[i + 1:]
                                          for i, row in enumerate(squares[h])], len(halves[h]))
            if m:
                # rot commutes with rot^2, which is -m^2 on the kernel, so rot maps
                # the kernel of the small half one-to-one onto that of the other.  Each
                # image w = rot(v) is checked: rot(w) = -m^2 v gives (rot^2 + m^2) w =
                # rot(rot(w) + m^2 v) = 0.
                other = 1 - small
                kernel[other] = [_apply(rot[small], v, len(halves[other])) for v in kernel[small]]
                for v, w in zip(kernel[small], kernel[other]):
                    if _apply(rot[other], w, len(v)) != [-shift * x for x in v]:
                        raise AssertionError(f"a rot image on block {key} does not solve "
                                             f"rot^2 + {shift} = 0")
        if targets is None:
            nullity = sum(count * (len(kernels[key][0]) + len(kernels[key][1]))
                          for key, count in relabels.items())
        else:
            # The Laplacian keeps the class of every monomial, so its rank on the
            # frequency space is the sum of the ranks of its class blocks.
            nullity = 0
            for cls, members in classes.items():
                columns = [(images, vec) for key, h, images in members for vec in kernels[key][h]]
                nullity += len(columns) - integer_rank(_class_rows(columns, sizes.get(cls, 0)))
        if nullity > 0:
            results.append((Fraction(-shift) / param.tau_sq, nullity))
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
# Exact cross-checks
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
