"""Stability classification predicates, the proof polynomial and moduli data.

Verdicts are exact: every threshold is a rational number in tau^2 and the
comparisons are done on Fractions.  Each verdict carries the tag of the
criterion that produced it, so downstream tables stay auditable, and
``Undetermined`` is an honest output for parameter regions that no
implemented criterion covers.

Criterion tags used throughout:

* ``stability-window``       - circle bundles over complex submanifolds are
                               stable for tau^2 <= 1/(s(2m+2)).
* ``dimension-obstruction``  - no stable compact minimal d-submanifold
                               exists for 1/(d+1) < tau^2 <= 1; at equality
                               the stable ones are exactly the odd-dimensional
                               circle bundles.
* ``mode-enumeration``       - decided by the exact Jacobi mode tables.
* ``index-one-surfaces``     - the classification of index-one surfaces in
                               the three-sphere for tau^2 >= 1/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from . import models
from .geometry import BergerParam, GeometryDomainError
from .models import JacobiMode


class Verdict(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    BOUNDARY = "boundary"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: Verdict
    reason: str
    theorem: str
    witness: Optional[Union[JacobiMode, str]] = None


@dataclass(frozen=True)
class ModuliVector:
    """Conformal class of a flat torus: lattice {(1,0), (x,y)} with y > 0."""

    x: float
    y: float
    tau_sq: Fraction

    def __post_init__(self):
        if self.y <= 0:
            raise GeometryDomainError("moduli vector needs y > 0")
        if abs(self.x) > 0.5 + 1e-12 or self.x * self.x + self.y * self.y < 1 - 1e-12:
            raise GeometryDomainError("moduli vector must lie in the fundamental domain")


def s1_bundle_stability(m: int, s: int, tau) -> StabilityVerdict:
    """Stability of a circle bundle of order s over a complex 2m-fold.

    Stable for tau^2 <= 1/(s(2m+2)); unstable above 1/(2m+2) by the
    dimension obstruction (d = 2m+1); in between the window criterion is
    silent. At tau^2 = 1/(2m+2) with s >= 2 the status is a boundary case
    left open here.
    """
    if m < 0 or s < 1:
        raise GeometryDomainError("need m >= 0 and s >= 1")
    param = BergerParam.coerce(tau)
    window = Fraction(1, s * (2 * m + 2))
    threshold = Fraction(1, 2 * m + 2)
    if param.tau_sq <= window:
        return StabilityVerdict(Verdict.STABLE,
                                f"tau^2 <= 1/(s(2m+2)) = {window}", "stability-window")
    if param.tau_sq > threshold:
        return StabilityVerdict(Verdict.UNSTABLE,
                                f"tau^2 > 1/(d+1) = {threshold} with d = {2*m+1}",
                                "dimension-obstruction")
    if param.tau_sq == threshold:
        return StabilityVerdict(Verdict.BOUNDARY,
                                "tau^2 = 1/(2m+2) with covering order s >= 2; "
                                "not decided by the implemented criteria",
                                "dimension-obstruction")
    return StabilityVerdict(Verdict.UNDETERMINED,
                            f"window bound {window} < tau^2 < {threshold}; "
                            "resolve by mode enumeration of a concrete model",
                            "stability-window")


def dimension_instability(d: int, tau) -> StabilityVerdict:
    """Dimension obstruction for compact minimal d-submanifolds."""
    if d < 1:
        raise GeometryDomainError("need d >= 1")
    param = BergerParam.coerce(tau)
    threshold = Fraction(1, d + 1)
    if param.tau_sq > threshold:
        return StabilityVerdict(Verdict.UNSTABLE,
                                f"no stable compact minimal {d}-submanifold for "
                                f"tau^2 > 1/(d+1) = {threshold}",
                                "dimension-obstruction")
    if param.tau_sq == threshold:
        if d % 2 == 0:
            reason = ("tau^2 = 1/(d+1); stable embedded submanifolds would be "
                      "odd-dimensional circle bundles, impossible for even d")
        else:
            reason = ("tau^2 = 1/(d+1); embedded stable submanifolds are exactly "
                      "the circle bundles over complex submanifolds")
        return StabilityVerdict(Verdict.BOUNDARY, reason, "dimension-obstruction")
    return StabilityVerdict(Verdict.UNDETERMINED,
                            f"tau^2 < 1/(d+1) = {threshold}: outside the obstruction range",
                            "dimension-obstruction")


def proof_polynomial_coefficients(d: int, q: int, tau) -> tuple[Fraction, Fraction, Fraction]:
    """Exact coefficients (A, B, C) of the test-section polynomial A x^2 + B x + C."""
    if d < 1 or q < 1:
        raise GeometryDomainError("need d >= 1 and q >= 1")
    param = BergerParam.coerce(tau)
    ts = param.tau_sq
    a = (1 - ts) ** 2 / ts
    b = -(1 - ts) / ts * (1 + q + ts * (d - 1))
    c = -q * (d + 1 - 1 / ts)
    return a, b, c


def proof_polynomial_P(d: int, q: int, tau, x):
    """The quadratic controlling the summed second variation of test sections.

    P(x) = ((1-tau^2)^2/tau^2) x^2 - ((1-tau^2)/tau^2)(1+q+tau^2(d-1)) x
           - q(d+1-1/tau^2),  exact when x is rational.
    """
    a, b, c = proof_polynomial_coefficients(d, q, tau)
    if isinstance(x, (Fraction, int)):
        if not (0 <= x <= 1):
            raise GeometryDomainError("x must lie in [0, 1]")
        return a * Fraction(x) ** 2 + b * Fraction(x) + c
    if not (0.0 <= x <= 1.0):
        raise GeometryDomainError("x must lie in [0, 1]")
    return float(a) * x * x + float(b) * x + float(c)


def proof_polynomial_max_sign(d: int, q: int, tau, grid: int = 1000) -> int:
    """Exact sign of max_{x in grid of [0,1]} P(x), by integer arithmetic.

    The grid is x = j/(grid-1).  Scaling by the common denominator turns
    every evaluation into an integer, so the returned sign is exact.
    """
    a, b, c = proof_polynomial_coefficients(d, q, tau)
    den = grid - 1
    common = math.lcm(a.denominator, b.denominator, c.denominator)
    ai = a.numerator * (common // a.denominator)
    bi = b.numerator * (common // b.denominator)
    ci = c.numerator * (common // c.denominator)
    best = None
    for j in range(grid):
        val = ai * j * j + bi * j * den + ci * den * den
        if best is None or val > best:
            best = val
    return (best > 0) - (best < 0)


def hypersurface_first_eigenvalue_bound(n: int, tau) -> Fraction:
    """Upper bound -2n tau^2 for the first Jacobi eigenvalue of a hypersurface."""
    if n < 1:
        raise GeometryDomainError("need n >= 1")
    return -2 * n * BergerParam.coerce(tau).tau_sq


def index_lower_bound(n: int, d: int, tau, xi_case: str,
                      is_hypersurface: bool = False,
                      is_tg_berger_sphere: bool = False) -> int:
    """Index lower bounds from the distinguished test-section eigenvalue.

    ``xi_case`` is "tangent" (the Killing field is tangent) or "normal".
    With a tangent Killing field and 1/(d+1) < tau^2 <= 1: hypersurfaces
    have index >= 2n+3, the totally geodesic odd-dimensional sphere
    attains 2n+1-d, and everything else has index >= 2(n+1).  A normal
    Killing field forces index >= 2(n+1) for every tau.
    """
    if xi_case not in ("tangent", "normal"):
        raise GeometryDomainError("xi_case must be 'tangent' or 'normal'")
    if xi_case == "normal":
        if is_hypersurface or is_tg_berger_sphere:
            raise GeometryDomainError(
                "a normal Killing field is incompatible with those flags")
        return 2 * (n + 1)
    param = BergerParam.coerce(tau)
    if is_hypersurface and is_tg_berger_sphere:
        raise GeometryDomainError("flags are mutually exclusive")
    if param.tau_sq <= Fraction(1, d + 1):
        raise GeometryDomainError(
            "the tangent-case bounds need 1/(d+1) < tau^2 <= 1")
    if is_hypersurface:
        return 2 * n + 3
    if is_tg_berger_sphere:
        return 2 * n + 1 - d
    return 2 * (n + 1)


# ---------------------------------------------------------------------------
# Conformal moduli of the flat Clifford surfaces
# ---------------------------------------------------------------------------


def clifford_moduli_vector(tau) -> ModuliVector:
    """Conformal class of the flat Clifford surface in S^3_tau.

    ((1-tau^2)/(1+tau^2), 2 tau/(1+tau^2)) for tau^2 >= 1/3 (on the unit
    circle), (1/2, 1/(2 tau)) for tau^2 <= 1/3 (on the vertical edge);
    both branches agree at tau^2 = 1/3, the equilateral lattice.
    """
    param = BergerParam.coerce(tau)
    ts = param.tau_sq
    if ts >= Fraction(1, 3):
        return ModuliVector(float((1 - ts) / (1 + ts)),
                            2 * param.tau / float(1 + ts), ts)
    return ModuliVector(0.5, 1.0 / (2 * param.tau), ts)


def moduli_curve(samples: int, tau_sq_min=Fraction(1, 3), tau_sq_max=Fraction(1)) -> list[ModuliVector]:
    """Moduli vectors on a uniform rational tau^2 grid, decreasing from the top.

    The default grid runs from tau^2 = 1 (the square lattice, point (0,1))
    down to tau^2 = 1/3 (the equilateral lattice, point (1/2, sqrt(3)/2)).
    """
    if samples < 2:
        raise GeometryDomainError("need at least two samples")
    lo, hi = Fraction(tau_sq_min), Fraction(tau_sq_max)
    if not (0 < lo < hi <= 1):
        raise GeometryDomainError("need 0 < tau_sq_min < tau_sq_max <= 1")
    step = (hi - lo) / (samples - 1)
    return [clifford_moduli_vector(hi - j * step) for j in range(samples)]


# ---------------------------------------------------------------------------
# Phase-diagram rows
# ---------------------------------------------------------------------------


PHASE_HEADER = ("model", "d", "tau_sq_num", "tau_sq_den", "index", "nullity",
                "verdict", "theorem")


def phase_verdict(model, tau, report) -> StabilityVerdict:
    """Verdict for one phase row, tagging the criterion that decided it."""
    if model.bundle is not None:
        verdict = s1_bundle_stability(*model.bundle, tau)
        if verdict.verdict in (Verdict.STABLE, Verdict.UNSTABLE):
            return verdict
    else:
        verdict = dimension_instability(model.dimension, tau)
        if verdict.verdict is Verdict.UNSTABLE:
            return verdict
    word = Verdict.STABLE if report.index == 0 else Verdict.UNSTABLE
    return StabilityVerdict(word, "decided by exact mode enumeration", "mode-enumeration")


def phase_rows(model_list, tau_sq_grid) -> list[tuple]:
    """Phase-diagram rows (see PHASE_HEADER), sorted by (model, tau^2)."""
    rows = []
    for model in model_list:
        label = model.label()
        for ts in tau_sq_grid:
            param = BergerParam.coerce(ts)
            report = models.enumerate_index(model, param)
            verdict = phase_verdict(model, param, report)
            rows.append((label, model.dimension, param.tau_sq.numerator,
                         param.tau_sq.denominator, report.index, report.nullity,
                         verdict.verdict.value, verdict.theorem))
    rows.sort(key=lambda r: (r[0], Fraction(r[2], r[3])))
    return rows


# ---------------------------------------------------------------------------
# Index-one surfaces in the three-sphere
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimalSphere:
    def label(self) -> str:
        return "minimal-sphere"


@dataclass(frozen=True)
class CliffordTorus:
    def label(self) -> str:
        return "clifford-torus"


@dataclass(frozen=True)
class OtherSurface:
    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise GeometryDomainError("genus must be nonnegative")

    def label(self) -> str:
        return f"other(genus={self.genus})"


SurfaceKind = Union[MinimalSphere, CliffordTorus, OtherSurface]


@dataclass(frozen=True)
class SurfaceIndexVerdict:
    index_one: bool
    index_lower_bound: int
    reason: str
    theorem: str


def genus_index_bound(g: int) -> Fraction:
    """Index lower bound g/4 for genus-g minimal surfaces in the three-sphere."""
    if g < 0:
        raise GeometryDomainError("genus must be nonnegative")
    return Fraction(g, 4)


def surface_index_one_classification(tau, surface: SurfaceKind) -> SurfaceIndexVerdict:
    """Which compact orientable minimal surfaces of S^3_tau have index one.

    Only valid for 1/3 <= tau^2 <= 1: exactly the minimal sphere (all such
    tau) and the Clifford surface at tau^2 = 1/3.  Everything else has
    index at least max(2, ceil(genus/4)).
    """
    param = BergerParam.coerce(tau)
    if param.tau_sq < Fraction(1, 3):
        raise GeometryDomainError(
            "the index-one classification assumes tau^2 >= 1/3")
    if isinstance(surface, MinimalSphere):
        return SurfaceIndexVerdict(True, 1, "the unique minimal sphere has index one",
                                   "index-one-surfaces")
    if isinstance(surface, CliffordTorus):
        if param.tau_sq == Fraction(1, 3):
            return SurfaceIndexVerdict(True, 1,
                                       "the flat surface at tau^2 = 1/3 has index one",
                                       "index-one-surfaces")
        return SurfaceIndexVerdict(False, 5,
                                   "above tau^2 = 1/3 the flat surface has index 2n+3 = 5",
                                   "mode-enumeration")
    bound = max(2, -(-surface.genus // 4))
    return SurfaceIndexVerdict(False, bound,
                               f"not index one; index >= genus/4 = {surface.genus}/4 "
                               "and index one is excluded",
                               "index-one-surfaces")
