"""Stability classification predicates, the proof polynomial and moduli data.

Verdicts are exact: every threshold is a rational number 1/N in tau^2, stated
once as its denominator N, and tau^2 = a/b is compared with it in integers
(a N against b).  Each criterion's decision is separate from the reason text
its public function adds, so the phase rows take the decision alone.  Each
verdict carries the tag of the criterion that produced it, so downstream
tables stay auditable, and ``Undetermined`` is an honest output for
parameter regions that no implemented criterion covers.

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
from operator import itemgetter
from typing import Union

from . import models, spectra
from .params import BergerParam, GeometryDomainError, _as_fraction


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


def _dimension_den(d: int) -> int:
    """The dimension threshold 1/(d+1) of the obstruction, as its denominator."""
    return d + 1


def _bundle_dens(m: int, s: int) -> tuple[int, int]:
    """Denominators of the stability window 1/(s(2m+2)) of a circle bundle of
    order s over a complex 2m-fold and of its dimension threshold (d = 2m+1)."""
    den = _dimension_den(2 * m + 1)
    return s * den, den


def _side(tau_sq: Fraction, den: int) -> int:
    """The sign of tau^2 - 1/den, decided in integers."""
    diff = tau_sq.numerator * den - tau_sq.denominator
    return (diff > 0) - (diff < 0)


def _bundle_decision(m: int, s: int, tau_sq: Fraction) -> tuple[Verdict, str]:
    """The verdict and criterion tag of ``s1_bundle_stability``."""
    window, threshold = _bundle_dens(m, s)
    if _side(tau_sq, window) <= 0:
        return Verdict.STABLE, "stability-window"
    side = _side(tau_sq, threshold)
    if side > 0:
        return Verdict.UNSTABLE, "dimension-obstruction"
    if side == 0:
        return Verdict.BOUNDARY, "dimension-obstruction"
    return Verdict.UNDETERMINED, "stability-window"


def _dimension_decision(d: int, tau_sq: Fraction) -> Verdict:
    """The verdict of ``dimension_instability``, tagged dimension-obstruction."""
    side = _side(tau_sq, _dimension_den(d))
    if side > 0:
        return Verdict.UNSTABLE
    return Verdict.BOUNDARY if side == 0 else Verdict.UNDETERMINED


def s1_bundle_stability(m: int, s: int, tau) -> StabilityVerdict:
    """Stability of a circle bundle of order s over a complex 2m-fold.

    Stable for tau^2 <= 1/(s(2m+2)); unstable above 1/(2m+2) by the
    dimension obstruction (d = 2m+1); in between the window criterion is
    silent. At tau^2 = 1/(2m+2) with s >= 2 the status is a boundary case
    left open here.
    """
    if m < 0 or s < 1:
        raise GeometryDomainError("need m >= 0 and s >= 1")
    verdict, theorem = _bundle_decision(m, s, BergerParam.coerce(tau).tau_sq)
    window, threshold = (Fraction(1, den) for den in _bundle_dens(m, s))
    if verdict is Verdict.STABLE:
        reason = f"tau^2 <= 1/(s(2m+2)) = {window}"
    elif verdict is Verdict.UNSTABLE:
        reason = f"tau^2 > 1/(d+1) = {threshold} with d = {2*m+1}"
    elif verdict is Verdict.BOUNDARY:
        reason = ("tau^2 = 1/(2m+2) with covering order s >= 2; "
                  "not decided by the implemented criteria")
    else:
        reason = (f"window bound {window} < tau^2 < {threshold}; "
                  "resolve by mode enumeration of a concrete model")
    return StabilityVerdict(verdict, reason, theorem)


def dimension_instability(d: int, tau) -> StabilityVerdict:
    """Dimension obstruction for compact minimal d-submanifolds."""
    if d < 1:
        raise GeometryDomainError("need d >= 1")
    verdict = _dimension_decision(d, BergerParam.coerce(tau).tau_sq)
    threshold = Fraction(1, _dimension_den(d))
    if verdict is Verdict.UNSTABLE:
        reason = (f"no stable compact minimal {d}-submanifold for "
                  f"tau^2 > 1/(d+1) = {threshold}")
    elif verdict is Verdict.BOUNDARY and d % 2 == 0:
        reason = ("tau^2 = 1/(d+1); stable embedded submanifolds would be "
                  "odd-dimensional circle bundles, impossible for even d")
    elif verdict is Verdict.BOUNDARY:
        reason = ("tau^2 = 1/(d+1); embedded stable submanifolds are exactly "
                  "the circle bundles over complex submanifolds")
    else:
        reason = f"tau^2 < 1/(d+1) = {threshold}: outside the obstruction range"
    return StabilityVerdict(verdict, reason, "dimension-obstruction")


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
           - q(d+1-1/tau^2),  exact; ``x`` must be rational.
    """
    a, b, c = proof_polynomial_coefficients(d, q, tau)
    x = _as_fraction(x, "x", hint="")
    if not (0 <= x <= 1):
        raise GeometryDomainError("x must lie in [0, 1]")
    return a * x * x + b * x + c


def proof_polynomial_max_sign(d: int, q: int, tau) -> int:
    """Exact sign of max_{0 <= x <= 1} P(x).

    The leading coefficient (1-tau^2)^2/tau^2 is nonnegative, so P is
    convex and its maximum on [0, 1] is max(P(0), P(1)).
    """
    a, b, c = proof_polynomial_coefficients(d, q, tau)
    best = max(c, a + b + c)
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
    Killing field forces index >= 2(n+1) for every tau.  Every branch
    needs a valid tau and 1 <= d <= 2n.
    """
    if xi_case not in ("tangent", "normal"):
        raise GeometryDomainError("xi_case must be 'tangent' or 'normal'")
    param = BergerParam.coerce(tau)
    if not 1 <= d <= 2 * n:
        raise GeometryDomainError("need 1 <= d <= 2n")
    if xi_case == "normal":
        if is_hypersurface or is_tg_berger_sphere:
            raise GeometryDomainError(
                "a normal Killing field is incompatible with those flags")
        return 2 * (n + 1)
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


def _phase_decision(model, tau_sq: Fraction, index: int) -> tuple[str, str]:
    """(verdict, criterion tag) of one phase row: the circle-bundle criterion
    where it decides stable or unstable, or the dimension obstruction where it
    decides unstable; otherwise whether the counted index is zero."""
    if model.bundle is not None:
        verdict, theorem = _bundle_decision(*model.bundle, tau_sq)
        if verdict is Verdict.STABLE or verdict is Verdict.UNSTABLE:
            return verdict.value, theorem
    elif _dimension_decision(model.dimension, tau_sq) is Verdict.UNSTABLE:
        return Verdict.UNSTABLE.value, "dimension-obstruction"
    return (Verdict.STABLE if index == 0 else Verdict.UNSTABLE).value, "mode-enumeration"


def phase_rows(model_list, tau_sq_grid) -> list[tuple]:
    """Phase-diagram rows (see PHASE_HEADER), sorted by (model, tau^2), one
    per model and distinct value of the grid.

    Index and nullity are the summed multiplicities of the negative and of
    the zero rows of the model's certified-depth table, decided from integer
    signs alone (``spectra.sign_counts``); no mode value is built.
    """
    tau_sqs = sorted({BergerParam.coerce(t).tau_sq for t in tau_sq_grid})
    rows = []
    for label, model in sorted(((model.label(), model) for model in model_list),
                               key=itemgetter(0)):
        table, d = models.certified_table(model), model.dimension
        for ts in tau_sqs:
            index, nullity = spectra.sign_counts(table, ts)
            rows.append((label, d, ts.numerator, ts.denominator, index, nullity,
                         *_phase_decision(model, ts, index)))
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
        index = models.enumerate_index(models.CliffordHypersurface(0, 0), param).index
        return SurfaceIndexVerdict(False, index,
                                   f"above tau^2 = 1/3 the flat surface has index {index}",
                                   "mode-enumeration")
    bound = max(2, math.ceil(genus_index_bound(surface.genus)))
    return SurfaceIndexVerdict(False, bound,
                               f"not index one; index >= genus/4 = {surface.genus}/4 "
                               "and index one is excluded",
                               "index-one-surfaces")
