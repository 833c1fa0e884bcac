"""The deformation parameter tau^2 and the rule for exact input.

The deformation parameter is carried as an exact rational tau^2 because
every classification threshold in this package is a rational number in
tau^2: floats would misclassify boundary cases.  This module imports no
numpy, so the exact layers (``exactlinalg``, ``spectra``, ``models``,
``stability``) and the exact commands of ``cli`` never load it;
``geometry`` re-exports ``BergerParam`` and the two errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


class GeometryDomainError(ValueError):
    """Raised when arguments violate a documented precondition."""


class RoundSphereUnsupportedError(GeometryDomainError):
    """Raised for constructions that are only defined for tau < 1."""


def _as_fraction(value, name: str = "tau^2",
                 hint: str = "; use BergerParam.from_float to round a float explicitly"
                 ) -> Fraction:
    """``value`` as an exact Fraction; a float, a string written as a
    decimal (with ".", "e" or "E") or a string ``Fraction`` cannot parse
    raises ``GeometryDomainError``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        if not ("." in value or "e" in value or "E" in value):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):
                pass
    elif isinstance(value, Rational) or isinstance(value, int):
        return Fraction(value)
    raise GeometryDomainError(f"{name} must be an exact rational, got {value!r}{hint}")


@dataclass(frozen=True)
class BergerParam:
    """Deformation parameter, stored as an exact rational tau^2."""

    tau_sq: Fraction

    def __post_init__(self):
        object.__setattr__(self, "tau_sq", _as_fraction(self.tau_sq))
        if not (0 < self.tau_sq <= 1):
            raise GeometryDomainError(f"tau^2 must lie in (0, 1], got {self.tau_sq}")

    @classmethod
    def coerce(cls, value) -> "BergerParam":
        if isinstance(value, BergerParam):
            return value
        return cls(_as_fraction(value))

    @classmethod
    def from_float(cls, tau: float) -> "BergerParam":
        """Exact binary rational tau^2 from a float tau (explicit opt-in)."""
        return cls(Fraction(tau) ** 2)

    @property
    def tau(self) -> float:
        return math.sqrt(self.tau_sq)

    @property
    def one_minus(self) -> Fraction:
        """1 - tau^2, exact."""
        return 1 - self.tau_sq

    @property
    def vertical_ratio(self) -> Fraction:
        """(1 - tau^2) / tau^2, exact."""
        return (1 - self.tau_sq) / self.tau_sq

    @property
    def is_round(self) -> bool:
        return self.tau_sq == 1

    def __str__(self):
        return f"tau^2={self.tau_sq}"
