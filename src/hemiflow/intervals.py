"""Center/half-width interval values.

Every expansion in the reduced model returns a :class:`Bar` so downstream
checks compare intervals instead of bare floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonFiniteBar


@dataclass(frozen=True)
class Bar:
    """A value with a symmetric error bar: ``center +/- halfwidth``."""

    center: float
    halfwidth: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.halfwidth)):
            raise NonFiniteBar(f"non-finite bar {self.center!r} +/- {self.halfwidth!r}")
        if self.halfwidth < 0:
            raise ValueError("halfwidth must be nonnegative")

    @property
    def lo(self) -> float:
        return self.center - self.halfwidth

    @property
    def hi(self) -> float:
        return self.center + self.halfwidth

    def __add__(self, other):
        if isinstance(other, Bar):
            return Bar(self.center + other.center, self.halfwidth + other.halfwidth)
        return Bar(self.center + other, self.halfwidth)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Bar):
            return Bar(self.center - other.center, self.halfwidth + other.halfwidth)
        return Bar(self.center - other, self.halfwidth)

    def __mul__(self, scalar: float):
        return Bar(self.center * scalar, abs(scalar) * self.halfwidth)

    __rmul__ = __mul__

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= value <= self.hi + slack

    def overlaps(self, other: "Bar", slack: float = 0.0) -> bool:
        return self.lo - slack <= other.hi and other.lo - slack <= self.hi
