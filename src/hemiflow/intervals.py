"""Center/half-width interval values.

Every expansion in the reduced model returns a :class:`Bar` so downstream
checks compare intervals instead of bare floats.
"""

from __future__ import annotations

import math

from .errors import NonFiniteBar
from .record import FrozenRecord, set_field


class Bar(FrozenRecord):
    """A value with a symmetric error bar: ``center +/- halfwidth``."""

    center: float
    halfwidth: float = 0.0

    def __init__(self, center, halfwidth=halfwidth):
        if not (math.isfinite(center) and math.isfinite(halfwidth)):
            raise NonFiniteBar(f"non-finite bar {center!r} +/- {halfwidth!r}")
        if halfwidth < 0:
            raise ValueError("halfwidth must be nonnegative")
        set_field(self, "center", center)
        set_field(self, "halfwidth", halfwidth)

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
