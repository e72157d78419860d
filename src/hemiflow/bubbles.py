"""Concentration profiles and their mutual interactions.

The standard profile centered at a with rate lambda is

    delta_{a,lam}(x) = c0 * lam^{(n-2)/2} / (lam^2 + 1 + (1-lam^2) cos d(a,x))^{(n-2)/2},

with c0 = (n(n-2))^{(n-2)/4} chosen so the profile solves the conformally
invariant equation on the sphere.  Through a stereographic chart adapted to
the profile's own anchor it becomes exactly the flat bubble

    c0 * mu^{(n-2)/2} / (1 + mu^2 |X - C|^2)^{(n-2)/2}

times the conformal factor, with chart rate mu and chart center C given by
closed forms.  The boundary-corrected profile is represented by its two-term
expansion delta + c0 * H(C, .) / mu^{(n-2)/2} in the chart plus an explicit
sup-norm budget for the dropped remainder; H is the regular (image-charge)
part of the half-space Green function with Neumann boundary condition.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BoundaryPoint, InvalidConfiguration
from .geometry import RotatedChart, SpherePoint
from .record import FrozenRecord, set_field


def bubble_normalization(n: int) -> float:
    """c0 = (n(n-2))^{(n-2)/4}."""
    return float((n * (n - 2)) ** ((n - 2) / 4.0))


class BubbleParam(FrozenRecord):
    """Concentration point and rate of one profile."""

    a: SpherePoint
    lam: float

    def __init__(self, a, lam):
        # written so that NaN fails it too
        if not 1.0 <= lam < math.inf:
            raise InvalidConfiguration(f"concentration rate {lam} must be finite and >= 1")
        set_field(self, "a", a)
        set_field(self, "lam", lam)

    @property
    def n(self) -> int:
        return self.a.n

    def is_boundary(self) -> bool:
        return self.a.is_boundary()

    def boundary_distance(self) -> float:
        return self.a.boundary_distance()


class ChartedBubble(FrozenRecord):
    """A bubble together with its adapted half-space chart data.

    chart  : stereographic chart whose pole is opposite the bubble's anchor
    center : chart image C of the concentration point at this rate
    rate   : chart concentration rate
    height : last coordinate of C (0 for boundary bubbles)
    a_chart: chart image of the concentration point itself
    """

    param: BubbleParam
    chart: RotatedChart
    center: np.ndarray
    rate: float
    height: float
    a_chart: np.ndarray

    def __init__(self, param, chart, center, rate, height, a_chart):
        set_field(self, "param", param)
        set_field(self, "chart", chart)
        set_field(self, "center", center)
        set_field(self, "rate", rate)
        set_field(self, "height", height)
        set_field(self, "a_chart", a_chart)

    @staticmethod
    def build(param: BubbleParam) -> "ChartedBubble":
        chart = RotatedChart.for_point(param.a)
        a_chart = chart.to_chart(param.a.coords)
        lam = param.lam
        s2 = float(a_chart @ a_chart)
        rate = (lam * lam + s2) / (lam * (1.0 + s2))
        center = a_chart * ((lam * lam - 1.0) / (lam * lam + s2))
        if param.is_boundary():
            center = np.zeros_like(center)
        return ChartedBubble(param, chart, center, rate, float(center[-1]), a_chart)

    def flat_value(self, x) -> float:
        """Flat bubble at a chart point (no conformal factor)."""
        n = self.param.n
        r2 = float(np.sum((np.asarray(x, dtype=float) - self.center) ** 2))
        c0 = bubble_normalization(n)
        return c0 * self.rate ** ((n - 2) / 2.0) / (1.0 + self.rate**2 * r2) ** ((n - 2) / 2.0)


def delta(b: BubbleParam, x: SpherePoint) -> float:
    """Standard profile evaluated on the sphere."""
    n = b.n
    lam = b.lam
    c = float(np.dot(b.a.coords, x.coords))
    c0 = bubble_normalization(n)
    denom = lam * lam + 1.0 + (1.0 - lam * lam) * c
    return c0 * lam ** ((n - 2) / 2.0) / denom ** ((n - 2) / 2.0)


def greens_regular_part(a, x) -> float:
    """H(a, x) = |x - a_mirror|^{2-n} on the half-space (Neumann image charge)."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    mirror = a.copy()
    mirror[-1] = -mirror[-1]
    n = a.shape[0]
    return float(np.sum((x - mirror) ** 2) ** ((2 - n) / 2.0))


class PhiApprox(FrozenRecord):
    """Two-term chart expansion of the boundary-corrected profile.

    value(x) = delta_flat(x) + c0 * H(C, x) / rate^{(n-2)/2}; the dropped
    remainder is bounded in sup norm by ``budget``.
    """

    charted: ChartedBubble
    budget: float

    def __init__(self, charted, budget):
        set_field(self, "charted", charted)
        set_field(self, "budget", budget)

    def delta_term(self, x) -> float:
        return self.charted.flat_value(x)

    def h_term(self, x) -> float:
        n = self.charted.param.n
        c0 = bubble_normalization(n)
        return c0 * greens_regular_part(self.charted.center, x) / self.charted.rate ** ((n - 2) / 2.0)

    def value(self, x) -> float:
        return self.delta_term(x) + self.h_term(x)

    def __call__(self, x) -> float:
        return self.value(x)


def phi_approx(b: BubbleParam) -> PhiApprox:
    """Chart-side approximation of the Neumann-projected profile.

    Raises :class:`BoundaryPoint` for boundary bubbles, where the projected
    profile coincides with the plain profile and no correction is needed.
    """
    if b.is_boundary():
        raise BoundaryPoint("projected profile equals the plain profile on the boundary")
    cb = ChartedBubble.build(b)
    n = b.n
    budget = 1.0 / (cb.rate ** ((n + 2) / 2.0) * cb.height**n)
    return PhiApprox(cb, budget)


# ---------------------------------------------------------------------------
# Interaction coefficient and derivatives
# ---------------------------------------------------------------------------

def _separation(bi: BubbleParam, bj: BubbleParam) -> float:
    """t = 1 - <a_i, a_j>."""
    return 1.0 - float(np.dot(bi.a.coords, bj.a.coords))


def _interaction_terms(li, lj, t, n):
    """(eps, lam_i d/dlam_i eps, lam_j d/dlam_j eps, g^{-n/2}) from the rates
    and t, g^{-n/2} being the power in ``epsilon_da``, for floats or for
    arrays of pairs, with the same bits pair by pair.

    Arrays take ``np.float_power``, the C library's pow that floats take too:
    numpy's ``**`` on arrays may use a SIMD pow that differs in the last bit.
    """
    power = np.float_power if isinstance(t, np.ndarray) else pow
    r, s, cross = li / lj, lj / li, 2.0 * li * lj * t
    g = r + s + cross
    g_pow = power(g, -n / 2.0)
    scale = -(n - 2) / 2.0 * g_pow
    return power(g, -(n - 2) / 2.0), scale * (r - s + cross), scale * (s - r + cross), g_pow


def epsilon(bi: BubbleParam, bj: BubbleParam) -> float:
    """Mutual interaction coefficient, in (0, 2^{-(n-2)/2}]."""
    return float(_interaction_terms(bi.lam, bj.lam, _separation(bi, bj), bi.n)[0])


def epsilon_dlambda(bi: BubbleParam, bj: BubbleParam):
    """Scaled rate-derivatives (lam_i d/dlam_i eps, lam_j d/dlam_j eps)."""
    _, di, dj, _ = _interaction_terms(bi.lam, bj.lam, _separation(bi, bj), bi.n)
    return float(di), float(dj)


def epsilon_da(bi: BubbleParam, bj: BubbleParam) -> np.ndarray:
    """Ambient gradient of the interaction in the first concentration point:
    (n-2) lam_i lam_j (a_j - a_i) eps^{n/(n-2)}."""
    n = bi.n
    li, lj = bi.lam, bj.lam
    eps_pow = (li / lj + lj / li + 2.0 * li * lj * _separation(bi, bj)) ** (-n / 2.0)
    return (n - 2) * li * lj * (bj.a.coords - bi.a.coords) * eps_pow
