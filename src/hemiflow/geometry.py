"""Hemisphere geometry: points, geodesics, and the half-space chart.

Points live on the closed upper hemisphere of the unit sphere in R^{n+1}
(last ambient coordinate >= 0); its boundary is the equator.  The chart
used throughout is the stereographic projection from a pole on the
equator, which maps the hemisphere conformally onto the upper half-space
{x in R^n : x_n >= 0} and the equator onto its boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleSingularity

UNIT_TOL = 1e-12
HEIGHT_TOL = 1e-12
POLE_TOL = 1e-10


def _as_unit(coords, tol=UNIT_TOL):
    v = np.asarray(coords, dtype=float)
    if v.ndim != 1:
        raise ValueError("point coordinates must be a 1-d vector")
    # vdot is the BLAS dot of ``v @ v`` without numpy's overflow warning: a
    # coordinate such as 1e308 gives r = inf and the refusal below
    r = math.sqrt(np.vdot(v, v))
    if not abs(r - 1.0) <= tol:  # NaN and inf coordinates fail too
        raise ValueError(f"|coords| = {r!r} is not 1 within {tol}")
    return v


@dataclass(frozen=True)
class SpherePoint:
    """Point on the closed upper hemisphere, stored in ambient coordinates."""

    coords: np.ndarray

    def __init__(self, coords):
        v = _as_unit(coords)
        if v[-1] < -HEIGHT_TOL:
            raise ValueError("point lies below the equator")
        object.__setattr__(self, "coords", v)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return bool(np.array_equal(self.coords, other.coords))

    def __hash__(self):
        # + 0.0 maps -0.0 to 0.0, which array_equal counts as equal
        return hash((self.__class__, (self.coords + 0.0).tobytes()))

    @property
    def n(self) -> int:
        """Sphere dimension (ambient dimension minus one)."""
        return self.coords.shape[0] - 1

    @property
    def height(self) -> float:
        return float(self.coords[-1])

    def boundary_distance(self) -> float:
        """Geodesic distance to the equator (the latitude angle)."""
        return float(np.arcsin(min(max(float(self.coords[-1]), -1.0), 1.0)))

    def is_boundary(self, tol: float = HEIGHT_TOL) -> bool:
        return abs(self.coords[-1]) <= tol


class BoundarySpherePoint(SpherePoint):
    """Point on the equator of the hemisphere."""

    def __init__(self, coords):
        # one unit check: the height test below is stricter than the
        # hemisphere's, and a renormalised point is unit by construction
        v = _as_unit(coords)
        if abs(v[-1]) > HEIGHT_TOL:
            raise ValueError("boundary point must have vanishing last coordinate")
        if v[-1] != 0.0:
            # renormalise only a point that moved: v / |v| is not a fixed
            # point in floating point, and a stored point must read back as is
            v = v.copy()
            v[-1] = 0.0
            v = v / math.sqrt(v @ v)
        object.__setattr__(self, "coords", v)


@dataclass(frozen=True)
class HalfSpacePoint:
    """Point of the closed upper half-space {x_n >= 0} in R^n."""

    coords: np.ndarray

    def __init__(self, coords):
        v = np.asarray(coords, dtype=float)
        if v.ndim != 1:
            raise ValueError("half-space coordinates must be a 1-d vector")
        if v[-1] < -HEIGHT_TOL:
            raise ValueError("half-space point must have x_n >= 0")
        object.__setattr__(self, "coords", v)

    @property
    def height(self) -> float:
        return float(self.coords[-1])


def geodesic_distance(p: SpherePoint, q: SpherePoint) -> float:
    """Great-circle distance in radians, clamped to [0, pi]."""
    c = float(np.dot(p.coords, q.coords))
    return float(np.arccos(min(max(c, -1.0), 1.0)))


def geodesic_step(point_coords, tangent, t: float):
    """Exact exponential-map step along a tangent vector (not necessarily unit)."""
    p = np.asarray(point_coords, dtype=float)
    v = np.asarray(tangent, dtype=float)
    speed = math.sqrt(v @ v)
    if speed * abs(t) < 1e-300:
        return p.copy()
    u = v / speed
    ang = speed * t
    q = np.cos(ang) * p + np.sin(ang) * u
    return q / math.sqrt(q @ q)


def tangent_basis(point_coords, within_equator: bool = False):
    """Orthonormal tangent basis at a point.

    With ``within_equator`` the basis spans the tangent space of the equator
    sphere (dimension n-1), otherwise of the full sphere (dimension n).
    Gram-Schmidt over the coordinate axes, in order, against the point (and
    the vertical axis); a residual that lost more than half its length is
    projected a second time, since it then carries rounding noise of the
    size of the removed components.
    """
    p = np.asarray(point_coords, dtype=float)
    dim = p.shape[0]
    frame = np.zeros((dim, dim))
    frame[0] = p
    r = 1
    if within_equator:
        frame[1, -1] = 1.0
        r = 2
    first = r
    for k in range(dim):
        if r == dim:
            break
        q = frame[:r]
        # e_k minus its projection, with q @ e_k = q[:, k] (copied, since matmul
        # rounds a strided vector through another loop)
        w = -(q.T @ q[:, k].copy())
        w[k] += 1.0
        nrm = math.sqrt(w @ w)
        if nrm < 0.5:
            w = w - q.T @ (q @ w)
            nrm = math.sqrt(w @ w)
        if nrm > 1e-8:
            frame[r] = w / nrm
            r += 1
    return frame[first:r]


# ---------------------------------------------------------------------------
# Stereographic chart
# ---------------------------------------------------------------------------

def stereographic_to_halfspace(p: SpherePoint) -> HalfSpacePoint:
    """Project from the pole -e_1 on the equator onto the half-space.

    x_j = p_{j+1} / (1 + p_1).  The equator maps onto {x_n = 0} and the open
    hemisphere onto {x_n > 0}; the map is conformal with factor
    2 / (1 + |x|^2).
    """
    v = p.coords
    if 1.0 + v[0] < POLE_TOL:
        raise PoleSingularity("point is too close to the projection pole -e_1")
    x = v[1:] / (1.0 + v[0])
    return HalfSpacePoint(x)


@dataclass(frozen=True)
class RotatedChart:
    """Stereographic chart whose pole is opposite a chosen equator anchor.

    The rotation fixes the vertical axis e_{n+1} and maps e_1 to the anchor,
    so the hemisphere still lands on the upper half-space, with the anchor
    itself mapped to the origin.
    """

    rotation: np.ndarray  # (n+1, n+1) orthogonal, fixes e_{n+1}

    @staticmethod
    def for_anchor(anchor_coords) -> "RotatedChart":
        b = np.asarray(anchor_coords, dtype=float)
        rot = np.eye(b.shape[0])
        e1 = rot[0].copy()
        c = float(np.dot(e1, b))
        if c > 1.0 - 1e-14:
            return RotatedChart(rot)
        if c < -1.0 + 1e-14:
            # rotate by pi in the (e1, e2) plane
            rot[0, 0] = -1.0
            rot[1, 1] = -1.0
            return RotatedChart(rot)
        # Rotation in the span{e1, b} plane sending e1 to b: acts as
        # [cos -sin; sin cos] on the (e1, w) frame, identity elsewhere.
        u = b - c * e1
        s = math.sqrt(u @ u)
        w = u / s
        # I + (b - e1) e1^T + (-s e1 + (c - 1) w) w^T
        rot += (b - e1)[:, None] * e1
        rot += (-s * e1 + (c - 1.0) * w)[:, None] * w
        return RotatedChart(rot)

    @staticmethod
    def for_point(point: SpherePoint) -> "RotatedChart":
        """Chart adapted to a concentration point: anchor below the point."""
        v = point.coords.copy()
        v[-1] = 0.0
        nrm = math.sqrt(v @ v)
        if nrm < 1e-12:
            v[:] = 0.0
            v[0] = 1.0
            return RotatedChart.for_anchor(v)
        return RotatedChart.for_anchor(v / nrm)

    def to_chart(self, coords) -> np.ndarray:
        p = self.rotation.T @ np.asarray(coords, dtype=float)
        if 1.0 + p[0] < POLE_TOL:
            raise PoleSingularity("point too close to the chart pole")
        return p[1:] / (1.0 + p[0])
