"""Hemisphere geometry: points, geodesics, and the half-space chart.

Points live on the closed upper hemisphere of the unit sphere in R^{n+1}
(last ambient coordinate >= 0); its boundary is the equator.  The chart
used throughout is the stereographic projection from a pole on the
equator, which maps the hemisphere conformally onto the upper half-space
{x in R^n : x_n >= 0} and the equator onto its boundary.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PoleSingularity
from .record import FrozenRecord, set_field

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


class SpherePoint(FrozenRecord):
    """Point on the closed upper hemisphere, stored in ambient coordinates."""

    coords: np.ndarray

    def __init__(self, coords):
        v = _as_unit(coords)
        if v[-1] < -HEIGHT_TOL:
            raise ValueError("point lies below the equator")
        set_field(self, "coords", v)

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

    def is_boundary(self) -> bool:
        return abs(self.coords[-1]) <= HEIGHT_TOL


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
        set_field(self, "coords", v)


class HalfSpacePoint(FrozenRecord):
    """Point of the closed upper half-space {x_n >= 0} in R^n."""

    coords: np.ndarray

    def __init__(self, coords):
        v = np.asarray(coords, dtype=float)
        if v.ndim != 1:
            raise ValueError("half-space coordinates must be a 1-d vector")
        if v[-1] < -HEIGHT_TOL:
            raise ValueError("half-space point must have x_n >= 0")
        set_field(self, "coords", v)

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
    """Orthonormal tangent basis at one unit point p (d,), as (d-1, d), or at
    each row of a batch (k, d), as (k, d-1, d), with the bits of its
    single-point call.

    The rows are the Gram-Schmidt residuals of the coordinate axes, in order,
    against p, in closed form: with s_k = p_k^2 + ... + p_{d-1}^2, the unit
    residual of e_k is sqrt(s_{k+1} / s_k) on axis k and
    -p_k p_i / sqrt(s_k s_{k+1}) on each axis i after k.  No entry is a
    difference, so no cancellation enters, however close p lies to an axis.
    The axis m left out is the first whose residual is shorter than 1e-8: the
    last axis unless p lies within about 1e-8 of the span of e_0, ..., e_m,
    and m then counts as the last axis.  ``within_equator`` drops the last row,
    e_{n+1} at a point of the equator, and refuses any other point.
    """
    p = np.asarray(point_coords, dtype=float)
    if within_equator and np.any(p[..., -1] != 0.0):
        raise ValueError("a basis within the equator needs a point on it (last coordinate 0)")
    d = p.shape[-1]
    axes = np.arange(d)
    sq = p * p
    # tail[..., k] = s_k, tail[..., d] = 0
    tail = np.zeros(p.shape[:-1] + (d + 1,))
    tail[..., :d] = np.cumsum(sq[..., ::-1], axis=-1)[..., ::-1]
    m = np.argmax(tail[..., 1:] <= 1e-16 * tail[..., :-1], axis=-1)[..., None]
    at_m = axes == m
    # s_k and the "axis i comes after axis k" mask, m counting last
    s = tail + (np.arange(d + 1) > m) * np.sum(sq * at_m, axis=-1, keepdims=True)
    after = np.where(at_m, d, axes)[..., None, :] > axes[:, None]
    frame = np.where(after, -(p / np.sqrt(s[..., :-1] * s[..., 1:]))[..., None] * p[..., None, :], 0.0)
    frame[..., axes, axes] = np.sqrt(s[..., 1:] / s[..., :-1])
    frame = frame[~at_m].reshape(p.shape[:-1] + (d - 1, d))
    return frame[..., :-1, :] if within_equator else frame


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


class RotatedChart(FrozenRecord):
    """Stereographic chart whose pole is opposite a chosen equator anchor.

    The rotation fixes the vertical axis e_{n+1} and maps e_1 to the anchor,
    so the hemisphere still lands on the upper half-space, with the anchor
    itself mapped to the origin.
    """

    rotation: np.ndarray  # (n+1, n+1) orthogonal, fixes e_{n+1}

    def __init__(self, rotation):
        set_field(self, "rotation", rotation)

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
