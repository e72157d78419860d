"""The chart route to a bubble's frame: an independent oracle for the closed
ambient forms of ``ReducedModel.frames``.

It builds the bubble's rotated chart (``ChartedBubble.build``), pulls K back
at the chart center (``ScalarField.chart_data``) and differentiates the
chart center and log rate through the chart Jacobian at the concentration
point (``chart_jacobians``): every quantity in the chart's own coordinates,
from which the frame's closed forms are derived.

The inverse charts (``halfspace_to_sphere``, ``to_sphere``), the conformal
factor and the sphere/chart profile identity check the forward charts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hemiflow.bubbles import BubbleParam, ChartedBubble, delta
from hemiflow.geometry import RotatedChart, SpherePoint


def _inverse_stereographic(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    s = float(np.dot(v, v))
    return np.concatenate(([1.0 - s], 2.0 * v)) / (1.0 + s)


def halfspace_to_sphere(x) -> SpherePoint:
    """Inverse of ``geometry.stereographic_to_halfspace``."""
    return SpherePoint(_inverse_stereographic(x))


def chart_conformal_factor(x) -> float:
    """rho(x) with pullback metric rho^2 * euclidean: rho = 2/(1+|x|^2)."""
    v = np.asarray(x, dtype=float)
    return 2.0 / (1.0 + float(np.dot(v, v)))


def to_sphere(chart: RotatedChart, x) -> np.ndarray:
    """Inverse of ``chart.to_chart``."""
    return chart.rotation @ _inverse_stereographic(x)


def delta_chart_identity_error(b: BubbleParam, x: SpherePoint) -> float:
    """|delta(b, x) - conformal_factor^{-(n-2)/2} * flat_bubble(chart x)|,
    which the exact sphere/half-space correspondence makes zero."""
    cb = ChartedBubble.build(b)
    xc = cb.chart.to_chart(x.coords)
    n = b.n
    rho = chart_conformal_factor(xc)
    flat = cb.flat_value(xc)
    return abs(delta(b, x) - flat * rho ** (-(n - 2) / 2.0))


def chart_jacobians(rotations, coords) -> np.ndarray:
    """d(chart)/d(sphere point) of a stack of charts, each at its own point.

    ``rotations`` (m, n+1, n+1) are the charts' rotations and ``coords``
    (m, n+1) the sphere points; the result (m, n, n+1) holds chart j's
    Jacobian at coords[j].
    """
    rot_t = np.swapaxes(rotations, 1, 2)
    p = np.matvec(rot_t, coords)
    nn = p.shape[1] - 1
    d = 1.0 + p[:, 0]
    jac = np.empty((p.shape[0], nn, nn + 1))
    jac[:, :, 0] = -(p[:, 1:] / d[:, None]) / d[:, None]
    jac[:, :, 1:] = np.eye(nn) / d[:, None, None]
    return jac @ rot_t


@dataclass
class ChartFrame:
    """One bubble's chart data, in its own chart's coordinates."""

    cb: ChartedBubble
    kt_val: float
    kt_grad: np.ndarray      # (n,)
    kt_hess: np.ndarray      # (n, n)
    dl_dloglam: float
    dC_dloglam: np.ndarray   # (n,)
    dC_dmove: np.ndarray     # (n, n+1): chart-center shift per unit sphere move
    dl_dmove: np.ndarray     # (n+1,): dlog(chart rate) per unit sphere move

    def pairing_rows(self, x, boundary: bool) -> np.ndarray:
        """What ``ReducedModel._pairing`` reads of the sphere move x (n+1,)
        scaled by 1/lam: (grad_dC, hess_dC_n, dh, dloglam, dCn_domain), with
        a boundary bubble's vertical center shift moved to dCn_domain."""
        lam = self.cb.param.lam
        dC = self.dC_dmove @ x / lam
        dCn_domain = 0.0
        if boundary:
            dCn_domain = float(dC[-1])
            dC = dC.copy()
            dC[-1] = 0.0
        return np.array([self.kt_grad @ dC, (self.kt_hess @ dC)[-1], dC[-1],
                         self.dl_dmove @ x / lam, dCn_domain])


def chart_frame(K, param: BubbleParam) -> ChartFrame:
    cb = ChartedBubble.build(param)
    val, grad, hess = K.chart_data(cb.chart, cb.center)
    lam = param.lam
    a = cb.a_chart
    l2, s2 = lam * lam, float(a @ a)
    denom = l2 + s2
    eye = np.eye(len(a))
    dCdA = (l2 - 1.0) * (eye / denom - 2.0 * np.outer(a, a) / denom**2)
    dldA = 2.0 * a * (1.0 - l2) / (lam * (1.0 + s2) ** 2) / cb.rate
    jac = chart_jacobians(cb.chart.rotation[None], param.a.coords[None])[0]
    return ChartFrame(cb=cb, kt_val=val, kt_grad=grad, kt_hess=hess,
                      dl_dloglam=(l2 - s2) / denom,
                      dC_dloglam=a * (2.0 * l2 * (1.0 + s2) / denom**2),
                      dC_dmove=dCdA @ jac, dl_dmove=jac.T @ dldA)
