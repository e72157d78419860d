"""Independent verification routes.

Nothing here reuses the reduced-model expansions: the energy is integrated
honestly (reduced to one- and two-dimensional quadratures by symmetry), the
profile equation is checked by finite differences, and the counting
formulas are enumerated directly.  The test suite and the ``verify`` CLI
command compare these against the closed-form implementations.

The adaptive integrals here go through ``scipy.integrate.quad``, imported on
first use so that importing this module (and ``hemiflow.verify``) loads no
scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .bubbles import BubbleParam, ChartedBubble, bubble_normalization
from .constants import ball_volume, sphere_area
from .fields import ScalarField
from .geometry import SpherePoint
from .record import Record


def _quad(f, a, b, **kwargs):
    """``scipy.integrate.quad`` behind a deferred import."""
    from scipy import integrate
    return integrate.quad(f, a, b, **kwargs)


# ---------------------------------------------------------------------------
# Independent radial route for the constants
# ---------------------------------------------------------------------------

# the 8-point Gauss-Legendre rule on [-1, 1]: its positive nodes and their weights
_GL_NODES = np.array([0.183434642495649804939476142360, 0.525532409916328985817739049189,
                      0.796666477413626739591553936476, 0.960289856497536231683560868569])
_GL_WEIGHTS = np.array([0.362683783378361982965150449277, 0.313706645877887287337962201987,
                        0.222381034453374470544355994426, 0.101228536290376259152531354310])


def radial_gauss_constants(n: int, panels: int = 48) -> dict:
    """Every entry of the constants table by a fixed composite Gauss-Legendre
    rule: the independent route to the closed forms of
    :mod:`hemiflow.constants`, whose docstring lists the integrals.

    Each entry but c0 is a scale times a radial moment
        int_0^inf r^{n-1+w} (1+r^2)^{-p} h(r) dr,
    with h = 1, or h = (r^2-1)/(1+r^2) for the ring entries c3 and c9.  The
    substitution r = tan(theta) makes it
        int_0^{pi/2} sin^{n-1+w}(theta) cos^{2p-n-1-w}(theta) h dtheta,
    h = sin^2 - cos^2, whose factors lie in [0, 1] at every n, so no power
    overflows, as r^{n-1+w} does near pi/2 at large n.  The eight entries
    are one array pass over ``panels`` equal panels of the 8-point rule.  c0
    is the profile's normalization.
    """
    cp = float((n * (n - 2)) ** (n / 2.0))
    half_area, vball = 0.5 * sphere_area(n - 1), ball_volume(n - 1)
    rows = {  # name: (scale, w, p, ring)
        "s_n": (cp * half_area, 0, n, False),
        "c2": (2.0 * cp * half_area, 0, (n + 2) / 2.0, False),
        "c3": ((n - 2) / 2.0 * cp * vball, 1, n, True),
        "c4": ((n - 2) * cp * vball, 1, n + 1, False),
        "c5": ((n - 2) / n**2 * cp * half_area, 2, n + 1, False),
        "c6": ((n - 2) / n**2 * cp * half_area, 2, n, False),
        "c7": (2.0 * (n - 2) / n * cp * vball, 1, n, False),
        "c9": ((n - 2) / (4.0 * n) * cp * half_area, 2, n, True),
    }
    scale, w, p, ring = (np.array(col) for col in zip(*rows.values()))
    half = 0.25 * math.pi / panels
    mids = half * (2.0 * np.arange(panels) + 1.0)
    theta = (mids[:, None] + half * np.concatenate((-_GL_NODES, _GL_NODES))).ravel()
    s, c = np.sin(theta), np.cos(theta)
    f = s ** (n - 1 + w)[:, None] * c ** (2 * p - n - 1 - w)[:, None]
    f[ring] *= s * s - c * c
    vals = scale * (f @ np.tile(_GL_WEIGHTS, 2 * panels)) * half
    return {"c0": bubble_normalization(n), **dict(zip(rows, vals.tolist()))}


# ---------------------------------------------------------------------------
# Exact hemisphere moments of a zonal weight around an equator point
# ---------------------------------------------------------------------------

def _zonal_weight(n: int, lam: float):
    cp = float((n * (n - 2)) ** (n / 2.0))
    def f(t):
        return cp * lam**n / (lam * lam + 1.0 + (1.0 - lam * lam) * t) ** n
    return f


def hemisphere_zonal_integral(K: ScalarField, a_coords, lam: float, tol: float = 1e-10):
    """int over the upper hemisphere of K(x) * delta_{a,lam}^{2n/(n-2)}(x).

    Requires the center on the equator; the slice moments of a degree-<=2
    field over hemispherical cross sections are closed forms, leaving a
    single adaptive integral in t = cos(geodesic distance).
    """
    n = K.n
    a = np.asarray(a_coords, dtype=float)
    assert abs(a[-1]) < 1e-12, "zonal reduction needs an equator center"
    w = _zonal_weight(n, lam)
    omega = sphere_area(n - 1)
    vb = ball_volume(n - 1)
    b = K.linear
    q = K.quadratic
    la = float(b @ a)
    lv = float(b[-1])
    qa = q @ a
    qaa = float(a @ qa)
    qav = 2.0 * float(qa[-1])
    trq = float(np.trace(q))

    def integrand(t):
        s2 = 1.0 - t * t
        s = math.sqrt(max(s2, 0.0))
        even = 0.5 * omega * (K.kappa0 + la * t + qaa * t * t + (trq - qaa) * s2 / n)
        odd = vb * (lv * s + qav * t * s)
        return w(t) * s2 ** ((n - 2) / 2.0) * (even + odd)

    total = 0.0
    # resolve the concentration near t = 1
    cuts = [-1.0, 0.0, 1.0 - 16.0 / lam**2, 1.0 - 4.0 / lam**2, 1.0 - 1.0 / lam**2, 1.0]
    cuts = sorted({min(max(c, -1.0), 1.0) for c in cuts})
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-300:
            continue
        v, _ = _quad(integrand, lo, hi, epsabs=tol, epsrel=tol, limit=200)
        total += v
    return total


def quadrature_J_boundary(K: ScalarField, a_coords, lam: float) -> float:
    """Honest energy of a single boundary profile: exact squared norm over
    the curvature integral."""
    n = K.n
    cp = float((n * (n - 2)) ** (n / 2.0))
    s_n = cp * 0.5 * math.pi ** (n / 2.0) * math.gamma(n / 2.0) / math.gamma(float(n))
    qint = hemisphere_zonal_integral(K, a_coords, lam)
    return s_n / qint ** ((n - 2) / n)


# ---------------------------------------------------------------------------
# Interior profiles: cap moments
# ---------------------------------------------------------------------------

def _cap_m0(m: int, tau: float) -> float:
    """Area of the cap {u_1 >= tau} of S^{m-1}."""
    v, _ = _quad(lambda u: (1.0 - u * u) ** ((m - 3) / 2.0), tau, 1.0,
                 epsabs=1e-12, epsrel=1e-12)
    return sphere_area(m - 2) * v


def _cap_m1(m: int, tau: float) -> float:
    return sphere_area(m - 2) * (1.0 - tau * tau) ** ((m - 1) / 2.0) / (m - 1)


def _cap_m2_axis(m: int, tau: float) -> float:
    v, _ = _quad(lambda u: u * u * (1.0 - u * u) ** ((m - 3) / 2.0), tau, 1.0,
                 epsabs=1e-12, epsrel=1e-12)
    return sphere_area(m - 2) * v


def _cap_m2_perp(m: int, tau: float) -> float:
    v, _ = _quad(lambda u: (1.0 - u * u) ** ((m - 1) / 2.0), tau, 1.0,
                 epsabs=1e-12, epsrel=1e-12)
    return sphere_area(m - 2) * v / (m - 1)


def hemisphere_zonal_integral_interior(K: ScalarField, a_coords, lam: float,
                                       tol: float = 1e-9):
    """int over the hemisphere of K * delta_{a,lam}^{2n/(n-2)} for interior a.

    Slices orthogonal to the axis through a meet the hemisphere in spherical
    caps; the degree-<=2 moments over caps reduce to one-dimensional
    integrals, leaving a nested quadrature.
    """
    n = K.n
    a = np.asarray(a_coords, dtype=float)
    h_s = float(a[-1])
    w = _zonal_weight(n, lam)
    b = K.linear
    q = K.quadratic
    cv = math.sqrt(max(1.0 - h_s * h_s, 0.0))
    if cv < 1e-14:
        e_hat = np.zeros_like(a)
        e_hat[0] = 1.0  # axis pick is irrelevant at the pole
    else:
        e_hat = (np.eye(len(a))[-1] - h_s * a) / cv
    proj = np.eye(len(a)) - np.outer(a, a)

    la = float(b @ a)
    le = float(b @ e_hat)
    qaa = float(a @ q @ a)
    qae = 2.0 * float(a @ q @ e_hat)
    qee = float(e_hat @ q @ e_hat)
    qperp = float(np.einsum("ij,ij->", q, proj)) - qee  # trace of q on the cap equator

    def integrand(t):
        s2 = 1.0 - t * t
        s = math.sqrt(max(s2, 0.0))
        if s < 1e-14:
            return 0.0
        tau = -t * h_s / (s * cv) if cv > 1e-14 else (-1.0 if t > 0 else 1.0)
        tau = min(max(tau, -1.0), 1.0)
        m0 = _cap_m0(n, tau)
        m1 = _cap_m1(n, tau)
        m2a = _cap_m2_axis(n, tau)
        m2p = _cap_m2_perp(n, tau)
        val = K.kappa0 * m0
        val += (la * t) * m0 + le * s * m1
        val += qaa * t * t * m0 + qae * t * s * m1 + s2 * (qee * m2a + qperp * m2p)
        return w(t) * s2 ** ((n - 2) / 2.0) * val

    total = 0.0
    cuts = sorted({-1.0, 0.0, 1.0 - 16.0 / lam**2, 1.0 - 4.0 / lam**2, 1.0 - 1.0 / lam**2, 1.0})
    cuts = [c for c in cuts if -1.0 <= c <= 1.0]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-300:
            continue
        v, _ = _quad(integrand, lo, hi, epsabs=tol, epsrel=tol, limit=200)
        total += v
    return total


class InteriorEnergyOracle(Record):
    """Honest energy pieces for a single interior corrected profile."""

    norm_sq: float
    curvature_integral: float
    j_value: float
    uncertainty: float

    def __init__(self, norm_sq, curvature_integral, j_value, uncertainty):
        self.norm_sq = norm_sq
        self.curvature_integral = curvature_integral
        self.j_value = j_value
        self.uncertainty = uncertainty


def quadrature_J_interior(K: ScalarField, point: SpherePoint, lam: float) -> InteriorEnergyOracle:
    """Energy of one interior profile including the image-charge correction.

    The squared norm and the correction integrals are radial/axisymmetric in
    the adapted chart; the curvature integral uses the cap-moment reduction.
    The small sub-boundary tail of the correction term is folded into the
    reported uncertainty rather than integrated.
    """
    n = K.n
    b = BubbleParam(point, lam)
    cb = ChartedBubble.build(b)
    mu, h = cb.rate, cb.height
    c0 = bubble_normalization(n)
    cp = c0 ** (2.0 * n / (n - 2))
    g_full = math.pi ** (n / 2.0) * math.gamma(n / 2.0) / math.gamma(float(n))
    s_n = cp * 0.5 * g_full
    omega = sphere_area(n - 1)

    # mass of delta^{2n/(n-2)} lost below the chart boundary
    def tail_integrand(r):
        if r <= h:
            return 0.0
        tau = h / r
        frac = _cap_m0(n, tau) / omega
        return omega * r ** (n - 1) * cp * mu**n / (1.0 + mu * mu * r * r) ** n * frac

    tail, _ = _quad(tail_integrand, h, np.inf, epsabs=1e-12, epsrel=1e-10, limit=200)

    # Newton average: int delta^{(n+2)/(n-2)} H(C,.) over the whole space
    def newton_integrand(r):
        kern = (2.0 * h) ** (2 - n) if r < 2.0 * h else r ** (2 - n)
        return omega * r ** (n - 1) * c0 ** ((n + 2.0) / (n - 2)) * mu ** ((n + 2) / 2.0) \
            / (1.0 + mu * mu * r * r) ** ((n + 2) / 2.0) * kern

    newton = 0.0
    for lo, hi in ((0.0, 2.0 * h), (2.0 * h, np.inf)):
        v, _ = _quad(newton_integrand, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=200)
        newton += v
    h_corr = c0 * newton / mu ** ((n - 2) / 2.0)

    norm_sq = 2.0 * s_n - tail + h_corr
    qint = hemisphere_zonal_integral_interior(K, point.coords, lam)
    k_at = K.value(point)
    curvature = qint + (2.0 * n / (n - 2)) * k_at * h_corr
    j_val = norm_sq / curvature ** ((n - 2) / n)
    # dropped: K-variation across the correction, sub-boundary correction tail,
    # and the remainder of the projected profile itself
    grad_scale = float(np.linalg.norm(K.tangent_gradient(point)))
    unc = (grad_scale * h_corr + tail * h_corr / s_n
           + 2.0 * k_at * s_n * (2 * mu * h) ** (-n)
           + k_at / (mu ** ((n + 2) / 2.0) * h**n) * s_n / mu ** ((n - 2) / 2.0)) / curvature
    return InteriorEnergyOracle(norm_sq, curvature, j_val, abs(unc) * 3.0)


# ---------------------------------------------------------------------------
# Flat-space oracles
# ---------------------------------------------------------------------------

PDE_STEP = 0.02  # the coarse stencil step of flat_bubble_pde_residual; the fine one is half


def flat_bubble_pde_residual(n: int, radii) -> tuple:
    """Residual |-Lap(U) - U^{(n+2)/(n-2)}| of the flat unit-rate bubble at
    each radius, and the right-hand side U^{(n+2)/(n-2)} there: two arrays.

    The Laplacian is evaluated by Richardson-extrapolated five-point radial
    stencils at steps ``PDE_STEP`` and ``PDE_STEP / 2``, so the check is
    independent of the closed-form derivative.  ``flat_bubble_pde_bound``
    bounds the relative residual at one radius.
    """
    c0 = bubble_normalization(n)
    prof = lambda r: c0 * (1.0 + r * r) ** (-(n - 2) / 2.0)

    def lap_numeric(r, h):
        d2 = (-prof(r + 2 * h) + 16 * prof(r + h) - 30 * prof(r) + 16 * prof(r - h) - prof(r - 2 * h)) / (12 * h * h)
        d1 = (-prof(r + 2 * h) + 8 * prof(r + h) - 8 * prof(r - h) + prof(r - 2 * h)) / (12 * h)
        return d2 + (n - 1) / r * d1

    res, rhs = [], []
    for r in np.atleast_1d(radii):
        l1 = lap_numeric(r, PDE_STEP)
        l2 = lap_numeric(r, PDE_STEP / 2)
        lap = (16.0 * l2 - l1) / 15.0
        rhs.append(prof(r) ** ((n + 2.0) / (n - 2.0)))
        res.append(abs(-lap - rhs[-1]))
    return np.array(res), np.array(rhs)


def flat_bubble_pde_bound(n: int, r: float) -> float:
    """Bound on the relative residual ``res / rhs`` of
    ``flat_bubble_pde_residual(n, [r])`` at a radius r > 2 ``PDE_STEP``,
    from the stencils' truncation and rounding error.

    Truncation.  With h = ``PDE_STEP``, Taylor expansion of the five-point
    stencils gives
        D2(h) = U'' - h^4 U^(6)/90 - h^6 U^(8)/1008 - h^8 U^(10)/21600 - ...
        D1(h) = U'  - h^4 U^(5)/30 - h^6 U^(7)/252  - h^8 U^(9)/4320  - ...
    (the h^(2j-2) coefficient is 2(16 - 4^j)/(12 (2j)!) in D2 and
    2(8 - 2 4^j)/(12 (2j+1)!) in D1).  The extrapolation
    (16 L(h/2) - L(h))/15 of L = D2 + (n-1)/r D1 cancels the h^4 terms and
    leaves
        T6 = h^6 (U^(8)/20160 + (n-1)/r U^(7)/5040),
        T8 = h^8 (U^(10)/345600 + (n-1)/r U^(9)/69120),  ...
    U = c0 (1+r^2)^(-a), a = (n-2)/2, is analytic in a disc of radius
    sqrt(1+r^2) >= 1 about r, so by Cauchy's estimate the terms fall by a
    factor of about (2h)^2/(1+r^2) < 2e-3 each; the truncation is bounded
    by 2 (|T6| + |T8|), where the factor 2 also covers the tail and the
    float evaluation of T6 and T8.  The derivatives come from the recurrence
        (1+r^2) g^(k+1) = -(2a+2k) r g^(k) - k(2a+k-1) g^(k-1),
    g = (1+r^2)^(-a), which is (1+r^2) g' = -2a r g differentiated k times.

    Rounding.  With u = 2^-53, each profile value carries a relative error
    below e = (2n-2) u: (n-2) u from rounding its argument r +- kh (since
    |r U'/U| < n-2), (n-2) u from the power of the rounded 1 + r^2, u from
    the power itself and u from the factor c0.  A stencil sum adds 5u
    relative to the sum of its absolute terms, which is at most
    sum|c_k| U(r - 2h) with sum|c_k| = 64 (D2) and 18 (D1), over 12 h^2
    and 12 h.  The extrapolation weighs the steps h/2 and h by 16/15 and
    1/15.  The right-hand side U^((n+2)/(n-2)) carries ((n+2)/(n-2)) e + u,
    and the last products and differences about 9u of it.

    The bound is the sum, over |rhs|.  At n = 5, |rhs| times the bound is
    at most 1.08e-8 on [0.3, 3] (at r = 0.3) and 6.0e-9 on the radii that
    ``verify`` draws with seed 20240, against the absolute 1e-8 the check
    applied before; the measured residual stays near half the bound at
    every n from 5 to 12.
    """
    h = PDE_STEP
    u = 2.0 ** -53
    a = (n - 2) / 2.0
    c0 = bubble_normalization(n)
    s = 1.0 + r * r
    g = [s ** -a]
    g.append(-2.0 * a * r * g[0] / s)
    for k in range(1, 10):
        g.append(-((2.0 * a + 2.0 * k) * r * g[k] + k * (2.0 * a + k - 1.0) * g[k - 1]) / s)
    d = [c0 * x for x in g]
    t6 = h**6 * (d[8] / 20160.0 + (n - 1) / r * d[7] / 5040.0)
    t8 = h**8 * (d[10] / 345600.0 + (n - 1) / r * d[9] / 69120.0)

    def weight(step):
        return 64.0 / (12.0 * step * step) + (n - 1) / r * 18.0 / (12.0 * step)

    e = (2 * n - 2) * u
    u_max = c0 * (1.0 + (r - 2 * h) ** 2) ** -a
    rhs = (c0 * s ** -a) ** ((n + 2.0) / (n - 2.0))
    stencils = (e + 5 * u) * u_max * (16.0 / 15.0 * weight(h / 2) + weight(h) / 15.0)
    return (2.0 * (abs(t6) + abs(t8)) + stencils) / rhs + (n + 2.0) / (n - 2.0) * e + 10 * u


def flat_two_bubble_overlap(n: int, lam_i: float, lam_j: float, dist: float,
                            tol: float = 1e-8) -> float:
    """int_{R^n} delta_i^{(n+2)/(n-2)} delta_j by nested bispherical quadrature."""
    c0 = bubble_normalization(n)
    area_sub = sphere_area(n - 2)

    def outer(r):
        fi = (c0 * lam_i ** ((n - 2) / 2.0)) ** ((n + 2.0) / (n - 2.0)) \
            / (1.0 + lam_i**2 * r * r) ** ((n + 2.0) / 2.0)

        def inner(theta):
            rho2 = r * r + dist * dist - 2.0 * r * dist * math.cos(theta)
            fj = c0 * lam_j ** ((n - 2) / 2.0) / (1.0 + lam_j**2 * rho2) ** ((n - 2) / 2.0)
            return math.sin(theta) ** (n - 2) * fj

        v, _ = _quad(inner, 0.0, math.pi, epsabs=tol, epsrel=tol, limit=100)
        return r ** (n - 1) * fi * area_sub * v

    total = 0.0
    for lo, hi in ((0.0, 4.0 / lam_i), (4.0 / lam_i, dist), (dist, np.inf)):
        if hi != np.inf and hi <= lo:
            continue
        v, _ = _quad(outer, lo, hi, epsabs=tol, epsrel=tol, limit=200)
        total += v
    return total


def flat_epsilon(n: int, lam_i: float, lam_j: float, dist: float) -> float:
    return (lam_i / lam_j + lam_j / lam_i + lam_i * lam_j * dist * dist) ** (-(n - 2) / 2.0)


# ---------------------------------------------------------------------------
# Counting brute force
# ---------------------------------------------------------------------------

def brute_force_alternating_sums(indices, depth: int):
    """sum over all size-``depth`` subsets of (-1)^{sum of members}."""
    from itertools import combinations
    total = 0
    for combo in combinations(indices, depth):
        total += (-1) ** (sum(combo) % 2)
    return total
