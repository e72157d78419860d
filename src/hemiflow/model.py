"""Reduced energy on bubble-configuration space.

State is a finite list of weighted profiles: q boundary bubbles (points on
the equator) followed by p interior bubbles.  The reduced functional is the
two-term-per-bubble expansion of

    J(u) = ||u||^2 / (int K |u|^{2n/(n-2)})^{(n-2)/n},   u = sum alpha_i phi_i,

evaluated through each bubble's adapted half-space chart:

    num = s_n * (sum_b alpha^2 + 2 sum_in alpha^2)
          + c2 * sum_in alpha^2 H(C,C)/mu^{n-2}
    den = sum_i alpha_i^{2n/(n-2)} T_i,
    T_boundary = s_n Kt + cpXn * dKt/dx_n / mu + cpI2h * lap Kt / (2 n mu^2)
    T_interior = 2 s_n Kt + cpI2h * lap Kt / (n mu^2)
                 + (2n/(n-2)) Kt c2 H(C,C)/mu^{n-2}

with mu the chart rate, Kt the pullback of K in the bubble's own chart
(evaluated at the chart center C), cpXn = cp * int_H x_n (1+|x|^2)^{-n} and
cpI2h = cp * int_H |x|^2 (1+|x|^2)^{-n}.  Every value carries an error bar
assembled from third-order Taylor remainders, dropped interactions, far
tails and the minimizer-residue budget.

Gradient components are the exact parameter derivatives of this expansion
plus the pairing-only contributions the smooth formula cannot see: the
interaction derivatives (two-bubble attraction) and, for boundary-normal
moves, the domain-variation terms with constants c4/c5.  Closed-form
identities (c3 = (n-2)/(2n) cpXn, c9 = c6/2, s_n = 2 n^2 c5/(n-2)) make
these derivatives coincide with the classical first-order gradient
expansions in the rate, point and weight directions; the test suite checks
both routes against honest quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubbles import (BubbleParam, ChartedBubble, epsilon, epsilon_da,
                      epsilon_dlambda, greens_regular_part)
from .constants import ConstantsTable, compute_constants
from .errors import (IndexNotBoundary, IndexNotInterior, InvalidConfiguration,
                     NotInWSet)
from .fields import ScalarField
from .geometry import (BoundarySpherePoint, SpherePoint, geodesic_distance,
                       tangent_basis)
from .intervals import Bar


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Configuration:
    """q boundary + p interior weighted bubbles inside V(q+2p, q, p, eps)."""

    alphas: tuple
    bubbles: tuple
    q: int
    p: int
    eps_scale: float = 0.1

    def __post_init__(self):
        if self.q < 0 or self.p < 0 or self.q + self.p < 1:
            raise InvalidConfiguration("need q, p >= 0 with q + p >= 1")
        if len(self.alphas) != self.q + self.p or len(self.bubbles) != self.q + self.p:
            raise InvalidConfiguration("alphas/bubbles length mismatch")
        if any(a <= 0 for a in self.alphas):
            raise InvalidConfiguration("weights must be positive")
        inv_eps = 1.0 / self.eps_scale
        for i, b in enumerate(self.bubbles):
            if b.lam <= inv_eps:
                raise InvalidConfiguration(f"bubble {i}: rate {b.lam} <= 1/eps")
            ld = b.lam * b.boundary_distance()
            if i < self.q:
                if not b.is_boundary() and ld >= self.eps_scale:
                    raise InvalidConfiguration(f"bubble {i}: boundary slot but lam*d = {ld}")
            else:
                if ld <= inv_eps:
                    raise InvalidConfiguration(f"bubble {i}: interior slot but lam*d = {ld}")
        for i in range(len(self.bubbles)):
            for j in range(i + 1, len(self.bubbles)):
                e = epsilon(self.bubbles[i], self.bubbles[j])
                if e >= self.eps_scale:
                    raise InvalidConfiguration(f"eps[{i}][{j}] = {e} >= neighborhood scale")

    @property
    def mass(self) -> int:
        return self.q + 2 * self.p

    @property
    def size(self) -> int:
        return self.q + self.p

    def is_boundary_index(self, i: int) -> bool:
        return i < self.q

    def replace(self, alphas=None, bubbles=None) -> "Configuration":
        return Configuration(
            tuple(alphas if alphas is not None else self.alphas),
            tuple(bubbles if bubbles is not None else self.bubbles),
            self.q, self.p, self.eps_scale,
        )

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "p": self.p,
            "eps": self.eps_scale,
            "bubbles": [
                {"alpha": float(a), "point": [float(c) for c in b.a.coords], "lambda": float(b.lam)}
                for a, b in zip(self.alphas, self.bubbles)
            ],
        }

    @staticmethod
    def from_json(doc: dict) -> "Configuration":
        q, p = int(doc["q"]), int(doc["p"])
        alphas, bubbles = [], []
        for k, entry in enumerate(doc["bubbles"]):
            coords = np.asarray(entry["point"], dtype=float)
            pt = BoundarySpherePoint(coords) if k < q else SpherePoint(coords)
            alphas.append(float(entry["alpha"]))
            bubbles.append(BubbleParam(pt, float(entry["lambda"])))
        return Configuration(tuple(alphas), tuple(bubbles), q, p, float(doc["eps"]))


# ---------------------------------------------------------------------------
# Per-bubble frame: chart data and movement calculus
# ---------------------------------------------------------------------------

@dataclass
class BubbleFrame:
    idx: int
    boundary: bool
    alpha: float
    param: BubbleParam
    cb: ChartedBubble
    k_val: float          # K at the concentration point (chart-invariant)
    grad_sphere: np.ndarray
    grad_norm: float
    grad_k1_norm: float
    kt_val: float         # pullback data at the chart center
    kt_grad: np.ndarray
    kt_hess: np.ndarray
    kt_lap: float
    h_self: float         # H(C, C), interior only (else 0)
    dl_dloglam: float     # dlog(chart rate)/dlog(lam)
    dC_dloglam: np.ndarray
    dC_dmove: np.ndarray  # n x (n+1): chart-center shift per unit sphere move
    dl_dmove: np.ndarray  # (n+1,): dlog(chart rate) per unit sphere move
    m3: float             # sampled bound for third derivatives of the pullback

    @property
    def rate(self) -> float:
        return self.cb.rate

    @property
    def mult(self) -> int:
        """Energy multiplicity: interior profiles carry twice the mass."""
        return 1 if self.boundary else 2

    @property
    def g_n(self) -> float:
        """Vertical chart derivative of the pullback at the center."""
        return float(self.kt_grad[-1])


def _build_frame(i: int, boundary: bool, alpha: float, b: BubbleParam, K: ScalarField) -> BubbleFrame:
    cb = ChartedBubble.build(b)
    chart = cb.chart
    a = b.a.coords
    lam = b.lam
    a_chart = chart.to_chart(a)
    s2 = float(a_chart @ a_chart)
    kt_val, kt_grad, kt_hess = K.chart_data(chart, cb.center)
    grad_sphere = K.tangent_gradient(b.a)
    grad_k1 = K.boundary_gradient(b.a) if boundary else np.zeros_like(a)
    h_self = greens_regular_part(cb.center, cb.center) if (not boundary and cb.height > 0) else 0.0

    denom = lam * lam + s2
    dl_dloglam = (lam * lam - s2) / denom
    dC_dloglam = a_chart * (2.0 * lam * lam * (1.0 + s2) / denom**2)
    # chart-center shift per sphere move: dC/dA . dA/da
    nn = a.shape[0] - 1
    dCdA = (lam * lam - 1.0) * (np.eye(nn) / denom - 2.0 * np.outer(a_chart, a_chart) / denom**2)
    dldA = 2.0 * a_chart * (1.0 - lam * lam) / (lam * (1.0 + s2) ** 2) / cb.rate
    jac = chart.chart_jacobian(a)
    dC_dmove = dCdA @ jac
    dl_dmove = jac.T @ dldA

    # crude but honest third-derivative scale: finite differences of the exact
    # Hessian around the center, doubled for headroom
    h = 0.25
    m3 = 0.0
    for k in range(nn):
        e = np.eye(nn)[k] * h
        _, _, hp = K.chart_data(chart, cb.center + e)
        _, _, hm = K.chart_data(chart, cb.center - e)
        m3 = max(m3, float(np.max(np.abs(hp - hm))) / (2 * h))
    m3 *= 2.0

    return BubbleFrame(
        idx=i, boundary=boundary, alpha=alpha, param=b, cb=cb,
        k_val=K.value(b.a), grad_sphere=grad_sphere,
        grad_norm=float(np.linalg.norm(grad_sphere)),
        grad_k1_norm=float(np.linalg.norm(grad_k1)),
        kt_val=kt_val, kt_grad=kt_grad, kt_hess=kt_hess,
        kt_lap=float(np.trace(kt_hess)), h_self=h_self,
        dl_dloglam=dl_dloglam, dC_dloglam=dC_dloglam,
        dC_dmove=dC_dmove, dl_dmove=dl_dmove, m3=m3,
    )


# ---------------------------------------------------------------------------
# Options and assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelOptions:
    sep_distance: float = 0.1      # pairwise-separation hypothesis scale
    alpha_slack: float = 0.05      # tolerated post-normalization imbalance
    rem3_coeff: float = 0.5        # third-order Taylor remainder multiplier
    vbar_coeff: float = 1.0        # minimizer-residue budget constant
    interaction_bar_coeff: float = 4.0
    pair_overlap_coeff: float = 0.5  # half-space halving of boundary pairs


@dataclass
class Assembly:
    cfg: Configuration
    frames: list
    a_qty: float      # sum_b alpha^2 + 2 sum_in alpha^2
    n_qty: float      # s_n * a_qty (leading squared norm)
    num: float
    den: float
    gamma: float      # sum m_i alpha^{2n/(n-2)} K_i
    j_center: float
    rel_bar: float
    eps_mat: np.ndarray
    w_mat: np.ndarray     # pair overlap weights (1/2 when a boundary bubble is involved)
    hmut_mat: np.ndarray  # mutual regular-part terms H_ij / (mu_i mu_j)^{(n-2)/2}
    vbar: float

    @property
    def j_bar(self) -> Bar:
        return Bar(self.j_center, abs(self.j_center) * self.rel_bar)


class ReducedModel:
    """Evaluator for the reduced energy and its parameter gradients."""

    def __init__(self, K: ScalarField, constants: ConstantsTable | None = None,
                 options: ModelOptions | None = None):
        self.K = K
        self.n = K.n
        self.tbl = constants if constants is not None else compute_constants(K.n)
        self.opt = options if options is not None else ModelOptions()
        n = self.n
        t = self.tbl
        self.s_n = t.s_n
        self.c2 = t.c2
        self.cp_xn = t.c7 * n / (2.0 * (n - 2))        # cp * int_H x_n (1+r^2)^-n
        self.cp_i2h = t.c6 * n * n / (n - 2)           # cp * int_H |x|^2 (1+r^2)^-n
        self.c4 = t.c4
        self.c5 = t.c5
        # cp * int_H |x|^3 (1+r^2)^-n, for cubic remainders
        from .constants import radial_moment, sphere_area
        v, _ = radial_moment(n, 3, float(n), 1e-6)
        self.cp_i3h = t.cp * 0.5 * sphere_area(n - 1) * v

    # -- frames ---------------------------------------------------------------

    def frames(self, cfg: Configuration) -> list:
        out = []
        for i, (a, b) in enumerate(zip(cfg.alphas, cfg.bubbles)):
            out.append(_build_frame(i, i < cfg.q, a, b, self.K))
        return out

    # -- core assembly --------------------------------------------------------

    def _t_value(self, f: BubbleFrame) -> float:
        n = self.n
        mu = f.rate
        if f.boundary:
            return (self.s_n * f.kt_val
                    + self.cp_xn * f.g_n / mu
                    + self.cp_i2h * f.kt_lap / (2.0 * n * mu * mu))
        return (2.0 * self.s_n * f.kt_val
                + self.cp_i2h * f.kt_lap / (n * mu * mu)
                + (2.0 * n / (n - 2)) * f.kt_val * self.c2 * f.h_self / mu ** (n - 2))

    def mutual_h(self, fi: BubbleFrame, fj: BubbleFrame) -> float:
        """Symmetrized regular-part pair term H_ij / (mu_i mu_j)^{(n-2)/2};
        zero unless both profiles are interior."""
        if fi.boundary or fj.boundary:
            return 0.0
        n = self.n
        h_ij = greens_regular_part(fi.cb.center, fi.cb.chart.to_chart(fj.param.a.coords))
        h_ji = greens_regular_part(fj.cb.center, fj.cb.chart.to_chart(fi.param.a.coords))
        return 0.5 * (h_ij + h_ji) / (fi.rate * fj.rate) ** ((n - 2) / 2.0)

    def assemble(self, cfg: Configuration) -> Assembly:
        n = self.n
        frames = self.frames(cfg)
        alphas = np.array(cfg.alphas)
        mult = np.array([f.mult for f in frames], dtype=float)
        a_qty = float(np.sum(mult * alphas**2))
        n_qty = self.s_n * a_qty
        pw = 2.0 * n / (n - 2)

        m = cfg.size
        eps_mat = np.zeros((m, m))
        w_mat = np.zeros((m, m))
        hmut_mat = np.zeros((m, m))
        for i in range(m):
            for j in range(i + 1, m):
                eps_mat[i, j] = eps_mat[j, i] = epsilon(cfg.bubbles[i], cfg.bubbles[j])
                w = (self.opt.pair_overlap_coeff
                     if (frames[i].boundary or frames[j].boundary) else 1.0)
                w_mat[i, j] = w_mat[j, i] = w
                hm = self.mutual_h(frames[i], frames[j])
                hmut_mat[i, j] = hmut_mat[j, i] = hm

        num = n_qty
        den = 0.0
        gamma = 0.0
        for f in frames:
            if not f.boundary:
                num += self.c2 * f.alpha**2 * f.h_self / f.rate ** (n - 2)
            den += f.alpha**pw * self._t_value(f)
            gamma += f.mult * f.alpha**pw * f.k_val
        # mutual interaction cross terms (attraction channel)
        for i in range(m):
            for j in range(i + 1, m):
                pair = self.c2 * w_mat[i, j] * (eps_mat[i, j] + hmut_mat[i, j])
                num += 2.0 * alphas[i] * alphas[j] * pair
                den += pw * pair * (alphas[i] ** (pw - 1.0) * frames[i].k_val * alphas[j]
                                    + alphas[j] ** (pw - 1.0) * frames[j].k_val * alphas[i])
        j_center = num / den ** ((n - 2) / n)

        vbar = self.vbar_budget(cfg, eps_mat=eps_mat)

        # relative error bar
        rel = 0.0
        for f in frames:
            # cubic Taylor remainder of the pullback against the third moment
            rem3 = self.opt.rem3_coeff * f.m3 * self.cp_i3h / f.rate**3
            rel += f.alpha**pw * f.mult * rem3 / den
            if not f.boundary:
                # far tail of the chart integral below the boundary, plus the
                # next-order error of the image-charge correction itself
                ld = 2.0 * f.rate * max(f.cb.height, 1e-300)
                rel += f.alpha**pw * f.mult * f.kt_val * self.s_n * ld ** (-n) / den
                rel += f.alpha**pw * f.mult * f.kt_val * self.c2 * ld ** (1 - n) / den
        for i in range(m):
            for j in range(i + 1, m):
                e = eps_mat[i, j]
                if e <= 0.0:
                    continue
                slop = 6.0 * e ** (n / (n - 2.0)) * math.log(1.0 / e)
                d_ij = geodesic_distance(cfg.bubbles[i].a, cfg.bubbles[j].a)
                slop += e * d_ij * (frames[i].grad_norm + frames[j].grad_norm)
                if frames[i].boundary != frames[j].boundary:
                    f_in = frames[j] if frames[i].boundary else frames[i]
                    slop += e * (2.0 * f_in.rate * max(f_in.cb.height, 1e-300)) ** (2 - n)
                slop += hmut_mat[i, j] * e ** (1.0 / (n - 2.0))
                rel += self.opt.interaction_bar_coeff * alphas[i] * alphas[j] \
                    * self.c2 * slop / n_qty
        # the residue bound is stated for the unit-norm representation, so its
        # square is already a relative correction
        rel += self.opt.vbar_coeff * vbar**2
        # dropped-hypothesis penalty when points crowd below the separation scale
        min_d = math.inf
        for i in range(m):
            for j in range(i + 1, m):
                min_d = min(min_d, geodesic_distance(cfg.bubbles[i].a, cfg.bubbles[j].a))
        if m > 1 and min_d < self.opt.sep_distance:
            rel *= 1.0 + self.opt.sep_distance / max(min_d, 1e-12)

        return Assembly(cfg=cfg, frames=frames, a_qty=a_qty, n_qty=n_qty, num=num,
                        den=den, gamma=gamma, j_center=float(j_center), rel_bar=float(rel),
                        eps_mat=eps_mat, w_mat=w_mat, hmut_mat=hmut_mat, vbar=vbar)

    # -- public evaluations ---------------------------------------------------

    def reduced_J(self, cfg: Configuration) -> Bar:
        return self.assemble(cfg).j_bar

    def leading_level(self, k_values, mults) -> float:
        """s_n^{2/n} (sum m_i K_i^{-(n-2)/2})^{2/n}, the limiting energy."""
        n = self.n
        qsum = sum(m * k ** (-(n - 2) / 2.0) for k, m in zip(k_values, mults))
        return self.s_n ** (2.0 / n) * qsum ** (2.0 / n)

    def imbalances(self, cfg: Configuration, asm: Assembly | None = None) -> np.ndarray:
        """1 - alpha_i^{4/(n-2)} K_i A/Gamma; zero exactly at the balanced weights."""
        asm = asm or self.assemble(cfg)
        n = self.n
        out = np.empty(cfg.size)
        for f in asm.frames:
            out[f.idx] = 1.0 - f.alpha ** (4.0 / (n - 2)) * f.k_val * asm.a_qty / asm.gamma
        return out

    def normalize_alphas(self, cfg: Configuration) -> Configuration:
        """alpha_i = t K_i^{-(n-2)/4} with s_n * sum m_i alpha_i^2 = 1."""
        n = self.n
        raw = np.array([self.K.value(b.a) ** (-(n - 2) / 4.0) for b in cfg.bubbles])
        mult = np.array([1.0 if i < cfg.q else 2.0 for i in range(cfg.size)])
        t = (self.s_n * float(np.sum(mult * raw**2))) ** -0.5
        return cfg.replace(alphas=tuple(t * raw))

    def check_alpha_slack(self, cfg: Configuration) -> bool:
        return bool(np.max(np.abs(self.imbalances(cfg))) <= self.opt.alpha_slack)

    # -- minimizer-residue budget ----------------------------------------------

    def vbar_budget(self, cfg: Configuration, eps_mat=None) -> float:
        """Norm budget for the orthogonal remainder of the representation.

        c * sum_i |grad K(a_i)|/lam_i + 1/lam_i^2, plus the dimension-split
        interaction terms and interior tail terms.
        """
        n = self.n
        c = self.opt.vbar_coeff
        total = 0.0
        for i, b in enumerate(cfg.bubbles):
            g = float(np.linalg.norm(self.K.tangent_gradient(b.a)))
            total += g / b.lam + 1.0 / b.lam**2
            if i >= cfg.q:
                ld = b.lam * b.boundary_distance()
                if n == 5:
                    total += 1.0 / ld**3
                else:
                    total += math.log(max(ld, math.e)) / ld ** ((n + 2) / 2.0)
        m = cfg.size
        for i in range(m):
            for j in range(i + 1, m):
                e = eps_mat[i, j] if eps_mat is not None else epsilon(cfg.bubbles[i], cfg.bubbles[j])
                if e <= 0.0:
                    continue
                le = math.log(1.0 / e)
                if n == 5:
                    total += 2.0 * e * le ** (3.0 / 5.0)
                else:
                    total += 2.0 * e ** ((n + 2) / (2.0 * (n - 2))) * le ** ((n + 2) / (2.0 * n))
        return c * total

    # -- movement calculus ------------------------------------------------------

    def _pairing(self, asm: Assembly, i: int, dC, dloglam: float, dCn_domain: float,
                 deps, dh_mut) -> float:
        """dJ per unit move of bubble i's parameters.

        dC        : chart-center shift (n-vector)
        dloglam   : shift of log chart rate
        dCn_domain: boundary-normal chart displacement (activates the
                    domain-variation constants c4/c5)
        deps      : array over j != i of d eps_ij along the move
        dh_mut    : array over j of d[H_ij/(mu_i mu_j)^{(n-2)/2}] (rate moves)
        """
        n = self.n
        f = asm.frames[i]
        mu = f.rate
        pw = 2.0 * n / (n - 2)
        grad_dC = float(f.kt_grad @ dC)
        hess_dC_n = float((f.kt_hess @ dC)[-1])
        dh = float(dC[-1])

        if f.boundary:
            dT = (self.s_n * grad_dC
                  + self.cp_xn * (hess_dC_n - f.g_n * dloglam) / mu
                  - self.cp_i2h * f.kt_lap * dloglam / (n * mu * mu))
            dnum_own = 0.0
        else:
            dH = (2.0 - n) * (2.0 * f.cb.height) ** (1 - n) * 2.0 * dh
            dHmu = (dH - (n - 2) * f.h_self * dloglam) / mu ** (n - 2)
            dT = (2.0 * self.s_n * grad_dC
                  + self.cp_i2h * (-2.0 * f.kt_lap * dloglam) / (n * mu * mu)
                  + (2.0 * n / (n - 2)) * self.c2 * (grad_dC * f.h_self / mu ** (n - 2)
                                                     + f.kt_val * dHmu))
            dnum_own = self.c2 * f.alpha**2 * dHmu

        dnum = dnum_own + f.alpha**2 * 2.0 * mu * self.c4 * dCn_domain
        dden = f.alpha**pw * dT
        dden += f.alpha**pw * pw * mu * (f.kt_val * self.c4 + n * self.c5 * f.g_n / mu) * dCn_domain

        for j, fj in enumerate(asm.frames):
            if j == i:
                continue
            jj = j if j < i else j - 1
            de = float(deps[jj]) + float(dh_mut[jj])
            if de == 0.0:
                continue
            w = asm.w_mat[i, j]
            dnum += 2.0 * f.alpha * fj.alpha * self.c2 * w * de
            dden += (pw * self.c2 * w
                     * (f.alpha ** ((n + 2) / (n - 2)) * f.k_val * fj.alpha
                        + fj.alpha ** ((n + 2) / (n - 2)) * fj.k_val * f.alpha) * de)

        return asm.j_center * (dnum / asm.num - (n - 2) / n * dden / asm.den)

    def _grad_bar_common(self, asm: Assembly, i: int) -> float:
        """Shared error-bar aggregate for the rate/point gradients of bubble i.

        Covers the cubic Taylor remainder, interior chart tails, the
        next-order interaction corrections, the remainder aggregates, and
        the coupling to the residue budget.
        """
        n = self.n
        f = asm.frames[i]
        mu = f.rate
        pw = 2.0 * n / (n - 2)
        bar = 2.0 * asm.j_center * f.alpha ** (pw - 1.0) / asm.den \
            * (self.opt.rem3_coeff * f.m3 * self.cp_i3h / mu**3)
        if not f.boundary:
            ld = 2.0 * mu * max(f.cb.height, 1e-300)
            tail = self.s_n * f.kt_val * (n * ld ** (-n) + ld ** (1 - n)) \
                + self.c2 * f.kt_val * ld ** (2 - n) / max(mu * f.cb.height, 1.0)
            bar += 2.0 * asm.j_center * f.alpha ** (pw - 1.0) * tail / asm.den
        eps_row = asm.eps_mat[i]
        slop = 0.0
        for j in range(len(asm.frames)):
            if j == i:
                continue
            e = eps_row[j]
            if e <= 0.0:
                continue
            term = 6.0 * e ** (n / (n - 2)) * math.log(1.0 / e)
            d_ij = geodesic_distance(asm.cfg.bubbles[i].a, asm.cfg.bubbles[j].a)
            term += e * d_ij * (f.grad_norm + asm.frames[j].grad_norm)
            # positional drift of the mutual regular part is budgeted, not tracked
            term += asm.hmut_mat[i, j] * (3.0 + e ** (1.0 / (n - 2)))
            slop += asm.frames[j].alpha * self.c2 * term
        bar += 2.0 * asm.j_center / asm.n_qty * slop
        own = f.grad_norm / f.param.lam + 1.0 / f.param.lam**2 + float(np.sum(eps_row))
        bar += 2.0 * asm.j_center / asm.n_qty * self.s_n * asm.vbar * own
        r1, r1b = self.remainder_budgets(asm.cfg, asm)
        bar += 2.0 * asm.j_center / asm.n_qty * (r1b if f.boundary else r1)
        return float(bar)

    # -- gradient components -----------------------------------------------------

    def remainder_budgets(self, cfg: Configuration, asm: Assembly | None = None):
        """(R1, R1_boundary): the gradient remainder aggregates.

        R1 sums (|grad K|/lam)^{n/2} + (1/lam^2)^{(n+1)/3} over every profile,
        the log-weighted interaction powers over every pair, and the interior
        chart tails; the boundary variant restricts to boundary indices.
        """
        asm = asm or self.assemble(cfg)
        n = self.n
        r1 = r1b = 0.0
        for f in asm.frames:
            own = (f.grad_norm / f.param.lam) ** (n / 2.0) \
                + (1.0 / f.param.lam**2) ** ((n + 1) / 3.0)
            r1 += own
            if f.boundary:
                r1b += own
            else:
                ld = f.param.lam * f.param.boundary_distance()
                r1 += 1.0 / ld**n
        m = cfg.size
        for i in range(m):
            for j in range(i + 1, m):
                e = asm.eps_mat[i, j]
                if e <= 0.0:
                    continue
                term = 2.0 * e ** (n / (n - 2.0)) * math.log(1.0 / e)
                r1 += term
                if i < cfg.q and j < cfg.q:
                    r1b += term
        return float(r1), float(r1b)

    def gradient_components(self, cfg: Configuration, asm: Assembly | None = None) -> "GradientComponents":
        """Bundle of every pairing, the interaction data, and the budgets."""
        asm = asm or self.assemble(cfg)
        alpha_pairings = []
        lam_pairings = []
        a_pairings = []
        for i in range(cfg.size):
            alpha_pairings.append(self.grad_alpha(cfg, i, asm))
            if cfg.is_boundary_index(i):
                lam_pairings.append(self.grad_lambda_boundary(cfg, i, asm))
            else:
                lam_pairings.append(self.grad_lambda_interior(cfg, i, asm))
            a_pairings.append(self.grad_a(cfg, i, asm))
        m = cfg.size
        deps_dlam = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                if i != j:
                    deps_dlam[i, j], _ = epsilon_dlambda(cfg.bubbles[i], cfg.bubbles[j])
        r1, r1b = self.remainder_budgets(cfg, asm)
        return GradientComponents(
            alpha_pairings=tuple(alpha_pairings),
            lam_pairings=tuple(lam_pairings),
            a_pairings=tuple(a_pairings),
            eps=asm.eps_mat.copy(),
            eps_dloglam=deps_dlam,
            r1=r1, r1_boundary=r1b,
        )

    def grad_alpha(self, cfg: Configuration, i: int, asm: Assembly | None = None) -> Bar:
        """Pairing of the gradient with the i-th profile direction."""
        asm = asm or self.assemble(cfg)
        n = self.n
        f = asm.frames[i]
        w_i = f.mult * self.s_n + (0.0 if f.boundary else self.c2 * f.h_self / f.rate ** (n - 2))
        dnum = 2.0 * f.alpha * w_i
        dden = (2.0 * n / (n - 2)) * f.alpha ** ((n + 2) / (n - 2)) * self._t_value(f)
        center = asm.j_center * (dnum / asm.num - (n - 2) / n * dden / asm.den)
        mu = f.rate
        bar_terms = f.grad_norm / f.param.lam + 1.0 / f.param.lam**2 + float(np.sum(asm.eps_mat[i]))
        if not f.boundary:
            bar_terms += (2.0 * mu * max(f.cb.height, 1e-300)) ** (2 - n)
        bar = 2.0 * asm.j_center * f.mult * self.s_n / asm.n_qty * bar_terms
        return Bar(float(center), abs(bar))

    def grad_lambda_boundary(self, cfg: Configuration, i: int, asm: Assembly | None = None) -> Bar:
        """Pairing with lam_i d(profile)/d lam_i for a boundary bubble."""
        if not cfg.is_boundary_index(i):
            raise IndexNotBoundary(f"index {i} is interior")
        return self._grad_loglam(cfg, i, asm)

    def grad_lambda_interior(self, cfg: Configuration, i: int, asm: Assembly | None = None) -> Bar:
        if cfg.is_boundary_index(i):
            raise IndexNotInterior(f"index {i} is boundary")
        return self._grad_loglam(cfg, i, asm)

    def _grad_loglam(self, cfg: Configuration, i: int, asm: Assembly | None = None) -> Bar:
        asm = asm or self.assemble(cfg)
        n = self.n
        f = asm.frames[i]
        m = cfg.size
        deps = np.zeros(max(m - 1, 0))
        dh_mut = np.zeros(max(m - 1, 0))
        for j, fj in enumerate(asm.frames):
            if j == i:
                continue
            jj = j if j < i else j - 1
            di, _ = epsilon_dlambda(cfg.bubbles[i], cfg.bubbles[j])
            deps[jj] = di
            if not f.boundary and not fj.boundary:
                dh_mut[jj] = -(n - 2) / 2.0 * asm.hmut_mat[i, j] * f.dl_dloglam
        dJ = self._pairing(asm, i, f.dC_dloglam, f.dl_dloglam, 0.0, deps, dh_mut)
        center = dJ / f.alpha
        bar = self._grad_bar_common(asm, i)
        return Bar(float(center), abs(bar))

    def grad_a(self, cfg: Configuration, i: int, asm: Assembly | None = None,
               include_normal: bool = True):
        """Pairing with (1/lam_i) d(profile)/d a_i as an ambient tangent vector.

        Boundary bubbles get the equator-tangential components plus (when
        ``include_normal``) the inward-normal component carrying the
        weight-imbalance and normal-derivative terms.
        """
        asm = asm or self.assemble(cfg)
        f = asm.frames[i]
        a = f.param.a.coords
        basis = list(tangent_basis(a, within_equator=f.boundary))
        if f.boundary and include_normal:
            e_up = np.zeros_like(a)
            e_up[-1] = 1.0
            basis.append(e_up)  # inward direction off the equator
        vec = np.zeros_like(a)
        lam = f.param.lam
        m = cfg.size
        for e in basis:
            dC = f.dC_dmove @ e / lam
            dloglam = float(f.dl_dmove @ e) / lam
            dCn_domain = float(dC[-1]) if f.boundary else 0.0
            if f.boundary:
                dC = dC.copy()
                # tangential moves keep the center on the chart boundary; the
                # vertical displacement is handled by the domain-variation term
                dC[-1] = 0.0
            deps = np.zeros(max(m - 1, 0))
            for j in range(m):
                if j == i:
                    continue
                jj = j if j < i else j - 1
                deps[jj] = float(epsilon_da(cfg.bubbles[i], cfg.bubbles[j]) @ e) / lam
            dJ = self._pairing(asm, i, dC, dloglam, dCn_domain, deps, np.zeros(max(m - 1, 0)))
            vec = vec + (dJ / f.alpha) * e
        bar = self._grad_bar_common(asm, i) / f.param.lam
        return vec, float(abs(bar))

    # -- normal form near a matched critical collection ---------------------------

    def normal_form(self, cfg: Configuration, matches, eta: float = 0.1) -> Bar:
        """Energy normal form for configurations close to a critical collection.

        ``matches`` lists one landscape record per bubble (boundary records for
        boundary bubbles, interior records for interior ones); each bubble must
        lie within ``eta`` of its match and the matches must be distinct.

        Value: level * (1 - |alpha-deviation|^2 + sum (|A^-|^2 - |A^+|^2)
        + rate terms), where A^+/- collect the point deviations along
        positive/negative Hessian eigendirections; deviations along negative
        directions (e.g. around a boundary maximum) raise the value.
        """
        n = self.n
        if len(matches) != cfg.size:
            raise NotInWSet("need one matched critical point per bubble")
        seen = set()
        for k, rec in enumerate(matches):
            d = geodesic_distance(cfg.bubbles[k].a, rec.location)
            if d > eta:
                raise NotInWSet(f"bubble {k} is {d:.3f} away from its match")
            key = tuple(np.round(rec.location.coords, 9))
            if key in seen:
                raise NotInWSet("matched critical points must be distinct")
            seen.add(key)
            if (k < cfg.q) != (rec.kind == "boundary_of_K1"):
                raise NotInWSet(f"bubble {k} matched to a record of the wrong kind")

        mults = [1 if k < cfg.q else 2 for k in range(cfg.size)]
        k_vals = [self.K.value(rec.location) for rec in matches]
        level0 = self.leading_level(k_vals, mults)
        qsum = sum(m * k ** (-(n - 2) / 2.0) for k, m in zip(k_vals, mults))

        # weight deviation through the exact leading functional
        alphas = np.array(cfg.alphas)
        mult = np.array(mults, dtype=float)
        a_qty = float(np.sum(mult * alphas**2))
        pw = 2.0 * n / (n - 2)
        gamma = float(np.sum(mult * alphas**pw * np.array(k_vals)))
        f_alpha = a_qty * self.s_n ** (2.0 / n) / gamma ** ((n - 2) / n)
        alpha_dev2 = max(0.0, 1.0 - f_alpha / level0)

        dev_plus = dev_minus = 0.0
        corr_den = 0.0   # sum alpha^pw (T_i - m_i s_n K_i), the rate corrections
        corr_num = 0.0   # interior self-interaction correction of the squared norm
        bar = 0.0
        for k, rec in enumerate(matches):
            b = cfg.bubbles[k]
            f = _build_frame(k, k < cfg.q, cfg.alphas[k], b, self.K)
            mu = f.rate
            within = rec.kind == "boundary_of_K1"
            basis = tangent_basis(rec.location.coords, within_equator=within)
            hess = (self.K.boundary_hessian(rec.location, basis) if within
                    else self.K.tangent_hessian(rec.location, basis))
            evals, evecs = np.linalg.eigh(hess)
            # tangent-frame deviation of the point from its matched critical point
            dvec = b.a.coords - float(np.dot(b.a.coords, rec.location.coords)) * rec.location.coords
            comp = evecs.T @ (basis @ dvec)
            kk = k_vals[k]
            wts = (n - 2) / (2.0 * n) * mults[k] * kk ** (-n / 2.0) / qsum * np.abs(evals) * comp**2
            dev_plus += float(np.sum(wts[evals > 0]))
            dev_minus += float(np.sum(wts[evals < 0]))
            bar += float(np.sum(np.abs(wts))) * (float(np.linalg.norm(comp)) * 2.0 + 1.0 / mu)

            t_corr = f.alpha**pw * (self._t_value(f) - f.mult * self.s_n * f.kt_val)
            corr_den += t_corr
            if not f.boundary:
                corr_num += self.c2 * f.alpha**2 * f.h_self / mu ** (n - 2)
            dist = geodesic_distance(b.a, rec.location)
            bar += abs(t_corr) / (self.s_n * gamma) * (3.0 * dist + 1.0 / mu) \
                + f.alpha**pw * self.opt.rem3_coeff * f.m3 * self.cp_i3h / mu**3 / (self.s_n * gamma)

        rate_terms = corr_num / (self.s_n * a_qty) - (n - 2) / n * corr_den / (self.s_n * gamma)
        m = cfg.size
        for i in range(m):
            for j in range(i + 1, m):
                e = epsilon(cfg.bubbles[i], cfg.bubbles[j])
                bar += 4.0 * self.c2 * cfg.alphas[i] * cfg.alphas[j] * e / (self.s_n * a_qty)

        center = level0 * (1.0 - alpha_dev2 + dev_minus - dev_plus + rate_terms)
        return Bar(float(center), float(level0 * (bar + alpha_dev2**1.5 + 1e-12)))


@dataclass(frozen=True)
class GradientComponents:
    """Per-index pairings, interaction data, and remainder budgets.

    alpha_pairings[i]: pairing with the i-th profile direction
    lam_pairings[i]:   pairing with lam_i d/dlam_i
    a_pairings[i]:     (tangent vector, bar) for (1/lam_i) d/da_i
    eps, eps_dloglam:  pairwise interactions and their scaled rate derivatives
    r1, r1_boundary:   nonnegative remainder aggregates
    """

    alpha_pairings: tuple
    lam_pairings: tuple
    a_pairings: tuple
    eps: np.ndarray
    eps_dloglam: np.ndarray
    r1: float
    r1_boundary: float

    def __post_init__(self):
        assert self.r1 >= 0.0 and self.r1_boundary >= 0.0
