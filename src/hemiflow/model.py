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
summed from the terms of one bar ledger, each computed once per assembly
and kept on the ``Assembly``.  The bars that read a term: E the energy's
relative bar ``rel_bar``, G bubble i's rate bar (its point bar is G/lam_i),
W its weight bar; ld = 2 mu C_n is an interior frame's image distance.

    terms[i].cubic        the pullback's cubic Taylor remainder       E G
    terms[i].chart_tail   ld^{-n}: the chart integral's far tail      E G
    terms[i].image_error  ld^{1-n}: the image-charge correction error E G
    terms[i].charge       ld^{2-n}: the image charge                  W G
    terms[i].grad_tail    the gradient's interior tail                  G
    pair_terms[k]         interacting pair k's slop, and its member's
                          image correction e ld^{2-n} if it is mixed  E
    pair_bars[i]          sum_j alpha_j c2 (slop_ij + 3 H_ij)           G
    vbar, budgets         the residue budget, the remainder aggregates
                          (E reads vbar^2, G both)                    E G
    sep_factor            1 + SEP_DISTANCE/min_d for crowded points   E

rel_bar sums the pair terms, the frame terms and vbar^2 in that order,
times sep_factor.  The gradient tail is not the derivative of the energy's
tail terms (``ReducedModel._frame_terms`` says by how much).

Gradient components are the exact parameter derivatives of this expansion
plus the pairing-only contributions the smooth formula cannot see: the
interaction derivatives (two-bubble attraction) and, for boundary-normal
moves, the domain-variation terms with constants c4/c5.  Closed-form
identities (c3 = (n-2)/(2n) cpXn, c9 = c6/2, s_n = 2 n^2 c5/(n-2)) make
these derivatives coincide with the classical first-order gradient
expansions in the rate, point and weight directions; the test suite checks
both routes against honest quadrature.

Each state is evaluated once.  The admissibility check evaluates each
unordered pair once per tuple of bubbles: a weight-only change
(``Configuration.replace``, as ``normalize_alphas`` makes) and the flow's
tower restriction share the pair table (``Configuration``); ``frames`` builds
every bubble's chart data in closed ambient form (every chart quantity
lives in the bubble's meridian plane, so no chart rotation or pullback
call is made), with the sphere and trace gradients of K and the scaled
boundary distance lam * d(a, dS+); ``assemble`` makes one pass over the
configuration's pairs for the point derivatives, distances, cross terms
and the ledger's pair terms, keeping each interacting pair's log(1/eps) and
eps^{n/(n-2)} for the budgets and the flow's certificate, and computes the
weight imbalances and budgets once.  The gradient pairings and the flow
read what they need off the ``Assembly``.
The gradients take one of two routes.  ``gradient_components`` asks
``grad_a`` for each bubble's weight, rate and point pairings and keeps the
bundle on the ``Assembly``; a caller that needs the gradient itself builds
it.  ``pairings_along`` gives a bubble's weight and rate pairings and its
pairing along one move of its point, with no bundle: the flow's decrease
certificate takes this route unless the bundle is already there.  Both
read the weight pairing and the rate/point bar from one routine
(``_bars``) and build their pairing columns with another, so the weight
and rate pairings and the bars are the same bits on both, and the pairing
along a move is the bundle's point vector . move to rounding.  The bar
constants are module constants.

A bubble's point pairing needs no tangent basis: the pairing is linear in
the move, so one call pairs the rate direction and the n+1 ambient axes,
whose chart shifts are the frame's four move covectors, and the orthogonal
projector onto the admissible moves, g - (a.g) a, turns the ambient
covector g into the tangent vector.  Along one move x the projector moves
onto x, as (g - (a.g) a).x = g.(x - (a.x) a), and one column pairs it.

Per-bubble scalars are Python floats: with m <= 3 bubbles, numpy's call
overhead on (m, n+1) arrays cost more than the arithmetic.  numpy stays
where the result is an (n+1)-vector (one Q.b product and the covectors per
bubble, the projected point pairing) and for the batched K calls.  The
pairing evaluates its expression move by move in floats, which rounds
exactly as the same expression over numpy arrays of moves.  The weights
are floats too (``Configuration`` stores them so), and the pair tables and
the imbalances are read a row at a time with ``tolist``: float64 + - * /
and ** round the same on numpy scalars, which cost several times more per
operation.  The scalar ``np.arcsin``/``np.arccos`` calls (a point's
boundary distance, a pair's distance) stay numpy: ``math.asin`` and
``math.acos`` round differently on some inputs.  A float ** that
overflows raises OverflowError and a float / by zero ZeroDivisionError;
``assemble`` turns both into NonFiniteBar, as it does a negative energy
denominator, whose float power would be complex.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul

import numpy as np

from .bubbles import BubbleParam, _interaction_terms
from .constants import ConstantsTable, compute_constants, sphere_area
from .errors import InvalidConfiguration, NonFiniteBar, PoleSingularity
from .fields import ScalarField
from .geometry import HEIGHT_TOL, POLE_TOL
from .intervals import Bar
from .record import FrozenRecord, Record, set_field


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _checked_weights(alphas, size: int) -> tuple:
    """The weights as a tuple of Python floats, whatever the caller passes
    (numpy scalars from a velocity or an array), so every reader computes in
    floats; refuses a count other than ``size`` and a weight that is not
    positive and finite (a NaN passes a plain a <= 0 test)."""
    if len(alphas) != size:
        raise InvalidConfiguration("alphas/bubbles length mismatch")
    alphas = tuple(map(float, alphas))
    for i, a in enumerate(alphas):
        if not 0.0 < a < math.inf:
            raise InvalidConfiguration(f"weights must be positive and finite: bubble {i} has {a}")
    return alphas


class Configuration(FrozenRecord):
    """q boundary + p interior weighted bubbles inside V(q+2p, q, p, eps).

    The admissibility check evaluates each pair i < j once: one dot product
    c = a_i.a_j and one ``bubbles._interaction_terms`` call give the
    read-only tables ``eps_mat`` and ``eps_dloglam`` (lam_i d eps_ij/d lam_i
    at [i, j]) and ``pairs``, (i, j, c, eps_ij, g^{-n/2}) in row order.
    The slot conditions and these tables read only the points and the
    rates, so they are built once per tuple of bubbles: ``replace`` with
    the bubbles unchanged checks only the new weights and shares the
    tables, and ``_restricted`` cuts a sub-tuple's tables out of them.

    ``_memo`` holds what each evaluator computed for this configuration: its
    ``Assembly`` per ``ReducedModel`` (see ``ReducedModel.assemble``) and its
    region label and descent field per ``PseudogradientFlow`` (see
    ``PseudogradientFlow.classify_region``).  It lives and dies with the
    configuration and, like the tables, takes no part in equality, hashing
    or the repr.
    """

    alphas: tuple
    bubbles: tuple
    q: int
    p: int
    eps_scale: float = 0.1

    def __init__(self, alphas, bubbles, q, p, eps_scale=eps_scale):
        if q < 0 or p < 0 or q + p < 1:
            raise InvalidConfiguration("need q, p >= 0 with q + p >= 1")
        if not eps_scale > 0:
            raise InvalidConfiguration(f"neighborhood scale eps = {eps_scale} must be positive")
        m = q + p
        if len(bubbles) != m:
            raise InvalidConfiguration("alphas/bubbles length mismatch")
        alphas = _checked_weights(alphas, m)
        inv_eps = 1.0 / eps_scale
        for i, b in enumerate(bubbles):
            if b.lam <= inv_eps:
                raise InvalidConfiguration(f"bubble {i}: rate {b.lam} <= 1/eps")
            ld = b.lam * b.boundary_distance()
            if i < q:
                if not b.is_boundary() and ld >= eps_scale:
                    raise InvalidConfiguration(f"bubble {i}: boundary slot but lam*d = {ld}")
            else:
                if ld <= inv_eps:
                    raise InvalidConfiguration(f"bubble {i}: interior slot but lam*d = {ld}")
        eps_mat = np.zeros((m, m))
        eps_dloglam = np.zeros((m, m))
        pairs = []
        for i, bi in enumerate(bubbles):
            for j in range(i + 1, m):
                bj = bubbles[j]
                c = float(np.dot(bi.a.coords, bj.a.coords))
                e, di, dj, g_pow = _interaction_terms(bi.lam, bj.lam, 1.0 - c, bi.n)
                if e >= eps_scale:
                    raise InvalidConfiguration(f"eps[{i}][{j}] = {e} >= neighborhood scale")
                eps_mat[i, j] = eps_mat[j, i] = e
                eps_dloglam[i, j], eps_dloglam[j, i] = di, dj
                pairs.append((i, j, c, float(e), g_pow))
        eps_mat.flags.writeable = eps_dloglam.flags.writeable = False
        set_field(self, "alphas", alphas)
        set_field(self, "bubbles", bubbles)
        set_field(self, "q", q)
        set_field(self, "p", p)
        set_field(self, "eps_scale", eps_scale)
        set_field(self, "eps_mat", eps_mat)
        set_field(self, "eps_dloglam", eps_dloglam)
        set_field(self, "pairs", tuple(pairs))
        set_field(self, "_memo", {})

    @property
    def size(self) -> int:
        return self.q + self.p

    def is_boundary_index(self, i: int) -> bool:
        return i < self.q

    def replace(self, alphas=None, bubbles=None) -> "Configuration":
        """This configuration with new weights or bubbles and an empty
        ``_memo``.  With the bubbles unchanged only the weights are checked,
        and the bubble tables are shared."""
        if bubbles is not None:
            return Configuration(self.alphas if alphas is None else alphas, tuple(bubbles),
                                 self.q, self.p, self.eps_scale)
        alphas = self.alphas if alphas is None else _checked_weights(alphas, self.size)
        return self._on_tables(alphas, self.bubbles, self.q, self.p,
                               self.eps_mat, self.eps_dloglam, self.pairs)

    def _restricted(self, indices) -> "Configuration":
        """The configuration of the bubbles at the ascending ``indices``,
        its tables cut out of this one's: the sub-blocks, and the pairs
        within the sub-tuple re-indexed in row order.  A sub-tuple keeps
        its slots, its pairs and its scale, so it is admissible unchecked."""
        pos = {i: k for k, i in enumerate(indices)}
        q_sub = sum(1 for i in indices if i < self.q)
        eps_mat = self.eps_mat.take(indices, 0).take(indices, 1)
        eps_dloglam = self.eps_dloglam.take(indices, 0).take(indices, 1)
        eps_mat.flags.writeable = eps_dloglam.flags.writeable = False
        pairs = tuple((pos[i], pos[j], c, e, g) for i, j, c, e, g in self.pairs
                      if i in pos and j in pos)
        return self._on_tables(tuple(self.alphas[i] for i in indices),
                               tuple(self.bubbles[i] for i in indices),
                               q_sub, len(indices) - q_sub, eps_mat, eps_dloglam, pairs)

    def _on_tables(self, alphas, bubbles, q, p, eps_mat, eps_dloglam, pairs) -> "Configuration":
        # the constructor without its checks: the caller vouches that the
        # tables belong to the bubbles and the weights are checked
        cfg = object.__new__(Configuration)
        vars(cfg).update(alphas=alphas, bubbles=bubbles, q=q, p=p, eps_scale=self.eps_scale,
                         eps_mat=eps_mat, eps_dloglam=eps_dloglam, pairs=pairs, _memo={})
        return cfg

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "p": self.p,
            "eps": self.eps_scale,
            "bubbles": [
                {"alpha": a, "point": [float(c) for c in b.a.coords], "lambda": float(b.lam)}
                for a, b in zip(self.alphas, self.bubbles)
            ],
        }

    @staticmethod
    def from_json(doc: dict) -> "Configuration":
        """A state document, ``to_json``'s form (``config.read_state``)."""
        from .config import read_state
        return read_state(doc)


# ---------------------------------------------------------------------------
# Per-bubble frame: chart data and movement calculus
# ---------------------------------------------------------------------------

class BubbleFrame(Record):
    """One bubble's chart data and movement calculus; ``ReducedModel.frames``
    builds all of a state's frames in one pass.

    The bubble's adapted chart is the stereographic projection that sends
    its anchor b = (a_h/|a_h|, 0) (e_1 at the pole) to the origin and keeps
    e_{n+1} vertical.  Every chart quantity the model reads is fixed by the
    meridian plane span(b, e_{n+1}), so the frame holds them in ambient
    form: the chart center C = t e_n (``height`` t), the rate, the pullback
    Kt's value, vertical derivative, vertical second derivative and
    Laplacian at C, and four covectors that turn a sphere move x of the
    point into the chart shifts the pairing reads (derived in
    ``ReducedModel.frames``):

        grad Kt . dC     = move_g.x + g_n move_v.x
        (Hess Kt . dC)_n = move_w.x + h_nn move_v.x
        dC_n = move_v.x,   dlog(rate) = move_l.x
    """

    boundary: bool
    alpha: float
    param: BubbleParam
    anchor: np.ndarray    # b, the equator point below the concentration point
    rate: float           # chart rate mu
    height: float         # last coordinate t of the chart center (0 on the equator)
    k_val: float          # K at the concentration point (chart-invariant)
    grad_sphere: np.ndarray
    grad_norm: float
    grad_k1: np.ndarray   # gradient of the trace K_1 on the equator; zero inside
    grad_k1_norm: float
    lam_dist: float       # lam * d(a, dS+), the scaled distance to the boundary
    kt_val: float         # pullback data at the chart center
    g_n: float            # dKt/dx_n
    h_nn: float           # d^2Kt/dx_n^2
    kt_lap: float
    h_self: float         # H(C, C), interior only (else 0)
    dl_dloglam: float     # dlog(chart rate)/dlog(lam)
    dh_dloglam: float     # dC_n/dlog(lam); the rate move shifts C vertically only
    move_g: np.ndarray    # (n+1,) covectors of a unit sphere move, see above
    move_w: np.ndarray
    move_v: np.ndarray
    move_l: np.ndarray

    def __init__(self, boundary, alpha, param, anchor, rate, height, k_val, grad_sphere, grad_norm,
                 grad_k1, grad_k1_norm, lam_dist, kt_val, g_n, h_nn, kt_lap, h_self, dl_dloglam,
                 dh_dloglam, move_g, move_w, move_v, move_l):
        self.boundary = boundary
        self.alpha = alpha
        self.param = param
        self.anchor = anchor
        self.rate = rate
        self.height = height
        self.k_val = k_val
        self.grad_sphere = grad_sphere
        self.grad_norm = grad_norm
        self.grad_k1 = grad_k1
        self.grad_k1_norm = grad_k1_norm
        self.lam_dist = lam_dist
        self.kt_val = kt_val
        self.g_n = g_n
        self.h_nn = h_nn
        self.kt_lap = kt_lap
        self.h_self = h_self
        self.dl_dloglam = dl_dloglam
        self.dh_dloglam = dh_dloglam
        self.move_g = move_g
        self.move_w = move_w
        self.move_v = move_v
        self.move_l = move_l

    @property
    def mult(self) -> int:
        """Energy multiplicity: interior profiles carry twice the mass."""
        return 1 if self.boundary else 2


# ---------------------------------------------------------------------------
# Bar constants and assembly
# ---------------------------------------------------------------------------

SEP_DISTANCE = 0.1           # pairwise-separation hypothesis scale
REM3_COEFF = 0.5             # third-order Taylor remainder multiplier
INTERACTION_BAR_COEFF = 4.0  # weight of the pair slop in the energy bar
PAIR_OVERLAP_COEFF = 0.5     # half-space halving of boundary pairs


# one frame's bar terms (module docstring); a boundary frame's ld terms are 0
FrameTerms = namedtuple("FrameTerms", "cubic chart_tail image_error charge grad_tail")


class Assembly(Record):
    """A state's frames, energy with its relative bar and bar ledger, pair
    tables, weight imbalances and budgets; the gradient bundle joins it on
    first use."""

    # no back-reference to the configuration: the configuration holds its
    # assembly, and a cycle would leave both to the cyclic collector
    frames: list
    n_qty: float      # s_n (sum_b alpha^2 + 2 sum_in alpha^2), the leading squared norm
    num: float
    den: float
    gamma: float      # sum m_i alpha^{2n/(n-2)} K_i
    j_center: float
    rel_bar: float
    # the pair tables, one entry per ordered pair (i, j); diagonals are zero
    eps_mat: np.ndarray       # interaction coefficients eps_ij (the configuration's)
    eps_sums: list            # each bubble's row sum of eps_mat, as np.sum sums the row
    eps_dloglam: np.ndarray   # lam_i d eps_ij / d lam_i (the configuration's)
    eps_da: np.ndarray        # (m, m, n+1): d eps_ij / d a_i; [j, i] = -[i, j]
    w_mat: np.ndarray     # pair overlap weights (1/2 when a boundary bubble is involved)
    hmut_mat: np.ndarray  # mutual regular-part terms H_ij / (mu_i mu_j)^{(n-2)/2}
    dist_mat: np.ndarray  # geodesic distances between the concentration points
    # (i, j, eps_ij, log(1/eps_ij), eps_ij^{n/(n-2)}) per pair with eps_ij > 0, in
    # the order of ``Configuration.pairs``, for the budgets and the certificate
    interacting: list
    vbar: float
    budgets: tuple        # (R1, R1_boundary)
    imbalances: np.ndarray  # 1 - alpha_i^{4/(n-2)} K_i A/Gamma per bubble
    terms: list           # FrameTerms per frame
    pair_terms: list      # (slop, image correction) per interacting pair
    pair_bars: list       # per bubble, summed over j ascending
    sep_factor: float
    grads: GradientComponents | None = None  # stored by gradient_components
    # and j_bar, the energy's Bar, made from j_center and rel_bar

    def __init__(self, frames, n_qty, num, den, gamma, j_center, rel_bar, eps_mat, eps_sums,
                 eps_dloglam, eps_da, w_mat, hmut_mat, dist_mat, interacting, vbar, budgets,
                 imbalances, terms, pair_terms, pair_bars, sep_factor, grads=grads):
        if not (math.isfinite(j_center) and math.isfinite(rel_bar)):
            raise NonFiniteBar(f"non-finite energy {j_center!r} with relative bar {rel_bar!r}")
        self.frames = frames
        self.n_qty = n_qty
        self.num = num
        self.den = den
        self.gamma = gamma
        self.j_center = j_center
        self.rel_bar = rel_bar
        self.eps_mat = eps_mat
        self.eps_sums = eps_sums
        self.eps_dloglam = eps_dloglam
        self.eps_da = eps_da
        self.w_mat = w_mat
        self.hmut_mat = hmut_mat
        self.dist_mat = dist_mat
        self.interacting = interacting
        self.vbar = vbar
        self.budgets = budgets
        self.imbalances = imbalances
        self.terms = terms
        self.pair_terms = pair_terms
        self.pair_bars = pair_bars
        self.sep_factor = sep_factor
        self.grads = grads
        self.j_bar = Bar(j_center, abs(j_center) * rel_bar)


class ReducedModel:
    """Evaluator for the reduced energy and its parameter gradients."""

    def __init__(self, K: ScalarField, constants: ConstantsTable | None = None):
        self.K = K
        self.n = K.n
        self.tbl = constants if constants is not None else compute_constants(K.n)
        n = self.n
        t = self.tbl
        self.s_n = t.s_n
        self.c2 = t.c2
        self.cp_xn = t.c7 * n / (2.0 * (n - 2))        # cp * int_H x_n (1+r^2)^-n
        self.cp_i2h = t.c6 * n * n / (n - 2)           # cp * int_H |x|^2 (1+r^2)^-n
        self.c4 = t.c4
        self.c5 = t.c5
        # cp * int_H |x|^3 (1+r^2)^-n, for cubic remainders: its radial
        # moment int_0^inf r^{n+2} (1+r^2)^-n dr is B((n+3)/2, (n-3)/2) / 2
        beta = math.gamma((n + 3) / 2.0) * math.gamma((n - 3) / 2.0) / math.gamma(n)
        self.cp_i3h = t.cp * 0.5 * sphere_area(n - 1) * 0.5 * beta
        # one third-derivative bound for every chart of K (see _frame_terms)
        lam_q = np.linalg.eigvalsh(K.quadratic)
        self.m3 = float(4.0 * np.linalg.norm(K.linear) + 12.0 * (lam_q[-1] - lam_q[0]))
        # what ``frames`` reads of K as floats, and the fixed rows of its
        # covector product: lin_h, (Q.b)_h (set per bubble), Qe_h, b (set
        # per bubble) and e_{n+1}
        q = K.quadratic
        self._lin = K.linear.tolist()
        self._q_nn = float(q[-1, -1])
        self._tr_q = float(np.trace(q))
        rows = np.zeros((5, n + 1))
        rows[0, :-1] = K.linear[:-1]
        rows[2, :-1] = q[:-1, -1]
        rows[4, -1] = 1.0
        self._move_rows = rows

    # -- frames ---------------------------------------------------------------

    def frames(self, cfg: Configuration) -> list:
        """Every bubble's frame in closed ambient form: no chart rotation, no
        pullback call.

        The chart is y = (R^T x)[1:]/(1 + (R^T x)_0), R a rotation that maps
        e_1 to the anchor b and fixes e_{n+1} (``geometry.RotatedChart``).
        With r = b.a the concentration point is a = r b + a_n e_{n+1} (at the
        pole, where b = e_1, up to its horizontal part below 1e-12); the
        chart sends it to tau e_n, tau = a_n/(1 + r), so with D = lam^2 + tau^2
        the rate is mu = D/(lam (1 + tau^2)) and the center C = t e_n with
        t = tau (lam^2 - 1)/D (t = 0 on the equator).
        The inverse chart p(y) = R((1 - |y|^2, 2y)/(1 + |y|^2)) maps C to
        P = ((1 - t^2) b + 2t e_{n+1})/d, d = 1 + t^2, with Jacobian
        J = (2/d)[E, T]: E an orthonormal basis of the horizontal complement of b
        (the chart's first n-1 axes) and T = (-2t b + (1 - t^2) e_{n+1})/d the
        meridian tangent, so {E, T, P} is an orthonormal basis of R^{n+1}.
        With g = lin + 2QP, Kt(C) = K(P) and g_n = (2/d) T.g.  The Hessian
        is J^T 2Q J plus sum_a g_a D^2 p_a, which at y = t e_n is (see
        ``ScalarField.chart_data``, c = b.g + t g_{n+1})
        -4c/d^2 I - 4t(g_y e_n^T + e_n g_y^T)/d^2 + 16c t^2/d^3 e_n e_n^T,
        g_y = (E.g, g_{n+1}) the chart components of g.  With
        corr = -8t g_{n+1}/d^2 + 16c t^2/d^3 and tr Q = E.QE + T.QT + P.QP:

            lap Kt = (8/d^2)(tr Q - P.QP) - 4cn/d^2 + corr
            H_nn   = (8/d^2) T.QT - 4c/d^2 + corr
            H_nE   = (8/d^2) E.QT - (4t/d^2) E.g

        A sphere move x moves the chart image A of a by the chart map's
        Jacobian at a: E^T x/(1 + r) on the horizontal axes and V.x on the
        vertical one, V = -a_n/(1 + r)^2 b + e_{n+1}/(1 + r).  At A = tau e_n,
        dC/dA = (lam^2 - 1)(I/D - 2AA^T/D^2) is diagonal: delta_h =
        (lam^2 - 1)/D horizontally, delta_v = (lam^2 - 1)(1/D - 2tau^2/D^2)
        vertically; dlog(mu)/dA = ell e_n, ell = 2tau(1 - lam^2)/(lam (1 +
        tau^2)^2 mu).  So grad Kt . dC = (2/d) delta_h (E^T g).(E^T x)/(1 + r)
        + g_n delta_v V.x, and likewise with the row H_n. for (Hess Kt . dC)_n;
        with P_perp x = x - (b.x)b - x_{n+1} e_{n+1} = E E^T x the chart
        products contract to the covectors of ``BubbleFrame``:

            move_g = 2 delta_h/(d(1 + r)) P_perp g
            move_w = delta_h/(1 + r) P_perp(8QT/d^2 - 4t g/d^2)
            move_v = delta_v V,   move_l = ell V.

        The rate move lam d/dlam shifts log(mu) by (lam^2 - tau^2)/D and C by
        2tau lam^2 (1 + tau^2)/D^2 e_n.

        Each bubble is evaluated on its own, its scalars in Python floats.
        Q enters only through the one product Q.b: P and T lie in
        span(b, e_{n+1}), so with cos = (1 - t^2)/d, sin = 2t/d and
        Qe = Q e_{n+1} (the last column of Q)

            QP = cos Qb + sin Qe,   QT = cos Qe - sin Qb,

        and, Q being symmetric, b.Qe = (Qb)_{n+1}.  Hence
        P.QP = cos^2 b.Qb + 2 cos sin b.Qe + sin^2 Q_{n+1,n+1}, T.QT likewise,
        b.g = b.lin + 2(cos b.Qb + sin b.Qe), g_{n+1} = lin_{n+1} +
        2(cos b.Qe + sin Q_{n+1,n+1}), T.g = cos g_{n+1} - sin b.g and
        lin.P = cos b.lin + sin lin_{n+1}.  The four covectors are one
        product of a (4, 5) coefficient matrix with the rows lin_h, (Qb)_h,
        Qe_h, b and e_{n+1} (_h: last entry dropped): g_h = lin_h +
        2 cos (Qb)_h + 2 sin Qe_h and (QT)_h = cos Qe_h - sin (Qb)_h, and
        P_perp x = x_h - (b.x_h) b is applied after the sum, so that a move
        along b = +-e_k pairs to an exact 0.  ``ReducedModel.__init__``
        converts lin, Q_{n+1,n+1} and tr Q to floats and stacks the fixed
        rows once per field.

        K's value, its sphere and trace gradients and their norms stay on
        one batched ``K.value``/``K.tangent_gradient``/``np.vecdot`` call
        each: every row of a batch gets the bits of its single-point call,
        so these fields equal K's pointwise results exactly, and a bubble's
        frame is the frame it has alone in a one-bubble configuration.
        """
        nn = self.n
        K = self.K
        for i, b in enumerate(cfg.bubbles):
            if b.a.coords.shape[0] != nn + 1:
                raise InvalidConfiguration(
                    f"bubble {i}: point has {b.a.coords.shape[0]} coordinates, field needs {nn + 1}")
        # K's value and sphere gradient in one batched call each; every row
        # gets the bits of its single-point call
        pts = np.array([b.a.coords for b in cfg.bubbles])
        grad_sphere = K.tangent_gradient(pts)
        grad_k1 = grad_sphere.copy()   # gradient of the trace on the equator sphere
        grad_k1[:, -1] = 0.0
        grad_k1[cfg.q:] = 0.0
        k_val = K.value(pts).tolist()
        grad_norm = np.sqrt(np.vecdot(grad_sphere, grad_sphere)).tolist()
        grad_k1_norm = np.sqrt(np.vecdot(grad_k1, grad_k1)).tolist()

        quad, lin, q_nn, tr_q = K.quadratic, self._lin, self._q_nn, self._tr_q
        lin_n = lin[-1]
        frames = []
        for i, b in enumerate(cfg.bubbles):
            lam = b.lam
            xs = b.a.coords.tolist()
            a_n = xs[-1]
            r = math.hypot(*xs[:-1])
            if r < 1e-12:
                bl = [1.0] + [0.0] * nn
                r = xs[0]
            else:
                bl = [x / r for x in xs[:-1]] + [0.0]
            anchor = np.array(bl)
            qb_vec = quad.dot(anchor)
            qb = qb_vec.tolist()
            b_qb = sum(map(mul, bl, qb))      # b.Qb
            b_qe = qb[-1]                     # b.Q e_{n+1}, Q symmetric
            b_lin = sum(map(mul, bl, lin))

            # the meridian scalars
            r1 = 1.0 + r
            s = a_n / r1
            l2, s2 = lam * lam, s * s
            denom = l2 + s2
            t = 0.0 if abs(a_n) <= HEIGHT_TOL else s * ((l2 - 1.0) / denom)
            d = 1.0 + t * t
            d2 = d * d
            cos, sin = (1.0 - t * t) / d, 2.0 * t / d
            # P.QP, T.QT, b.g, g_{n+1} and T.g from Q.b, as P and T
            # lie in span(b, e_{n+1})
            pqp = cos * cos * b_qb + 2.0 * cos * sin * b_qe + sin * sin * q_nn
            tqt = cos * cos * q_nn - 2.0 * cos * sin * b_qe + sin * sin * b_qb
            bg = b_lin + 2.0 * (cos * b_qb + sin * b_qe)
            g_up = lin_n + 2.0 * (cos * b_qe + sin * q_nn)
            tg = cos * g_up - sin * bg

            # pullback data at the chart center
            c = bg + t * g_up
            corr = -8.0 * t * g_up / d2 + 16.0 * c * t * t / (d2 * d)
            kt_val = K.kappa0 + (cos * b_lin + sin * lin_n) + pqp
            h_nn = 8.0 / d2 * tqt - 4.0 * c / d2 + corr
            kt_lap = 8.0 / d2 * (tr_q - pqp) - 4.0 * c * nn / d2 + corr
            mu = denom / (lam * (1.0 + s2))
            # H(C, C) = (2 C_n)^{2-n}, interior bubbles only
            h_self = (2.0 * t * (2.0 * t)) ** ((2 - nn) / 2.0) if i >= cfg.q and t > 0 else 0.0

            # the move covectors as one product of coefficient rows with the
            # rows (lin_h, Qb_h, Qe_h, b, e_{n+1}), _h the horizontal part:
            # g_h = lin_h + 2 cos Qb_h + 2 sin Qe_h, QT_h = cos Qe_h - sin Qb_h
            # and V = vb b + ve e_{n+1}; then P_perp x_h = x_h - (b.x_h) b
            delta_h = (l2 - 1.0) / denom
            delta_v = (l2 - 1.0) * (1.0 / denom - 2.0 * s2 / (denom * denom))
            ell = 2.0 * s * (1.0 - l2) / (lam * (1.0 + s2) * (1.0 + s2) * mu)
            cg = 2.0 * delta_h / (d * r1)
            cq = delta_h / r1 * (8.0 / d2)
            cw = -delta_h / r1 * (4.0 * t / d2)
            vb, ve = -a_n / (r1 * r1), 1.0 / r1
            rows = self._move_rows.copy()
            rows[1] = qb_vec
            rows[1, -1] = 0.0
            rows[3] = anchor
            moves = np.array((
                (cg, 2.0 * cg * cos, 2.0 * cg * sin, 0.0, 0.0),
                (cw, 2.0 * cw * cos - cq * sin, 2.0 * cw * sin + cq * cos, 0.0, 0.0),
                (0.0, 0.0, 0.0, delta_v * vb, delta_v * ve),
                (0.0, 0.0, 0.0, ell * vb, ell * ve))).dot(rows)
            # projected after the sum, so that a move along b = +-e_k pairs to 0
            moves[:2] -= moves[:2].dot(anchor)[:, None] * anchor
            frames.append(BubbleFrame(
                boundary=i < cfg.q, alpha=cfg.alphas[i], param=b, anchor=anchor,
                rate=mu, height=t, k_val=k_val[i], grad_sphere=grad_sphere[i],
                grad_norm=grad_norm[i], grad_k1=grad_k1[i], grad_k1_norm=grad_k1_norm[i],
                lam_dist=lam * b.boundary_distance(), kt_val=kt_val, g_n=2.0 / d * tg, h_nn=h_nn,
                kt_lap=kt_lap, h_self=h_self, dl_dloglam=(l2 - s2) / denom,
                dh_dloglam=2.0 * s * l2 * (1.0 + s2) / (denom * denom),
                move_g=moves[0], move_w=moves[1], move_v=moves[2], move_l=moves[3]))
        return frames

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

    def _frame_terms(self, f: BubbleFrame) -> FrameTerms:
        """Frame f's bar terms.

        The cubic remainder bounds the pullback's Taylor remainder against
        the third moment.  Each chart pulls K back to Kt = kappa0 + c + b'.p
        + p.A.p with p(y) = (1 - |y|^2, 2y)/(1 + |y|^2), b' = R^T b (R the
        chart rotation) and, as |p| = 1, A = R^T Q R - cI; c = (lmax + lmin)/2
        of Q gives ||A|| = d/2 with d = lmax - lmin.
        On a line y + t u (|u| = 1) put w = y - (y.u) u, tau = t + y.u and
        h^2 = 1 + |w|^2: p = (2F - 1, 2(w + tau u) F) with F = 1/(tau^2 + h^2)
        and tau F + i h F = 1/(tau - i h), so for k >= 1
        |d^k p/dt^k| = 2 k!/(1 + |y + t u|^2)^((k+1)/2): M_k = sup |D^k p[u^k]|
        is 1, 2, 4, 12 for k = 0..3, attained at y = 0.  With P_k = D^k p[z^k],
        d^3/ds^3 Kt(C + s z) = b'.P_3 + 2 P_0.A P_3 + 6 P_1.A P_2 is at most
        (12 |b| + 36 d) |z|^3, so |Kt(C + z) - T_2(z)| <= 0.5 m3 |z|^3 with
        m3 = 4 |b| + 12 d, one number per field (``self.m3``).

        The gradient tail is s_n Kt (n ld^{-n} + ld^{1-n}) + c2 Kt ld^{2-n}
        / max(mu C_n, 1).  It is not the derivative of the energy's tail
        s_n Kt ld^{-n} + c2 Kt ld^{1-n}: along lam d/dlam, dlog(ld)/dlog(lam)
        = (lam^2 + 1)/(lam^2 - 1) >= 1, so that derivative is at least
        n s_n Kt ld^{-n} + (n - 1) c2 Kt ld^{1-n} in size.  The tail has the
        first term, but as mu C_n = ld/2 its others are at most (s_n + 2 c2)
        Kt ld^{1-n}, and s_n/c2 is 0.092 at n = 5 and falls with n: short of
        (n - 1) c2 Kt ld^{1-n} by a factor of about (n - 1)/2.  It is kept
        until an independent two-profile energy can check a new tail.
        """
        cubic = REM3_COEFF * self.m3 * self.cp_i3h / f.rate**3
        if f.boundary:
            return FrameTerms(cubic, 0.0, 0.0, 0.0, 0.0)
        n, ld = self.n, 2.0 * f.rate * max(f.height, 1e-300)
        chart_tail, image_error, charge = ld ** (-n), ld ** (1 - n), ld ** (2 - n)
        grad_tail = (self.s_n * f.kt_val * (n * chart_tail + image_error)
                     + self.c2 * f.kt_val * charge / max(f.rate * f.height, 1.0))
        return FrameTerms(cubic, chart_tail, image_error, charge, grad_tail)

    def _regular_part(self, f: BubbleFrame, x: np.ndarray) -> float:
        """H(C, X) = |X - C*|^{2-n}, C* = -t e_n the mirror of f's chart
        center and X the chart image of the sphere point x.  With
        beta = b.x the chart sends x to (E.x, x_{n+1})/(1 + beta), so
        |X|^2 = |x - beta b|^2/(1 + beta)^2 (= (1 - beta)/(1 + beta), without
        its cancellation for x near b) and X_n = x_{n+1}/(1 + beta)."""
        beta = float(f.anchor @ x)
        if 1.0 + beta < POLE_TOL:
            raise PoleSingularity("point too close to the chart pole")
        w = x - beta * f.anchor
        t = f.height
        x_n = float(x[-1])
        sq = float(w @ w) / ((1.0 + beta) * (1.0 + beta)) + t * (2.0 * x_n / (1.0 + beta) + t)
        return sq ** ((2 - self.n) / 2.0)

    def mutual_h(self, fi: BubbleFrame, fj: BubbleFrame) -> float:
        """Symmetrized regular-part pair term H_ij / (mu_i mu_j)^{(n-2)/2};
        zero unless both profiles are interior."""
        if fi.boundary or fj.boundary:
            return 0.0
        n = self.n
        h_ij = self._regular_part(fi, fj.param.a.coords)
        h_ji = self._regular_part(fj, fi.param.a.coords)
        return 0.5 * (h_ij + h_ji) / (fi.rate * fj.rate) ** ((n - 2) / 2.0)

    def assemble(self, cfg: Configuration) -> Assembly:
        """The configuration's assembly, built once per configuration object
        and model and kept on the configuration.  A state whose energy
        overflows the float range raises NonFiniteBar."""
        asm = cfg._memo.get(self)
        if asm is not None:
            return asm
        try:
            return self.assemble_frames(cfg, self.frames(cfg))
        except (OverflowError, ZeroDivisionError) as exc:
            raise NonFiniteBar(f"energy out of float range: {exc}") from exc

    def assemble_frames(self, cfg: Configuration, frames: list) -> Assembly:
        """Assemble ``cfg`` from its frames (as ``frames(cfg)`` builds them)
        and keep the result as the configuration's assembly for this model."""
        n = self.n
        alphas = cfg.alphas
        # in floats, so that an overflow reaches NonFiniteBar without a numpy
        # warning; up to 7 terms this is the sum np.sum makes of the same terms
        a_qty = sum(f.mult * (a * a) for f, a in zip(frames, alphas))
        n_qty = self.s_n * a_qty
        pw = 2.0 * n / (n - 2)

        num = n_qty
        den = 0.0
        gamma = 0.0
        for f in frames:
            if not f.boundary:
                num += self.c2 * f.alpha**2 * f.h_self / f.rate ** (n - 2)
            den += f.alpha**pw * self._t_value(f)
            gamma += f.mult * f.alpha**pw * f.k_val

        # one pass over the configuration's pairs: d eps_ij/d a_i = (n-2) lam_i
        # lam_j (a_j - a_i) g^{-n/2}, the distance arccos(a_i.a_j), the cross
        # terms (attraction channel) and each interacting pair's bar terms,
        # whose share of the relative error bar opens ``rel``
        m = cfg.size
        eps_da = np.zeros((m, m, n + 1))
        w_mat = np.zeros((m, m))
        hmut_mat = np.zeros((m, m))
        dist_mat = np.zeros((m, m))
        terms = [self._frame_terms(f) for f in frames]
        interacting, pair_terms, pair_bars = [], [], [0.0] * m
        min_d = math.inf
        rel = 0.0
        for i, j, c, e, g_pow in cfg.pairs:
            fi, fj = frames[i], frames[j]
            bi, bj = fi.param, fj.param
            eps_da[i, j] = (n - 2) * bi.lam * bj.lam * (bj.a.coords - bi.a.coords) * g_pow
            eps_da[j, i] = -eps_da[i, j]
            d = dist_mat[i, j] = dist_mat[j, i] = float(np.arccos(min(max(c, -1.0), 1.0)))
            min_d = min(min_d, d)
            w = PAIR_OVERLAP_COEFF if fi.boundary or fj.boundary else 1.0
            w_mat[i, j] = w_mat[j, i] = w
            hm = hmut_mat[i, j] = hmut_mat[j, i] = self.mutual_h(fi, fj)
            pair = self.c2 * w * (e + hm)
            num += 2.0 * alphas[i] * alphas[j] * pair
            den += pw * pair * (alphas[i] ** (pw - 1.0) * fi.k_val * alphas[j]
                                + alphas[j] ** (pw - 1.0) * fj.k_val * alphas[i])
            if e <= 0.0:
                continue
            le, e_pow = math.log(1.0 / e), e ** (n / (n - 2.0))
            interacting.append((i, j, e, le, e_pow))
            slop = 6.0 * e_pow * le + e * d * (fi.grad_norm + fj.grad_norm) \
                + hm * e ** (1.0 / (n - 2.0))
            # the image correction of a mixed pair's interior member is the
            # energy's alone; the gradient bars budget the mutual part's drift
            image = (e * terms[j if fi.boundary else i].charge
                     if fi.boundary != fj.boundary else 0.0)
            pair_terms.append((slop, image))
            rel += INTERACTION_BAR_COEFF * alphas[i] * alphas[j] * self.c2 * (slop + image) / n_qty
            drift = slop + 3.0 * hm
            pair_bars[i] += alphas[j] * self.c2 * drift
            pair_bars[j] += alphas[i] * self.c2 * drift
        if den < 0.0:
            # a float power of a negative base is complex, not NaN
            raise NonFiniteBar(f"energy denominator {den!r} is negative")
        j_center = num / den ** ((n - 2) / n)

        vbar = self.vbar_budget(frames, interacting)

        for f, t in zip(frames, terms):
            w = f.alpha**pw * f.mult
            rel += w * t.cubic / den
            rel += w * f.kt_val * self.s_n * t.chart_tail / den
            rel += w * f.kt_val * self.c2 * t.image_error / den
        # the residue bound is stated for the unit-norm representation, so its
        # square is already a relative correction
        rel += vbar**2
        # dropped-hypothesis penalty when points crowd below the separation scale
        sep_factor = 1.0 + SEP_DISTANCE / max(min_d, 1e-12) if min_d < SEP_DISTANCE else 1.0

        asm = Assembly(frames=frames, n_qty=n_qty, num=num, den=den, gamma=gamma,
                       j_center=float(j_center), rel_bar=float(rel * sep_factor),
                       eps_mat=cfg.eps_mat, eps_sums=cfg.eps_mat.sum(axis=1).tolist(),
                       eps_dloglam=cfg.eps_dloglam, eps_da=eps_da, w_mat=w_mat,
                       hmut_mat=hmut_mat, dist_mat=dist_mat,
                       interacting=interacting, vbar=vbar,
                       budgets=self.remainder_budgets(frames, interacting),
                       imbalances=self.imbalances(frames, a_qty, gamma), terms=terms,
                       pair_terms=pair_terms, pair_bars=pair_bars, sep_factor=sep_factor)
        cfg._memo[self] = asm
        return asm

    # -- public evaluations ---------------------------------------------------

    def reduced_J(self, cfg: Configuration) -> Bar:
        return self.assemble(cfg).j_bar

    def imbalances(self, frames: list, a_qty: float, gamma: float) -> np.ndarray:
        """1 - alpha_i^{4/(n-2)} K_i A/Gamma; zero exactly at the balanced
        weights.  ``assemble`` keeps the result on the ``Assembly``."""
        n = self.n
        return np.array([1.0 - f.alpha ** (4.0 / (n - 2)) * f.k_val * a_qty / gamma
                         for f in frames])

    def normalize_alphas(self, cfg: Configuration) -> Configuration:
        """alpha_i = t K_i^{-(n-2)/4} with s_n * sum m_i alpha_i^2 = 1.

        K comes from one batched ``K.value`` call, whose rows carry the bits
        of their single-point calls; the sum runs in floats in index order,
        the order np.sum takes below eight terms."""
        n = self.n
        k_vals = self.K.value(np.array([b.a.coords for b in cfg.bubbles])).tolist()
        raw = [k ** (-(n - 2) / 4.0) for k in k_vals]
        t = (self.s_n * sum((1.0 if i < cfg.q else 2.0) * (r * r)
                            for i, r in enumerate(raw))) ** -0.5
        return cfg.replace(alphas=[t * r for r in raw])

    # -- minimizer-residue budget ----------------------------------------------

    def vbar_budget(self, frames: list, interacting: list) -> float:
        """Norm budget for the orthogonal remainder of the representation.

        sum_i |grad K(a_i)|/lam_i + 1/lam_i^2, plus the dimension-split
        interaction terms and interior tail terms.  ``assemble`` evaluates it
        from the frames and its interacting pairs and keeps it as ``vbar``.
        """
        n = self.n
        total = 0.0
        for f in frames:
            lam = f.param.lam
            total += f.grad_norm / lam + 1.0 / lam**2
            if not f.boundary:
                ld = f.lam_dist
                if n == 5:
                    total += 1.0 / ld**3
                else:
                    total += math.log(max(ld, math.e)) / ld ** ((n + 2) / 2.0)
        for _, _, e, le, _ in interacting:
            if n == 5:
                total += 2.0 * e * le ** (3.0 / 5.0)
            else:
                total += 2.0 * e ** ((n + 2) / (2.0 * (n - 2))) * le ** ((n + 2) / (2.0 * n))
        return total

    # -- movement calculus ------------------------------------------------------

    def _pairing(self, asm: Assembly, i: int, moves, deps, dh_mut):
        """dJ per unit move of bubble i's parameters.

        ``moves`` holds, row by row, what the pairing reads of the chart:
        grad_dC   : grad Kt . dC, the pullback's shift with the chart center
        hess_dC_n : (Hess Kt . dC)_n, the shift of its vertical derivative
        dh        : dC_n, the shift of the center height
        dloglam   : shift of log chart rate
        dCn_domain: boundary-normal chart displacement (activates the
                    domain-variation constants c4/c5)
        deps      : over j != i, d eps_ij along the move
        dh_mut    : over j != i, d[H_ij/(mu_i mu_j)^{(n-2)/2}] (rate moves)

        The pairing is linear in the move, so the k moves come stacked: each
        row of ``moves`` holds k shifts, and deps[j], dh_mut[j] the k shifts
        of the j-th other bubble; the result is the list of k pairings.

        The moves are paired one by one in Python floats.  Every factor that
        does not depend on the move is computed once, as the same left-to-
        right product that opens the expression, so each move's pairing
        rounds exactly as an element of the same expression over numpy
        arrays of moves: float64 + - * / round each element as floats do.
        """
        n = self.n
        f = asm.frames[i]
        s_n, c2, cp_i2h = self.s_n, self.c2, self.cp_i2h
        alpha, mu, g_n, kt_val, h_self = f.alpha, f.rate, f.g_n, f.kt_val, f.h_self
        pw = 2.0 * n / (n - 2)
        nmu2 = n * mu * mu
        mu_n2 = mu ** (n - 2)

        # the own terms (dnum, dT) of each move
        if f.boundary:
            cp_xn = self.cp_xn
            lap_dl = cp_i2h * f.kt_lap
            own = [(0.0, s_n * g + cp_xn * (h - g_n * dl) / mu - lap_dl * dl / nmu2)
                   for g, h, _, dl, _ in zip(*moves)]
        else:
            dh_coef = (2.0 - n) * (2.0 * f.height) ** (1 - n) * 2.0
            hs_dl = (n - 2) * h_self
            two_s_n = 2.0 * s_n
            lap2 = -2.0 * f.kt_lap
            pw_c2 = (2.0 * n / (n - 2)) * c2
            own_num = c2 * alpha**2
            own = []
            for g, _, dh, dl, _ in zip(*moves):
                dHmu = (dh_coef * dh - hs_dl * dl) / mu_n2
                own.append((own_num * dHmu, two_s_n * g + cp_i2h * (lap2 * dl) / nmu2
                             + pw_c2 * (g * h_self / mu_n2 + kt_val * dHmu)))

        # the domain-variation and pair terms: each other bubble's prefixes
        # with its shifts deps[j] + dh_mut[j]
        apw = alpha**pw
        num_domain = alpha**2 * 2.0 * mu * self.c4
        den_domain = apw * pw * mu * (kt_val * self.c4 + n * self.c5 * g_n / mu)
        others = [(fj, w) for j, (fj, w) in enumerate(zip(asm.frames, asm.w_mat[i].tolist()))
                  if j != i]
        pw_e = (n + 2) / (n - 2)
        pair_terms = []
        for (fj, w), dep, dhm in zip(others, deps, dh_mut):
            pair_terms.append((2.0 * alpha * fj.alpha * c2 * w,
                               pw * c2 * w * (alpha**pw_e * f.k_val * fj.alpha
                                              + fj.alpha**pw_e * fj.k_val * alpha),
                               [x + y for x, y in zip(dep, dhm)]))
        jc, num, den, den_ratio = asm.j_center, asm.num, asm.den, (n - 2) / n
        out = []
        for c, ((dnum, dT), dCn_domain) in enumerate(zip(own, moves[4])):
            dnum += num_domain * dCn_domain
            dden = apw * dT
            dden += den_domain * dCn_domain
            for a_num, a_den, de in pair_terms:
                dnum += a_num * de[c]
                dden += a_den * de[c]
            out.append(jc * (dnum / num - den_ratio * dden / den))
        return out

    # -- gradient components -----------------------------------------------------

    def remainder_budgets(self, frames: list, interacting: list) -> tuple:
        """(R1, R1_boundary): the gradient remainder aggregates.

        R1 sums (|grad K|/lam)^{n/2} + (1/lam^2)^{(n+1)/3} over every profile,
        the log-weighted interaction powers over every pair, and the interior
        chart tails; the boundary variant restricts to boundary indices.
        ``assemble`` evaluates the pair from the frames and its interacting
        pairs and keeps it as ``budgets``.
        """
        n = self.n
        r1 = r1b = 0.0
        for f in frames:
            own = (f.grad_norm / f.param.lam) ** (n / 2.0) \
                + (1.0 / f.param.lam**2) ** ((n + 1) / 3.0)
            r1 += own
            if f.boundary:
                r1b += own
            else:
                r1 += 1.0 / f.lam_dist**n
        for i, j, _, le, e_pow in interacting:
            term = 2.0 * e_pow * le
            r1 += term
            if frames[i].boundary and frames[j].boundary:
                r1b += term
        return float(r1), float(r1b)

    def gradient_components(self, cfg: Configuration, asm: Assembly | None = None) -> "GradientComponents":
        """Bundle of every pairing, built once per assembly and kept on it;
        its arrays are read-only.  Each bubble's pairings come from one
        ``grad_a`` call."""
        asm = asm or self.assemble(cfg)
        if asm.grads is not None:
            return asm.grads
        alpha_pairings, lam_pairings, a_pairings = zip(*(self.grad_a(asm, i)
                                                         for i in range(cfg.size)))
        for vec, _ in a_pairings:
            vec.flags.writeable = False
        asm.grads = GradientComponents(alpha_pairings=alpha_pairings, lam_pairings=lam_pairings,
                                       a_pairings=a_pairings)
        return asm.grads

    def grad_a(self, asm: Assembly, i: int) -> tuple:
        """Bubble i's pairings: (weight pairing, rate pairing, (point vector, bar)).

        The weight pairing is the derivative of J along the i-th profile.
        The rate and point pairings come from one pairing call: the pairing
        is linear in the move, so one call takes the rate direction
        lam_i d/dlam_i and the n+1 ambient axes, read off the frame's move
        covectors, and gives the rate pairing and the ambient covector g of
        (1/lam_i) d/da_i.  The point vector is g orthogonally projected onto
        the admissible moves.  For an interior bubble these span a_i^perp,
        the sphere's tangent space, and so do the equator-tangential moves
        plus the inward normal e_n of a boundary bubble: the vector is
        g - (a_i . g) a_i.
        """
        f = asm.frames[i]
        a = f.param.a.coords
        weight, bar = self._bars(asm, i)
        dJ = self._rate_and_point_pairings(
            asm, i, [x.tolist() for x in (f.move_g, f.move_w, f.move_v, f.move_l)],
            asm.eps_da[i].tolist())
        g = np.array(dJ[1:])
        vec = g - (a @ g) * a
        return weight, Bar(float(dJ[0]), bar), (vec, float(bar / f.param.lam))

    def pairings_along(self, asm: Assembly, i: int, move: np.ndarray) -> tuple:
        """Bubble i's pairings along a move of its point: (weight pairing,
        rate pairing, (pairing along ``move``, point bar)).

        ``grad_a``'s pairings without its point vector: the point column is
        the move itself, x = move - (a_i . move) a_i, the component tangent
        at a_i that the point vector keeps, contracted into the frame's four
        move covectors and the eps_da rows.  As the pairing is linear in the
        move, the third entry is grad_a's point vector . move, one pairing
        column instead of n+1; the two agree to rounding, and the weight and
        rate pairings and the bars are grad_a's bit for bit.
        """
        f = asm.frames[i]
        a = f.param.a.coords
        x = move - float(a.dot(move)) * a
        weight, bar = self._bars(asm, i)
        shifts = np.array((f.move_g, f.move_w, f.move_v, f.move_l)).dot(x).tolist()
        rate, point = self._rate_and_point_pairings(
            asm, i, [[c] for c in shifts], [[e] for e in asm.eps_da[i].dot(x).tolist()])
        return weight, Bar(rate, bar), (point, bar / f.param.lam)

    def _bars(self, asm: Assembly, i: int) -> tuple:
        """(weight pairing, rate bar) of bubble i; its point bar is the rate
        bar over lam_i.  The residue coupling |grad K|/lam + 1/lam^2 +
        sum_j eps_ij enters the weight and point bars; it is computed once,
        and the bars read their other terms off the assembly's bar ledger."""
        n = self.n
        f = asm.frames[i]
        lam = f.param.lam
        alpha = f.alpha
        coupling = f.grad_norm / lam + 1.0 / lam**2 + asm.eps_sums[i]

        # the weight direction
        w_i = f.mult * self.s_n + (0.0 if f.boundary else self.c2 * f.h_self / f.rate ** (n - 2))
        dnum = 2.0 * alpha * w_i
        dden = (2.0 * n / (n - 2)) * alpha ** ((n + 2) / (n - 2)) * self._t_value(f)
        w_center = asm.j_center * (dnum / asm.num - (n - 2) / n * dden / asm.den)
        terms = asm.terms[i]
        w_bar = 2.0 * asm.j_center * f.mult * self.s_n / asm.n_qty * (coupling + terms.charge)
        weight = Bar(float(w_center), abs(w_bar))

        # the rate/point bar: its ledger terms, summed left to right
        pre = 2.0 * asm.j_center * alpha ** (2.0 * n / (n - 2) - 1.0)
        scale = 2.0 * asm.j_center / asm.n_qty
        bar = abs(float(pre / asm.den * terms.cubic + pre * terms.grad_tail / asm.den
                        + scale * asm.pair_bars[i] + scale * self.s_n * asm.vbar * coupling
                        + scale * asm.budgets[1 if f.boundary else 0]))
        return weight, bar

    def _rate_and_point_pairings(self, asm: Assembly, i: int, covectors, eps_rows) -> list:
        """dJ/alpha_i along lam_i d/dlam_i, then along each point move of
        bubble i per unit of (1/lam_i) d/da_i.  ``covectors`` holds the
        frame's move_g, move_w, move_v and move_l, and ``eps_rows[j]`` the
        row d eps_ij/d a_i, each as a list with one entry per point move
        (the covector contracted with the move); j runs over every bubble,
        its own zero row included.  The columns are built as float lists
        straight from them and the assembly's pair tables; a one-bubble
        state has no pair shifts.
        """
        n = self.n
        f = asm.frames[i]
        lam = f.param.lam
        s = f.dh_dloglam
        g_n, h_nn = f.g_n, f.h_nn
        move_g, move_w, move_v, move_l = covectors
        zeros = [0.0] * len(move_g)   # 0/lam
        if f.boundary:
            # tangential moves keep the center on the chart boundary; the
            # vertical displacement is handled by the domain-variation term
            rows = ([x / lam for x in move_g], [x / lam for x in move_w], zeros,
                    [x / lam for x in move_l], [x / lam for x in move_v])
        else:
            rows = ([(x + g_n * v) / lam for x, v in zip(move_g, move_v)],
                    [(x + h_nn * v) / lam for x, v in zip(move_w, move_v)],
                    [x / lam for x in move_v], [x / lam for x in move_l], zeros)
        # column 0: the rate direction; then the point moves; rows as the
        # pairing reads them
        moves = [[c0] + row for c0, row in zip((g_n * s, h_nn * s, s, f.dl_dloglam, 0.0), rows)]
        # each other bubble's shifts along the same columns
        eps_dloglam = asm.eps_dloglam[i].tolist()
        hmut = asm.hmut_mat[i].tolist()
        deps, dh_mut = [], []
        for j, row in enumerate(eps_rows):
            if j == i:
                continue
            deps.append([eps_dloglam[j]] + [x / lam for x in row])
            rate_mut = 0.0 if f.boundary else -(n - 2) / 2.0 * hmut[j] * f.dl_dloglam
            dh_mut.append([rate_mut] + zeros)
        return [x / f.alpha for x in self._pairing(asm, i, moves, deps, dh_mut)]


class GradientComponents(FrozenRecord):
    """Per-index pairings; the interaction data and the remainder budgets
    they read are on the ``Assembly``.

    alpha_pairings[i]: pairing with the i-th profile direction
    lam_pairings[i]:   pairing with lam_i d/dlam_i
    a_pairings[i]:     (tangent vector, bar) for (1/lam_i) d/da_i
    """

    alpha_pairings: tuple
    lam_pairings: tuple
    a_pairings: tuple

    def __init__(self, alpha_pairings, lam_pairings, a_pairings):
        set_field(self, "alpha_pairings", alpha_pairings)
        set_field(self, "lam_pairings", lam_pairings)
        set_field(self, "a_pairings", a_pairings)
