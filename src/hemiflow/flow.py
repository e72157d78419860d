"""Region-classified descent field on configuration space and its flow.

The neighborhood of highly concentrated states splits into regions by the
size of the dimensionless ratios Gamma (weight imbalance, point gradient,
self-interaction, mutual interaction, each against its expected decay) and
by the spread of the scales mu_i (lam_i^2 for interior bubbles, gradient
corrected for boundary ones).  Each region carries an explicit descent
field; overlaps are resolved by piecewise-linear partition-of-unity
weights.  Away from admissible critical collections every component either
moves points along the curvature gradient, rebalances weights, or shrinks
rates; only inside the matched-collection region do the rates grow.

Velocities use the correspondence: a rate direction contributes
dlog(lam)/dt = +-1, a point direction da/dt = e/lam, a weight direction
dalpha/dt = +-1.

The per-bubble scalars run in Python floats: the nearest-record cosines,
the scales mu_i, their ratio and ranking, and the weight and rate
components of every field, which are summed as float lists and become
arrays once, when ``pseudogradient`` returns the ``Velocity``.  The weights
are floats from the ``Configuration``, and the imbalances and the pair
table are read as float lists, so the certificate sums run in floats too.
float64 + - * / round each element exactly as numpy does, so the fields are
the array form's bit for bit.  The calls whose result feeds the next state
stay numpy: ``geodesic_step``, the renormalisation in ``_advance``, the
cluster barycentre, and every dot product and norm of an ambient vector
(a norm is ``math.sqrt(v @ v)``, the dot product ``np.linalg.norm`` takes
for a contiguous vector).  OpenBLAS fuses the multiply-adds of ``dot``, so
a float loop would round their last bit differently, and an accepted step
could turn into a rejected one.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .bubbles import BubbleParam
from .config import SMALLNESS, FlowParams
from .errors import (ConfigError, InvalidConfiguration, OutsideNeighborhood,
                     StepFailure, UnclassifiableState)
from .geometry import BoundarySpherePoint, SpherePoint, geodesic_distance, geodesic_step
from .intervals import Bar
from .model import Configuration, ReducedModel
from .record import Record

C_FIT = 0.1  # certified decrease rate per unit of the certificate's aggregate
M_DRIFT = 50.0  # gate for pairing drift with rate shrink
DT_INIT = 0.05  # first step of ``integrate``
DT_MAX = 0.25  # longest step of ``integrate``
STAGNATION_TOL = 1e-10  # field norm below which ``integrate`` stops
MAX_REJECTS = 10  # consecutive rejected steps before ``integrate`` gives up


def psi1(t: float) -> float:
    """Quintic smoothstep gate: 0 below 1, 1 above 2, C^2 monotone between."""
    if t <= 1.0:
        return 0.0
    if t >= 2.0:
        return 1.0
    u = t - 1.0
    return u**3 * (10.0 - 15.0 * u + 6.0 * u * u)


def ramp(x: float, lo: float, hi: float) -> float:
    """Piecewise-linear partition weight on the overlap margin [lo, hi]."""
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    return (x - lo) / (hi - lo)


class IndexDiagnostics(Record):
    mu: float
    gamma_lambda: float
    gamma_alpha: float
    gamma_a: float      # point ratio (trace version for boundary indices)
    gamma_h: float      # interior self-interaction ratio (0 for boundary)

    def __init__(self, mu, gamma_lambda, gamma_alpha, gamma_a, gamma_h):
        self.mu = mu
        self.gamma_lambda = gamma_lambda
        self.gamma_alpha = gamma_alpha
        self.gamma_a = gamma_a
        self.gamma_h = gamma_h


class RegionLabel(Record):
    tag: str
    weights: dict
    per_index: list
    nearest: tuple       # per bubble: (nearest record of its kind or None, its distance)
    clusters: dict       # anchor record -> indices of the bubbles within 2 eta it is nearest to
    tower_set: tuple     # comparable-scale index set in the spread regime
    mu_ratio: float

    def __init__(self, tag, weights, per_index, nearest, clusters, tower_set, mu_ratio):
        self.tag = tag
        self.weights = weights
        self.per_index = per_index
        self.nearest = nearest
        self.clusters = clusters
        self.tower_set = tower_set
        self.mu_ratio = mu_ratio


class Velocity(Record):
    alpha_dot: np.ndarray
    a_dot: list
    loglam_dot: np.ndarray

    def __init__(self, alpha_dot, a_dot, loglam_dot):
        self.alpha_dot = alpha_dot
        self.a_dot = a_dot
        self.loglam_dot = loglam_dot

    def scaled(self, w: float) -> "Velocity":
        return Velocity(self.alpha_dot * w, [v * w for v in self.a_dot], self.loglam_dot * w)

    def norm(self) -> float:
        # float sums in the order np.sum takes below eight entries (from
        # eight up its pairwise blocks may round the last bit otherwise; the
        # norm only meets the stagnation threshold); the point parts keep
        # their BLAS dot
        total = 0.0
        for x in self.alpha_dot.tolist():
            total += x * x
        rates = 0.0
        for x in self.loglam_dot.tolist():
            rates += x * x
        total += rates
        total += sum(float(v @ v) for v in self.a_dot)
        return math.sqrt(total)


class _Drive:
    """A descent field under construction: the weight and rate components
    as float lists, each point component an array, or None while it is
    zero.  ``velocity`` turns it into a ``Velocity`` of arrays."""

    __slots__ = ("alpha_dot", "a_dot", "loglam_dot")

    def __init__(self, size: int):
        self.alpha_dot = [0.0] * size
        self.a_dot = [None] * size
        self.loglam_dot = [0.0] * size

    def push(self, i: int, vec):
        """Add ``vec`` to point component i.  A zero component adds as a zero
        array would: ``vec + 0.0`` turns a -0.0 entry into 0.0."""
        cur = self.a_dot[i]
        self.a_dot[i] = vec + 0.0 if cur is None else cur + vec

    def add(self, other: "_Drive", w: float = 1.0):
        """Add ``w`` times ``other``, element by element as arrays add."""
        self.alpha_dot = [a + b * w for a, b in zip(self.alpha_dot, other.alpha_dot)]
        self.loglam_dot = [a + b * w for a, b in zip(self.loglam_dot, other.loglam_dot)]
        for i, vec in enumerate(other.a_dot):
            if vec is not None:
                self.push(i, vec * w)

    def velocity(self, dim: int) -> Velocity:
        return Velocity(np.array(self.alpha_dot),
                        [np.zeros(dim) if v is None else v for v in self.a_dot],
                        np.array(self.loglam_dot))


class TrajectoryPoint(Record):
    t: float
    cfg: Configuration
    label_tag: str
    j_value: Bar
    mus: tuple

    def __init__(self, t, cfg, label_tag, j_value, mus):
        self.t = t
        self.cfg = cfg
        self.label_tag = label_tag
        self.j_value = j_value
        self.mus = mus


class Trajectory(Record):
    points: list
    reason: str
    detail: str = ""  # message of the exception behind a neighborhood_exit or a step_failure

    def __init__(self, points, reason, detail=detail):
        self.points = points
        self.reason = reason
        self.detail = detail

    def csv_rows(self):
        rows = []
        for pt in self.points:
            row = {"t": pt.t, "region": pt.label_tag,
                   "J_center": pt.j_value.center, "J_halfwidth": pt.j_value.halfwidth,
                   "mu_max": max(pt.mus)}
            for k, (a, b) in enumerate(zip(pt.cfg.alphas, pt.cfg.bubbles)):
                row[f"alpha{k}"] = a
                row[f"lambda{k}"] = b.lam
                for m, c in enumerate(b.a.coords):
                    row[f"a{k}_{m}"] = c
            rows.append(row)
        return rows


def _mus(label: RegionLabel) -> tuple:
    """The scales mu_i of the labelled state, in index order."""
    return tuple(d.mu for d in label.per_index)


class PseudogradientFlow:
    """Assembles and integrates the descent field over a fixed landscape."""

    def __init__(self, model: ReducedModel, records, params: FlowParams | None = None):
        self.model = model
        self.n = model.n
        self.records = list(records)
        self.params = params if params is not None else FlowParams.for_mass(2, self.n)
        self.params.validate_full(self.n)
        self.trace_crit = [r for r in self.records if r.is_boundary]
        self.interior_crit = [r for r in self.records if not r.is_boundary]
        # each pool with its records' coordinates as float lists, keyed by is_boundary
        self._pools = {
            boundary: (pool, [r.location.coords.tolist() for r in pool])
            for boundary, pool in ((True, self.trace_crit), (False, self.interior_crit))}

    # -- scalar diagnostics ----------------------------------------------------

    def mu(self, cfg: Configuration, i: int, asm=None) -> float:
        """The scale of bubble i: lam^2 inside, 1/(|grad K|/lam + 1/lam^2) on
        the boundary, with |grad K(a_i)| read off the state's frames."""
        b = cfg.bubbles[i]
        if cfg.is_boundary_index(i):
            g = (asm or self.model.assemble(cfg)).frames[i].grad_norm
            return 1.0 / (g / b.lam + 1.0 / b.lam**2)
        return b.lam**2

    def gamma_quantities(self, cfg: Configuration, i: int, asm=None) -> IndexDiagnostics:
        asm = asm or self.model.assemble(cfg)
        m2 = self.params.M2
        b = cfg.bubbles[i]
        eps_sum = asm.eps_sums[i]
        mu_i = self.mu(cfg, i, asm)
        imb = abs(float(asm.imbalances[i]))
        g_alpha = imb / (m2 * (eps_sum + 1.0 / mu_i))
        g_lambda = mu_i * eps_sum / m2
        f = asm.frames[i]
        if cfg.is_boundary_index(i):
            g_a = (f.grad_k1_norm / b.lam) / (m2 / b.lam**2 + eps_sum / m2**2)
            g_h = 0.0
        else:
            g_a = (f.grad_norm / b.lam) / (m2 * (eps_sum + f.lam_dist ** (2 - self.n)
                                                 + 1.0 / b.lam**2))
            g_h = f.h_self / (m2 * f.rate ** (self.n - 4))
        return IndexDiagnostics(mu=mu_i, gamma_lambda=g_lambda, gamma_alpha=g_alpha,
                                gamma_a=g_a, gamma_h=g_h)

    # -- anchors and clusters ----------------------------------------------------

    def _nearest_record(self, point, boundary: bool):
        """(record, distance) of the nearest trace (``boundary``) or interior
        record, the last one on a tie; (None, pi) when there is none.

        The records are ranked by their cosine to the point, a float dot
        product clamped to [-1, 1] as the distance's arccos clamps it, so
        equal records and records at the point tie exactly; the winner's
        distance is then taken from ``geodesic_distance``.
        """
        pool, rows = self._pools[boundary]
        if not pool:
            return None, math.pi
        p = point.coords.tolist()
        mul = operator.mul
        k, best = 0, -2.0
        for pos, row in enumerate(rows):
            c = sum(map(mul, row, p))
            if c > 1.0:
                c = 1.0
            elif c < -1.0:
                c = -1.0
            if c >= best:
                k, best = pos, c
        return pool[k], geodesic_distance(point, pool[k].location)

    def clusters(self, nearest, radius: float) -> dict:
        """Map from each landscape record within ``radius`` of a bubble of its
        kind to the indices of the bubbles it is nearest to; ``nearest`` holds
        each bubble's (nearest record, distance)."""
        by_anchor = {}
        for i, (rec, d) in enumerate(nearest):
            if rec is not None and d <= radius:
                by_anchor.setdefault(rec, []).append(i)
        return by_anchor

    # -- region classification -----------------------------------------------------

    def classify_region(self, cfg: Configuration, asm=None) -> RegionLabel:
        """The state's region label, classified once per configuration and
        flow and kept on the configuration."""
        if cfg.eps_scale > self.params.eps * 1.5 + 1e-12:
            raise OutsideNeighborhood("configuration scale exceeds the flow neighborhood")
        memo = cfg._memo.get(self)
        if memo is not None:
            return memo[0]
        asm = asm or self.model.assemble(cfg)
        params = self.params
        diags = [self.gamma_quantities(cfg, i, asm) for i in range(cfg.size)]
        nearest = tuple(self._nearest_record(b.a, cfg.is_boundary_index(i))
                        for i, b in enumerate(cfg.bubbles))
        mus = [d.mu for d in diags]
        mu_ratio = max(mus) / min(mus)

        w4 = ramp(mu_ratio, params.M0, 2.0 * params.M0)
        g_in = [diags[i].gamma_h + diags[i].gamma_a + diags[i].gamma_lambda
                for i in range(cfg.q, cfg.size)]
        r1 = ramp(max(g_in), 6.0, 8.0) if g_in else 0.0

        if cfg.q:
            b_gam = max(diags[i].gamma_alpha + diags[i].gamma_lambda for i in range(cfg.q))
            d_trace = max(d for _, d in nearest[:cfg.q])
            r2 = max(ramp(b_gam, 4.0, 6.0), ramp(d_trace, params.eta, 2.0 * params.eta))
        else:
            r2 = 0.0

        w1 = (1.0 - w4) * r1
        w2 = (1.0 - w4) * (1.0 - r1) * r2
        w3g = (1.0 - w4) * (1.0 - r1) * (1.0 - r2)

        cl = self.clusters(nearest, 2.0 * params.eta)
        weights = {}
        if w4 > 0:
            weights["V4"] = w4
        if w1 > 0:
            weights["V1"] = w1
        if w2 > 0:
            weights["V2"] = w2

        sub = None
        if w3g > 0:
            sub = self._v3_subtag(cl, nearest, params.eta)
            if sub is not None:
                weights[sub] = w3g
            elif cfg.q:
                # gap between the overlap margins: the trace-distance and
                # rebalancing components still apply there
                weights["V2"] = weights.get("V2", 0.0) + w3g
            else:
                # interior-only state without a matched critical point: the
                # gated base components own it (possibly with zero drive)
                weights["V1"] = weights.get("V1", 0.0) + w3g
        if not weights:
            raise UnclassifiableState("no region predicate covers the state")

        tower = self._tower_set(mus) if w4 > 0 else tuple()
        tag = max(weights, key=weights.get)
        if weights[tag] < 1.0 - 1e-9:
            tag_out = "mixed" if len(weights) > 1 else tag
        else:
            tag_out = tag
        label = RegionLabel(tag=tag_out, weights=weights, per_index=diags, nearest=nearest,
                            clusters=cl, tower_set=tower, mu_ratio=mu_ratio)
        cfg._memo[self] = (label, None)
        return label

    @staticmethod
    def _cluster_kind(rec, members) -> str | None:
        """The V3 region (V3_1, V3_2, V3_3 or None) that the bubbles
        ``members`` clustered at record ``rec`` call for."""
        if not rec.is_boundary:
            return "V3_2" if rec.laplacian > 0 else None
        sign = rec.normal_sign
        if sign == 0 and len(members) >= 2:
            return "V3_1"
        if sign < 0 or (sign == 0 and rec.laplacian > 0):
            return "V3_2"
        if sign > 0 and len(members) >= 2:
            return "V3_3"
        return None

    def _v3_subtag(self, cl: dict, nearest, eta: float):
        kinds = {self._cluster_kind(rec, members) for rec, members in cl.items()}
        for tag in ("V3_1", "V3_2", "V3_3"):
            if tag in kinds:
                return tag
        return "W" if self._in_w_set(nearest, eta) else None

    @staticmethod
    def _in_w_set(nearest, eta: float) -> bool:
        used = set()
        for rec, d in nearest:
            # each bubble matches a distinct record of K_infinity within eta
            if rec is None or d > eta or rec.classification == "other" or rec in used:
                return False
            used.add(rec)
        return True

    @staticmethod
    def _rank(mus: list) -> list:
        """Indices in ascending order of their scale, equal scales in index
        order (a stable sort)."""
        return sorted(range(len(mus)), key=mus.__getitem__)

    def _tower_set(self, mus: list) -> tuple:
        order = self._rank(mus)
        size = len(mus)
        cut = self.params.M0 ** (1.0 / max(size - 1, 1))
        kept = [order[0]]
        for pos in range(1, size):
            if mus[order[pos]] <= cut * mus[order[pos - 1]]:
                kept.append(order[pos])
            else:
                break
        return tuple(kept)

    # -- field components -----------------------------------------------------------

    @staticmethod
    def _unit_drift(vec, nrm: float, lam: float):
        """vec / (lam |vec|), zero when vec vanishes; ``nrm`` is |vec|."""
        if nrm < 1e-300:
            return vec * 0.0
        return vec / (lam * nrm)

    def _trace_drift(self, vel: _Drive, asm, i: int, gate: float | None = None):
        """Add ``gate`` times boundary bubble i's unit drift along the trace
        gradient; the gate defaults to psi1(lam |grad K_1| / M2)."""
        f = asm.frames[i]
        if gate is None:
            gate = psi1(f.param.lam * f.grad_k1_norm / self.params.M2)
        if gate > 0:
            vel.push(i, gate * self._unit_drift(f.grad_k1, f.grad_k1_norm, f.param.lam))

    def _component_base(self, cfg, asm, diags, interior_rates=True, boundary_rates=True,
                        interior_points=True, boundary_rate_scale=1.0) -> _Drive:
        """The shared gated components: rate shrinking, interior point drift,
        weight rebalancing."""
        vel = _Drive(cfg.size)
        imb = asm.imbalances.tolist()
        for i in range(cfg.size):
            f = asm.frames[i]
            d = diags[i]
            if cfg.is_boundary_index(i):
                if boundary_rates:
                    vel.loglam_dot[i] -= psi1(d.gamma_lambda) * boundary_rate_scale
                vel.alpha_dot[i] -= psi1(d.gamma_alpha) * math.copysign(1.0, imb[i])
            else:
                if interior_rates:
                    vel.loglam_dot[i] -= psi1(d.gamma_lambda) + psi1(d.gamma_h)
                if interior_points:
                    gate = psi1(d.gamma_a)
                    if gate > 0:
                        vel.push(i, gate * self._unit_drift(f.grad_sphere, f.grad_norm,
                                                            f.param.lam))
                        if interior_rates:
                            # far from critical points the drift is paired with
                            # a rate shrink; the large gate keeps the pair
                            # descending against the Laplacian term
                            far = psi1(f.param.lam * f.grad_norm / M_DRIFT)
                            vel.loglam_dot[i] -= gate * far
        return vel

    # every region's field builder takes (cfg, asm, label, depth)

    def _field_v1(self, cfg, asm, label, depth) -> _Drive:
        return self._component_base(cfg, asm, label.per_index,
                                    boundary_rate_scale=1.0 / self.params.M2)

    def _field_v2(self, cfg, asm, label, depth) -> _Drive:
        vel = self._component_base(cfg, asm, label.per_index, interior_rates=False,
                                   interior_points=False)
        for i in range(cfg.q):
            self._trace_drift(vel, asm, i, ramp(label.nearest[i][1], self.params.eta,
                                                2.0 * self.params.eta))
        return vel

    def _field_v31(self, cfg, asm, label, depth) -> _Drive:
        vel = self._component_base(cfg, asm, label.per_index, interior_rates=False,
                                   interior_points=False, boundary_rates=False)
        for i in range(cfg.q):
            self._trace_drift(vel, asm, i, psi1(2.0 * label.per_index[i].gamma_a))
        return vel

    def _field_v32(self, cfg, asm, label, depth) -> _Drive:
        vel = self._component_base(cfg, asm, label.per_index, interior_rates=False,
                                   interior_points=False)
        for rec, members in label.clusters.items():
            if self._cluster_kind(rec, members) != "V3_2":
                continue
            for i in members:
                vel.loglam_dot[i] -= 1.0
                if rec.normal_sign == 0:
                    self._trace_drift(vel, asm, i)
        return vel

    def _cluster_field(self, cfg, asm, members) -> _Drive:
        """Barycentric contraction of a group of boundary points."""
        vel = _Drive(cfg.size)
        if len(members) < 2:
            return vel
        dist = asm.dist_mat.tolist()
        pairs = [(i, j) for i in members for j in members if i < j]
        seed_i, seed_j = min(pairs, key=lambda ij: dist[ij[0]][ij[1]])
        group = {seed_i, seed_j}
        diam = dist[seed_i][seed_j]
        while True:
            added = False
            for k in members:
                if k in group:
                    continue
                if any(dist[k][g] <= self.params.M4 * diam for g in group):
                    group.add(k)
                    added = True
            if not added:
                break
            diam = max(dist[r][t] for r in group for t in group if r != t)
        bary = np.mean([cfg.bubbles[k].a.coords for k in group], axis=0)
        bary[-1] = 0.0
        bary /= math.sqrt(bary @ bary)
        gamma_i = max(dist[seed_i][k] for k in group)
        lam_seed = cfg.bubbles[seed_i].lam
        for k in group:
            ak = cfg.bubbles[k].a.coords
            v = bary - float(np.dot(ak, bary)) * ak
            vel.push(k, v / (lam_seed * max(gamma_i, 1e-300)))
        return vel

    def _field_v33(self, cfg, asm, label, depth) -> _Drive:
        vel = self._component_base(cfg, asm, label.per_index, interior_rates=False,
                                   interior_points=False, boundary_rates=False)
        for rec, members in label.clusters.items():
            if self._cluster_kind(rec, members) == "V3_3":
                vel.add(self._cluster_field(cfg, asm, members))
        return vel

    def _field_w(self, cfg, asm, label, depth) -> _Drive:
        vel = self._component_base(cfg, asm, label.per_index, interior_rates=False,
                                   boundary_rates=False)
        for i in range(cfg.q):
            self._trace_drift(vel, asm, i)
        vel.loglam_dot = [x + 1.0 for x in vel.loglam_dot]
        return vel

    def _field_v4(self, cfg, asm, label, depth) -> _Drive:
        params = self.params
        diags = label.per_index
        vel = self._component_base(cfg, asm, diags, interior_rates=False, boundary_rates=False)
        rank = {idx: pos for pos, idx in enumerate(self._rank([d.mu for d in diags]))}
        size = cfg.size
        tower = set(label.tower_set)

        d41 = [i for i in range(cfg.q, size)
               if diags[i].gamma_h + diags[i].gamma_a + diags[i].gamma_lambda >= 6.0]
        d42 = [i for i in range(cfg.q)
               if diags[i].gamma_lambda + diags[i].gamma_alpha >= 4.0]
        i0 = min((rank[i] for i in d41), default=None)
        j0 = min((rank[i] for i in d42), default=None)
        top = size - 1
        for i in range(size):
            w = 2.0 ** (rank[i] - top)
            if i >= cfg.q and i0 is not None and rank[i] >= i0:
                vel.loglam_dot[i] -= w
            if i < cfg.q and j0 is not None and rank[i] >= j0:
                vel.loglam_dot[i] -= w / params.M2

        # the comparable-scale lower tower gets its own (recursive) descent
        if tower and len(tower) < size and depth == 0:
            k0 = len(label.tower_set)
            m0_bar = params.M0 ** (max(k0 - 1, 1) / max(size - 1, 1))
            sub_params = params.replace(M0=max(m0_bar, 4.0),
                                        M4=max(math.sqrt(m0_bar / SMALLNESS), 10.0),
                                        max_qp=max(k0, 2))
            try:
                sub_flow = PseudogradientFlow(self.model, self.records, sub_params)
                sub_cfg, back, sub_asm = self._restrict(cfg, asm, sorted(tower))
                sub_label = sub_flow.classify_region(sub_cfg, sub_asm)
                sub_vel = sub_flow.pseudogradient(sub_cfg, sub_label, sub_asm, depth=depth + 1)
                sub_alpha = sub_vel.alpha_dot.tolist()
                sub_rates = sub_vel.loglam_dot.tolist()
                for si, gi in enumerate(back):
                    vel.alpha_dot[gi] += sub_alpha[si] / params.M2**2
                    vel.push(gi, sub_vel.a_dot[si] / params.M2**2)
                    # the sub-flow's W part grows rates; here only the
                    # shrinking part applies
                    vel.loglam_dot[gi] += min(sub_rates[si] / params.M2**2, 0.0)
            except (ConfigError, UnclassifiableState, OutsideNeighborhood):
                # an unclassifiable sub-problem forfeits its extra descent
                # content; the ranked components above still apply.  The
                # sub-configuration shares its parent's checks, so it cannot
                # raise InvalidConfiguration
                pass
        return vel

    _FIELDS = {"V1": _field_v1, "V2": _field_v2, "V3_1": _field_v31, "V3_2": _field_v32,
               "V3_3": _field_v33, "W": _field_w, "V4": _field_v4}

    def _restrict(self, cfg: Configuration, asm, indices):
        """(sub-configuration on the sorted ``indices``, map back to ``cfg``'s
        indices, its assembly).  The sub-configuration shares the parent's
        checks and pair tables (``Configuration._restricted``), so it is
        admissible; the assembly is built from the parent's frames and kept
        on the sub-configuration."""
        sub = cfg._restricted(indices)
        sub_asm = self.model.assemble_frames(sub, [asm.frames[i] for i in indices])
        return sub, list(indices), sub_asm

    # -- assembled field -----------------------------------------------------------

    def pseudogradient(self, cfg: Configuration, label: RegionLabel | None = None,
                       asm=None, depth: int = 0) -> Velocity:
        """The descent field under ``label`` (the state's own by default).

        At depth 0 the field of the label ``classify_region`` keeps for
        ``cfg`` is built once and kept beside it, with read-only arrays, so
        every caller shares it; any other label is evaluated afresh.  The
        weighted region fields are summed as float lists (see ``_Drive``)
        and the arrays are built once, here.  Only the W field grows a rate:
        every other builder only subtracts from the rates, and the tower's
        sub-field is clamped in ``_field_v4``.
        """
        asm = asm or self.model.assemble(cfg)
        label = label or self.classify_region(cfg, asm)
        memo = cfg._memo.get(self) if depth == 0 else None
        own = memo is not None and memo[0] is label
        if own and memo[1] is not None:
            return memo[1]
        drive = _Drive(cfg.size)
        for name, w in label.weights.items():
            if w <= 0:
                continue
            build = self._FIELDS.get(name)
            if build is None:
                raise UnclassifiableState(f"unknown region weight {name}")
            drive.add(build(self, cfg, asm, label, depth), w)
        total = drive.velocity(self.n + 1)
        if own:
            for arr in (total.alpha_dot, total.loglam_dot, *total.a_dot):
                arr.flags.writeable = False
            cfg._memo[self] = (label, total)
        return total

    # -- descent certificate ----------------------------------------------------------

    def decrease_certificate(self, cfg: Configuration, velocity: Velocity | None = None) -> dict:
        """-dJ along the velocity (``lhs``, the pairings summed with their
        bars) against C_FIT times the decrease aggregate, which reads each
        bubble's scale mu_i off the state's region label.

        The pairings come from the assembly's gradient bundle when a caller
        has built it (``ReducedModel.gradient_components``): the point
        pairing is then the bundle's point vector . move.  Otherwise each
        bubble's pairings come from ``ReducedModel.pairings_along``, which
        pairs the rate direction and the move itself, two columns instead
        of the bundle's n + 2, and no bundle is built.  The two routes give
        the same weight and rate terms and the same halfwidth bit for bit;
        the point pairings agree to rounding."""
        asm = self.model.assemble(cfg)
        label = self.classify_region(cfg, asm)
        vel = velocity if velocity is not None else self.pseudogradient(cfg, label, asm)
        grads = asm.grads
        n = self.n
        # centers and halfwidths summed as floats, in the order of a chain of
        # Bar sums; a NaN or inf term survives to the one Bar built at the end
        center = halfwidth = 0.0
        alpha_dot, loglam_dot = vel.alpha_dot.tolist(), vel.loglam_dot.tolist()
        for i in range(cfg.size):
            move = cfg.bubbles[i].lam * vel.a_dot[i]
            if grads is None:
                weight, rate, (point, gbar) = self.model.pairings_along(asm, i, move)
            else:
                weight, rate = grads.alpha_pairings[i], grads.lam_pairings[i]
                gv, gbar = grads.a_pairings[i]
                point = float(gv @ move)
            w = -alpha_dot[i]
            center += weight.center * w
            halfwidth += abs(w) * weight.halfwidth
            w = -loglam_dot[i] * cfg.alphas[i]
            center += rate.center * w
            halfwidth += abs(w) * rate.halfwidth
            center += -point * cfg.alphas[i]
            # np.linalg.norm of a vector is the square root of its dot product
            halfwidth += gbar * math.sqrt(float(move @ move)) * cfg.alphas[i]
        lhs = Bar(center, halfwidth)

        imb = asm.imbalances.tolist()
        expo = 2.0 - 1.0 / (n - 2)
        agg = 0.0
        for i in range(cfg.size):
            agg += label.per_index[i].mu ** (-expo)
            if cfg.is_boundary_index(i):
                agg += abs(imb[i]) ** expo
            else:
                f = asm.frames[i]
                agg += f.lam_dist ** (1 - n) + (f.grad_norm / f.param.lam) ** expo
        for _, _, e, _, _ in asm.interacting:
            agg += 2.0 * e ** ((n - 1.0) / (n - 2.0))
        return {
            "lhs": lhs,
            "rhs_lower_bound": C_FIT * agg,
            "aggregate": agg,
            "c_fit": C_FIT,
            "satisfied": bool(lhs.lo >= C_FIT * agg),
        }

    # -- integration ---------------------------------------------------------------

    def integrate(self, cfg0: Configuration, t_max: float) -> Trajectory:
        """Adaptive explicit descent with step rejection on energy increase."""
        cfg = cfg0
        asm = self.model.assemble(cfg)
        label = self.classify_region(cfg, asm)
        j_val = asm.j_bar
        t = 0.0
        dt = DT_INIT
        points = [TrajectoryPoint(t, cfg, label.tag, j_val, _mus(label))]
        reason = "t_max"
        detail = ""
        while t < t_max - 1e-12:
            vel = self.pseudogradient(cfg, label, asm)
            if vel.norm() < STAGNATION_TOL:
                reason = "stagnation"
                break
            rejects = 0
            while True:
                dt_step = min(dt, t_max - t)
                try:
                    new_cfg = self._advance(cfg, vel, dt_step)
                except InvalidConfiguration as exc:
                    reason, detail = "neighborhood_exit", str(exc)
                    new_cfg = None
                    break
                new_asm = self.model.assemble(new_cfg)
                slack = max(1e-10, 0.5 * (j_val.halfwidth + new_asm.j_bar.halfwidth) * 1e-3)
                if new_asm.j_bar.center <= j_val.center + slack:
                    break
                rejects += 1
                dt *= 0.5
                if rejects >= MAX_REJECTS:
                    message = f"{rejects} consecutive rejected steps at t = {t}"
                    raise StepFailure(message, Trajectory(points, "step_failure", message))
            if new_cfg is None:
                break
            t += dt_step
            cfg, asm, j_val = new_cfg, new_asm, new_asm.j_bar
            try:
                label = self.classify_region(cfg, asm)
            except OutsideNeighborhood as exc:
                reason, detail = "neighborhood_exit", str(exc)
                break
            points.append(TrajectoryPoint(t, cfg, label.tag, j_val, _mus(label)))
            if rejects == 0:
                dt = min(dt * 1.4, DT_MAX)
        if points[-1].t < t - 1e-12:
            points.append(TrajectoryPoint(t, cfg, label.tag, j_val, _mus(label)))
        return Trajectory(points=points, reason=reason, detail=detail)

    def _advance(self, cfg: Configuration, vel: Velocity, dt: float) -> Configuration:
        alphas = [a + dt * da for a, da in zip(cfg.alphas, vel.alpha_dot.tolist())]
        rates = vel.loglam_dot.tolist()
        bubbles = []
        for i, b in enumerate(cfg.bubbles):
            coords = geodesic_step(b.a.coords, vel.a_dot[i], dt)
            if cfg.is_boundary_index(i):
                coords = coords.copy()
                coords[-1] = 0.0
                coords /= math.sqrt(coords @ coords)
                pt = BoundarySpherePoint(coords)
            else:
                pt = SpherePoint(coords)
            lam = b.lam * math.exp(dt * rates[i])
            bubbles.append(BubbleParam(pt, lam))
        return cfg.replace(alphas=alphas, bubbles=bubbles)
