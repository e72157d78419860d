"""The array form of the flow layer: an oracle for the float evaluation in
``PseudogradientFlow``.

``nearest_record`` ranks a pool by one row-wise product over the stacked
record coordinates and takes the last minimum of their arccos distances;
``label`` classifies a state with it, with the scales mu_i in a numpy array,
their ratio from ``np.max``/``np.min`` and the tower ranked by
``np.argsort``; ``field`` builds the descent field of a label with a numpy
array for every component: zero arrays added to in place, the tower's
sub-field in V4 clamped to shrinking rates, each region's field but W's
clamped likewise with ``np.minimum``, scaled and added.  The flow sums the
region fields unclamped, since no builder but W's grows a rate; the clamp
here keeps that claim under test.  The flow evaluates the same expressions
in floats, and numpy's float64 + - * / round each element as Python floats
do, so the two must agree bit for bit.  The one
difference is by design: ``np.argsort`` may order equal scales in any way
(on AVX-512 machines it reverses some ties from four entries up), where the
flow keeps equal scales in index order.

The routines read what did not change from the flow itself: its
parameters, records, ``gamma_quantities``, ``clusters``, ``_v3_subtag``,
``_unit_drift`` and ``_restrict``.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from hemiflow.errors import (ConfigError, InvalidConfiguration, OutsideNeighborhood,
                             UnclassifiableState)
from hemiflow.config import SMALLNESS
from hemiflow.flow import M_DRIFT, PseudogradientFlow, RegionLabel, Velocity, psi1, ramp
from hemiflow.geometry import geodesic_distance


def nearest_record(flow, point, boundary: bool):
    pool = flow.trace_crit if boundary else flow.interior_crit
    coords = np.array([r.location.coords for r in pool]).reshape(len(pool), flow.n + 1)
    dist = np.arccos(np.clip((coords * point.coords).sum(axis=1), -1.0, 1.0))
    if dist.size == 0:
        return None, math.pi
    k = dist.size - 1 - int(np.argmin(dist[::-1]))
    return pool[k], geodesic_distance(point, pool[k].location)


def mu_ratio(mus) -> float:
    mus = np.array(mus)
    return float(np.max(mus) / np.min(mus))


def tower_set(flow, mus) -> tuple:
    mus = np.array(mus)
    order = np.argsort(mus)
    size = len(mus)
    cut = flow.params.M0 ** (1.0 / max(size - 1, 1))
    kept = [int(order[0])]
    for pos in range(1, size):
        if mus[order[pos]] <= cut * mus[order[pos - 1]]:
            kept.append(int(order[pos]))
        else:
            break
    return tuple(kept)


def label(flow, cfg, asm) -> RegionLabel:
    """``classify_region`` in array form, without the kept result."""
    params = flow.params
    diags = [flow.gamma_quantities(cfg, i, asm) for i in range(cfg.size)]
    nearest = tuple(nearest_record(flow, b.a, cfg.is_boundary_index(i))
                    for i, b in enumerate(cfg.bubbles))
    ratio = mu_ratio([d.mu for d in diags])
    w4 = ramp(ratio, params.M0, 2.0 * params.M0)
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
    cl = flow.clusters(nearest, 2.0 * params.eta)
    weights = {}
    if w4 > 0:
        weights["V4"] = w4
    if w1 > 0:
        weights["V1"] = w1
    if w2 > 0:
        weights["V2"] = w2
    if w3g > 0:
        sub = flow._v3_subtag(cl, nearest, params.eta)
        if sub is not None:
            weights[sub] = w3g
        elif cfg.q:
            weights["V2"] = weights.get("V2", 0.0) + w3g
        else:
            weights["V1"] = weights.get("V1", 0.0) + w3g
    if not weights:
        raise UnclassifiableState("no region predicate covers the state")
    tower = tower_set(flow, [d.mu for d in diags]) if w4 > 0 else tuple()
    tag = max(weights, key=weights.get)
    if weights[tag] < 1.0 - 1e-9:
        tag = "mixed" if len(weights) > 1 else tag
    return RegionLabel(tag=tag, weights=weights, per_index=diags, nearest=nearest,
                       clusters=cl, tower_set=tower, mu_ratio=ratio)


def _zero(size: int, dim: int) -> Velocity:
    return Velocity(np.zeros(size), [np.zeros(dim) for _ in range(size)], np.zeros(size))


def _add(vel: Velocity, other: Velocity):
    vel.alpha_dot += other.alpha_dot
    for k in range(len(vel.a_dot)):
        vel.a_dot[k] = vel.a_dot[k] + other.a_dot[k]
    vel.loglam_dot += other.loglam_dot


def _trace_drift(flow, vel, asm, i, gate=None):
    f = asm.frames[i]
    if gate is None:
        gate = psi1(f.param.lam * f.grad_k1_norm / flow.params.M2)
    if gate > 0:
        vel.a_dot[i] = vel.a_dot[i] + gate * flow._unit_drift(f.grad_k1, f.grad_k1_norm,
                                                              f.param.lam)


def _component_base(flow, cfg, asm, diags, interior_rates=True, boundary_rates=True,
                    interior_points=True, boundary_rate_scale=1.0) -> Velocity:
    vel = _zero(cfg.size, flow.n + 1)
    imb = asm.imbalances
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
                    vel.a_dot[i] = vel.a_dot[i] + gate * flow._unit_drift(
                        f.grad_sphere, f.grad_norm, f.param.lam)
                    if interior_rates:
                        far = psi1(f.param.lam * f.grad_norm / M_DRIFT)
                        vel.loglam_dot[i] -= gate * far
    return vel


def _field_v1(flow, cfg, asm, lab, depth):
    return _component_base(flow, cfg, asm, lab.per_index,
                           boundary_rate_scale=1.0 / flow.params.M2)


def _field_v2(flow, cfg, asm, lab, depth):
    vel = _component_base(flow, cfg, asm, lab.per_index, interior_rates=False,
                          interior_points=False)
    for i in range(cfg.q):
        _trace_drift(flow, vel, asm, i, ramp(lab.nearest[i][1], flow.params.eta,
                                             2.0 * flow.params.eta))
    return vel


def _field_v31(flow, cfg, asm, lab, depth):
    vel = _component_base(flow, cfg, asm, lab.per_index, interior_rates=False,
                          interior_points=False, boundary_rates=False)
    for i in range(cfg.q):
        _trace_drift(flow, vel, asm, i, psi1(2.0 * lab.per_index[i].gamma_a))
    return vel


def _field_v32(flow, cfg, asm, lab, depth):
    vel = _component_base(flow, cfg, asm, lab.per_index, interior_rates=False,
                          interior_points=False)
    for rec, members in lab.clusters.items():
        if rec.is_boundary:
            if rec.normal_sign < 0:
                for i in members:
                    vel.loglam_dot[i] -= 1.0
            elif rec.normal_sign == 0 and rec.laplacian > 0:
                for i in members:
                    vel.loglam_dot[i] -= 1.0
                    _trace_drift(flow, vel, asm, i)
        elif rec.laplacian > 0:
            for i in members:
                vel.loglam_dot[i] -= 1.0
    return vel


def _cluster_field(flow, cfg, asm, members):
    vel = _zero(cfg.size, flow.n + 1)
    if len(members) < 2:
        return vel
    dist = asm.dist_mat
    pairs = [(i, j) for i in members for j in members if i < j]
    seed_i, seed_j = min(pairs, key=lambda ij: dist[ij])
    group = {seed_i, seed_j}
    diam = dist[seed_i, seed_j]
    while True:
        added = False
        for k in members:
            if k in group:
                continue
            if any(dist[k, g] <= flow.params.M4 * diam for g in group):
                group.add(k)
                added = True
        if not added:
            break
        diam = max(dist[r, t] for r in group for t in group if r != t)
    bary = np.mean([cfg.bubbles[k].a.coords for k in group], axis=0)
    bary[-1] = 0.0
    bary /= np.linalg.norm(bary)
    gamma_i = max(dist[seed_i, k] for k in group)
    lam_seed = cfg.bubbles[seed_i].lam
    for k in group:
        ak = cfg.bubbles[k].a.coords
        v = bary - float(np.dot(ak, bary)) * ak
        vel.a_dot[k] = vel.a_dot[k] + v / (lam_seed * max(gamma_i, 1e-300))
    return vel


def _field_v33(flow, cfg, asm, lab, depth):
    vel = _component_base(flow, cfg, asm, lab.per_index, interior_rates=False,
                          interior_points=False, boundary_rates=False)
    for rec, members in lab.clusters.items():
        if rec.is_boundary and rec.normal_sign > 0 and len(members) >= 2:
            _add(vel, _cluster_field(flow, cfg, asm, members))
    return vel


def _field_w(flow, cfg, asm, lab, depth):
    vel = _component_base(flow, cfg, asm, lab.per_index, interior_rates=False,
                          boundary_rates=False)
    for i in range(cfg.q):
        _trace_drift(flow, vel, asm, i)
    vel.loglam_dot += 1.0
    return vel


def _field_v4(flow, cfg, asm, lab, depth):
    params = flow.params
    diags = lab.per_index
    vel = _component_base(flow, cfg, asm, diags, interior_rates=False, boundary_rates=False)
    mus = np.array([d.mu for d in diags])
    order = list(np.argsort(mus))
    rank = {int(idx): pos for pos, idx in enumerate(order)}
    size = cfg.size
    tower = set(lab.tower_set)
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
    if tower and len(tower) < size and depth == 0:
        k0 = len(lab.tower_set)
        m0_bar = params.M0 ** (max(k0 - 1, 1) / max(size - 1, 1))
        sub_params = replace(params, M0=max(m0_bar, 4.0),
                             M4=max(math.sqrt(m0_bar / SMALLNESS), 10.0),
                             max_qp=max(k0, 2))
        try:
            sub_flow = PseudogradientFlow(flow.model, flow.records, sub_params)
            sub_cfg, back, sub_asm = flow._restrict(cfg, asm, sorted(tower))
            sub_label = label(sub_flow, sub_cfg, sub_asm)
            sub_vel = field(sub_flow, sub_cfg, sub_label, sub_asm, depth=depth + 1)
            for si, gi in enumerate(back):
                vel.alpha_dot[gi] += sub_vel.alpha_dot[si] / params.M2**2
                vel.a_dot[gi] = vel.a_dot[gi] + sub_vel.a_dot[si] / params.M2**2
                vel.loglam_dot[gi] += min(sub_vel.loglam_dot[si] / params.M2**2, 0.0)
        except (ConfigError, InvalidConfiguration, UnclassifiableState, OutsideNeighborhood):
            pass
    return vel


_FIELDS = {"V1": _field_v1, "V2": _field_v2, "V3_1": _field_v31, "V3_2": _field_v32,
           "V3_3": _field_v33, "W": _field_w, "V4": _field_v4}


def field(flow, cfg, lab, asm, depth: int = 0) -> Velocity:
    """``pseudogradient`` in array form, without the kept result."""
    total = _zero(cfg.size, flow.n + 1)
    for name, w in lab.weights.items():
        if w <= 0:
            continue
        part = _FIELDS[name](flow, cfg, asm, lab, depth)
        if name != "W":
            part.loglam_dot = np.minimum(part.loglam_dot, 0.0)
        _add(total, part.scaled(w))
    return total
