"""Shared crafted fields, configuration builders and region-state samplers."""

from __future__ import annotations

import numpy as np

from hemiflow.bubbles import BubbleParam
from hemiflow.fields import ScalarField
from hemiflow.geometry import BoundarySpherePoint, SpherePoint, geodesic_step, tangent_basis
from hemiflow.model import Configuration

N = 5
E = np.eye(N + 1)


def field_linear() -> ScalarField:
    """Two boundary critical points at +-e1; the plus side is admissible."""
    return ScalarField(N, 1.0, [("x1", 0.05)])


def field_diag() -> ScalarField:
    """Hand-enumerable landscape: admissible +-e1 on the equator plus the
    top-coefficient interior maximum at e6."""
    coeffs = [5.0, 1.0, 1.5, 2.0, 2.5, 6.0]
    return ScalarField(N, 1.0, [(f"x{i+1}^2", 0.01 * d) for i, d in enumerate(coeffs)])


def field_all_positive_laplacian() -> ScalarField:
    """Every equator critical point has positive Laplacian (empty sign set)."""
    coeffs = [1.0, 2.0, 1.5, 1.2, 1.8, 9.0]
    return ScalarField(N, 1.0, [(f"x{i+1}^2", 0.01 * d) for i, d in enumerate(coeffs)])


def field_boundary_max() -> ScalarField:
    """Trace maximum at e1 with positive outward normal derivative there and
    negative at the opposite minimum (sign-compatible trace conditions)."""
    return ScalarField(N, 1.0, [("x1", 0.05), ("x1*x6", -0.02)])


def field_interior_min() -> ScalarField:
    """Interior critical point at e6 with positive Laplacian (repelling)."""
    coeffs = [2.0, 3.0, 2.5, 2.2, 2.8, 1.0]
    return ScalarField(N, 1.0, [(f"x{i+1}^2", 0.01 * d) for i, d in enumerate(coeffs)])


def field_h3_quadratic_flat() -> ScalarField:
    """Normal derivative vanishing quadratically at the trace maximum e1."""
    kap = 0.02
    return ScalarField(N, 1.0, [("x1", 0.05), ("x6", -kap), ("x1*x6", kap)])


def random_field(rng: np.random.Generator, n: int) -> ScalarField:
    """Degree-2 field on S^n: distinct diagonal terms (gaps >= 0.008 keep
    every critical point nondegenerate), small linear terms and two cross
    terms; the recipe of the benchmark's landscape inputs."""
    dim = n + 1
    diag = 0.01 * (1.0 + 0.8 * np.arange(dim) + rng.uniform(0.0, 0.4, dim))
    rng.shuffle(diag)
    lin = rng.uniform(-0.01, 0.01, dim)
    terms = [(f"x{i + 1}^2", float(c)) for i, c in enumerate(diag)]
    terms += [(f"x{i + 1}", float(c)) for i, c in enumerate(lin)]
    for _ in range(2):
        i, j = sorted(int(k) for k in rng.choice(dim, 2, replace=False))
        terms.append((f"x{i + 1}*x{j + 1}", float(rng.uniform(-0.005, 0.005))))
    return ScalarField(n, 1.0, terms)


def boundary_point(rng=None, away_from=None, min_dist=0.0, n=N):
    rng = rng or np.random.default_rng(0)
    while True:
        v = rng.standard_normal(n + 1)
        v[-1] = 0.0
        v /= np.linalg.norm(v)
        if away_from is None:
            return BoundarySpherePoint(v)
        if all(np.arccos(np.clip(abs(v @ w), -1, 1)) >= min_dist for w in away_from):
            return BoundarySpherePoint(v)


def interior_point(rng=None, min_height=0.35, n=N):
    rng = rng or np.random.default_rng(0)
    while True:
        v = rng.standard_normal(n + 1)
        v[-1] = abs(v[-1])
        v /= np.linalg.norm(v)
        if v[-1] >= min_height:
            return SpherePoint(v)


def near(point_coords, rng, radius, within_equator):
    basis = tangent_basis(point_coords, within_equator=within_equator)
    u = rng.standard_normal(len(basis))
    u /= np.linalg.norm(u)
    r = rng.uniform(0.3 * radius, radius)
    w = geodesic_step(point_coords, u @ basis, r)
    if within_equator:
        w = w.copy()
        w[-1] = 0.0
        w /= np.linalg.norm(w)
        return BoundarySpherePoint(w)
    return SpherePoint(w)


def make_cfg(model, bubbles, q, eps=0.12, normalize=True, alphas=None):
    size = len(bubbles)
    cfg = Configuration(tuple(alphas if alphas else [1.0] * size), tuple(bubbles),
                        q, size - q, eps)
    return model.normalize_alphas(cfg) if normalize else cfg


# ---------------------------------------------------------------------------
# Region state samplers (each returns a valid, normalized configuration that
# classifies into the requested region for the matching field)
# ---------------------------------------------------------------------------

def sample_v1(model, rng) -> Configuration:
    pt = interior_point(rng, min_height=0.4, n=model.n)
    lam = rng.uniform(3500.0, 6000.0)
    return make_cfg(model, [BubbleParam(pt, lam)], q=0)


def sample_v2(model, crit_coords, rng) -> Configuration:
    pt = boundary_point(rng, away_from=crit_coords, min_dist=0.35, n=model.n)
    lam = rng.uniform(25.0, 70.0)
    return make_cfg(model, [BubbleParam(pt, lam)], q=1)


def sample_v2_alpha(model, anchors, rng) -> Configuration:
    """Two boundary bubbles with one weight pushed off balance (a single
    bubble's weight is pure gauge and classifies as a matched state)."""
    lam = rng.uniform(60.0, 150.0)
    bubbles = [BubbleParam(BoundarySpherePoint(a), lam * rng.uniform(0.9, 1.1))
               for a in anchors]
    cfg = make_cfg(model, bubbles, q=len(anchors))
    factor = 1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.35)
    alphas = list(cfg.alphas)
    alphas[0] *= factor
    return cfg.replace(alphas=tuple(alphas))


def sample_cluster(model, anchor, rng, count=2, lam_lo=220.0, lam_hi=420.0,
                   spread=0.05) -> Configuration:
    bubbles = []
    lam0 = rng.uniform(lam_lo, lam_hi)
    while True:
        pts = [near(anchor, rng, spread, within_equator=True) for _ in range(count)]
        d_min = min(np.arccos(np.clip(pts[i].coords @ pts[j].coords, -1, 1))
                    for i in range(count) for j in range(i + 1, count))
        if d_min > 2.5 / lam0:
            break
    for k in range(count):
        bubbles.append(BubbleParam(pts[k], lam0 * rng.uniform(0.9, 1.1)))
    return make_cfg(model, bubbles, q=count)


def sample_w(model, records, rng, max_points=2) -> Configuration:
    admissible = []
    for r in records:
        if r.is_boundary and (r.classification in ("K_b_plus", "K_b_0_minus")):
            admissible.append(r)
    interior = [r for r in records if not r.is_boundary and r.classification == "K_in_minus"]
    count_b = int(rng.integers(0, min(len(admissible), max_points) + 1))
    count_i = int(rng.integers(0, min(len(interior), 1) + 1))
    if count_b + count_i == 0:
        count_b = 1 if admissible else 0
        count_i = 0 if admissible else 1
    chosen_b = list(rng.choice(len(admissible), size=count_b, replace=False)) if count_b else []
    chosen_i = list(rng.choice(len(interior), size=count_i, replace=False)) if count_i else []
    bubbles = []
    lam0 = rng.uniform(180.0, 400.0)
    for idx in chosen_b:
        pt = near(admissible[idx].location.coords, rng, 0.03, within_equator=True)
        bubbles.append(BubbleParam(pt, lam0 * rng.uniform(0.8, 1.2)))
    for idx in chosen_i:
        pt = near(interior[idx].location.coords, rng, 0.03, within_equator=False)
        bubbles.append(BubbleParam(pt, lam0 * rng.uniform(0.8, 1.2)))
    return make_cfg(model, bubbles, q=count_b)


def sample_v4(model, rng, boundary_anchor=None) -> Configuration:
    """Interior same-axis tower (or boundary tower at a critical point)."""
    if boundary_anchor is not None:
        lam = rng.uniform(20.0, 40.0)
        ratio = rng.uniform(180.0, 400.0)
        b1 = BubbleParam(BoundarySpherePoint(boundary_anchor), lam)
        b2 = BubbleParam(BoundarySpherePoint(boundary_anchor), lam * ratio)
        return make_cfg(model, [b1, b2], q=2)
    pt = interior_point(rng, min_height=0.5, n=model.n)
    pt2 = near(pt.coords, rng, 0.01, within_equator=False)
    lam = rng.uniform(20.0, 40.0)
    ratio = rng.uniform(180.0, 400.0)
    return make_cfg(model, [BubbleParam(pt, lam), BubbleParam(pt2, lam * ratio)], q=0)
