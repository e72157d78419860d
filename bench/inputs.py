"""Seeded input generators owned by the benchmark.

Nothing here imports from the repository's tests, so editing a test fixture
cannot change what the benchmark feeds the program.  Every input is a pure
function of an integer key: ``key(stream, kind, index)`` seeds one numpy
Generator.  Stream 0 is the reference pool whose outputs are pinned in
``reference/``; a run draws the pool in a seed-dependent order and, once
the pool is used up, continues on its own stream ``1 + seed`` so that no
input repeats inside a run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hemiflow.bubbles import BubbleParam
from hemiflow.fields import ScalarField
from hemiflow.geometry import BoundarySpherePoint, SpherePoint, geodesic_step, tangent_basis
from hemiflow.model import Configuration

N = 5
E = np.eye(N + 1)
POOL_STREAM = 0


def rng_for(stream: int, kind: int, index: int) -> np.random.Generator:
    return np.random.default_rng([stream, kind, index])


def pool_order(seed: int, kind: int, size: int) -> np.ndarray:
    """The run's visiting order of one kind's reference pool."""
    return np.random.default_rng([seed, kind, 7919]).permutation(size)


def draw_key(seed: int, kind: int, turn: int, pool_size: int) -> tuple:
    """(stream, index) of the ``turn``-th input of ``kind`` in a run."""
    if turn < pool_size:
        return POOL_STREAM, int(pool_order(seed, kind, pool_size)[turn])
    return 1 + seed, turn


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

def fixed_fields() -> dict:
    """The four n = 5 fields whose landscapes the flow workloads use."""
    return {
        # boundary critical points at +-e1 only
        "linear": ScalarField(N, 1.0, [("x1", 0.05)]),
        # trace maximum at e1, positive normal derivative there
        "boundary_max": ScalarField(N, 1.0, [("x1", 0.05), ("x1*x6", -0.02)]),
        # interior critical point at e6 with positive Laplacian
        "interior_min": ScalarField(N, 1.0, [(f"x{i + 1}^2", 0.01 * d) for i, d in
                                             enumerate([2.0, 3.0, 2.5, 2.2, 2.8, 1.0])]),
        # admissible +-e1 on the equator and an interior maximum at e6
        "diag": ScalarField(N, 1.0, [(f"x{i + 1}^2", 0.01 * d) for i, d in
                                     enumerate([5.0, 1.0, 1.5, 2.0, 2.5, 6.0])]),
    }


def random_field(rng: np.random.Generator, n: int) -> ScalarField:
    """Degree-2 field: distinct diagonal terms (gaps >= 0.008 keep every
    critical point nondegenerate), small linear terms and two cross terms."""
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


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateInput:
    """A raw configuration for one flow setup.  The op normalizes the weights
    and then scales weight 0 by ``alpha_factor`` (off-balance states)."""

    kind: str
    setup: str
    cfg: Configuration
    alpha_factor: float = 1.0


def _unit(v):
    return v / np.linalg.norm(v)


def _boundary_point(rng, away_from=(), min_dist=0.0) -> BoundarySpherePoint:
    while True:
        v = rng.standard_normal(N + 1)
        v[-1] = 0.0
        v = _unit(v)
        if all(np.arccos(np.clip(abs(v @ w), -1.0, 1.0)) >= min_dist for w in away_from):
            return BoundarySpherePoint(v)


def _interior_point(rng, min_height) -> SpherePoint:
    while True:
        v = rng.standard_normal(N + 1)
        v[-1] = abs(v[-1])
        v = _unit(v)
        if v[-1] >= min_height:
            return SpherePoint(v)


def _near(coords, rng, radius, boundary):
    basis = tangent_basis(coords, within_equator=boundary)
    u = _unit(rng.standard_normal(len(basis)))
    w = geodesic_step(coords, u @ basis, rng.uniform(0.3 * radius, radius))
    if boundary:
        w = w.copy()
        w[-1] = 0.0
        return BoundarySpherePoint(_unit(w))
    return SpherePoint(w)


def _cfg(bubbles, q, eps=0.12) -> Configuration:
    return Configuration(tuple([1.0] * len(bubbles)), tuple(bubbles), q, len(bubbles) - q, eps)


def _cluster(rng, anchor, count=2, lam_lo=220.0, lam_hi=420.0, spread=0.05):
    lam0 = rng.uniform(lam_lo, lam_hi)
    while True:
        pts = [_near(anchor, rng, spread, True) for _ in range(count)]
        d_min = min(np.arccos(np.clip(pts[i].coords @ pts[j].coords, -1.0, 1.0))
                    for i in range(count) for j in range(i + 1, count))
        if d_min > 2.5 / lam0:
            break
    return _cfg([BubbleParam(p, lam0 * rng.uniform(0.9, 1.1)) for p in pts], q=count)


def state_v1(rng, landscapes) -> StateInput:
    pt = _interior_point(rng, 0.4)
    return StateInput("V1", "linear", _cfg([BubbleParam(pt, rng.uniform(3500.0, 6000.0))], q=0))


def state_v2(rng, landscapes) -> StateInput:
    crit = [r.location.coords for r in landscapes["linear"]]
    pt = _boundary_point(rng, crit, 0.35)
    return StateInput("V2", "linear", _cfg([BubbleParam(pt, rng.uniform(25.0, 70.0))], q=1))


def state_v2a(rng, landscapes) -> StateInput:
    """Two boundary profiles at +-e1 with weight 0 pushed off balance."""
    lam = rng.uniform(60.0, 150.0)
    bubbles = [BubbleParam(BoundarySpherePoint(a), lam * rng.uniform(0.9, 1.1))
               for a in (E[0], -E[0])]
    factor = 1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.35)
    return StateInput("V2a", "diag", _cfg(bubbles, q=2), float(factor))


def state_v31(rng, landscapes) -> StateInput:
    return StateInput("V3_1", "linear", _cluster(rng, E[0]))


def state_v32(rng, landscapes) -> StateInput:
    pt = _near(E[-1], rng, 0.05, False)
    return StateInput("V3_2", "interior_min", _cfg([BubbleParam(pt, rng.uniform(200.0, 400.0))], q=0))


def state_v33(rng, landscapes) -> StateInput:
    return StateInput("V3_3", "boundary_max", _cluster(rng, E[0]))


def state_v4(rng, landscapes) -> StateInput:
    """Same-axis tower of two scales: interior, or on the equator at e1."""
    lam = rng.uniform(20.0, 40.0)
    ratio = rng.uniform(180.0, 400.0)
    if rng.uniform() < 0.4:
        z = BoundarySpherePoint(E[0])
        return StateInput("V4", "linear", _cfg([BubbleParam(z, lam), BubbleParam(z, lam * ratio)], q=2))
    pt = _interior_point(rng, 0.5)
    pt2 = _near(pt.coords, rng, 0.01, False)
    return StateInput("V4", "linear", _cfg([BubbleParam(pt, lam), BubbleParam(pt2, lam * ratio)], q=0))


def state_w(rng, landscapes) -> StateInput:
    """One to three profiles near admissible critical points of the diag field."""
    records = landscapes["diag"]
    adm = [r for r in records if r.is_boundary and r.classification in ("K_b_plus", "K_b_0_minus")]
    inner = [r for r in records if not r.is_boundary and r.classification == "K_in_minus"]
    count_b = int(rng.integers(0, min(len(adm), 2) + 1))
    count_i = int(rng.integers(0, min(len(inner), 1) + 1))
    if count_b + count_i == 0:
        count_b, count_i = (1, 0) if adm else (0, 1)
    chosen_b = rng.choice(len(adm), size=count_b, replace=False) if count_b else []
    chosen_i = rng.choice(len(inner), size=count_i, replace=False) if count_i else []
    lam0 = rng.uniform(180.0, 400.0)
    bubbles = [BubbleParam(_near(adm[k].location.coords, rng, 0.03, True), lam0 * rng.uniform(0.8, 1.2))
               for k in chosen_b]
    bubbles += [BubbleParam(_near(inner[k].location.coords, rng, 0.03, False), lam0 * rng.uniform(0.8, 1.2))
                for k in chosen_i]
    return StateInput("W", "diag", _cfg(bubbles, q=count_b))


def state_tower3(rng, landscapes) -> StateInput:
    """Two comparable boundary profiles at +-e1 under a far faster interior
    one, for the flow built with FlowParams.for_mass(3)."""
    lam = rng.uniform(50.0, 70.0)
    b1 = BubbleParam(BoundarySpherePoint(E[0]), lam)
    b2 = BubbleParam(BoundarySpherePoint(-E[0]), lam * rng.uniform(1.05, 1.35))
    b3 = BubbleParam(_near(E[-1], rng, 0.02, False), lam * rng.uniform(4.0e4, 8.0e4))
    return StateInput("tower3", "diag_mass3", _cfg([b1, b2, b3], q=2))


REGION_KINDS = (state_v1, state_v2, state_v2a, state_v31, state_v32, state_v33,
                state_v4, state_w, state_tower3)
# V3_3 twice per cycle: most ops then have two or more profiles, so the
# median op lies inside the two-profile cluster of latencies instead of on
# the edge between it and the one-profile cluster
DESCENT_KINDS = (state_v1, state_v2, state_v33, state_v4, state_w, state_v33)
