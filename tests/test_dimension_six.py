"""End-to-end checks at n = 6: nothing in the core is tied to the minimal
dimension beyond the residue-budget branch."""

import math

import numpy as np
import pytest

from hemiflow.bubbles import BubbleParam, epsilon_dlambda, epsilon
from hemiflow.census import counting_A, enumerate_census, pinch_threshold
from hemiflow.constants import compute_constants
from hemiflow.fields import ScalarField
from hemiflow.geometry import BoundarySpherePoint, SpherePoint
from hemiflow.landscape import check_assumptions, classify, find_critical_points
from hemiflow.model import Configuration, ReducedModel
from hemiflow.oracles import quadrature_J_boundary

from _chart_route import delta_chart_identity_error

N6 = 6
E6 = np.eye(N6 + 1)


@pytest.fixture(scope="module")
def setup6():
    coeffs = [5.0, 1.0, 1.5, 2.0, 2.5, 2.8, 6.0]
    K = ScalarField(N6, 1.0, [(f"x{i+1}^2", 0.01 * d) for i, d in enumerate(coeffs)])
    return K, ReducedModel(K, compute_constants(N6, 1e-8))


def test_chart_identity(setup6):
    K, model = setup6
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = rng.standard_normal(N6 + 1)
        v[-1] = abs(v[-1])
        v /= np.linalg.norm(v)
        w = rng.standard_normal(N6 + 1)
        w[-1] = abs(w[-1])
        w /= np.linalg.norm(w)
        b = BubbleParam(SpherePoint(v), float(np.exp(rng.uniform(0, 4))))
        assert delta_chart_identity_error(b, SpherePoint(w)) < 1e-8


def test_reduced_energy_matches_quadrature(setup6):
    K, model = setup6
    z = BoundarySpherePoint(E6[0])
    for lam in (15.0, 30.0):
        cfg = model.normalize_alphas(
            Configuration((1.0,), (BubbleParam(z, lam),), 1, 0, 0.12))
        jr = model.reduced_J(cfg)
        jq = quadrature_J_boundary(K, E6[0], lam)
        assert abs(jq - jr.center) <= jr.halfwidth


def test_rate_gradient_fd(setup6):
    K, model = setup6
    lam, h = 25.0, 0.05
    cfg = model.normalize_alphas(
        Configuration((1.0,), (BubbleParam(BoundarySpherePoint(E6[0]), lam),), 1, 0, 0.12))
    g = model.grad_a(cfg, 0, with_rate=True)[0]
    fd = (quadrature_J_boundary(K, E6[0], lam * math.exp(h))
          - quadrature_J_boundary(K, E6[0], lam * math.exp(-h))) / (2 * h)
    assert abs(fd - cfg.alphas[0] * g.center) <= 0.15 * abs(fd)


def test_interaction_inequalities(setup6):
    rng = np.random.default_rng(6)
    for _ in range(2000):
        u = rng.standard_normal(N6 + 1); u[-1] = abs(u[-1]); u /= np.linalg.norm(u)
        v = rng.standard_normal(N6 + 1); v[-1] = abs(v[-1]); v /= np.linalg.norm(v)
        bi = BubbleParam(SpherePoint(u), float(np.exp(rng.uniform(0, 5))))
        bj = BubbleParam(SpherePoint(v), float(np.exp(rng.uniform(0, 5))))
        di, dj = epsilon_dlambda(bi, bj)
        assert -(di + dj) >= -1e-12 * epsilon(bi, bj)


def test_landscape_census_and_gates(setup6):
    K, model = setup6
    records = find_critical_points(K, 8)
    families = classify(records)
    # the top two quadratic coefficients give the admissible pair and the
    # interior maximum, exactly as in the five-dimensional family
    assert len(families["K_b_0_minus"]) == 2
    assert len(families["K_in_minus"]) == 1
    report = check_assumptions(records, K)
    assert report.h1 and report.h2 and report.h3
    census = enumerate_census(records, 4, model.s_n, N6)
    assert len(census) == 7
    top = max(families["K_b_0_minus"], key=lambda r: r.value)
    assert top.morse_index == N6 - 1
    assert counting_A([N6 - 1 - r.morse_index for r in families["K_b_0_minus"]])[0] == 2
    assert abs(pinch_threshold(1, N6) - 2.0 ** 0.25) < 1e-15
