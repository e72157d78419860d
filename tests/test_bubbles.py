import math

import numpy as np
import pytest

from hemiflow.bubbles import (BubbleParam, _interaction_terms, bubble_normalization, delta,
                              epsilon, epsilon_da, epsilon_dlambda, greens_regular_part,
                              phi_approx)
from hemiflow.errors import BoundaryPoint, InvalidConfiguration
from hemiflow.geometry import (BoundarySpherePoint, SpherePoint, geodesic_distance,
                               geodesic_step, tangent_basis)

from _chart_route import delta_chart_identity_error
from _fixtures import N, E


def rand_hemi(rng):
    v = rng.standard_normal(N + 1)
    v[-1] = abs(v[-1])
    return SpherePoint(v / np.linalg.norm(v))


def rand_bubble(rng, lam_lo=1.0, lam_hi=150.0):
    return BubbleParam(rand_hemi(rng), float(np.exp(rng.uniform(np.log(lam_lo), np.log(lam_hi)))))


C0 = bubble_normalization(N)


class TestDelta:
    def test_rate_one_is_constant(self):
        b = BubbleParam(BoundarySpherePoint(E[0]), 1.0)
        rng = np.random.default_rng(0)
        expected = C0 * 2.0 ** (-(N - 2) / 2)
        for _ in range(20):
            assert abs(delta(b, rand_hemi(rng)) - expected) < 1e-12

    def test_value_at_center(self):
        lam = 17.0
        b = BubbleParam(BoundarySpherePoint(E[0]), lam)
        expected = C0 * lam ** ((N - 2) / 2) * 2.0 ** (-(N - 2) / 2)
        assert abs(delta(b, SpherePoint(E[0])) - expected) < 1e-10

    def test_maximal_at_center(self):
        rng = np.random.default_rng(1)
        b = rand_bubble(rng, 5.0, 40.0)
        peak = delta(b, b.a)
        for _ in range(200):
            assert delta(b, rand_hemi(rng)) <= peak + 1e-12

    def test_chart_identity_exact(self):
        # the profile equals the flat bubble times the conformal factor in
        # its own chart, pointwise
        rng = np.random.default_rng(2)
        for _ in range(100):
            b = rand_bubble(rng)
            x = rand_hemi(rng)
            assert delta_chart_identity_error(b, x) < 1e-8

    def test_rate_below_one_rejected(self):
        with pytest.raises(InvalidConfiguration):
            BubbleParam(SpherePoint(E[-1]), 0.5)


class TestProjectedApproximation:
    def test_boundary_center_raises(self):
        with pytest.raises(BoundaryPoint):
            phi_approx(BubbleParam(BoundarySpherePoint(E[0]), 10.0))

    def test_mirror_charge_value(self):
        a = np.zeros(N)
        a[-1] = 1.0
        x = np.zeros(N)
        x[-1] = 2.0
        assert abs(greens_regular_part(a, x) - 3.0 ** (2 - N)) < 1e-15

    def test_sandwich_bounds(self):
        # delta <= phi <= 2 delta within the published remainder budget
        rng = np.random.default_rng(3)
        th = 0.4
        pt = SpherePoint(np.array([np.cos(th), 0, 0, 0, 0, np.sin(th)]))
        pa = phi_approx(BubbleParam(pt, 60.0))
        for _ in range(1000):
            x = pa.charted.chart.to_chart(rand_hemi(rng).coords)
            d_val = pa.delta_term(x)
            phi_val = pa.value(x)
            assert d_val <= phi_val + pa.budget + 1e-14
            assert phi_val - pa.budget <= 2.0 * d_val + 1e-14

    def test_budget_scales_with_rate_and_height(self):
        th = 0.5
        pt = SpherePoint(np.array([np.cos(th), 0, 0, 0, 0, np.sin(th)]))
        b1 = phi_approx(BubbleParam(pt, 40.0)).budget
        b2 = phi_approx(BubbleParam(pt, 80.0)).budget
        assert b2 < b1 / 2 ** ((N + 2) / 2 - 0.5)


class TestInteraction:
    def test_coincident_equal_rates(self):
        b = BubbleParam(BoundarySpherePoint(E[0]), 7.0)
        assert abs(epsilon(b, b) - 2.0 ** (-(N - 2) / 2)) < 1e-15

    def test_orthogonal_unit_rates(self):
        bi = BubbleParam(BoundarySpherePoint(E[0]), 1.0)
        bj = BubbleParam(BoundarySpherePoint(E[1]), 1.0)
        assert abs(epsilon(bi, bj) - 2.0 ** (-(N - 2))) < 1e-15
        assert abs(epsilon(bi, bj) - 1.0 / 8.0) < 1e-15  # n = 5

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            bi, bj = rand_bubble(rng), rand_bubble(rng)
            assert epsilon(bi, bj) == epsilon(bj, bi)

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            val = epsilon(rand_bubble(rng), rand_bubble(rng))
            assert 0.0 < val <= 2.0 ** (-(N - 2) / 2) + 1e-15


class TestInteractionRateDerivative:
    def test_symmetric_stationary_point(self):
        b = BubbleParam(BoundarySpherePoint(E[0]), 9.0)
        di, dj = epsilon_dlambda(b, b)
        assert di == 0.0 and dj == 0.0

    def test_matches_log_rate_finite_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-6
        for _ in range(1000):
            bi, bj = rand_bubble(rng), rand_bubble(rng)
            di, dj = epsilon_dlambda(bi, bj)
            fd_i = (epsilon(BubbleParam(bi.a, bi.lam * math.exp(h)), bj)
                    - epsilon(BubbleParam(bi.a, bi.lam * math.exp(-h)), bj)) / (2 * h)
            assert abs(di - fd_i) <= 1e-7 * max(abs(fd_i), 1e-14)
            fd_j = (epsilon(bi, BubbleParam(bj.a, bj.lam * math.exp(h)))
                    - epsilon(bi, BubbleParam(bj.a, bj.lam * math.exp(-h)))) / (2 * h)
            assert abs(dj - fd_j) <= 1e-7 * max(abs(fd_j), 1e-14)

    def test_scaled_sum_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            bi, bj = rand_bubble(rng, 1.0, 500.0), rand_bubble(rng, 1.0, 500.0)
            di, dj = epsilon_dlambda(bi, bj)
            assert -(di + dj) >= -1e-12 * epsilon(bi, bj)

    def test_separated_rate_derivative_dominates(self):
        # -lam_i d eps / d lam_i >= 0.1 eps whenever lam_i * distance >= 2
        rng = np.random.default_rng(8)
        hits = 0
        while hits < 2000:
            bi, bj = rand_bubble(rng, 1.0, 300.0), rand_bubble(rng, 1.0, 300.0)
            if bi.lam * geodesic_distance(bi.a, bj.a) < 2.0:
                continue
            hits += 1
            di, _ = epsilon_dlambda(bi, bj)
            assert -di >= 0.1 * epsilon(bi, bj)


class TestInteractionKernel:
    def test_arrays_match_scalar_routes_bit_for_bit(self):
        rng = np.random.default_rng(10)
        pairs = [(rand_bubble(rng, 1.0, 500.0), rand_bubble(rng, 1.0, 500.0))
                 for _ in range(200)]
        li = np.array([bi.lam for bi, _ in pairs])
        lj = np.array([bj.lam for _, bj in pairs])
        t = np.array([1.0 - float(np.dot(bi.a.coords, bj.a.coords)) for bi, bj in pairs])
        eps, di, dj, g_pow = _interaction_terms(li, lj, t, N)
        assert np.array_equal(eps, [epsilon(bi, bj) for bi, bj in pairs])
        assert np.array_equal(np.stack([di, dj], axis=1),
                              [epsilon_dlambda(bi, bj) for bi, bj in pairs])
        # the last term is the power epsilon_da takes
        assert np.array_equal(
            [(N - 2) * bi.lam * bj.lam * (bj.a.coords - bi.a.coords) * p
             for (bi, bj), p in zip(pairs, g_pow)],
            [epsilon_da(bi, bj) for bi, bj in pairs])

    @pytest.mark.parametrize("seed", range(5))
    def test_verify_interaction_suite_passes(self, seed):
        from hemiflow.config import RunConfig
        from hemiflow.verify import available_suites
        cfg = RunConfig(n=N, field_spec={"kappa0": 1.0}, seed=seed)
        assert available_suites()["interaction"](cfg) == (
            True, "violations: sum-inequality 0, rate-inequality 0")


class TestInteractionPointDerivative:
    def test_zero_at_coincident_points(self):
        b = BubbleParam(BoundarySpherePoint(E[0]), 5.0)
        assert np.allclose(epsilon_da(b, b), 0.0)

    def test_difference_factor_antisymmetry(self):
        rng = np.random.default_rng(9)
        bi, bj = rand_bubble(rng), rand_bubble(rng)
        gi = epsilon_da(bi, bj)
        gj = epsilon_da(bj, bi)
        scale = (N - 2) * bi.lam * bj.lam * epsilon(bi, bj) ** (N / (N - 2))
        assert np.allclose(gi / scale, -(gj / scale) + 0 * gi, atol=1e-12) or np.allclose(
            gi + gj, 0.0, atol=1e-12 * scale)

    def test_matches_tangent_finite_differences(self):
        rng = np.random.default_rng(10)
        h = 1e-7
        for _ in range(200):
            bi, bj = rand_bubble(rng, 5.0, 80.0), rand_bubble(rng, 5.0, 80.0)
            g = epsilon_da(bi, bj)
            basis = tangent_basis(bi.a.coords)
            e = basis[rng.integers(0, len(basis))]
            fd = (epsilon(BubbleParam(SpherePoint(geodesic_step(bi.a.coords, e, h)), bi.lam), bj)
                  - epsilon(BubbleParam(SpherePoint(geodesic_step(bi.a.coords, e, -h)), bi.lam), bj)) / (2 * h)
            assert abs(float(g @ e) - fd) <= 1e-6 * max(abs(fd), 1e-12)


def barycentric_pairing(bi: BubbleParam, bj: BubbleParam, b_coords) -> float:
    """d(eps)/da_i . (b - <a_i,b> a_i) + d(eps)/da_j . (b - <a_j,b> a_j).

    For two boundary bubbles drifting toward a common boundary point this is
    bounded below by a positive multiple of eps (the barycentric descent
    mechanism); the exact identity is
    (n-2) lam_i lam_j eps^{n/(n-2)} <a_i + a_j, b> (1 - <a_i, a_j>).
    """
    b = np.asarray(b_coords, dtype=float)
    gi = epsilon_da(bi, bj)
    gj = epsilon_da(bj, bi)
    vi = b - float(np.dot(bi.a.coords, b)) * bi.a.coords
    vj = b - float(np.dot(bj.a.coords, b)) * bj.a.coords
    return float(gi @ vi + gj @ vj)


class TestBarycentricMechanism:
    def test_pairing_against_exact_identity(self):
        # for a nearby pair around a common boundary point the pairing equals
        # (n-2) lam_i lam_j eps^{n/(n-2)} <a_i + a_j, b> (1 - <a_i, a_j>)
        rng = np.random.default_rng(11)
        b = E[0]
        for _ in range(200):
            basis = tangent_basis(b, within_equator=True)
            def nearby():
                u = rng.standard_normal(N - 1)
                u /= np.linalg.norm(u)
                w = geodesic_step(b, u @ basis, rng.uniform(0.005, 0.05))
                w[-1] = 0.0
                return BoundarySpherePoint(w / np.linalg.norm(w))
            lam = rng.uniform(100.0, 300.0)
            bi = BubbleParam(nearby(), lam)
            bj = BubbleParam(nearby(), lam * rng.uniform(0.8, 1.25))
            val = barycentric_pairing(bi, bj, b)
            eps = epsilon(bi, bj)
            diff2 = float(np.sum((bi.a.coords - bj.a.coords) ** 2))
            lead = (N - 2) * bi.lam * bj.lam * diff2 * eps ** (2.0 / (N - 2))
            ratio = val / (eps * lead)
            assert ratio >= 0.5
            assert abs(ratio - 1.0) <= 0.1

    def test_separated_pair_asymptotic_constant(self):
        # eps * (lam_i lam_j)^{(n-2)/2} d^{n-2} settles within 5% as the
        # rates double
        a1 = BoundarySpherePoint(E[0])
        a2 = BoundarySpherePoint((E[0] + E[1]) / np.linalg.norm(E[0] + E[1]))
        d = geodesic_distance(a1, a2)
        vals = []
        for lam in (50.0, 100.0, 200.0, 400.0):
            e = epsilon(BubbleParam(a1, lam), BubbleParam(a2, 1.3 * lam))
            vals.append(e * (lam * 1.3 * lam) ** ((N - 2) / 2) * d ** (N - 2))
        assert abs(vals[-1] / vals[-2] - 1.0) < 0.05
        assert abs(vals[-2] / vals[-3] - 1.0) < 0.05
