import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hemiflow.bubbles import (BubbleParam, ChartedBubble, epsilon, epsilon_da, epsilon_dlambda,
                              greens_regular_part)
from hemiflow.census import entry_level, level_terms
from hemiflow.errors import InvalidConfiguration, NonFiniteBar
from hemiflow.fields import ScalarField
from hemiflow.geometry import (BoundarySpherePoint, SpherePoint, geodesic_distance,
                               geodesic_step, tangent_basis)
from hemiflow.landscape import find_critical_points
from hemiflow.model import SEP_DISTANCE, Assembly, BubbleFrame, Configuration, ReducedModel
from hemiflow.oracles import quadrature_J_boundary, quadrature_J_interior

from _chart_route import chart_frame
from _fixtures import (E, N, boundary_point, field_boundary_max, field_diag, field_linear,
                       interior_point, make_cfg)


@pytest.fixture(scope="module")
def model_lin():
    return ReducedModel(field_linear())


@pytest.fixture(scope="module")
def model_const():
    return ReducedModel(ScalarField(N, 1.0))


def single_boundary(model, lam=60.0, point=None, eps=0.12):
    pt = BoundarySpherePoint(E[0] if point is None else point)
    return make_cfg(model, [BubbleParam(pt, lam)], q=1, eps=eps)


def single_interior(model, lam=40.0, height_angle=0.55, eps=0.12):
    pt = SpherePoint(np.array([np.cos(height_angle), 0, 0, 0, 0, np.sin(height_angle)]))
    return make_cfg(model, [BubbleParam(pt, lam)], q=0, eps=eps)


class TestConfiguration:
    def test_counts_validated(self):
        with pytest.raises(InvalidConfiguration):
            Configuration((), (), 0, 0, 0.1)

    def test_rate_floor(self):
        with pytest.raises(InvalidConfiguration):
            Configuration((1.0,), (BubbleParam(BoundarySpherePoint(E[0]), 5.0),), 1, 0, 0.1)

    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_scale_must_be_positive(self, eps):
        # the rate floor is 1/eps
        with pytest.raises(InvalidConfiguration, match="must be positive"):
            Configuration((1.0,), (BubbleParam(BoundarySpherePoint(E[0]), 50.0),), 1, 0, eps)

    def test_interior_slot_needs_distance(self):
        pt = SpherePoint(np.array([np.cos(0.05), 0, 0, 0, 0, np.sin(0.05)]))
        with pytest.raises(InvalidConfiguration):
            Configuration((1.0,), (BubbleParam(pt, 20.0),), 0, 1, 0.1)

    def test_interaction_scale_enforced(self):
        b = BubbleParam(BoundarySpherePoint(E[0]), 20.0)
        with pytest.raises(InvalidConfiguration):
            Configuration((1.0, 1.0), (b, b), 2, 0, 0.1)

    def test_point_dimension_checked_when_framed(self):
        # 5-coordinate points for an n = 5 field (which needs 6)
        pt = BoundarySpherePoint(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        cfg = Configuration((1.0,), (BubbleParam(pt, 60.0),), 1, 0, 0.12)
        with pytest.raises(InvalidConfiguration, match="5 coordinates.*needs 6"):
            ReducedModel(field_linear()).assemble(cfg)

    def test_json_roundtrip(self, model_lin):
        cfg = make_cfg(model_lin, [
            BubbleParam(BoundarySpherePoint(E[0]), 50.0),
            BubbleParam(SpherePoint(E[-1]), 70.0),
        ], q=1)
        doc = json.loads(json.dumps(cfg.to_json()))
        back = Configuration.from_json(doc)
        assert back.q == 1 and back.p == 1
        assert back.alphas == cfg.alphas
        for b1, b2 in zip(back.bubbles, cfg.bubbles):
            assert b1.lam == b2.lam
            assert np.allclose(b1.a.coords, b2.a.coords)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_json_roundtrip_property(self, data):
        # 1-3 bubbles, boundary slots first, every rate above 1/eps >= 1
        eps = data.draw(st.floats(0.05, 0.9), label="eps")
        q = data.draw(st.integers(0, 3), label="q")
        p = data.draw(st.integers(0 if q else 1, 3 - q), label="p")
        alphas, bubbles = [], []
        for k in range(q + p):
            v = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=N, max_size=N)))
            assume(np.linalg.norm(v) > 0.1)
            if k < q:
                point = BoundarySpherePoint(np.append(v, 0.0) / np.linalg.norm(v))
            else:
                height = data.draw(st.floats(0.3, math.pi / 2))
                point = SpherePoint(np.append(math.cos(height) * v / np.linalg.norm(v),
                                              math.sin(height)))
            lam = data.draw(st.floats(1.0 / eps, 1e5, exclude_min=True))
            alphas.append(data.draw(st.floats(1e-3, 1e3)))
            bubbles.append(BubbleParam(point, lam))
        try:
            cfg = Configuration(tuple(alphas), tuple(bubbles), q, p, eps)
        except InvalidConfiguration:
            assume(False)
        back = Configuration.from_json(json.loads(json.dumps(cfg.to_json())))
        assert (back.q, back.p, back.eps_scale, back.alphas) == (q, p, eps, cfg.alphas)
        for b1, b2 in zip(back.bubbles, cfg.bubbles):
            assert type(b1.a) is type(b2.a)
            assert b1.lam == b2.lam
            assert np.array_equal(b1.a.coords, b2.a.coords)

    def test_equal_configurations_compare_and_hash_equal(self, model_lin):
        def build(x):
            pt = SpherePoint(np.array([math.cos(x), 0, 0, 0, 0, math.sin(x)]))
            return Configuration((0.5, 0.7), (BubbleParam(BoundarySpherePoint(E[0].copy()), 50.0),
                                              BubbleParam(pt, 70.0)), 1, 1, 0.12)

        a, b = build(0.6), build(0.6)
        model_lin.assemble(a)  # the kept assembly takes no part in equality
        assert a.bubbles[0] == b.bubbles[0] and hash(a.bubbles[0]) == hash(b.bubbles[0])
        assert a == b and hash(a) == hash(b)
        moved = build(0.6 + 1e-9)
        assert moved.bubbles[1] != b.bubbles[1]
        assert moved != b

    def _two_boundary(self):
        return (BubbleParam(BoundarySpherePoint(E[0]), 50.0),
                BubbleParam(BoundarySpherePoint(-E[0]), 60.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_weight_refused_on_both_paths_naming_the_bubble(self, bad):
        # a NaN weight passes a plain a <= 0 test and would surface only as
        # a NonFiniteBar from the assembly
        bubbles = self._two_boundary()
        with pytest.raises(InvalidConfiguration) as fresh:
            Configuration((1.0, bad), bubbles, 2, 0, 0.12)
        with pytest.raises(InvalidConfiguration) as shared:
            Configuration((1.0, 1.0), bubbles, 2, 0, 0.12).replace(alphas=(1.0, bad))
        assert str(fresh.value) == str(shared.value)
        assert str(fresh.value) == f"weights must be positive and finite: bubble 1 has {bad}"

    def test_length_mismatch_refused_on_both_paths(self):
        bubbles = self._two_boundary()
        with pytest.raises(InvalidConfiguration) as fresh:
            Configuration((1.0,), bubbles, 2, 0, 0.12)
        with pytest.raises(InvalidConfiguration) as shared:
            Configuration((1.0, 1.0), bubbles, 2, 0, 0.12).replace(alphas=(1.0,))
        assert str(fresh.value) == str(shared.value) == "alphas/bubbles length mismatch"

    def test_weight_only_replace_shares_the_tables(self):
        cfg = Configuration((1.0, 1.0), self._two_boundary(), 2, 0, 0.12)
        moved = cfg.replace(alphas=np.array([0.5, 2.0]))
        assert moved.alphas == (0.5, 2.0) and all(type(a) is float for a in moved.alphas)
        assert moved.eps_mat is cfg.eps_mat and moved.eps_dloglam is cfg.eps_dloglam
        assert moved.pairs is cfg.pairs
        assert moved == Configuration((0.5, 2.0), cfg.bubbles, 2, 0, 0.12)


class TestNormalization:
    def test_constant_field_balance(self, model_const):
        cfg = single_boundary(model_const)
        j = model_const.reduced_J(cfg).center
        lhs = j ** (N / (N - 2)) * cfg.alphas[0] ** (4 / (N - 2)) * 1.0
        assert abs(lhs - 1.0) < 1e-3

    def test_idempotent(self, model_lin):
        cfg = single_boundary(model_lin)
        again = model_lin.normalize_alphas(cfg)
        assert abs(again.alphas[0] - cfg.alphas[0]) < 1e-12

    def test_two_point_weight_ratio(self):
        K = field_diag()
        model = ReducedModel(K)
        cfg = make_cfg(model, [
            BubbleParam(BoundarySpherePoint(E[0]), 80.0),
            BubbleParam(BoundarySpherePoint(E[1]), 90.0),
        ], q=2)
        k1, k2 = K.value(cfg.bubbles[0].a), K.value(cfg.bubbles[1].a)
        expected = (k2 / k1) ** ((N - 2) / 4.0)
        assert abs(cfg.alphas[0] / cfg.alphas[1] - expected) < 1e-12

    def test_imbalance_zero_after_normalization(self, model_lin):
        cfg = single_boundary(model_lin)
        assert np.max(np.abs(model_lin.assemble(cfg).imbalances)) < 1e-14


class TestReducedEnergy:
    def test_constant_boundary_level(self, model_const):
        cfg = single_boundary(model_const, lam=1e6)
        assert abs(model_const.reduced_J(cfg).center - model_const.s_n ** (2 / N)) < 1e-9

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["j_center", "rel_bar"])
    def test_non_finite_assembly_rejected_when_built(self, model_lin, name, bad):
        asm = model_lin.assemble(single_boundary(model_lin))
        fields = {name: getattr(asm, name) for name in Assembly._fields}
        Assembly(**fields)
        with pytest.raises(NonFiniteBar):
            Assembly(**{**fields, name: bad})

    def test_constant_interior_level(self, model_const):
        cfg = single_interior(model_const, lam=1e6)
        val = model_const.reduced_J(cfg).center
        target = (2 * model_const.s_n) ** (2 / N)
        assert abs(val - target) < 1e-4 * target

    def test_scale_invariance_exact(self, model_lin):
        cfg = make_cfg(model_lin, [
            BubbleParam(BoundarySpherePoint(E[0]), 50.0),
            BubbleParam(SpherePoint(E[-1]), 70.0),
        ], q=1)
        j1 = model_lin.reduced_J(cfg)
        scaled = cfg.replace(alphas=tuple(3.7 * a for a in cfg.alphas))
        j2 = model_lin.reduced_J(scaled)
        assert abs(j1.center - j2.center) < 1e-12 * j1.center
        assert abs(j1.halfwidth - j2.halfwidth) < 1e-10 * max(j1.halfwidth, 1e-300)

    @pytest.mark.parametrize("lam", [10.0, 20.0, 40.0])
    def test_quadrature_agreement_boundary(self, model_lin, lam):
        cfg = single_boundary(model_lin, lam=lam)
        jr = model_lin.reduced_J(cfg)
        jq = quadrature_J_boundary(model_lin.K, E[0], lam)
        assert abs(jq - jr.center) <= jr.halfwidth

    def test_quadrature_agreement_interior(self, model_lin):
        cfg = single_interior(model_lin, lam=25.0)
        jr = model_lin.reduced_J(cfg)
        oracle = quadrature_J_interior(model_lin.K, cfg.bubbles[0].a, 25.0)
        assert abs(oracle.j_value - jr.center) <= jr.halfwidth + oracle.uncertainty

    def test_level_pinch_band(self):
        K = field_diag()
        model = ReducedModel(K)
        kmin, kmax = K.min_max(10)
        records = find_critical_points(K, 8)
        top, pole = (min(records, key=lambda r: np.linalg.norm(r.location.coords - c))
                     for c in (E[0], E[-1]))
        for boundary, interior in (([top], []), ([], [pole])):
            level = entry_level(level_terms(boundary, N), level_terms(interior, N), model.s_n, N)
            mass = len(boundary) + 2 * len(interior)
            lo = (mass * model.s_n) ** (2 / N) / kmax ** ((N - 2) / N)
            hi = (mass * model.s_n) ** (2 / N) / kmin ** ((N - 2) / N)
            assert lo <= level <= hi


class TestWeightGradient:
    def _pair(self, model):
        return make_cfg(model, [
            BubbleParam(BoundarySpherePoint(E[0]), 60.0),
            BubbleParam(BoundarySpherePoint(E[1]), 75.0),
        ], q=2)

    def test_balanced_inside_bar(self, model_lin):
        cfg = self._pair(model_lin)
        for i in range(2):
            assert model_lin.gradient_components(cfg).alpha_pairings[i].contains(0.0)

    def test_global_rescale_is_gauge(self, model_lin):
        # the energy is exactly homogeneous in the weights, so scaling every
        # weight together produces no pairing at all
        cfg = single_boundary(model_lin)
        inflated = cfg.replace(alphas=(1.3 * cfg.alphas[0],))
        assert abs(model_lin.gradient_components(inflated).alpha_pairings[0].center) < 1e-10

    def test_inflated_weight_restoring_sign(self, model_lin):
        # inflating one weight against the other breaks the balance;
        # the pairing turns strictly negative for the inflated profile
        cfg = self._pair(model_lin)
        inflated = cfg.replace(alphas=(1.1 * cfg.alphas[0], cfg.alphas[1]))
        assert model_lin.gradient_components(inflated).alpha_pairings[0].center < 0.0
        assert model_lin.assemble(inflated).imbalances[0] < 0.0

    def test_slope_against_finite_differences(self, model_lin):
        cfg = self._pair(model_lin)
        inflated = cfg.replace(alphas=(1.1 * cfg.alphas[0], cfg.alphas[1]))
        h = 1e-6 * cfg.alphas[0]
        def j_of(da):
            return model_lin.reduced_J(
                inflated.replace(alphas=(inflated.alphas[0] + da, inflated.alphas[1]))).center
        fd = (j_of(h) - j_of(-h)) / (2 * h)
        val = model_lin.gradient_components(inflated).alpha_pairings[0].center
        assert abs(fd - val) <= 0.05 * max(abs(fd), 1e-12)


class TestRateGradient:
    def test_constant_field_single_inside_bar(self, model_const):
        cfg = single_boundary(model_const, lam=100.0)
        g = model_const.gradient_components(cfg).lam_pairings[0]
        assert g.contains(0.0)

    def test_positive_normal_derivative_pushes_rate_up(self):
        model = ReducedModel(field_boundary_max())
        cfg = single_boundary(model, lam=60.0)
        assert model.K.normal_derivative(cfg.bubbles[0].a) > 0
        g = model.gradient_components(cfg).lam_pairings[0]
        # pairing negative: the energy decreases as the rate grows
        assert g.center < 0.0

    def test_boundary_fd_against_quadrature(self, model_lin):
        lam, h = 20.0, 0.05
        cfg = single_boundary(model_lin, lam=lam)
        g = model_lin.gradient_components(cfg).lam_pairings[0]
        fd = (quadrature_J_boundary(model_lin.K, E[0], lam * math.exp(h))
              - quadrature_J_boundary(model_lin.K, E[0], lam * math.exp(-h))) / (2 * h)
        assert abs(fd - cfg.alphas[0] * g.center) <= 0.15 * abs(fd)

    def test_interior_constant_field_h_term_sign(self, model_const):
        # with a flat curvature the only content is the image-charge term:
        # the energy grows with the rate, so shrinking the rate descends
        cfg = single_interior(model_const, lam=30.0)
        g = model_const.gradient_components(cfg).lam_pairings[0]
        assert g.center > 0.0

    def test_interior_negative_laplacian_pushes_rate_up(self):
        K = field_diag()
        model = ReducedModel(K)
        pt = SpherePoint(E[-1])  # interior maximum, negative Laplacian
        cfg = make_cfg(model, [BubbleParam(pt, 300.0)], q=0)
        g = model.gradient_components(cfg).lam_pairings[0]
        assert g.center < 0.0

    def test_interior_fd_against_quadrature(self, model_lin):
        lam, h = 20.0, 0.05
        cfg = single_interior(model_lin, lam=lam, height_angle=np.arcsin(0.5))
        pt = cfg.bubbles[0].a
        g = model_lin.gradient_components(cfg).lam_pairings[0]
        fd = (quadrature_J_interior(model_lin.K, pt, lam * math.exp(h)).j_value
              - quadrature_J_interior(model_lin.K, pt, lam * math.exp(-h)).j_value) / (2 * h)
        assert abs(fd - cfg.alphas[0] * g.center) <= 0.15 * abs(fd)


class TestPointGradient:
    def test_zero_at_trace_critical_point(self, model_lin):
        cfg = single_boundary(model_lin, lam=80.0)
        vec, bar = model_lin.gradient_components(cfg).a_pairings[0]
        tangential = vec.copy()
        tangential[-1] = 0.0
        assert np.linalg.norm(tangential) <= bar + 1e-12

    def test_descent_alignment_with_trace_gradient(self, model_lin):
        z = np.zeros(N + 1)
        z[0], z[1] = np.cos(0.8), np.sin(0.8)
        cfg = single_boundary(model_lin, lam=120.0, point=z)
        vec, bar = model_lin.gradient_components(cfg).a_pairings[0]
        g1 = model_lin.K.boundary_gradient(cfg.bubbles[0].a)
        assert float(vec @ g1) < 0.0

    def test_tangential_fd_against_quadrature(self, model_lin):
        # move the center along the equator through the honest energy
        lam = 20.0
        z = np.zeros(N + 1)
        z[0], z[1] = np.cos(0.5), np.sin(0.5)
        cfg = single_boundary(model_lin, lam=lam, point=z)
        vec, _ = model_lin.gradient_components(cfg).a_pairings[0]
        basis = tangent_basis(cfg.bubbles[0].a.coords, within_equator=True)
        e = basis[0]
        h = 2e-3
        def j_at(t):
            w = geodesic_step(cfg.bubbles[0].a.coords, e, t / lam)
            w[-1] = 0.0
            w /= np.linalg.norm(w)
            return quadrature_J_boundary(model_lin.K, w, lam)
        fd = (j_at(h) - j_at(-h)) / (2 * h) / cfg.alphas[0]
        val = float(vec @ e)
        if abs(fd) > 1e-9:
            assert abs(fd - val) <= 0.15 * abs(fd)

    def test_normal_component_tracks_imbalance_sign(self, model_lin):
        cfg = single_boundary(model_lin, lam=90.0)
        vec_bal, _ = model_lin.gradient_components(cfg).a_pairings[0]
        up = vec_bal[-1]
        inflated = cfg.replace(alphas=(1.15 * cfg.alphas[0],))
        vec_up, _ = model_lin.gradient_components(inflated).a_pairings[0]
        deflated = cfg.replace(alphas=(0.85 * cfg.alphas[0],))
        vec_dn, _ = model_lin.gradient_components(deflated).a_pairings[0]
        # the weight-imbalance term dominates and flips with the sign
        assert (vec_up[-1] - up) * (vec_dn[-1] - up) < 0

    def test_pair_terms_evaluated_once_per_pair_per_configuration(self, model_lin, monkeypatch):
        import hemiflow.bubbles as bubbles_mod
        import hemiflow.flow as flow_mod
        import hemiflow.geometry as geometry_mod
        import hemiflow.model as model_mod
        from hemiflow.config import FlowParams
        from hemiflow.flow import PseudogradientFlow
        calls = {}

        def count(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)

        # the kernel at every binding, and the four one-pair routes
        for module in (bubbles_mod, model_mod):
            count(module, "_interaction_terms")
        for name in ("epsilon", "epsilon_dlambda", "epsilon_da"):
            count(bubbles_mod, name)
        for module in (geometry_mod, flow_mod):
            count(module, "geodesic_distance")
        bubbles = [BubbleParam(BoundarySpherePoint(E[0]), 50.0),
                   BubbleParam(BoundarySpherePoint(E[1]), 60.0),
                   BubbleParam(SpherePoint(E[-1]), 70.0)]
        for m in (1, 2, 3):
            calls.clear()
            cfg = make_cfg(model_lin, bubbles[:m], q=min(m, 2), normalize=False)
            assert calls == ({"_interaction_terms": m * (m - 1) // 2} if m > 1 else {})
        cfg = model_lin.normalize_alphas(cfg)
        flow = PseudogradientFlow(model_lin, find_critical_points(model_lin.K, 8), FlowParams())
        # the region label and the descent field are the flow's; the pairs are not
        flow.pseudogradient(cfg)
        calls.clear()
        asm = model_lin.assemble(cfg)
        model_lin.gradient_components(cfg, asm)
        for i in range(cfg.size):
            model_lin.grad_a(asm, i)
        flow.decrease_certificate(cfg)
        assert calls == {}

    def test_point_gradient_table_is_antisymmetric(self, model_lin):
        cfg = make_cfg(model_lin, [
            BubbleParam(BoundarySpherePoint(E[0]), 50.0),
            BubbleParam(BoundarySpherePoint(E[1]), 60.0),
            BubbleParam(SpherePoint(E[-1]), 70.0),
        ], q=2)
        table = model_lin.assemble(cfg).eps_da
        for i in range(cfg.size):
            assert np.array_equal(table[i, i], np.zeros(N + 1))
            for j in range(cfg.size):
                if i != j:
                    assert np.array_equal(table[i, j],
                                          epsilon_da(cfg.bubbles[i], cfg.bubbles[j]))
                    assert np.array_equal(table[j, i], -table[i, j])
        # random 3-bubble states mixing boundary and interior bubbles: each
        # unordered pair i < j carries the bits of the one-pair routes, in
        # both of its entries
        for n in range(5, 11):
            model = ReducedModel(ScalarField(n, 1.0))
            rng = np.random.default_rng(n)
            checked = 0
            while checked < 20:
                q = int(rng.integers(0, 4))
                pts = rng.standard_normal((3, n + 1))
                pts[:, -1] = np.abs(pts[:, -1])
                pts[:q, -1] = 0.0
                pts /= np.linalg.norm(pts, axis=1, keepdims=True)
                bubbles = tuple(
                    BubbleParam((BoundarySpherePoint if k < q else SpherePoint)(p),
                                float(np.exp(rng.uniform(np.log(300.0), np.log(3000.0)))))
                    for k, p in enumerate(pts))
                try:
                    cfg = Configuration((1.0, 1.0, 1.0), bubbles, q, 3 - q, 0.1)
                except InvalidConfiguration:
                    continue
                asm = model.assemble(cfg)
                for i, j in ((0, 1), (0, 2), (1, 2)):
                    bi, bj = bubbles[i], bubbles[j]
                    assert asm.eps_mat[i, j] == asm.eps_mat[j, i] == epsilon(bi, bj)
                    assert (asm.eps_dloglam[i, j], asm.eps_dloglam[j, i]) == \
                        epsilon_dlambda(bi, bj)
                    assert np.array_equal(asm.eps_da[i, j], epsilon_da(bi, bj))
                    assert np.array_equal(asm.eps_da[j, i], -asm.eps_da[i, j])
                    assert asm.dist_mat[i, j] == asm.dist_mat[j, i] == \
                        geodesic_distance(bi.a, bj.a)
                checked += 1

    @staticmethod
    def _per_direction(model, cfg, i, asm):
        """The point vector as one pairing per basis direction (a tangent
        basis, plus the normal e_n of a boundary bubble), each reading its
        chart shifts off the chart route instead of the frame's covectors."""
        f = asm.frames[i]
        a = f.param.a.coords
        ref = chart_frame(model.K, f.param)
        basis = list(tangent_basis(a, within_equator=f.boundary))
        if f.boundary:
            e_up = np.zeros_like(a)
            e_up[-1] = 1.0
            basis.append(e_up)
        lam = f.param.lam
        da_rows = [epsilon_da(cfg.bubbles[i], cfg.bubbles[j]) for j in range(cfg.size) if j != i]
        vec = np.zeros_like(a)
        for e in basis:
            deps = [[float(row @ e) / lam] for row in da_rows]
            moves = [[x] for x in ref.pairing_rows(e, f.boundary)]
            (dJ,) = model._pairing(asm, i, moves, deps, [[0.0]] * (cfg.size - 1))
            vec = vec + (dJ / f.alpha) * e
        return vec

    def test_batched_directions_match_the_per_direction_loop(self, model_lin):
        cfg = make_cfg(model_lin, [
            BubbleParam(BoundarySpherePoint(np.array([0.8, 0.6, 0, 0, 0, 0])), 50.0),
            BubbleParam(BoundarySpherePoint(np.array([0, 0.6, 0.8, 0, 0, 0])), 60.0),
            BubbleParam(SpherePoint(np.array([0.6, 0, 0, 0, 0, 0.8])), 70.0),
        ], q=2)
        asm = model_lin.assemble(cfg)
        for i in range(cfg.size):  # two boundary bubbles, one interior
            vec, _ = model_lin.gradient_components(cfg, asm).a_pairings[i]
            want = self._per_direction(model_lin, cfg, i, asm)
            assert np.linalg.norm(want) > 0.0
            assert np.linalg.norm(vec - want) <= 1e-14 * np.linalg.norm(want)

    @staticmethod
    def _state(model, name):
        if name == "boundary_at_trace_critical_point":
            return single_boundary(model, lam=80.0)
        if name == "lone_interior":
            return single_interior(model)
        return make_cfg(model, [
            BubbleParam(BoundarySpherePoint(np.array([0.8, 0.6, 0, 0, 0, 0])), 50.0),
            BubbleParam(BoundarySpherePoint(np.array([0, 0.6, 0.8, 0, 0, 0])), 60.0),
            BubbleParam(SpherePoint(np.array([0.6, 0, 0, 0, 0, 0.8])), 70.0),
        ], q=2)

    @pytest.mark.parametrize("state", ["boundary_at_trace_critical_point", "lone_interior"])
    def test_projected_ambient_pairing_matches_the_per_direction_loop(self, model_lin, state):
        # the mixed state is the one of the test above
        cfg = self._state(model_lin, state)
        asm = model_lin.assemble(cfg)
        for i in range(cfg.size):
            vec, _ = model_lin.gradient_components(cfg, asm).a_pairings[i]
            want = self._per_direction(model_lin, cfg, i, asm)
            assert np.linalg.norm(vec - want) <= 1e-14 * np.linalg.norm(want)
        if state == "boundary_at_trace_critical_point":
            # the trace gradient vanishes; only the normal component is left
            assert np.linalg.norm(vec[:-1]) <= 1e-14 * abs(vec[-1])

    @pytest.mark.parametrize("field", [field_linear, field_boundary_max, field_diag])
    def test_point_vector_is_tangent(self, model_lin, field):
        model = ReducedModel(field(), model_lin.tbl)
        rng = np.random.default_rng(11)
        for _ in range(20):
            bubbles = [BubbleParam(boundary_point(rng), rng.uniform(40.0, 400.0)),
                       BubbleParam(interior_point(rng), rng.uniform(40.0, 400.0))]
            try:
                cfg = make_cfg(model, bubbles, q=1)
            except InvalidConfiguration:
                continue
            asm = model.assemble(cfg)
            for i in range(cfg.size):
                a = cfg.bubbles[i].a.coords
                vec, _ = model.gradient_components(cfg, asm).a_pairings[i]
                assert abs(a @ vec) <= 1e-15 * np.linalg.norm(vec)

    def test_gradient_bundle_builds_no_tangent_basis(self, model_lin, monkeypatch):
        import hemiflow.geometry as geometry_mod
        import hemiflow.model as model_mod
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return tangent_basis(*args, **kwargs)

        # the model holds no binding of its own to patch
        assert not hasattr(model_mod, "tangent_basis")
        monkeypatch.setattr(geometry_mod, "tangent_basis", counted)
        for name in ("boundary_at_trace_critical_point", "lone_interior", "mixed"):
            cfg = self._state(model_lin, name)
            model_lin.gradient_components(cfg)
        assert calls == []


class TestFrames:
    @staticmethod
    def _three_bubbles(model):
        return make_cfg(model, [
            BubbleParam(BoundarySpherePoint(np.array([0.8, 0.6, 0, 0, 0, 0])), 50.0),
            BubbleParam(BoundarySpherePoint(np.array([0, 0.6, 0.8, 0, 0, 0])), 60.0),
            BubbleParam(SpherePoint(np.array([0.6, 0, 0, 0, 0, 0.8])), 70.0),
        ], q=2)

    def test_frames_make_no_pullback_or_chart_call(self, model_lin, monkeypatch):
        # the frames are closed ambient forms: the chart route is an oracle only
        import hemiflow.geometry as geometry_mod
        cfg = self._three_bubbles(model_lin)
        calls = []

        def refused(*args, **kwargs):
            calls.append(args)
            raise AssertionError("chart route called")

        monkeypatch.setattr(ScalarField, "chart_data", refused)
        monkeypatch.setattr(ChartedBubble, "build", staticmethod(refused))
        monkeypatch.setattr(geometry_mod.RotatedChart, "for_point", staticmethod(refused))
        frames = model_lin.frames(cfg)
        asm = model_lin.assemble_frames(cfg, frames)
        model_lin.gradient_components(cfg, asm)
        assert len(frames) == 3
        assert calls == []

    @pytest.mark.parametrize("field", [field_linear, field_boundary_max, field_diag])
    def test_frame_trace_gradient_is_the_boundary_gradient(self, model_lin, field):
        # the descent fields read the trace gradient off the frames
        model = ReducedModel(field(), model_lin.tbl)
        rng = np.random.default_rng(7)
        for _ in range(300):
            b = BubbleParam(boundary_point(rng), 50.0)
            (f,) = model.frames(Configuration((1.0,), (b,), 1, 0, 0.12))
            g = model.K.boundary_gradient(b.a)
            assert np.array_equal(f.grad_k1, g)
            assert f.grad_k1_norm == float(np.linalg.norm(g))

    def test_frames_match_per_bubble_evaluations(self, model_lin):
        K = model_lin.K
        cfg = self._three_bubbles(model_lin)
        for i, f in enumerate(model_lin.frames(cfg)):
            b = cfg.bubbles[i]
            assert f.boundary == (i < cfg.q) and f.param is b
            assert f.k_val == K.value(b.a)
            assert np.array_equal(f.grad_sphere, K.tangent_gradient(b.a))
            assert f.grad_norm == float(np.linalg.norm(K.tangent_gradient(b.a)))
            k1 = K.boundary_gradient(b.a) if f.boundary else np.zeros(N + 1)
            assert np.array_equal(f.grad_k1, k1)
            assert f.grad_k1_norm == float(np.linalg.norm(k1))
            assert f.lam_dist == b.lam * b.boundary_distance()
            ref = chart_frame(K, b)
            assert_frame_matches_chart_route(f, ref)
            # the chart route's movement calculus against central differences
            # of the chart center and log rate along tangent moves
            lam2 = b.lam**2
            h = 1e-6

            def center_and_lograte(t, e):
                x = ref.cb.chart.to_chart(geodesic_step(b.a.coords, e, t))
                s2 = float(x @ x)
                return x * (lam2 - 1.0) / (lam2 + s2), math.log((lam2 + s2) / (b.lam * (1.0 + s2)))

            for e in tangent_basis(b.a.coords):
                (cp, lp), (cm, lm) = center_and_lograte(h, e), center_and_lograte(-h, e)
                assert np.allclose(ref.dC_dmove @ e, (cp - cm) / (2 * h), rtol=0.0, atol=1e-7)
                assert abs(ref.dl_dmove @ e - (lp - lm) / (2 * h)) < 1e-7

    @staticmethod
    def _field(n, rng):
        terms = [((k,), rng.uniform(-0.02, 0.02)) for k in range(n + 1)]
        terms += [((k, j), rng.uniform(-0.02, 0.02)) for k in range(n + 1) for j in range(k, n + 1)]
        return ScalarField(n, 1.0, terms)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_closed_forms_match_the_chart_route(self, n):
        # the special charts: the pole e_{n+1} (anchor e_1 by convention),
        # anchors at e_1 and -e_1 (the identity and half-turn rotations), a
        # boundary bubble at -e_1, and random points with an interior pair
        rng = np.random.default_rng(40 + n)
        model = ReducedModel(self._field(n, rng))
        e = np.eye(n + 1)
        up = np.array([0.6] + [0.0] * (n - 1) + [0.8])
        down = up * np.array([-1.0] + [1.0] * n)
        states = [
            ([SpherePoint(e[-1])], 0),
            ([SpherePoint(up)], 0),
            ([SpherePoint(down)], 0),
            ([BoundarySpherePoint(-e[0])], 1),
            ([BoundarySpherePoint(e[0]), SpherePoint(down)], 1),
        ]
        for _ in range(4):
            states.append(([boundary_point(rng, n=n), interior_point(rng, n=n),
                            interior_point(rng, n=n)], 1))
        for points, q in states:
            bubbles = [BubbleParam(pt, rng.uniform(60.0, 400.0)) for pt in points]
            cfg = make_cfg(model, bubbles, q=q, normalize=False)
            frames = model.frames(cfg)
            refs = [chart_frame(model.K, b) for b in cfg.bubbles]
            for f, ref in zip(frames, refs):
                assert_frame_matches_chart_route(f, ref)
            for i in range(q, cfg.size):
                for j in range(i + 1, cfg.size):
                    ci, cj = refs[i].cb, refs[j].cb
                    want = 0.5 * (greens_regular_part(ci.center, ci.chart.to_chart(cj.param.a.coords))
                                  + greens_regular_part(cj.center, cj.chart.to_chart(ci.param.a.coords)))
                    want /= (ci.rate * cj.rate) ** ((n - 2) / 2.0)
                    got = model.mutual_h(frames[i], frames[j])
                    assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_each_frame_is_the_frame_of_its_bubble_alone(self, n):
        # the frames are built bubble by bubble in floats, with K's value and
        # gradients from batched calls whose rows get the single-point bits
        rng = np.random.default_rng(60 + n)
        model = ReducedModel(self._field(n, rng))
        names = list(BubbleFrame._fields)
        built = []
        while len(built) < 20:
            m = int(rng.integers(2, 4))
            q = int(rng.integers(0, m + 1))
            pts = [boundary_point(rng, n=n) if k < q else interior_point(rng, n=n)
                   for k in range(m)]
            try:
                cfg = make_cfg(model, [BubbleParam(pt, rng.uniform(40.0, 400.0)) for pt in pts], q=q)
            except InvalidConfiguration:
                continue
            built.append((m, q))
            for i, f in enumerate(model.frames(cfg)):
                boundary = i < q
                alone = Configuration((cfg.alphas[i],), (cfg.bubbles[i],), int(boundary),
                                      int(not boundary), cfg.eps_scale)
                (g,) = model.frames(alone)
                for name in names:
                    got, want = getattr(f, name), getattr(g, name)
                    if isinstance(want, np.ndarray):
                        assert np.array_equal(got, want), name
                    else:
                        assert got == want, name
        # every mix of boundary and interior bubbles in two- and three-bubble states
        assert set(built) == {(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)}


def assert_frame_matches_chart_route(f, ref):
    """Every quantity of a frame, and its covectors contracted with each
    ambient axis and a random move, against the chart route."""
    cb = ref.cb
    n = len(cb.center)
    assert abs(f.rate - cb.rate) <= 1e-14 * cb.rate
    assert abs(f.height - cb.height) <= 1e-14 and np.max(np.abs(cb.center[:-1])) <= 1e-14
    scale = abs(ref.kt_val) + np.max(np.abs(ref.kt_grad)) + np.max(np.abs(ref.kt_hess))
    for got, want in ((f.kt_val, ref.kt_val), (f.g_n, ref.kt_grad[-1]),
                      (f.h_nn, ref.kt_hess[-1, -1]), (f.kt_lap, np.trace(ref.kt_hess))):
        assert abs(got - want) <= 1e-14 * scale, (got, want)
    assert abs(f.dl_dloglam - ref.dl_dloglam) <= 1e-15
    assert np.max(np.abs(ref.dC_dloglam[:-1])) <= 1e-14 * max(abs(ref.dC_dloglam[-1]), 1e-3)
    assert abs(f.dh_dloglam - ref.dC_dloglam[-1]) <= 1e-14 * max(abs(ref.dC_dloglam[-1]), 1e-3)
    lam = f.param.lam
    moves = np.vstack([np.eye(n + 1), np.random.default_rng(3).standard_normal(n + 1)])
    for x in moves:
        want = ref.pairing_rows(x, f.boundary)
        v, g, w, ell = (f.move_v @ x, f.move_g @ x, f.move_w @ x, f.move_l @ x)
        got = (np.array([g, w, 0.0, ell, v]) if f.boundary
               else np.array([g + f.g_n * v, w + f.h_nn * v, v, ell, 0.0])) / lam
        # the chart route leaves rounding of about 1e-19 where the closed
        # forms hold exact zeros (tau = 0 on the equator), hence the + 1
        shift = np.max(np.abs(ref.dC_dmove @ x)) / lam
        rate_shift = (np.max(np.abs(ref.dl_dmove)) + 1.0) * np.max(np.abs(x)) / lam
        tol = 1e-14 * np.array([scale * shift, scale * shift, shift, rate_shift, shift])
        assert np.all(np.abs(got - want) <= tol + 1e-300), (got, want)


class TestAssemblyKept:
    def test_one_assembly_per_configuration_and_model(self, model_lin):
        cfg = single_boundary(model_lin)
        asm = model_lin.assemble(cfg)
        assert model_lin.assemble(cfg) is asm
        other = ReducedModel(model_lin.K, model_lin.tbl)
        assert other.assemble(cfg) is not asm
        twin = cfg.replace()
        assert twin == cfg and model_lin.assemble(twin) is not asm

    def test_assembly_dies_with_its_configuration_without_the_cyclic_collector(self, model_lin):
        cfg = single_interior(model_lin)
        gc.disable()
        try:
            ref = weakref.ref(model_lin.assemble(cfg))
            alive = ref() is not None
            del cfg
            assert alive and ref() is None
        finally:
            gc.enable()


class TestResidueBudget:
    def test_constant_single_boundary_exact(self, model_const):
        cfg = single_boundary(model_const, lam=50.0)
        assert abs(model_const.assemble(cfg).vbar - 1.0 / 50.0**2) < 1e-15

    def test_monotone_in_rates(self, model_lin):
        base = make_cfg(model_lin, [
            BubbleParam(BoundarySpherePoint(E[0]), 40.0),
            BubbleParam(BoundarySpherePoint(E[1]), 60.0),
        ], q=2)
        prev = model_lin.assemble(base).vbar
        for scale in (1.5, 2.5, 4.0):
            bubbles = [BubbleParam(b.a, b.lam * scale) for b in base.bubbles]
            cur = model_lin.assemble(base.replace(bubbles=bubbles)).vbar
            assert cur <= prev + 1e-15
            prev = cur

    def test_dimension_branch(self):
        # the interaction exponent is 1 at n = 5 and (n+2)/(2(n-2)) above
        k6 = ScalarField(6, 1.0, [("x1", 0.05)])
        m6 = ReducedModel(k6, compute_tbl(6))
        z1 = np.zeros(7); z1[0] = 1.0
        z2 = np.zeros(7); z2[1] = 1.0
        cfg6 = m6.normalize_alphas(Configuration(
            (1.0, 1.0),
            (BubbleParam(BoundarySpherePoint(z1), 40.0), BubbleParam(BoundarySpherePoint(z2), 40.0)),
            2, 0, 0.12))
        from hemiflow.bubbles import epsilon
        e = epsilon(*cfg6.bubbles)
        le = math.log(1 / e)
        g1 = np.linalg.norm(k6.tangent_gradient(cfg6.bubbles[0].a))
        g2 = np.linalg.norm(k6.tangent_gradient(cfg6.bubbles[1].a))
        # at n = 6 the interaction exponent (n+2)/(2(n-2)) equals 1 and the
        # logarithm power becomes (n+2)/(2n) = 8/12
        expected6 = (g1 + g2) / 40.0 + 2 / 40.0**2 + 2 * e ** 1.0 * le ** (8.0 / 12.0)
        got6 = m6.assemble(cfg6).vbar
        assert abs(got6 - expected6) < 1e-12

        model5 = ReducedModel(field_linear())
        z1 = E[0]; z2 = E[1]
        cfg5 = model5.normalize_alphas(Configuration(
            (1.0, 1.0),
            (BubbleParam(BoundarySpherePoint(z1), 40.0), BubbleParam(BoundarySpherePoint(z2), 40.0)),
            2, 0, 0.12))
        e5 = epsilon(*cfg5.bubbles)
        g1 = np.linalg.norm(model5.K.tangent_gradient(cfg5.bubbles[0].a))
        g2 = np.linalg.norm(model5.K.tangent_gradient(cfg5.bubbles[1].a))
        expected5 = (g1 + g2) / 40.0 + 2 / 40.0**2 + 2 * e5 * math.log(1 / e5) ** 0.6
        assert abs(model5.assemble(cfg5).vbar - expected5) < 1e-12


def compute_tbl(n):
    from hemiflow.constants import compute_constants
    return compute_constants(n, 1e-8)


@pytest.fixture(scope="module")
def diag_setup():
    K = field_diag()
    model = ReducedModel(K)
    records = find_critical_points(K, 8)
    return K, model, records


class TestNormalForm:
    """J near a matched critical collection, the normal form the census
    levels and indices describe: at the collection J is its census level,
    and it moves with the point and weight deviations as the Hessian signs
    say."""

    def _match(self, records, coords_list):
        out = []
        for c in coords_list:
            best = min(records, key=lambda r: np.linalg.norm(r.location.coords - c))
            out.append(best)
        return out

    def test_critical_configuration_reaches_level(self, diag_setup):
        K, model, records = diag_setup
        cfg = make_cfg(model, [BubbleParam(BoundarySpherePoint(E[0]), 1e7)], q=1)
        level = entry_level(level_terms(self._match(records, [E[0]]), N), [], model.s_n, N)
        assert abs(model.reduced_J(cfg).center - level) < 1e-12 * level

    def test_point_deviation_at_maximum_raises_value(self, diag_setup):
        # all Hessian directions at the trace maximum are negative, so
        # moving the point off the maximum raises J
        K, model, records = diag_setup
        base = make_cfg(model, [BubbleParam(BoundarySpherePoint(E[0]), 2e5)], q=1)
        prev = model.reduced_J(base).center
        for r in (0.01, 0.02, 0.04):
            w = np.zeros(N + 1)
            w[0], w[1] = np.cos(r), np.sin(r)
            cfg = make_cfg(model, [BubbleParam(BoundarySpherePoint(w), 2e5)], q=1)
            val = model.reduced_J(cfg).center
            assert val > prev
            prev = val

    def test_weight_deviation_lowers_value(self, diag_setup):
        K, model, records = diag_setup
        cfg = make_cfg(model, [
            BubbleParam(BoundarySpherePoint(E[0]), 2e5),
            BubbleParam(BoundarySpherePoint(E[1]), 2e5),
        ], q=2)
        v0 = model.reduced_J(cfg).center
        skew = cfg.replace(alphas=(1.2 * cfg.alphas[0], 0.8 * cfg.alphas[1]))
        assert model.reduced_J(skew).center < v0


class TestGradientConsistency:
    def test_small_random_suite(self, model_lin):
        # the dedicated acceptance module runs the full 100-state version
        rng = np.random.default_rng(5)
        K = field_diag()
        model = ReducedModel(K)
        checked = 0
        for _ in range(10):
            bubbles = [BubbleParam(BoundarySpherePoint(E[0]), rng.uniform(50, 90)),
                       BubbleParam(SpherePoint(E[-1]), rng.uniform(50, 90))]
            cfg = make_cfg(model, bubbles, q=1)
            cfg = cfg.replace(alphas=tuple(a * (1 + rng.uniform(-0.02, 0.02))
                                           for a in cfg.alphas))
            asm = model.assemble(cfg)
            for i in range(cfg.size):
                ga = model.gradient_components(cfg, asm).alpha_pairings[i]
                h = 1e-5
                alphas = list(cfg.alphas)
                alphas[i] += h
                jp = model.reduced_J(cfg.replace(alphas=alphas)).center
                alphas[i] -= 2 * h
                jm = model.reduced_J(cfg.replace(alphas=alphas)).center
                fd = (jp - jm) / (2 * h)
                assert abs(fd - ga.center) <= ga.halfwidth + 1e-9
                checked += 1
        assert checked == 20


class TestGradientBundle:
    def test_components_and_budgets(self, model_lin):
        cfg = make_cfg(model_lin, [
            BubbleParam(BoundarySpherePoint(E[0]), 50.0),
            BubbleParam(SpherePoint(E[-1]), 70.0),
        ], q=1)
        asm = model_lin.assemble(cfg)
        bundle = model_lin.gradient_components(cfg, asm)
        assert len(bundle.alpha_pairings) == 2
        assert len(bundle.lam_pairings) == 2
        r1, r1_boundary = asm.budgets
        assert r1 >= r1_boundary >= 0.0
        from hemiflow.bubbles import epsilon_dlambda
        di, _ = epsilon_dlambda(cfg.bubbles[0], cfg.bubbles[1])
        assert asm.eps_dloglam[0, 1] == di
        vec, bar = bundle.a_pairings[0]
        assert vec.shape == (N + 1,)
        assert bar >= 0.0

    def test_rate_derivative_table_matches_every_ordered_pair(self, model_lin):
        from hemiflow.bubbles import epsilon_dlambda
        cfg = make_cfg(model_lin, [
            BubbleParam(BoundarySpherePoint(E[0]), 50.0),
            BubbleParam(BoundarySpherePoint(E[1]), 80.0),
            BubbleParam(SpherePoint(E[-1]), 70.0),
        ], q=2)
        table = model_lin.assemble(cfg).eps_dloglam
        want = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                if i != j:
                    want[i, j], _ = epsilon_dlambda(cfg.bubbles[i], cfg.bubbles[j])
        assert np.array_equal(table, want)

    def test_bundle_kept_on_the_assembly(self, model_lin):
        cfg = single_interior(model_lin)
        asm = model_lin.assemble(cfg)
        bundle = model_lin.gradient_components(cfg)
        assert asm.grads is bundle
        assert model_lin.gradient_components(cfg, asm) is bundle

    def test_boundary_budget_is_boundary_restricted(self, model_lin):
        cfg_b = make_cfg(model_lin, [
            BubbleParam(BoundarySpherePoint(E[0]), 50.0),
            BubbleParam(BoundarySpherePoint(E[1]), 60.0),
        ], q=2)
        r1, r1b = model_lin.assemble(cfg_b).budgets
        assert abs(r1 - r1b) < 1e-18  # no interior content
        cfg_m = make_cfg(model_lin, [
            BubbleParam(BoundarySpherePoint(E[0]), 50.0),
            BubbleParam(SpherePoint(E[-1]), 60.0),
        ], q=1)
        r1m, r1bm = model_lin.assemble(cfg_m).budgets
        assert r1m > r1bm


class TestInteriorOnlyNormalForm:
    def test_single_interior_agreement(self, diag_setup):
        # J of one interior bubble at the interior maximum is the census level
        K, model, records = diag_setup
        match = [min(records, key=lambda r: np.linalg.norm(r.location.coords - E[-1]))]
        cfg = make_cfg(model, [BubbleParam(SpherePoint(E[-1]), 5e6)], q=0)
        level = entry_level([], level_terms(match, N), model.s_n, N)
        assert abs(model.reduced_J(cfg).center - level) < 1e-12 * level


@pytest.fixture(scope="module")
def saddle_setup():
    coeffs = [5.0, 4.0, 1.0, 1.5, 2.0, 6.0]
    K = ScalarField(N, 1.0, [(f"x{i+1}^2", 0.01 * d) for i, d in enumerate(coeffs)])
    model = ReducedModel(K)
    records = find_critical_points(K, 8)
    saddle = min((r for r in records if r.classification == "K_b_0_minus"
                  and r.morse_index == 3),
                 key=lambda r: -float(r.location.coords[1] ** 2))
    assert abs(abs(saddle.location.coords[1]) - 1.0) < 1e-9
    return K, model, saddle


class TestNormalFormAtSaddle:
    """An admissible trace saddle has deviation directions of both signs:
    J falls along the positive-Hessian eigendirection (where the candidate
    grows) and rises along the negative ones."""

    def _value_at(self, model, saddle, direction, radius):
        z = saddle.location.coords
        w = np.cos(radius) * z + np.sin(radius) * direction
        w = w.copy()
        w[-1] = 0.0
        w /= np.linalg.norm(w)
        cfg = make_cfg(model, [BubbleParam(BoundarySpherePoint(w), 3e5)], q=1)
        return model.reduced_J(cfg).center

    def test_signs_split_by_eigendirection(self, saddle_setup):
        K, model, saddle = saddle_setup
        base = self._value_at(model, saddle, np.eye(N + 1)[2], 0.0)
        # toward the larger coefficient the candidate grows: J falls
        lower = self._value_at(model, saddle, np.eye(N + 1)[0], 0.02)
        # toward a smaller coefficient the candidate falls: J rises
        higher = self._value_at(model, saddle, np.eye(N + 1)[2], 0.02)
        assert lower < base < higher

    def test_index_counts_decreasing_directions(self, saddle_setup):
        K, model, saddle = saddle_setup
        from hemiflow.census import entry_index
        # q+p-1 = 0 and n-1-morse = 1: exactly the one falling direction seen
        assert entry_index([saddle.iota(N)], []) == 1


# ---------------------------------------------------------------------------
# Pinned bars: every energy and gradient bar of six fixed states.  The
# energy centres, vbar, budgets, pairing centres and alpha bars were recorded
# before the pair slop became one term shared by the energy and the gradient
# bars; rel_bar and the rate and point halfwidths were re-recorded when the
# cubic remainder took the analytic third-derivative bound m3 of the field,
# and every value when the constants table came from its closed forms
# (last-bit moves of the constants; the largest, of the n6_mixed_pair alpha
# centre that cancels to 2e-5 of its bar, was 1.2e-10 of the value and
# 2.2e-15 of the bar).  The energy centre must not move at all; the rest
# only by rounding.
# ---------------------------------------------------------------------------

def _diag_field(n):
    coeffs = [5.0, 1.0, 1.5, 2.0, 2.5, 2.8, 2.9][:n] + [6.0]
    return ScalarField(n, 1.0, [(f"x{i+1}^2", 0.01 * d) for i, d in enumerate(coeffs)])


def _bp(*coords, lam):
    return BubbleParam(BoundarySpherePoint(np.array(coords, dtype=float)), lam)


def _ip(*coords, lam):
    return BubbleParam(SpherePoint(np.array(coords, dtype=float)), lam)


_T = 0.08  # angle between the two crowded interior points, seen from the axis
# name -> (n, bubbles, q)
PINNED_STATES = {
    "boundary_pair": (5, [_bp(0.8, 0.6, 0, 0, 0, 0, lam=50.0),
                          _bp(0, 0.6, 0.8, 0, 0, 0, lam=60.0)], 2),
    "mixed_pair": (5, [_bp(0.8, 0.6, 0, 0, 0, 0, lam=50.0),
                       _ip(0.6, 0, 0, 0, 0, 0.8, lam=70.0)], 1),
    "interior_pair": (5, [_ip(0.6, 0, 0, 0, 0, 0.8, lam=70.0),
                          _ip(0, 0.6, 0, 0, 0, 0.8, lam=80.0)], 0),
    "three_mixed": (5, [_bp(0.8, 0.6, 0, 0, 0, 0, lam=50.0),
                        _bp(0, 0.6, 0.8, 0, 0, 0, lam=60.0),
                        _ip(0.6, 0, 0, 0, 0, 0.8, lam=70.0)], 2),
    "n6_mixed_pair": (6, [_bp(0.8, 0, 0.6, 0, 0, 0, 0, lam=50.0),
                          _ip(0, 0.6, 0, 0, 0, 0, 0.8, lam=70.0)], 1),
    "n7_mixed_pair": (7, [_bp(0, 0.8, 0, 0.6, 0, 0, 0, 0, lam=55.0),
                          _ip(0.6, 0, 0, 0, 0, 0, 0, 0.8, lam=75.0)], 1),
    "n7_interior_pair": (7, [_ip(0.6, 0, 0, 0, 0, 0, 0, 0.8, lam=70.0),
                             _ip(0, 0, 0.6, 0, 0, 0, 0, 0.8, lam=90.0)], 0),
    "crowded_interior_pair": (5, [_ip(0.6, 0, 0, 0, 0, 0.8, lam=300.0),
                                  _ip(0.6 * np.cos(_T), 0.6 * np.sin(_T), 0, 0, 0, 0.8,
                                      lam=350.0)], 0),
}

PINNED_BARS = {
    "boundary_pair": {
        "j_center": 14.600097072690664, "rel_bar": 1.5183489377820148e-05,
        "vbar": 0.001563782194031543, "budgets": (2.8062605639413876e-07, 2.8062605639413876e-07),
        "alpha": [
            (0.03396802042464098, 14.450568127107257),
            (0.011370682980019193, 4.462357746737238),
        ],
        "lam": [
            (0.01025585640015873, 0.027307212916246795),
            (0.023843905352323433, 0.010345244924192917),
        ],
        "a": [
            ([-0.05600671505929361, 0.07467562007905815, -0.00036563289246815896,
              0.0, 0.0, 0.006793303539900862],
             0.0005461442583249359),
            ([-0.00029973769730654346, 0.007958265043317675, -0.005968698782488255,
              0.0, 0.0, 0.006906480090216562],
             0.0001724207487365486),
        ],
    },
    "mixed_pair": {
        "j_center": 16.923398146685006, "rel_bar": 1.4187821616869532e-05,
        "vbar": 0.0015538968325225487, "budgets": (2.498134465745575e-07, 1.7634568216837612e-07),
        "alpha": [
            (0.028703827357397297, 16.7550824141064),
            (0.017630675301451203, 10.044673355897235),
        ],
        "lam": [
            (0.010587712806246052, 0.030646718283939695),
            (0.032575476898494944, 0.012242553786032392),
        ],
        "a": [
            ([-0.05422717283392718, 0.07230289711190291, 0.0,
              0.0, 0.0, 0.005065076768422404],
             0.0006129343656787939),
            ([0.024255975053119057, -0.00024762664405881976, 0.0,
              0.0, 0.0, -0.01819198128983929],
             0.00017489362551474844),
        ],
    },
    "interior_pair": {
        "j_center": 18.98919203160906, "rel_bar": 9.96977397538636e-06,
        "vbar": 0.0011390293606515177, "budgets": (1.0051300735583861e-07, 0.0),
        "alpha": [
            (0.0550267567293737, 11.250064602204725),
            (0.05358175144720532, 24.49854292768446),
        ],
        "lam": [
            (0.05211933528207815, 0.030891861375999623),
            (0.05233881843295913, 0.03721436145073212),
        ],
        "a": [
            ([0.024150433179202235, -0.0005934892963862828, 0.0,
              0.0, 0.0, -0.018112824884401673],
             0.0004413123053714232),
            ([-0.0005139849927003341, 0.10850188252372289, 0.0,
              0.0, 0.0, -0.08137641189279217],
             0.0004651795181341515),
        ],
    },
    "three_mixed": {
        "j_center": 19.08908894392518, "rel_bar": 1.7558284171381705e-05,
        "vbar": 0.0019620870096798606, "budgets": (3.582831902356274e-07, 2.8062605639413876e-07),
        "alpha": [
            (0.040123094190071255, 18.96691551774092),
            (0.01912985102564484, 5.855296779658127),
            (0.041288462858402306, 11.371949210237585),
        ],
        "lam": [
            (0.023947664421033018, 0.042994583266092956),
            (0.026396494025322847, 0.014817009851605173),
            (0.035836357619676656, 0.015593210856030205),
        ],
        "a": [
            ([-0.052492885897007124, 0.06999051452934284, -0.0003419071824751548,
              0.0, 0.0, 0.008038415327821404],
             0.0008598916653218591),
            ([-0.0003212855820639563, 0.007442018738896422, -0.005581514054172317,
              0.0, 0.0, 0.008566882213143012],
             0.00024695016419341956),
            ([0.023535298046581245, -0.0002765203971510464, -4.8344967828628075e-05,
              0.0, 0.0, -0.01765147353493593],
             0.0002227601550861458),
        ],
    },
    "n6_mixed_pair": {
        "j_center": 21.471503705877378, "rel_bar": 8.759943982262714e-06,
        "vbar": 0.0019623081119744374, "budgets": (1.4983444098924957e-08, 1.2092365243649226e-08),
        "alpha": [
            (0.006279242547067808, 164.4362640922109),
            (-0.0050946074130996544, 273.00750063271016),
        ],
        "lam": [
            (-0.019949594617560688, 0.3316222503937482),
            (-0.02657603111578673, 0.2742801631462796),
        ],
        "a": [
            ([-0.19246336004359027, -7.240627190459195e-06, 0.25661781339145373,
              0.0, 0.0, 0.0, -0.007678503876504172],
             0.006632445007874964),
            ([-6.9264126731283145e-06, 0.5190993216923204, -5.194809504846234e-06,
              0.0, 0.0, 0.0, -0.3893244912692403],
             0.003918288044946852),
        ],
    },
    "n7_mixed_pair": {
        "j_center": 25.797533928367788, "rel_bar": 3.875038764029224e-06,
        "vbar": 0.0008109463216323648, "budgets": (6.235043321898557e-10, 5.225454255233147e-10),
        "alpha": [
            (-0.22129722120056408, 838.4607325026521),
            (0.2330986907720654, 1015.132161745584),
        ],
        "lam": [
            (0.13209422347113858, 0.7013140539080941),
            (-0.21554208986766032, 0.4266100458422601),
        ],
        "a": [
            ([-4.308895956880173e-07, 0.2038860578503082, 0.0, -0.27184807713374426,
              0.0, 0.0, 0.0, -0.01324538040266288],
             0.012751164616510801),
            ([0.3622654577394915, -4.43668309338476e-07, 0.0, -3.327512320038571e-07,
              0.0, 0.0, 0.0, -0.2716990933046185],
             0.005688133944563468),
        ],
    },
    "n7_interior_pair": {
        "j_center": 27.843835630230515, "rel_bar": 3.4749517246832663e-06,
        "vbar": 0.000944804335439718, "budgets": (1.9154158314789897e-10, 0.0),
        "alpha": [
            (0.11266165825601698, 1222.6690039836542),
            (-0.11039830496017351, 2162.2830698928365),
        ],
        "lam": [
            (-0.23314707692690526, 0.5951163064160458),
            (-0.07645527358376679, 1.0299870619647415),
        ],
        "a": [
            ([0.36639087736557874, 0.0, -8.038544310311955e-06, 0.0,
              0.0, 0.0, 0.0, -0.274793158024184],
             0.008501661520229227),
            ([-6.159125671760179e-06, 0.0, 1.3219077580465535, 0.0,
              0.0, 0.0, 0.0, -0.991430818534915],
             0.011444300688497128),
        ],
    },
    "crowded_interior_pair": {
        "j_center": 18.885149533195563, "rel_bar": 0.001806021391075187,
        "vbar": 0.0019442225410472344, "budgets": (1.7764582613122275e-05, 0.0),
        "alpha": [
            (2.568631747912343, 9.754186982858219),
            (2.568601844474444, 9.601156672450996),
        ],
        "lam": [
            (1.6318208882311942, 0.2366812335826653),
            (1.636005454649383, 0.23650732345663272),
        ],
        "a": [
            ([0.011423080474648743, -0.22684136219893414, 0.0,
              0.0, 0.0, -0.008567310355986556],
             0.000788937445275551),
            ([-0.005845286220895745, 0.19698223427384107, 0.0,
              0.0, 0.0, -0.007436387767906365],
             0.0006757352098760935),
        ],
    },
}


class TestPinnedBars:
    @staticmethod
    def _close(got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("name", sorted(PINNED_STATES))
    def test_bars_match_the_recorded_values(self, name):
        n, bubbles, q = PINNED_STATES[name]
        model = ReducedModel(_diag_field(n))
        cfg = make_cfg(model, bubbles, q=q)
        asm = model.assemble(cfg)
        grads = model.gradient_components(cfg, asm)
        want = PINNED_BARS[name]
        assert asm.j_center == want["j_center"]
        assert self._close(asm.rel_bar, want["rel_bar"])
        assert self._close(asm.vbar, want["vbar"])
        assert self._close(asm.budgets, want["budgets"])
        for got, (center, bar) in zip(grads.alpha_pairings + grads.lam_pairings,
                                      want["alpha"] + want["lam"]):
            assert self._close(got.center, center) and self._close(got.halfwidth, bar)
        for (vec, bar), (want_vec, want_bar) in zip(grads.a_pairings, want["a"]):
            assert self._close(vec, want_vec) and self._close(bar, want_bar)

    def test_pinned_states_cover_every_slop_branch(self):
        kinds = set()
        for n, bubbles, q in PINNED_STATES.values():
            model = ReducedModel(_diag_field(n))
            asm = model.assemble(make_cfg(model, bubbles, q=q))
            m = len(bubbles)
            for i in range(m):
                for j in range(i + 1, m):
                    kinds.add((i < q) + (j < q))
            if asm.dist_mat[np.triu_indices(m, 1)].min() < SEP_DISTANCE:
                kinds.add("crowded")
        # boundary pairs, mixed pairs, interior pairs and the crowding penalty
        assert kinds == {0, 1, 2, "crowded"}


@pytest.mark.parametrize("n", [5, 6, 7, 10])
def test_cubic_moment_is_its_integral(n):
    # cp_i3h = cp int_H |x|^3 (1+|x|^2)^-n, its Beta value against quadrature
    from scipy import integrate
    from hemiflow.constants import sphere_area
    model = ReducedModel(ScalarField(n, 1.0, []))
    radial, _ = integrate.quad(lambda r: r ** (n + 2) * (1.0 + r * r) ** -n, 0.0, np.inf,
                               epsabs=0.0, epsrel=1e-13, limit=200)
    want = model.tbl.cp * 0.5 * sphere_area(n - 1) * radial
    assert abs(model.cp_i3h - want) <= 1e-12 * want
