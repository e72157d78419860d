import dataclasses
import gc
import itertools
import math
import weakref

import numpy as np
import pytest

import hemiflow.flow as flow_module
from hemiflow.bubbles import BubbleParam
from hemiflow.census import entry_level, level_terms
from hemiflow.config import RunConfig
from hemiflow.errors import ConfigError, NonFiniteBar, OutsideNeighborhood, StepFailure
from hemiflow.fields import ScalarField
from hemiflow.flow import M_DRIFT, FlowParams, PseudogradientFlow, psi1, ramp
from hemiflow.geometry import BoundarySpherePoint, SpherePoint, geodesic_distance
from hemiflow.intervals import Bar
from hemiflow.landscape import find_critical_points
from hemiflow.model import Configuration, ReducedModel

import _flow_reference as ref
from _fixtures import (E, N, field_boundary_max, field_diag, field_interior_min,
                       field_linear, make_cfg, near, sample_cluster, sample_v1,
                       sample_v2, sample_v2_alpha, sample_v4, sample_w)


@pytest.fixture(scope="module")
def lin_setup():
    K = field_linear()
    model = ReducedModel(K)
    records = find_critical_points(K, 8)
    return model, records, PseudogradientFlow(model, records, FlowParams())


@pytest.fixture(scope="module")
def diag_setup():
    K = field_diag()
    model = ReducedModel(K)
    records = find_critical_points(K, 8)
    return model, records, PseudogradientFlow(model, records, FlowParams())


class TestGates:
    def test_smoothstep_exact_endpoints(self):
        assert psi1(0.3) == 0.0 and psi1(1.0) == 0.0
        assert psi1(2.0) == 1.0 and psi1(7.0) == 1.0
        ts = np.linspace(1.0, 2.0, 50)
        vals = [psi1(t) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        # C^2 matching at the edges
        h = 1e-4
        assert abs((psi1(1 + h) - psi1(1)) / h) < 1e-6
        assert abs((psi1(2) - psi1(2 - h)) / h) < 1e-6

    def test_ramp(self):
        assert ramp(0.5, 1, 2) == 0.0
        assert ramp(2.5, 1, 2) == 1.0
        assert ramp(1.5, 1, 2) == 0.5


class TestParams:
    def test_default_satisfies_smallness(self):
        checks = FlowParams().validate()
        assert checks["M0_over_M4sq"] <= 0.01 + 1e-12
        FlowParams().validate_full(N)

    def test_bad_constants_rejected(self):
        with pytest.raises(ConfigError):
            FlowParams(M0=1e6, M4=1e3).validate()

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(FlowParams)
                                      if f.type in ("float", float)])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_constants_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"flow constant {name} must be finite"):
            dataclasses.replace(FlowParams(), **{name: value}).validate()

    def test_mass_three_scaling(self):
        p = FlowParams.for_mass(3, N)
        p.validate_full(N)
        assert p.M0 >= 1e6

    def test_for_mass_fits_every_dimension(self):
        # the defaults where they meet the budget, scaled constants elsewhere
        assert FlowParams.for_mass(2, 5) == FlowParams()
        assert dataclasses.astuple(FlowParams.for_mass(3, 5))[:3] == (1e9, 10.0, 1e6)
        with pytest.raises(ConfigError):
            FlowParams().validate_full(6)
        assert dataclasses.astuple(FlowParams.for_mass(2, 6))[:3] == (1e5, 10.0, 1e4)
        for n in (5, 6, 7, 8):
            for max_qp in (1, 2, 3, 4):
                FlowParams.for_mass(max_qp, n).validate_full(n)

    def test_run_config_fills_unset_constants_from_the_dimension(self):
        cfg = RunConfig.from_json({"dimension": 6, "field": {"kappa0": 1.0},
                                   "flow": {"M4": 2e4}})
        assert dataclasses.astuple(cfg.flow)[:3] == (1e5, 10.0, 2e4)
        assert RunConfig(n=6, field_spec={"kappa0": 1.0}).flow == FlowParams.for_mass(2, 6)
        assert RunConfig.from_json({"field": {"kappa0": 1.0}}).flow == FlowParams()


class TestScales:
    def test_interior_scale_is_rate_squared(self, lin_setup):
        model, records, flow = lin_setup
        pt = SpherePoint(np.array([np.cos(0.6), 0, 0, 0, 0, np.sin(0.6)]))
        cfg = make_cfg(model, [BubbleParam(pt, 16.0)], q=0)
        assert flow.mu(cfg, 0) == 16.0**2

    def test_boundary_scale_gradient_corrected(self, lin_setup):
        model, records, flow = lin_setup
        z = np.zeros(N + 1)
        z[0], z[1] = np.cos(0.7), np.sin(0.7)
        cfg = make_cfg(model, [BubbleParam(BoundarySpherePoint(z), 100.0)], q=1)
        g = np.linalg.norm(model.K.tangent_gradient(cfg.bubbles[0].a))
        assert abs(flow.mu(cfg, 0) - 1.0 / (g / 100.0 + 1e-4)) < 1e-9

    def test_boundary_scale_at_critical_point(self, lin_setup):
        model, records, flow = lin_setup
        cfg = make_cfg(model, [BubbleParam(BoundarySpherePoint(E[0]), 100.0)], q=1)
        assert abs(flow.mu(cfg, 0) - 100.0**2) < 1e-6

    def test_worked_example(self, lin_setup):
        # rate 100 with gradient norm 0.1: 1/mu = 1e-3 + 1e-4
        model, records, flow = lin_setup
        val = 1.0 / (0.1 / 100.0 + 1.0 / 100.0**2)
        assert abs(val - 909.0909090909091) < 1e-10


class TestGammaQuantities:
    def test_single_bubble_interaction_ratio_zero(self, lin_setup):
        model, records, flow = lin_setup
        cfg = make_cfg(model, [BubbleParam(BoundarySpherePoint(E[0]), 50.0)], q=1)
        d = flow.gamma_quantities(cfg, 0)
        assert d.gamma_lambda == 0.0

    def test_interior_point_ratio_zero_at_critical_point(self, diag_setup):
        model, records, flow = diag_setup
        cfg = make_cfg(model, [BubbleParam(SpherePoint(E[-1]), 200.0)], q=0)
        d = flow.gamma_quantities(cfg, 0)
        assert d.gamma_a < 1e-9

    def test_self_interaction_ratio_scales_with_m2(self, lin_setup):
        model, records, flow = lin_setup
        pt = SpherePoint(np.array([np.cos(0.5), 0, 0, 0, 0, np.sin(0.5)]))
        cfg = make_cfg(model, [BubbleParam(pt, 30.0)], q=0)
        g1 = flow.gamma_quantities(cfg, 0).gamma_h
        flow10 = PseudogradientFlow(model, records,
                                    FlowParams(M2=100.0, M0=1e8, M4=1e5))
        g2 = flow10.gamma_quantities(cfg, 0).gamma_h
        assert abs(g1 / g2 - 10.0) < 1e-12


class TestClassification:
    def test_w_single_admissible(self, lin_setup):
        model, records, flow = lin_setup
        cfg = make_cfg(model, [BubbleParam(BoundarySpherePoint(E[0]), 200.0)], q=1)
        label = flow.classify_region(cfg)
        assert label.tag == "W"
        assert label.weights == {"W": 1.0}

    def test_spread_scales_make_tower_region(self, lin_setup):
        model, records, flow = lin_setup
        pt = SpherePoint(np.array([np.cos(0.6), 0, 0, 0, 0, np.sin(0.6)]))
        pt2 = near(pt.coords, np.random.default_rng(0), 0.01, within_equator=False)
        cfg = make_cfg(model, [BubbleParam(pt, 30.0), BubbleParam(pt2, 30.0 * 250)], q=0)
        label = flow.classify_region(cfg)
        assert label.tag == "V4"
        assert label.mu_ratio > flow.params.M0
        assert 0 in label.tower_set and 1 not in label.tower_set

    def test_cluster_at_flat_trace_point(self, lin_setup):
        model, records, flow = lin_setup
        rng = np.random.default_rng(4)
        cfg = sample_cluster(model, E[0], rng, count=2)
        label = flow.classify_region(cfg)
        assert label.tag == "V3_1"  # vanishing normal derivative at the anchor

    def test_cluster_at_plus_maximum(self):
        K = field_boundary_max()
        model = ReducedModel(K)
        records = find_critical_points(K, 8)
        flow = PseudogradientFlow(model, records, FlowParams())
        rng = np.random.default_rng(5)
        cfg = sample_cluster(model, E[0], rng, count=2)
        label = flow.classify_region(cfg)
        assert label.tag == "V3_3"

    def test_bad_sign_anchor(self):
        K = field_interior_min()
        model = ReducedModel(K)
        records = find_critical_points(K, 8)
        flow = PseudogradientFlow(model, records, FlowParams())
        cfg = make_cfg(model, [BubbleParam(SpherePoint(E[-1]), 250.0)], q=0)
        label = flow.classify_region(cfg)
        assert label.tag == "V3_2"

    def test_outside_neighborhood(self, lin_setup):
        model, records, flow = lin_setup
        cfg = make_cfg(model, [BubbleParam(BoundarySpherePoint(E[0]), 100.0)],
                       q=1, eps=0.4)
        with pytest.raises(OutsideNeighborhood):
            flow.classify_region(cfg)

    def test_v1_far_interior(self, lin_setup):
        model, records, flow = lin_setup
        cfg = sample_v1(model, np.random.default_rng(6))
        assert flow.classify_region(cfg).tag == "V1"

    def test_v2_far_boundary(self, lin_setup):
        model, records, flow = lin_setup
        crit = [r.location.coords for r in records]
        cfg = sample_v2(model, crit, np.random.default_rng(7))
        assert flow.classify_region(cfg).tag == "V2"


class TestFieldComponents:
    def test_single_interior_far_field(self, lin_setup):
        # drift along the curvature gradient paired with a full rate shrink
        model, records, flow = lin_setup
        rng = np.random.default_rng(8)
        while True:
            cfg = sample_v1(model, rng)
            f = model.assemble(cfg).frames[0]
            if cfg.bubbles[0].lam * f.grad_norm >= 2 * M_DRIFT:
                break
        vel = flow.pseudogradient(cfg)
        g = model.K.tangent_gradient(cfg.bubbles[0].a)
        expect = g / (cfg.bubbles[0].lam * np.linalg.norm(g))
        assert np.allclose(vel.a_dot[0], expect, atol=1e-12)
        assert abs(vel.loglam_dot[0] + 1.0) < 1e-12

    def test_w_rate_grows(self, lin_setup):
        model, records, flow = lin_setup
        cfg = make_cfg(model, [BubbleParam(BoundarySpherePoint(E[0]), 300.0)], q=1)
        vel = flow.pseudogradient(cfg)
        assert abs(vel.loglam_dot[0] - 1.0) < 1e-12

    def test_cluster_barycentric_velocities(self):
        K = field_boundary_max()
        model = ReducedModel(K)
        records = find_critical_points(K, 8)
        flow = PseudogradientFlow(model, records, FlowParams())
        rng = np.random.default_rng(9)
        cfg = sample_cluster(model, E[0], rng, count=2)
        label = flow.classify_region(cfg)
        assert label.tag == "V3_3"
        vel = flow.pseudogradient(cfg, label)
        assert np.allclose(vel.loglam_dot, 0.0)
        a0, a1 = cfg.bubbles[0].a.coords, cfg.bubbles[1].a.coords
        bary = (a0 + a1) / 2.0
        bary[-1] = 0.0
        bary /= np.linalg.norm(bary)
        gamma = geodesic_distance(cfg.bubbles[0].a, cfg.bubbles[1].a)
        lam_seed = cfg.bubbles[0].lam
        for k, ak in enumerate((a0, a1)):
            expect = (bary - float(ak @ bary) * ak) / (lam_seed * gamma)
            assert np.allclose(vel.a_dot[k], expect, atol=1e-10)

    def test_rate_signs_nonpositive_outside_w(self, lin_setup, diag_setup):
        # exhaustive region-wise audit on random states
        rng = np.random.default_rng(10)
        model_l, records_l, flow_l = lin_setup
        model_d, records_d, flow_d = diag_setup
        crit_l = [r.location.coords for r in records_l]
        audits = 0
        for _ in range(150):
            pick = rng.integers(0, 5)
            if pick == 0:
                flow, cfg = flow_l, sample_v1(model_l, rng)
            elif pick == 1:
                flow, cfg = flow_l, sample_v2(model_l, crit_l, rng)
            elif pick == 2:
                flow, cfg = flow_l, sample_cluster(model_l, E[0], rng)
            elif pick == 3:
                flow, cfg = flow_l, sample_v4(model_l, rng)
            else:
                flow, cfg = flow_d, sample_v2_alpha(model_d, [E[0], -E[0]], rng)
            label = flow.classify_region(cfg)
            if "W" in label.weights:
                continue
            vel = flow.pseudogradient(cfg, label)
            assert np.all(vel.loglam_dot <= 1e-15), (label.tag, vel.loglam_dot)
            audits += 1
        assert audits > 100


class TestTrajectories:
    def test_w_descends_to_level(self, lin_setup):
        model, records, flow = lin_setup
        cfg = make_cfg(model, [BubbleParam(BoundarySpherePoint(E[0]), 80.0)], q=1)
        traj = flow.integrate(cfg, 3.0)
        lams = [p.cfg.bubbles[0].lam for p in traj.points]
        js = [p.j_value.center for p in traj.points]
        assert all(b >= a for a, b in zip(lams, lams[1:]))
        assert all(b <= a + 1e-8 for a, b in zip(js, js[1:]))
        top = min(records, key=lambda r: np.linalg.norm(r.location.coords - E[0]))
        level = entry_level(level_terms([top], N), [], model.s_n, N)
        assert js[-1] >= level - 1e-9
        assert js[-1] - level < js[0] - level

    def test_v1_rates_decrease(self, lin_setup):
        model, records, flow = lin_setup
        cfg = sample_v1(model, np.random.default_rng(11))
        traj = flow.integrate(cfg, 1.0)
        for a, b in zip(traj.points[:-1], traj.points[1:]):
            for la, lb in zip([x.lam for x in a.cfg.bubbles], [x.lam for x in b.cfg.bubbles]):
                assert lb <= la + 1e-12

    def test_v4_top_scale_never_grows(self, lin_setup):
        model, records, flow = lin_setup
        cfg = sample_v4(model, np.random.default_rng(12))
        traj = flow.integrate(cfg, 1.0)
        tops = [max(p.mus) for p in traj.points]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(tops, tops[1:]))

    def test_time_strictly_increasing(self, lin_setup):
        model, records, flow = lin_setup
        cfg = make_cfg(model, [BubbleParam(BoundarySpherePoint(E[0]), 80.0)], q=1)
        traj = flow.integrate(cfg, 1.0)
        ts = [p.t for p in traj.points]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_csv_rows_schema(self, lin_setup):
        model, records, flow = lin_setup
        cfg = make_cfg(model, [BubbleParam(BoundarySpherePoint(E[0]), 80.0)], q=1)
        traj = flow.integrate(cfg, 0.3)
        rows = traj.csv_rows()
        assert {"t", "region", "J_center", "J_halfwidth", "mu_max",
                "alpha0", "lambda0"} <= set(rows[0])

    def test_step_failure_on_ascending_field(self, lin_setup):
        model, records, flow = lin_setup

        class Ascending(PseudogradientFlow):
            descents = 0   # steps taken along the descent field before it turns

            def pseudogradient(self, cfg, label=None, asm=None, depth=0):
                vel = super().pseudogradient(cfg, label, asm, depth)
                if depth == 0 and self.descents > 0:
                    self.descents -= 1
                    return vel
                return vel.scaled(-1.0)

        bad = Ascending(model, records, FlowParams())
        cfg = make_cfg(model, [BubbleParam(BoundarySpherePoint(E[0]), 80.0)], q=1)
        with pytest.raises(StepFailure):
            bad.integrate(cfg, 1.0)
        # after three descending steps the failure keeps the accepted points
        bad.descents = 3
        with pytest.raises(StepFailure) as failure:
            bad.integrate(cfg, 1.0)
        assert str(failure.value).startswith("10 consecutive rejected steps at t = ")
        points = failure.value.trajectory.points
        assert len(points) == 4 and points[0].cfg is cfg and points[0].t == 0.0
        assert all(a.t < b.t for a, b in zip(points, points[1:]))
        assert failure.value.trajectory.detail == str(failure.value)


class TestCertificates:
    def test_flat_field_self_interaction_state(self):
        # with a flat curvature the only descent channel is the image-charge
        # term; the certificate holds at the default fitted constant
        K = ScalarField(N, 1.0)
        model = ReducedModel(K)
        flow = PseudogradientFlow(model, [], FlowParams())
        th = 0.06  # low enough that the self-interaction ratio is fully active
        pt = SpherePoint(np.array([np.cos(th), 0, 0, 0, 0, np.sin(th)]))
        cfg = make_cfg(model, [BubbleParam(pt, 180.0)], q=0)
        label = flow.classify_region(cfg)
        assert label.tag == "V1"
        cert = flow.decrease_certificate(cfg)
        assert cert["satisfied"], (label.tag, cert)
        assert cert["lhs"].lo > 0

    def test_w_state_strict_descent(self, lin_setup):
        model, records, flow = lin_setup
        cfg = make_cfg(model, [BubbleParam(BoundarySpherePoint(E[0]), 150.0)], q=1)
        cert = flow.decrease_certificate(cfg)
        assert cert["lhs"].lo > 0.0
        assert cert["satisfied"]

    def test_negative_control_flags_unsatisfied(self, lin_setup):
        model, records, flow = lin_setup
        cfg = make_cfg(model, [BubbleParam(BoundarySpherePoint(E[0]), 150.0)], q=1)
        vel = flow.pseudogradient(cfg)
        cert = flow.decrease_certificate(cfg, velocity=vel.scaled(-1.0))
        assert not cert["satisfied"]
        assert cert["lhs"].center < 0.0

    @staticmethod
    def _bar_chain_lhs(model, cfg, vel):
        """The certificate's lhs as a chain of Bar sums and scalings."""
        grads = model.gradient_components(cfg)
        lhs = Bar(0.0, 0.0)
        for i in range(cfg.size):
            lhs = lhs + grads.alpha_pairings[i] * (-float(vel.alpha_dot[i]))
            lhs = lhs + grads.lam_pairings[i] * (-float(vel.loglam_dot[i]) * cfg.alphas[i])
            gv, gbar = grads.a_pairings[i]
            move = cfg.bubbles[i].lam * vel.a_dot[i]
            lhs = lhs + Bar(-float(gv @ move) * cfg.alphas[i],
                            gbar * float(np.linalg.norm(move)) * cfg.alphas[i])
        return lhs

    @pytest.mark.parametrize("region", ["V1", "V2", "V4"])
    def test_lhs_is_the_bar_chain_sum(self, lin_setup, region):
        model, records, flow = lin_setup
        rng = np.random.default_rng(4)
        if region == "V1":
            cfg = sample_v1(model, rng)
        elif region == "V2":
            cfg = sample_v2(model, [r.location.coords for r in records if r.is_boundary], rng)
        else:
            cfg = _v4_two_interior(model)
        assert flow.classify_region(cfg).tag == region
        vel = flow.pseudogradient(cfg)
        want = self._bar_chain_lhs(model, cfg, vel)
        for got in (flow.decrease_certificate(cfg)["lhs"],
                    flow.decrease_certificate(cfg, vel.scaled(-0.5))["lhs"] * -2.0):
            assert abs(got.center - want.center) <= 1e-13 * abs(want.center)
            assert abs(got.halfwidth - want.halfwidth) <= 1e-13 * want.halfwidth

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_velocity_raises(self, lin_setup, value):
        model, records, flow = lin_setup
        cfg = make_cfg(model, [BubbleParam(BoundarySpherePoint(E[0]), 150.0)], q=1)
        vel = flow.pseudogradient(cfg).scaled(1.0)
        vel.alpha_dot[0] = value
        with pytest.raises(NonFiniteBar):
            flow.decrease_certificate(cfg, vel)


class TestTerminationReasons:
    def test_stagnation(self, lin_setup):
        # all gates off: a quiet interior state produces no velocity
        model, records, flow = lin_setup
        pt = SpherePoint(np.array([np.cos(0.45), 0, 0, 0, 0, np.sin(0.45)]))
        cfg = make_cfg(model, [BubbleParam(pt, 25.0)], q=0)
        traj = flow.integrate(cfg, 2.0)
        assert traj.reason in ("stagnation", "t_max")
        if traj.reason == "stagnation":
            assert traj.points[-1].t < 2.0

    def test_neighborhood_exit_under_contraction(self):
        # a tight cluster keeps contracting until the interaction leaves the
        # neighborhood scale
        K = field_boundary_max()
        model = ReducedModel(K)
        records = find_critical_points(K, 8)
        flow = PseudogradientFlow(model, records, FlowParams())
        rng = np.random.default_rng(31)
        cfg = sample_cluster(model, E[0], rng, count=2, lam_lo=150.0, lam_hi=170.0,
                             spread=0.03)
        traj = flow.integrate(cfg, 400.0)
        assert traj.reason in ("neighborhood_exit", "stagnation")


    def test_neighborhood_exit_keeps_its_reason(self):
        K = field_boundary_max()
        model = ReducedModel(K)
        flow = PseudogradientFlow(model, find_critical_points(K, 8), FlowParams())
        cfg = sample_cluster(model, E[0], np.random.default_rng(31), count=2,
                             lam_lo=150.0, lam_hi=170.0, spread=0.03)
        traj = flow.integrate(cfg, 400.0)
        assert traj.reason == "neighborhood_exit"
        assert traj.detail.startswith("eps[0][1] = ")
        assert traj.detail.endswith(">= neighborhood scale")

    def test_no_detail_without_an_exit(self, lin_setup):
        model, records, flow = lin_setup
        cfg = sample_v1(model, np.random.default_rng(6))
        traj = flow.integrate(cfg, 0.05)
        assert traj.reason == "t_max" and traj.detail == ""


def _audit_fields(n):
    """The audit's four fields in dimension n; at n = 5 they are the fixture
    fields ``field_linear``, ``field_boundary_max``, ``field_interior_min``
    and ``field_diag``.  Up to n = 10 the diagonal fields' n + 1
    coefficients are distinct, the last one on x_{n+1}."""
    def diagonal(coeffs):
        return ScalarField(n, 1.0, [(f"x{i+1}^2", 0.01 * d) for i, d in enumerate(coeffs)])
    return {
        "lin": ScalarField(n, 1.0, [("x1", 0.05)]),
        "bmax": ScalarField(n, 1.0, [("x1", 0.05), (f"x1*x{n+1}", -0.02)]),
        "intmin": diagonal([2.0, 3.0, 2.5, 2.2, 2.8, 2.6, 2.4, 2.1, 2.7, 2.3][:n] + [1.0]),
        "diag": diagonal([5.0, 1.0, 1.5, 2.0, 2.5, 2.8, 2.9, 3.2, 3.5, 3.8][:n] + [6.0]),
    }


def _audit_rate_signs(n, per_region, seed):
    """Classify ``per_region`` random states from each region sampler in
    dimension n, under ``FlowParams.for_mass(2, n)``.  Returns, per sampler,
    the number of states outside W whose assembled rate velocities are not
    all nonpositive, and the number labelled with the sampler's own region."""
    from _fixtures import sample_cluster, sample_v1, sample_v2, sample_v2_alpha, sample_v4

    E = np.eye(n + 1)
    setups = {}
    for key, field in _audit_fields(n).items():
        model = ReducedModel(field)
        records = find_critical_points(field, 8)
        setups[key] = (model, records,
                       PseudogradientFlow(model, records, FlowParams.for_mass(2, n)))
    rng = np.random.default_rng(seed)
    lin_model, lin_records, lin_flow = setups["lin"]
    crit_lin = [r.location.coords for r in lin_records]
    bmax_model, _, bmax_flow = setups["bmax"]
    intmin_model, _, intmin_flow = setups["intmin"]
    diag_model, _, diag_flow = setups["diag"]

    def v32_state():
        pt = near(E[-1], rng, 0.05, within_equator=False)
        return intmin_flow, make_cfg(intmin_model,
                                     [BubbleParam(pt, rng.uniform(200.0, 400.0))], q=0)

    # sampler -> (region label it aims at, sampler); off-balance weights
    # (V2a) are a V2 state
    samplers = {
        "V1": ("V1", lambda: (lin_flow, sample_v1(lin_model, rng))),
        "V2": ("V2", lambda: (lin_flow, sample_v2(lin_model, crit_lin, rng))),
        "V2a": ("V2", lambda: (diag_flow, sample_v2_alpha(diag_model, [E[0], -E[0]], rng))),
        "V3_1": ("V3_1", lambda: (lin_flow, sample_cluster(lin_model, E[0], rng))),
        "V3_2": ("V3_2", v32_state),
        "V3_3": ("V3_3", lambda: (bmax_flow, sample_cluster(bmax_model, E[0], rng))),
        "V4": ("V4", lambda: (lin_flow, sample_v4(lin_model, rng))),
    }
    out = {}
    for name, (region, sampler) in samplers.items():
        violations = reached = 0
        for _ in range(per_region):
            flow, cfg = sampler()
            label = flow.classify_region(cfg)
            reached += region in label.weights
            if "W" in label.weights:
                continue
            vel = flow.pseudogradient(cfg, label)
            if not np.all(vel.loglam_dot <= 1e-15):
                violations += 1
        out[name] = (violations, reached)
    return out


class TestRegionSignInvariant:
    # the assembled rate velocities are nonpositive outside the matched
    # region by construction; audited exhaustively on random states

    def test_thousand_states_per_region_audit(self):
        for name, (violations, reached) in _audit_rate_signs(5, 1000, seed=77).items():
            assert violations == 0, name
            assert reached > 0, name

    @pytest.mark.parametrize("n", [6, 7, 8, 10])
    def test_region_audit_in_higher_dimension(self, n):
        for name, (violations, reached) in _audit_rate_signs(n, 200, seed=77 + n).items():
            assert violations == 0, name
            assert reached > 0, name

    def test_cluster_pairwise_distances_non_increasing(self):
        from _fixtures import field_boundary_max, sample_cluster
        K = field_boundary_max()
        model = ReducedModel(K)
        records = find_critical_points(K, 8)
        flow = PseudogradientFlow(model, records, FlowParams())
        rng = np.random.default_rng(78)
        contracted = 0
        for _ in range(12):
            cfg = sample_cluster(model, E[0], rng, count=2,
                                 lam_lo=150.0, lam_hi=250.0, spread=0.04)
            label = flow.classify_region(cfg)
            traj = flow.integrate(cfg, 1.0)
            dists = [geodesic_distance(p.cfg.bubbles[0].a, p.cfg.bubbles[1].a)
                     for p in traj.points]
            # non-increasing with ten percent slack everywhere
            assert all(b <= 1.1 * a for a, b in zip(dists, dists[1:]))
            # tight pairs with a dominant interaction ratio fall to the
            # rate-shrinking region instead; contraction is asserted only for
            # states the cluster field owns
            if label.tag == "V3_3":
                assert dists[-1] < dists[0]
                contracted += 1
        assert contracted >= 6


class TestThreeProfileTower:
    def test_v4_with_mass_three_params(self):
        K = field_diag()
        model = ReducedModel(K)
        records = find_critical_points(K, 8)
        flow = PseudogradientFlow(model, records, FlowParams.for_mass(3))
        rng = np.random.default_rng(91)
        # two comparable boundary profiles at distinct admissible points plus
        # a far faster interior one above them
        b1 = BubbleParam(BoundarySpherePoint(E[0]), 60.0)
        b2 = BubbleParam(BoundarySpherePoint(-E[0]), 75.0)
        b3 = BubbleParam(SpherePoint(E[-1]), 60.0 * 6.0e4)
        cfg = make_cfg(model, [b1, b2, b3], q=2)
        label = flow.classify_region(cfg)
        assert label.tag == "V4"
        assert set(label.tower_set) == {0, 1}
        vel = flow.pseudogradient(cfg, label)
        assert np.all(vel.loglam_dot <= 1e-15)
        traj = flow.integrate(cfg, 0.5)
        tops = [max(p.mus) for p in traj.points]
        assert all(later <= first * (1 + 1e-10) for first, later in zip(tops, tops[1:]))
        js = [p.j_value.center for p in traj.points]
        assert all(b <= a + 1e-8 for a, b in zip(js, js[1:]))


def _v4_two_interior(model):
    pt = SpherePoint(np.array([np.cos(0.6), 0, 0, 0, 0, np.sin(0.6)]))
    pt2 = near(pt.coords, np.random.default_rng(0), 0.01, within_equator=False)
    return make_cfg(model, [BubbleParam(pt, 30.0), BubbleParam(pt2, 30.0 * 250)], q=0)


def _v4_three_interior(model):
    a = SpherePoint(np.array([np.cos(0.9), 0, 0, 0, 0, np.sin(0.9)]))
    b = SpherePoint(np.array([0, np.cos(0.9), 0, 0, 0, np.sin(0.9)]))
    return make_cfg(model, [BubbleParam(a, 40.0), BubbleParam(b, 50.0),
                            BubbleParam(SpherePoint(E[-1]), 40.0 * 6.0e4)], q=0)


class TestOneAssemblyPerState:
    def test_frames_built_once_per_trajectory_point(self, lin_setup, monkeypatch):
        model, records, flow = lin_setup
        framed = []
        frames = ReducedModel.frames

        def counted(self, cfg):
            framed.append(cfg)  # keeps each configuration alive, so ids stay distinct
            return frames(self, cfg)

        monkeypatch.setattr(ReducedModel, "frames", counted)
        # a tower state: each step also runs the tower's sub-flow
        traj = flow.integrate(_v4_two_interior(model), 0.3)
        for pt in traj.points:
            flow.decrease_certificate(pt.cfg)
        assert {pt.label_tag for pt in traj.points} == {"V4"}
        assert [id(c) for c in framed] == [id(pt.cfg) for pt in traj.points]

    @pytest.mark.parametrize("which", ["two_interior", "three_interior"])
    def test_tower_sub_assembly_equals_a_fresh_assembly(self, lin_setup, diag_setup, which):
        if which == "two_interior":
            model, records, flow = lin_setup
            cfg = _v4_two_interior(model)
        else:
            model, records, _ = diag_setup
            flow = PseudogradientFlow(model, records, FlowParams.for_mass(3))
            cfg = _v4_three_interior(model)
        asm = model.assemble(cfg)
        label = flow.classify_region(cfg, asm)
        assert label.tag == "V4" and 0 < len(label.tower_set) < cfg.size
        sub_cfg, back, sub_asm = flow._restrict(cfg, asm, sorted(label.tower_set))
        assert model.assemble(sub_cfg) is sub_asm
        assert all(sub_asm.frames[k] is asm.frames[back[k]] for k in range(len(back)))
        fresh = ReducedModel(model.K, model.tbl).assemble(
            Configuration(sub_cfg.alphas, sub_cfg.bubbles, sub_cfg.q, sub_cfg.p, sub_cfg.eps_scale))
        assert sub_asm.j_center == fresh.j_center
        assert sub_asm.rel_bar == fresh.rel_bar
        assert np.array_equal(sub_asm.eps_mat, fresh.eps_mat)
        assert np.array_equal(sub_asm.hmut_mat, fresh.hmut_mat)
        assert sub_asm.budgets == fresh.budgets


@pytest.fixture(scope="module")
def bmax_setup():
    K = field_boundary_max()
    model = ReducedModel(K)
    records = find_critical_points(K, 8)
    return model, records, PseudogradientFlow(model, records, FlowParams())


class TestOneFieldPerState:
    @staticmethod
    def _count(monkeypatch, names):
        counts = dict.fromkeys(names, 0)

        def counted(name, orig):
            def wrapper(self, *args, **kwargs):
                counts[name] += 1
                return orig(self, *args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(PseudogradientFlow, name,
                                counted(name, getattr(PseudogradientFlow, name)))
        return counts

    def test_one_classification_and_one_field_per_state(self, lin_setup, monkeypatch):
        model, records, flow = lin_setup
        counts = self._count(monkeypatch, ("clusters", "_component_base", "_restrict"))
        # a tower state: each state's field also runs the tower's sub-flow
        traj = flow.integrate(_v4_two_interior(model), 0.3)
        for pt in traj.points:
            flow.decrease_certificate(pt.cfg)
        assert {pt.label_tag for pt in traj.points} == {"V4"}
        assert counts["_restrict"] >= len(traj.points)
        assert counts["clusters"] == len(traj.points) + counts["_restrict"]
        got = dict(counts)
        # the same states once more, each classified and given its field once
        for key in counts:
            counts[key] = 0
        fresh = PseudogradientFlow(model, records, flow.params)
        for pt in traj.points:
            fresh.pseudogradient(pt.cfg.replace())
        assert got == counts

    @pytest.mark.parametrize("which", ["two_interior", "cluster"])
    def test_certificate_reuses_the_gradient_bundle(self, lin_setup, bmax_setup, which,
                                                    monkeypatch):
        if which == "two_interior":
            model, records, flow = lin_setup
            cfg = _v4_two_interior(model)
        else:
            model, records, flow = bmax_setup
            cfg = sample_cluster(model, E[0], np.random.default_rng(5), count=2)
        asm = model.assemble(cfg)
        vel = flow.pseudogradient(cfg, flow.classify_region(cfg, asm), asm)
        calls = []
        grad_a = ReducedModel.grad_a

        def counted(self, asm, i):
            calls.append(i)
            return grad_a(self, asm, i)

        monkeypatch.setattr(ReducedModel, "grad_a", counted)
        grads = model.gradient_components(cfg, asm)
        flow.decrease_certificate(cfg, vel)
        assert calls == list(range(cfg.size))
        assert asm.grads is grads

    @pytest.mark.parametrize("which", ["two_interior", "cluster"])
    def test_certificate_alone_pairs_each_bubble_along_its_move(self, lin_setup, bmax_setup,
                                                                which, monkeypatch):
        if which == "two_interior":
            model, records, flow = lin_setup
            cfg = _v4_two_interior(model)
        else:
            model, records, flow = bmax_setup
            cfg = sample_cluster(model, E[0], np.random.default_rng(5), count=2)
        calls = []

        def refused(name):
            def wrapper(self, *args):
                calls.append(name)
            return wrapper

        pairing = ReducedModel._pairing

        def columns(self, asm, i, moves, deps, dh_mut):
            calls.append((i, len(moves[0])))
            return pairing(self, asm, i, moves, deps, dh_mut)

        for name in ("gradient_components", "grad_a"):
            monkeypatch.setattr(ReducedModel, name, refused(name))
        monkeypatch.setattr(ReducedModel, "_pairing", columns)
        flow.decrease_certificate(cfg)
        assert calls == [(i, 2) for i in range(cfg.size)]
        assert model.assemble(cfg).grads is None

    @pytest.mark.parametrize("region", ["V1", "V3_3", "V4"])
    def test_shared_results_equal_a_fresh_evaluation(self, lin_setup, bmax_setup, region):
        if region == "V1":
            model, records, flow = lin_setup
            cfg = sample_v1(model, np.random.default_rng(6))
        elif region == "V3_3":
            model, records, flow = bmax_setup
            cfg = sample_cluster(model, E[0], np.random.default_rng(5), count=2)
        else:
            model, records, flow = lin_setup
            cfg = _v4_two_interior(model)
        assert flow.classify_region(cfg).tag == region
        traj = flow.integrate(cfg, 0.3)
        assert len(traj.points) >= 2
        for pt in traj.points:
            cert = flow.decrease_certificate(pt.cfg)
            vel = flow.pseudogradient(pt.cfg)
            fresh_cfg = pt.cfg.replace()
            fresh_model = ReducedModel(model.K, model.tbl)
            fresh = PseudogradientFlow(fresh_model, records, flow.params)
            want_vel = fresh.pseudogradient(fresh_cfg)
            want = fresh.decrease_certificate(fresh_cfg, want_vel)
            assert cert["lhs"].center == want["lhs"].center
            assert cert["lhs"].halfwidth == want["lhs"].halfwidth
            assert np.array_equal(vel.alpha_dot, want_vel.alpha_dot)
            assert np.array_equal(vel.loglam_dot, want_vel.loglam_dot)
            assert all(np.array_equal(u, v) for u, v in zip(vel.a_dot, want_vel.a_dot))
            assert pt.mus == tuple(flow.mu(pt.cfg, i) for i in range(pt.cfg.size))

    def test_only_the_states_own_label_shares_its_field(self, lin_setup):
        model, records, flow = lin_setup
        cfg = _v4_two_interior(model)
        label = flow.classify_region(cfg)
        assert flow.classify_region(cfg) is label
        vel = flow.pseudogradient(cfg)
        assert flow.pseudogradient(cfg, label) is vel
        other = flow.pseudogradient(cfg, dataclasses.replace(label))
        assert other is not vel and np.array_equal(other.loglam_dot, vel.loglam_dot)
        assert flow.pseudogradient(cfg, label, depth=1) is not vel
        twin = PseudogradientFlow(model, records, flow.params)
        assert twin.classify_region(cfg) is not label

    def test_shared_arrays_are_read_only(self, lin_setup):
        model, records, flow = lin_setup
        cfg = _v4_two_interior(model)
        vel = flow.pseudogradient(cfg)
        grads = model.gradient_components(cfg)
        asm = model.assemble(cfg)
        shared = (vel.alpha_dot, vel.loglam_dot, *vel.a_dot, asm.eps_mat, asm.eps_dloglam,
                  *(vec for vec, _ in grads.a_pairings))
        for arr in shared:
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(ValueError):
            vel.loglam_dot += vel.loglam_dot

    def test_shared_results_die_with_their_configuration(self, lin_setup):
        model, records, flow = lin_setup
        cfg = _v4_two_interior(model)
        gc.disable()
        try:
            refs = [weakref.ref(flow.classify_region(cfg)), weakref.ref(flow.pseudogradient(cfg)),
                    weakref.ref(model.gradient_components(cfg))]
            flow.decrease_certificate(cfg)
            alive = all(ref() is not None for ref in refs)
            del cfg
            assert alive and all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestOnePathPerQuantity:
    """Each per-state quantity has one computation: the fields read the trace
    gradient off the frames, the pair distances off the pair table, the
    nearest records off the region label and the imbalances off the
    assembly."""

    @staticmethod
    def _trajectory(setup, region, monkeypatch):
        model, records, flow = setup
        if region == "V3_3":
            cfg = sample_cluster(model, E[0], np.random.default_rng(5), count=2)
        else:
            cfg = sample_v4(model, np.random.default_rng(3), boundary_anchor=E[0])
        counts = dict.fromkeys(("boundary_gradient", "_nearest_record", "gamma_quantities",
                                "imbalances", "assemble_frames", "_cluster_field",
                                "geodesic_distance", "mu"), 0)
        inside_cluster = []

        def counted(owner, name):
            orig = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                inside_cluster.append(name == "_cluster_field")
                try:
                    return orig(*args, **kwargs)
                finally:
                    inside_cluster.pop()
            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in ((ScalarField, "boundary_gradient"),
                            (PseudogradientFlow, "_nearest_record"),
                            (PseudogradientFlow, "gamma_quantities"),
                            (ReducedModel, "imbalances"), (ReducedModel, "assemble_frames"),
                            (PseudogradientFlow, "_cluster_field"), (PseudogradientFlow, "mu")):
            counted(owner, name)
        geodesic = flow_module.geodesic_distance

        def distance(p, q):
            if any(inside_cluster):
                counts["geodesic_distance"] += 1
            return geodesic(p, q)

        monkeypatch.setattr(flow_module, "geodesic_distance", distance)
        traj = flow.integrate(cfg, 0.3)
        for pt in traj.points:
            flow.decrease_certificate(pt.cfg)
        assert traj.points[0].label_tag == region and len(traj.points) >= 2
        return counts

    @pytest.fixture(params=["V3_3", "V4"])
    def counts(self, request, lin_setup, bmax_setup, monkeypatch):
        setup = bmax_setup if request.param == "V3_3" else lin_setup
        return self._trajectory(setup, request.param, monkeypatch)

    def test_trace_gradient_read_off_the_frames(self, lin_setup, bmax_setup, monkeypatch):
        for setup, region in ((bmax_setup, "V3_3"), (lin_setup, "V4")):
            assert self._trajectory(setup, region, monkeypatch)["boundary_gradient"] == 0

    def test_one_nearest_record_lookup_per_bubble_classification(self, counts):
        # gamma_quantities runs once per bubble of each state classified
        assert counts["_nearest_record"] == counts["gamma_quantities"] > 0

    def test_one_imbalance_vector_per_assembly(self, counts):
        assert counts["imbalances"] == counts["assemble_frames"] > 0

    def test_certificate_reads_the_scales_off_the_label(self, counts):
        # every trajectory point gets a certificate; mu runs only inside the
        # classification, once per bubble
        assert counts["mu"] == counts["gamma_quantities"] > 0

    def test_cluster_field_reads_the_pair_table(self, bmax_setup, monkeypatch):
        counts = self._trajectory(bmax_setup, "V3_3", monkeypatch)
        assert counts["_cluster_field"] > 0
        assert counts["geodesic_distance"] == 0


class TestNearestRecord:
    @staticmethod
    def _loop(point, pool):
        best, best_d = None, math.pi
        for r in pool:
            d = geodesic_distance(point, r.location)
            if d <= best_d:
                best, best_d = r, d
        return best, best_d

    @pytest.mark.parametrize("setup", ["lin_setup", "diag_setup"])
    def test_matches_the_scalar_loop(self, setup, request):
        model, records, _ = request.getfixturevalue(setup)
        # two equal copies of every record make exact ties: those, and points
        # exactly on a record, pick the last one, as the scalar loop and the
        # array form (a row-wise product over the stacked coordinates) do
        twins = [dataclasses.replace(r) for r in records for _ in range(2)]
        flow = PseudogradientFlow(model, list(records) + twins, FlowParams())
        rng = np.random.default_rng(5)
        points = [r.location for r in flow.records]
        points += [near(r.location.coords, rng, 0.2, within_equator=r.is_boundary)
                   for r in flow.records]
        points += [near(r.location.coords, rng, 0.01, within_equator=r.is_boundary)
                   for r in flow.records]
        for boundary, pool in ((True, flow.trace_crit), (False, flow.interior_crit)):
            for point in points:
                got = flow._nearest_record(point, boundary)
                want = self._loop(point, pool)
                assert got[0] is want[0] and got[1] == want[1]
                want = ref.nearest_record(flow, point, boundary)
                assert got[0] is want[0] and got[1] == want[1]
                if got[0] is not None and point == got[0].location:
                    assert got[0] is [r for r in pool if r.location == point][-1]

    def test_empty_pool(self, lin_setup):
        model, records, flow = lin_setup
        assert flow.interior_crit == []
        assert flow._nearest_record(SpherePoint(E[-1]), False) == (None, math.pi)


class TestScaleRanking:
    def test_equal_scales_rank_as_argsort_up_to_three(self, lin_setup):
        _, _, flow = lin_setup
        for size in (1, 2, 3):
            for mus in itertools.product((1.0, 2.0, 3.0), repeat=size):
                assert flow._rank(list(mus)) == [int(k) for k in np.argsort(mus)]
                assert flow._tower_set(list(mus)) == ref.tower_set(flow, mus)

    def test_equal_scales_keep_index_order(self, lin_setup):
        # np.argsort may reverse ties from four entries up (it does on
        # AVX-512 machines); the ranking is a stable sort at every size
        _, _, flow = lin_setup
        for size in range(1, 8):
            for mus in itertools.product((1.0, 2.0), repeat=size):
                order = flow._rank(list(mus))
                assert sorted(order, key=lambda k: (mus[k], k)) == order


def _float_oracle_states(n, per_kind, seed):
    """(kind, flow, cfg) for ``per_kind`` random states of every region kind
    in dimension n, each flow under ``FlowParams.for_mass`` of its mass."""
    E = np.eye(n + 1)
    setups = {}
    for key, field in _audit_fields(n).items():
        model = ReducedModel(field)
        records = find_critical_points(field, 8)
        setups[key] = (model, records,
                       PseudogradientFlow(model, records, FlowParams.for_mass(2, n)))
    lin_model, lin_records, lin_flow = setups["lin"]
    bmax_model, _, bmax_flow = setups["bmax"]
    intmin_model, _, intmin_flow = setups["intmin"]
    diag_model, diag_records, diag_flow = setups["diag"]
    mass3_flow = PseudogradientFlow(diag_model, diag_records, FlowParams.for_mass(3, n))
    crit_lin = [r.location.coords for r in lin_records]
    rng = np.random.default_rng(seed)

    def tower3():
        lam = rng.uniform(50.0, 70.0)
        bubbles = [BubbleParam(BoundarySpherePoint(E[0]), lam),
                   BubbleParam(BoundarySpherePoint(-E[0]), lam * rng.uniform(1.1, 1.4)),
                   BubbleParam(SpherePoint(E[-1]), lam * rng.uniform(5e4, 7e4))]
        return make_cfg(diag_model, bubbles, q=2)

    samplers = {
        "V1": (lin_flow, lambda: sample_v1(lin_model, rng)),
        "V2": (lin_flow, lambda: sample_v2(lin_model, crit_lin, rng)),
        "V2a": (diag_flow, lambda: sample_v2_alpha(diag_model, [E[0], -E[0]], rng)),
        "V3_1": (lin_flow, lambda: sample_cluster(lin_model, E[0], rng)),
        "V3_2": (intmin_flow, lambda: make_cfg(intmin_model, [BubbleParam(
            near(E[-1], rng, 0.05, within_equator=False), rng.uniform(200.0, 400.0))], q=0)),
        "V3_3": (bmax_flow, lambda: sample_cluster(bmax_model, E[0], rng, count=3)),
        "V4": (lin_flow, lambda: sample_v4(lin_model, rng)),
        "V4_boundary": (lin_flow, lambda: sample_v4(lin_model, rng, boundary_anchor=E[0])),
        "W": (lin_flow, lambda: sample_w(lin_model, lin_records, rng)),
        "tower3": (mass3_flow, tower3),
    }
    for kind, (flow, sample) in samplers.items():
        for _ in range(per_kind):
            yield kind, flow, sample()


class TestFloatsMatchTheArrayForm:
    """The flow's float evaluation of the nearest records, the scales and
    the descent field agrees bit for bit with the array form it replaced
    (``tests/_flow_reference.py``)."""

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_labels_and_fields_bit_for_bit(self, n):
        def same_bits(u, v):
            return u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()

        regions = set()
        for kind, flow, cfg in _float_oracle_states(n, 6, seed=2100 + n):
            asm = flow.model.assemble(cfg)
            got = flow.classify_region(cfg, asm)
            want = ref.label(flow, cfg, asm)
            assert got.weights == want.weights and got.tag == want.tag, kind
            assert got.mu_ratio == want.mu_ratio and got.tower_set == want.tower_set, kind
            assert all(g[0] is w[0] and g[1] == w[1]
                       for g, w in zip(got.nearest, want.nearest)), kind
            assert got.clusters == want.clusters, kind
            vel = flow.pseudogradient(cfg, got, asm)
            want_vel = ref.field(flow, cfg, got, asm)
            assert same_bits(vel.alpha_dot, want_vel.alpha_dot), kind
            assert same_bits(vel.loglam_dot, want_vel.loglam_dot), kind
            assert len(vel.a_dot) == len(want_vel.a_dot) == cfg.size
            assert all(same_bits(u, v) for u, v in zip(vel.a_dot, want_vel.a_dot)), kind
            regions.update(got.weights)
        assert regions == {"V1", "V2", "V3_1", "V3_2", "V3_3", "V4", "W"}

    def test_a_zero_point_component_adds_as_a_zero_array(self):
        # 0.0 + -0.0 is 0.0: a field's untouched point component is a zero
        # array, and what is added to it loses the sign of its zeros
        drive = flow_module._Drive(2)
        drive.push(0, np.array([-0.0, 1.0, -2.0]))
        want = np.zeros(3) + np.array([-0.0, 1.0, -2.0])
        vel = drive.velocity(3)
        assert vel.a_dot[0].tobytes() == want.tobytes()
        assert vel.a_dot[1].tobytes() == np.zeros(3).tobytes()


class TestCertificateRoutes:
    """The certificate reads the gradient bundle when a caller built it and
    pairs each bubble along its own move otherwise; the routes agree."""

    @pytest.mark.parametrize("n", [5, 6])
    def test_bundle_and_move_pairings_agree(self, n):
        seen = set()
        for kind, flow, cfg in _float_oracle_states(n, 4, seed=3200 + n):
            alone, with_bundle = cfg.replace(), cfg.replace()
            got = flow.decrease_certificate(alone)
            assert flow.model.assemble(alone).grads is None
            flow.model.gradient_components(with_bundle)
            want = flow.decrease_certificate(with_bundle)
            assert got["lhs"].halfwidth == want["lhs"].halfwidth, kind
            assert got["aggregate"] == want["aggregate"], kind
            assert got["satisfied"] == want["satisfied"], kind
            assert abs(got["lhs"].center - want["lhs"].center) \
                <= 1e-13 * abs(want["lhs"].center), kind
            seen.add((cfg.size, cfg.q > 0, cfg.p > 0))
        # one to three bubbles: boundary, interior and mixed states
        assert {size for size, _, _ in seen} == {1, 2, 3}
        assert {(b, i) for _, b, i in seen} == {(True, False), (False, True), (True, True)}


class TestFloatsAtTheSource:
    """The weights, the assembly's energy parts, the pairings and the
    certificate sums are Python floats, not numpy scalars, whose arithmetic
    rounds the same but costs several times more per operation."""

    @staticmethod
    def _states(model):
        # two and three interior bubbles, then two boundary ones
        return [_v4_two_interior(model), _v4_three_interior(model),
                sample_cluster(model, E[0], np.random.default_rng(241))]

    def test_weights_after_normalizing_and_after_a_step(self, lin_setup):
        model, records, flow = lin_setup
        for cfg in self._states(model)[:2]:
            assert all(type(a) is float for a in cfg.alphas)
            traj = flow.integrate(cfg, 0.05)
            assert len(traj.points) == 2
            assert all(type(a) is float for a in traj.points[1].cfg.alphas)

    def test_numpy_weights_are_stored_as_floats(self, lin_setup):
        model = lin_setup[0]
        cfg = self._states(model)[0]
        again = cfg.replace(alphas=np.array(cfg.alphas))
        assert all(type(a) is float for a in again.alphas) and again == cfg

    def test_assembly_pairings_and_certificate(self, lin_setup, monkeypatch):
        model, records, flow = lin_setup
        centres = []
        pairing = ReducedModel._pairing

        def recorded(self, *args):
            out = pairing(self, *args)
            centres.extend(out)
            return out

        monkeypatch.setattr(ReducedModel, "_pairing", recorded)
        for cfg in self._states(model):
            asm = model.assemble(cfg)
            assert type(asm.num) is float and type(asm.den) is float
            # a certificate alone pairs two columns per bubble and the
            # bundle n + 2; a certificate on the bundle pairs nothing more
            del centres[:]
            cert = flow.decrease_certificate(cfg)
            for x in (cert["lhs"].center, cert["lhs"].halfwidth, cert["aggregate"],
                      cert["rhs_lower_bound"]):
                assert type(x) is float
            assert len(centres) == 2 * cfg.size
            model.gradient_components(cfg, asm)
            flow.decrease_certificate(cfg)
            assert len(centres) == (2 + N + 2) * cfg.size
            assert all(type(c) is float for c in centres)


class TestTablesPerTuple:
    """A configuration's slot checks and pair table are built once per tuple
    of bubbles: a weight-only change and the tower's sub-state share them,
    and equal a fresh configuration's bit for bit."""

    @staticmethod
    def _same(got, want):
        def bits(x):
            return type(x), float(x).hex()

        assert got == want and hash(got) == hash(want)
        assert (got.q, got.p, got.eps_scale) == (want.q, want.p, want.eps_scale)
        for name in ("eps_mat", "eps_dloglam"):
            u, v = getattr(got, name), getattr(want, name)
            assert u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
            assert not u.flags.writeable
        assert ([tuple(map(bits, pair)) for pair in got.pairs]
                == [tuple(map(bits, pair)) for pair in want.pairs])
        assert got._memo == {}

    @staticmethod
    def _fresh(cfg, indices=None, alphas=None):
        """A configuration checked anew on ``cfg``'s bubbles at the
        ascending ``indices`` (all by default), with ``alphas`` or cfg's."""
        indices = range(cfg.size) if indices is None else indices
        alphas = cfg.alphas if alphas is None else alphas
        return Configuration(tuple(alphas[i] for i in indices),
                             tuple(cfg.bubbles[i] for i in indices),
                             sum(1 for i in indices if i < cfg.q),
                             sum(1 for i in indices if i >= cfg.q), cfg.eps_scale)

    def test_weight_only_change_equals_a_fresh_configuration(self):
        seen = set()
        for kind, flow, cfg in _float_oracle_states(5, 3, seed=3300):
            flow.decrease_certificate(cfg)   # a filled memo stays behind
            w = tuple(a * (1.0 + 0.1 * k) for k, a in enumerate(cfg.alphas))
            self._same(cfg.replace(alphas=w), self._fresh(cfg, alphas=w))
            self._same(cfg.replace(), self._fresh(cfg))
            self._same(flow.model.normalize_alphas(cfg), flow.model.normalize_alphas(self._fresh(cfg)))
            seen.add((cfg.q > 0, cfg.p > 0, cfg.size))
        # boundary, interior and mixed states of one to three bubbles
        assert {(q, p) for q, p, _ in seen} == {(True, False), (False, True), (True, True)}
        assert {m for _, _, m in seen} == {1, 2, 3}

    def test_sub_tuples_equal_fresh_configurations(self):
        for kind, flow, cfg in _float_oracle_states(5, 2, seed=3400):
            for k in range(1, cfg.size + 1):
                for indices in itertools.combinations(range(cfg.size), k):
                    self._same(cfg._restricted(list(indices)), self._fresh(cfg, indices))

    def test_tower_sub_state_equals_a_fresh_configuration(self, lin_setup, diag_setup):
        model, records, flow = lin_setup
        mass3 = PseudogradientFlow(diag_setup[0], diag_setup[1], FlowParams.for_mass(3))
        for flow, cfg in ((flow, _v4_two_interior(model)),
                          (mass3, _v4_three_interior(diag_setup[0]))):
            asm = flow.model.assemble(cfg)
            label = flow.classify_region(cfg, asm)
            assert label.tag == "V4" and 0 < len(label.tower_set) < cfg.size
            sub_cfg, back, _ = flow._restrict(cfg, asm, sorted(label.tower_set))
            assert set(sub_cfg._memo) == {flow.model}   # the sub-assembly only
            sub_cfg._memo.clear()
            self._same(sub_cfg, self._fresh(cfg, back))

    def test_no_pair_kernel_call_on_reuse(self, lin_setup, diag_setup, monkeypatch):
        import hemiflow.model as model_module

        calls = []
        kernel = model_module._interaction_terms
        monkeypatch.setattr(model_module, "_interaction_terms",
                            lambda *args: calls.append(args) or kernel(*args))
        model, records, flow = lin_setup
        cfg = _v4_two_interior(model)
        mass3 = PseudogradientFlow(diag_setup[0], diag_setup[1], FlowParams.for_mass(3))
        cfg3 = _v4_three_interior(diag_setup[0])
        assert len(calls) == 1 + 3
        calls.clear()
        model.normalize_alphas(cfg)
        diag_setup[0].normalize_alphas(cfg3)
        cfg.replace(alphas=(1.0, 2.0))
        flow.pseudogradient(cfg)      # V4 with its tower's sub-flow
        mass3.pseudogradient(cfg3)
        assert calls == []
