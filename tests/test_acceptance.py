"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here, straight from the package contract:

  A1 counting exactness ........ exact integers, lists up to length 12
  A2 constants ................. closed forms 1e-6 (n = 5, 6, 7); profile
                                 equation residual 1e-8 at 100 points
  A3 expansion fidelity ........ quadrature inside the reported bars at
                                 rates 10/20/40; rate-derivative within 15%
  A4 gradient self-consistency . 100 random states, combined error bars
  A5 flow qualitative claims ... 50 states per region: descent, rate signs,
                                 top-scale monotonicity, cluster contraction
  A6 census and levels ......... exact subset oracle, band membership,
                                 bit-for-bit pinch gates
  A7 interaction inequalities .. 10^4 samples, zero violations
  A8 boundary-maximum convexity  10^3 pairs, constant half the smallest
                                 Hessian magnitude
"""

import itertools
import math
import time

import numpy as np

from hemiflow.bubbles import BubbleParam, epsilon, epsilon_dlambda
from hemiflow.census import (admissible_boundary, counting_A, counting_A_closed_forms,
                             counting_B, counting_B_closed_form, enumerate_census,
                             existence_check, level_bands, pinch_threshold)
from hemiflow.constants import compute_constants
from hemiflow.flow import FlowParams, PseudogradientFlow
from hemiflow.geometry import (BoundarySpherePoint, SpherePoint, geodesic_distance,
                               geodesic_step, tangent_basis)
from hemiflow.landscape import check_assumptions, classify, find_critical_points
from hemiflow.model import ReducedModel
from hemiflow.oracles import (brute_force_alternating_sums, flat_bubble_pde_residual,
                              quadrature_J_boundary, radial_gauss_constants)

from _fixtures import (E, N, field_boundary_max, field_diag, field_interior_min,
                       field_linear, interior_point, make_cfg, near, sample_cluster,
                       sample_v1, sample_v2, sample_v2_alpha, sample_v4, sample_w)

SEED = 20240


def _report(name, detail=""):
    print(f"\nACCEPTANCE {name}: PASS {detail}")


# ---------------------------------------------------------------------------
# A1 Counting exactness
# ---------------------------------------------------------------------------

def test_acceptance_counting_exactness():
    start = time.time()
    for length in range(1, 13):
        for odd in range(length + 1):
            idx = [0] * (length - odd) + [1] * odd
            a1, a2, a3, a4 = counting_A(idx)
            assert a1 == brute_force_alternating_sums(idx, 1)
            assert a2 == brute_force_alternating_sums(idx, 2)
            assert a3 == brute_force_alternating_sums(idx, 3)
            assert a4 == brute_force_alternating_sums(idx, 4)
            if a1 == 1:
                k = odd
                assert length == 2 * k + 1
                assert (length - odd) == k + 1
                assert (a2, a3, a4) == counting_A_closed_forms(k)
            b1, b2 = counting_B(idx)
            if b1 <= 0:
                k = -b1
                r = (length - k) // 2
                if length == 2 * r + k:
                    assert b2 == counting_B_closed_form(k, r)
    rng = np.random.default_rng(SEED)
    for _ in range(400):
        idx = list(rng.integers(0, 9, size=int(rng.integers(1, 13))))
        a1, a2, a3, a4 = counting_A(idx)
        assert a2 == brute_force_alternating_sums(idx, 2)
        assert a4 == brute_force_alternating_sums(idx, 4)
        if a1 == 1:
            k = sum(1 for i in idx if i % 2 == 1)
            assert (a2, a3, a4) == (-k, -k, k * (k - 1) // 2)
        b1, b2 = counting_B(idx)
        if b1 <= 0 and len(idx) == 2 * ((len(idx) + b1) // 2) - b1:
            assert b2 == counting_B_closed_form(-b1, (len(idx) + b1) // 2)
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report("counting-exactness", f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# A2 Constants
# ---------------------------------------------------------------------------

def test_acceptance_constants():
    start = time.time()
    for n in (5, 6, 7):
        table = compute_constants(n, 1e-8)
        for key, ref in radial_gauss_constants(n).items():
            rel = abs(table.values[key] - ref) / max(abs(ref), 1e-300)
            assert rel <= 1e-6, (n, key, rel)
    rng = np.random.default_rng(SEED)
    residual = flat_bubble_pde_residual(5, rng.uniform(0.25, 3.0, 100))[0].max()
    assert residual <= 1e-8
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report("constants", f"(residual {residual:.2e}, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# A3 Expansion fidelity
# ---------------------------------------------------------------------------

def test_acceptance_expansion_fidelity():
    start = time.time()
    K = field_linear()
    model = ReducedModel(K)
    z = BoundarySpherePoint(E[0])
    for lam in (10.0, 20.0, 40.0):
        cfg = make_cfg(model, [BubbleParam(z, lam)], q=1)
        jr = model.reduced_J(cfg)
        jq = quadrature_J_boundary(K, E[0], lam)
        assert abs(jq - jr.center) <= jr.halfwidth, (lam, jq, jr)

    lam, h = 20.0, 0.05
    cfg = make_cfg(model, [BubbleParam(z, lam)], q=1)
    grad = model.gradient_components(cfg).lam_pairings[0]
    fd = (quadrature_J_boundary(K, E[0], lam * math.exp(h))
          - quadrature_J_boundary(K, E[0], lam * math.exp(-h))) / (2 * h)
    rel_flat = abs(fd - cfg.alphas[0] * grad.center) / abs(fd)
    assert rel_flat <= 0.15

    # the same with a nonvanishing outward normal derivative at the center
    K2 = field_boundary_max()
    assert K2.normal_derivative(z) > 0
    model2 = ReducedModel(K2)
    cfg2 = make_cfg(model2, [BubbleParam(z, lam)], q=1)
    grad2 = model2.gradient_components(cfg2).lam_pairings[0]
    fd2 = (quadrature_J_boundary(K2, E[0], lam * math.exp(h))
           - quadrature_J_boundary(K2, E[0], lam * math.exp(-h))) / (2 * h)
    rel_nu = abs(fd2 - cfg2.alphas[0] * grad2.center) / abs(fd2)
    assert rel_nu <= 0.15
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report("expansion-fidelity",
            f"(rate-derivative rel {rel_flat:.3f} / {rel_nu:.3f}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# A4 Gradient self-consistency
# ---------------------------------------------------------------------------

def _random_valid_cfg(model, records, rng):
    K = model.K
    boundary_anchors = [r.location.coords for r in records if r.is_boundary]
    while True:
        q = int(rng.integers(0, 4))
        p = int(rng.integers(0, 2))
        if not (1 <= q + p <= 3):
            continue
        try:
            bubbles = []
            for _ in range(q):
                if rng.uniform() < 0.5 and boundary_anchors:
                    anchor = boundary_anchors[rng.integers(0, len(boundary_anchors))]
                    pt = near(anchor, rng, 0.08, within_equator=True)
                else:
                    v = rng.standard_normal(N + 1)
                    v[-1] = 0.0
                    pt = BoundarySpherePoint(v / np.linalg.norm(v))
                bubbles.append(BubbleParam(pt, float(rng.uniform(25.0, 90.0))))
            for _ in range(p):
                bubbles.append(BubbleParam(interior_point(rng, 0.45),
                                           float(rng.uniform(25.0, 90.0))))
            cfg = make_cfg(model, bubbles, q=q)
            jitter = 1.0 + rng.uniform(-0.03, 0.03, cfg.size)
            return cfg.replace(alphas=tuple(a * j for a, j in zip(cfg.alphas, jitter)))
        except Exception:
            continue


def test_acceptance_gradient_self_consistency():
    start = time.time()
    K = field_diag()
    model = ReducedModel(K)
    records = find_critical_points(K, 8)
    rng = np.random.default_rng(SEED + 1)
    checked = 0
    for _ in range(100):
        cfg = _random_valid_cfg(model, records, rng)
        asm = model.assemble(cfg)

        def interaction_slack(i):
            # the expansion value deliberately omits the pair terms; their
            # derivative scale bounds the allowed mismatch
            return (2.0 * asm.j_center / asm.n_qty * model.c2
                    * sum(asm.frames[j].alpha * 4.0 * asm.eps_mat[i, j]
                          for j in range(cfg.size) if j != i))

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

            gl = model.gradient_components(cfg, asm).lam_pairings[i]
            hh = 1e-4
            bb = list(cfg.bubbles)
            bb[i] = BubbleParam(bb[i].a, bb[i].lam * math.exp(hh))
            jp = model.reduced_J(cfg.replace(bubbles=bb)).center
            bb[i] = BubbleParam(bb[i].a, bb[i].lam * math.exp(-2 * hh))
            jm = model.reduced_J(cfg.replace(bubbles=bb)).center
            fd = (jp - jm) / (2 * hh) / cfg.alphas[i]
            assert abs(fd - gl.center) <= gl.halfwidth + interaction_slack(i) + 1e-9

            gv, gbar = model.gradient_components(cfg, asm).a_pairings[i]
            basis = tangent_basis(cfg.bubbles[i].a.coords, within_equator=i < cfg.q)
            e = basis[rng.integers(0, len(basis))]
            hh = 1e-3
            def j_moved(t):
                bb = list(cfg.bubbles)
                w = geodesic_step(bb[i].a.coords, e, t / bb[i].lam)
                if i < cfg.q:
                    w = w.copy()
                    w[-1] = 0.0
                    pt = BoundarySpherePoint(w / np.linalg.norm(w))
                else:
                    pt = SpherePoint(w)
                bb[i] = BubbleParam(pt, bb[i].lam)
                return model.reduced_J(cfg.replace(bubbles=bb)).center
            fd = (j_moved(hh) - j_moved(-hh)) / (2 * hh) / cfg.alphas[i]
            assert abs(fd - float(gv @ e)) <= gbar + interaction_slack(i) + 1e-9
            checked += 1
    elapsed = time.time() - start
    assert checked >= 100
    assert elapsed < 60.0
    _report("gradient-self-consistency", f"({checked} profiles, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# A5 Flow qualitative claims
# ---------------------------------------------------------------------------

def _sample_v31_active(model, rng):
    bubbles = []
    lam0 = rng.uniform(2000.0, 4000.0)
    basis = tangent_basis(E[0], within_equator=True)
    u = rng.standard_normal(N - 1)
    u /= np.linalg.norm(u)
    base = geodesic_step(E[0], u @ basis, rng.uniform(0.10, 0.16))
    base[-1] = 0.0
    base /= np.linalg.norm(base)
    for k in range(2):
        w = near(base, rng, 0.02, within_equator=True)
        bubbles.append(BubbleParam(w, lam0 * rng.uniform(0.95, 1.05)))
    return make_cfg(model, bubbles, q=2)


def _sample_v32(model_intmin, rng):
    if rng.uniform() < 0.5:
        pt = near(E[-1], rng, 0.05, within_equator=False)
        return make_cfg(model_intmin, [BubbleParam(pt, rng.uniform(200.0, 400.0))], q=0)
    pt = near(E[0], rng, 0.05, within_equator=True)
    return make_cfg(model_intmin, [BubbleParam(pt, rng.uniform(200.0, 400.0))], q=1)


def _sample_cluster_tight(model, anchor, rng):
    lam0 = rng.uniform(150.0, 260.0)
    while True:
        pts = [near(anchor, rng, 0.035, within_equator=True) for _ in range(2)]
        d = geodesic_distance(pts[0], pts[1])
        if 0.035 <= d <= 0.06:
            break
    bubbles = [BubbleParam(p, lam0 * rng.uniform(0.95, 1.05)) for p in pts]
    return make_cfg(model, bubbles, q=2)


def _cluster_spread(cfg):
    coords = np.array([b.a.coords for b in cfg.bubbles])
    bary = coords.mean(axis=0)
    bary[-1] = 0.0
    bary /= np.linalg.norm(bary)
    return float(sum(np.sum((c - bary) ** 2) for c in coords))


def test_acceptance_flow_qualitative():
    start = time.time()
    per_region = 50
    setups = {}
    for key, field in (("lin", field_linear()), ("diag", field_diag()),
                       ("bmax", field_boundary_max()), ("intmin", field_interior_min())):
        model = ReducedModel(field)
        records = find_critical_points(field, 8)
        setups[key] = (model, records, PseudogradientFlow(model, records, FlowParams()))

    rng = np.random.default_rng(SEED + 2)
    lin_model, lin_records, lin_flow = setups["lin"]
    crit_lin = [r.location.coords for r in lin_records]

    def states_for(region):
        out = []
        for _ in range(per_region):
            if region == "V1":
                out.append((lin_flow, sample_v1(lin_model, rng)))
            elif region == "V2":
                model, records, flow = setups["diag"]
                if rng.uniform() < 0.5:
                    out.append((lin_flow, sample_v2(lin_model, crit_lin, rng)))
                else:
                    out.append((flow, sample_v2_alpha(model, [E[0], -E[0]], rng)))
            elif region == "V3_1":
                out.append((lin_flow, _sample_v31_active(lin_model, rng)))
            elif region == "V3_2":
                model, records, flow = setups["intmin"]
                out.append((flow, _sample_v32(model, rng)))
            elif region == "V3_3":
                model, records, flow = setups["bmax"]
                out.append((flow, _sample_cluster_tight(model, E[0], rng)))
            elif region == "W":
                model, records, flow = setups["diag"]
                out.append((flow, sample_w(model, records, rng)))
            elif region == "V4":
                anchor = E[0] if rng.uniform() < 0.4 else None
                out.append((lin_flow, sample_v4(lin_model, rng, boundary_anchor=anchor)))
        return out

    regions = ("V1", "V2", "V3_1", "V3_2", "V3_3", "W", "V4")
    descent_checked = sign_checked = 0
    contraction_wins = contraction_total = 0
    for region in regions:
        for flow, cfg in states_for(region):
            label = flow.classify_region(cfg)
            vel = flow.pseudogradient(cfg, label)
            if "W" not in label.weights:
                assert np.all(vel.loglam_dot <= 1e-15), (region, label.tag, vel.loglam_dot)
                sign_checked += 1
            if region == "V3_3":
                assert label.tag == "V3_3", label.weights
                spread0 = _cluster_spread(cfg)
                traj = flow.integrate(cfg, 1.0)
                spread1 = _cluster_spread(traj.points[-1].cfg)
                contraction_total += 1
                if spread1 <= 0.9 * spread0:
                    contraction_wins += 1
                pts = traj.points
            else:
                traj = flow.integrate(cfg, 1.0)
                pts = traj.points
            for a, b in zip(pts[:-1], pts[1:]):
                assert b.j_value.center <= a.j_value.center + 1e-8 * (b.t - a.t) + 1e-12, \
                    (region, a.t, b.t)
            descent_checked += 1
            if region == "V4":
                tops = [max(p.mus) for p in pts]
                assert all(later <= first * (1 + 1e-10)
                           for first, later in zip(tops, tops[1:])), region

    assert descent_checked == per_region * len(regions)
    assert sign_checked >= per_region * (len(regions) - 1)
    assert contraction_total == per_region
    assert contraction_wins >= 0.9 * contraction_total
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report("flow-qualitative",
            f"({descent_checked} trajectories, contraction {contraction_wins}/{contraction_total}, "
            f"{elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# A6 Census and levels
# ---------------------------------------------------------------------------

def test_acceptance_census_and_levels():
    start = time.time()
    table = compute_constants(N, 1e-8)
    s_n = table.s_n
    for field in (field_linear(), field_diag(), field_boundary_max()):
        records = find_critical_points(field, 8)
        report = check_assumptions(records, field)
        kmin, kmax = field.min_max(10)
        census = enumerate_census(records, 4, s_n, N)
        adm = admissible_boundary(records)
        inn = classify(records)["K_in_minus"]
        # exhaustive subset oracle
        expected = []
        for q in range(len(adm) + 1):
            for p in range(len(inn) + 1):
                if q + p < 1 or q + 2 * p > 4:
                    continue
                for zs in itertools.combinations(adm, q):
                    for ys in itertools.combinations(inn, p):
                        level = s_n ** (2 / N) * (
                            sum(r.value ** (-(N - 2) / 2) for r in zs)
                            + 2 * sum(r.value ** (-(N - 2) / 2) for r in ys)) ** (2 / N)
                        index = (q + p - 1
                                 + sum(N - 1 - r.morse_index for r in zs)
                                 + sum(N - r.morse_index for r in ys))
                        expected.append((round(level, 12), index, q, p))
        got = [(round(e.level, 12), e.index, e.q, e.p) for e in census]
        assert sorted(got) == sorted(expected)
        for e in census:
            lo = (e.mass * s_n) ** (2 / N) / kmax ** ((N - 2) / N)
            hi = (e.mass * s_n) ** (2 / N) / kmin ** ((N - 2) / N)
            assert lo <= e.level <= hi

        verdict, table_v = existence_check(records, report, kmin, kmax, N)
        gates = {
            "T1_1": (5.0 / 4.0) ** (1.0 / (N - 2)),
            "T1_2": 2.0 ** (1.0 / (N - 2)),
            "T1_3": (3.0 / 2.0) ** (1.0 / (N - 2)),
        }
        for name, expect_gate in gates.items():
            got_gate = table_v[name].hypotheses["pinch_below_threshold"]["threshold"]
            assert got_gate == expect_gate  # bit-for-bit
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report("census-and-levels", f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# A7 Interaction inequalities
# ---------------------------------------------------------------------------

def test_acceptance_interaction_inequalities():
    start = time.time()
    rng = np.random.default_rng(SEED + 3)
    sum_violations = rate_violations = rate_checked = 0
    for _ in range(10_000):
        u = rng.standard_normal(N + 1); u[-1] = abs(u[-1]); u /= np.linalg.norm(u)
        v = rng.standard_normal(N + 1); v[-1] = abs(v[-1]); v /= np.linalg.norm(v)
        li = float(np.exp(rng.uniform(0.0, 6.0)))
        lj = float(np.exp(rng.uniform(0.0, 6.0)))
        bi = BubbleParam(SpherePoint(u), max(li, 1.0))
        bj = BubbleParam(SpherePoint(v), max(lj, 1.0))
        eps = epsilon(bi, bj)
        di, dj = epsilon_dlambda(bi, bj)
        if -(di + dj) < -1e-12 * eps:
            sum_violations += 1
        if bi.lam * geodesic_distance(bi.a, bj.a) >= 2.0:
            rate_checked += 1
            if -di < 0.1 * eps:
                rate_violations += 1
    assert sum_violations == 0
    assert rate_violations == 0
    assert rate_checked > 1000
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report("interaction-inequalities",
            f"({rate_checked} separated pairs, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# A8 Boundary-maximum convexity
# ---------------------------------------------------------------------------

def test_acceptance_boundary_maximum_convexity():
    start = time.time()
    K = field_boundary_max()
    records = find_critical_points(K, 8)
    z = next(r for r in records if r.classification == "K_b_plus")
    assert z.is_local_max()
    eig_floor = min(abs(e) for e in z.hessian_eigenvalues)
    k_cap = max(K.value(near(z.location.coords, np.random.default_rng(0), 0.05, True))
                for _ in range(8))
    c_test = 0.5 * eig_floor * min(1.0, k_cap) ** (-N / 2)
    rng = np.random.default_rng(SEED + 4)
    worst = np.inf
    for _ in range(1000):
        a = near(z.location.coords, rng, 0.05, within_equator=True).coords
        h = near(z.location.coords, rng, 0.05, within_equator=True).coords
        if np.allclose(a, h):
            continue
        ga = K.boundary_gradient(a)
        gh = K.boundary_gradient(h)
        lhs = (float(ga @ (h - float(a @ h) * a)) / K.value(a) ** (N / 2)
               + float(gh @ (a - float(a @ h) * h)) / K.value(h) ** (N / 2))
        gap = float(np.sum((a - h) ** 2))
        worst = min(worst, lhs / gap)
        assert lhs >= c_test * gap
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report("boundary-maximum-convexity",
            f"(worst ratio {worst:.4f} vs constant {c_test:.4f}, {elapsed:.1f}s)")
