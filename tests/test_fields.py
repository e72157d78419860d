import numpy as np
import pytest

from hemiflow.bubbles import BubbleParam, ChartedBubble
from hemiflow.errors import ConfigError, NonPositiveField
from hemiflow.fields import ScalarField, parse_monomial
from hemiflow.geometry import (BoundarySpherePoint, RotatedChart,
                               geodesic_step, tangent_basis)
from hemiflow.model import ReducedModel

from _chart_route import chart_frame, to_sphere
from _fixtures import (N, E, boundary_point, field_all_positive_laplacian, field_boundary_max,
                       field_diag, field_h3_quadratic_flat, field_interior_min, field_linear,
                       interior_point, make_cfg, random_field, sample_cluster, sample_v4)

FIXTURE_FIELDS = (field_linear, field_diag, field_all_positive_laplacian, field_boundary_max,
                  field_interior_min, field_h3_quadratic_flat)


def hemisphere_grid(n: int, density: int) -> np.ndarray:
    """Deterministic quasi-uniform points on the closed upper hemisphere.

    A seeded uniform sample (area-exact in distribution) plus the ambient
    coordinate poles; adequate for scanning the smooth low-degree fields the
    family supports.
    """
    rng = np.random.default_rng(20240 + 7 * n + density)
    count = max(density ** 2 * (n + 1) * 8, 4096)
    pts = rng.standard_normal((count, n + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[:, -1] = np.abs(pts[:, -1])
    poles = np.concatenate([np.eye(n + 1), -np.eye(n + 1)])
    poles[:, -1] = np.abs(poles[:, -1])
    poles = poles[np.linalg.norm(poles, axis=1) > 0.5]
    poles /= np.linalg.norm(poles, axis=1, keepdims=True)
    return np.concatenate([pts, poles])


def rand_hemi(rng):
    v = rng.standard_normal(N + 1)
    v[-1] = abs(v[-1])
    return v / np.linalg.norm(v)


class TestParsing:
    @pytest.mark.parametrize("text,expected", [
        ("x1", (0,)), ("x6", (5,)), ("x3^2", (2, 2)), ("x1*x2", (0, 1)),
        ("x2 * x5", (1, 4)),
    ])
    def test_accepts(self, text, expected):
        assert parse_monomial(text, N + 1) == expected

    @pytest.mark.parametrize("text", ["x0", "x7", "x1^3", "x1*x2*x3", "y1", ""])
    def test_rejects(self, text):
        with pytest.raises(ConfigError):
            parse_monomial(text, N + 1)

    def test_config_roundtrip(self):
        K = ScalarField(N, 1.1, [("x1", 0.05), ("x2*x3", -0.02), ("x6^2", 0.04)])
        K2 = ScalarField.from_config(K.to_config())
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rand_hemi(rng)
            assert abs(K.value(v) - K2.value(v)) < 1e-15

    def test_coefficient_arrays_are_read_only(self):
        # the field keeps its critical points, so b and Q must not change
        K = ScalarField(N, 1.0, [("x1", 0.05), ("x2*x3", -0.02)])
        with pytest.raises(ValueError, match="read-only"):
            K.linear[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            K.quadratic[1, 2] += 0.01
        with pytest.raises(ValueError, match="read-only"):
            K.quadratic[:5, :5][0, 0] = 1.0
        assert K.to_config() == ScalarField(N, 1.0, [("x1", 0.05), ("x2*x3", -0.02)]).to_config()

    def test_equal_fields_compare_and_hash_equal(self):
        K = ScalarField(N, 1.0, [("x1", 0.05)])
        twin = ScalarField(N, 1.0, [("x1", 0.05)])
        K.min_max()  # fills K's kept critical points only
        assert K == twin and hash(K) == hash(twin)
        assert K == ScalarField(N, 1.0, [((0,), 0.05)])
        others = [ScalarField(N, 1.1, [("x1", 0.05)]), ScalarField(N, 1.0, [("x1", 0.04)]),
                  ScalarField(N, 1.0, [("x1", 0.05), ("x1*x2", 0.01)]),
                  ScalarField(N + 1, 1.0, [("x1", 0.05)])]
        assert all(K != other for other in others)
        assert len({K, twin, *others}) == 1 + len(others)
        assert K != K.to_config()


class TestPositivity:
    def test_conservative_bound(self):
        K = ScalarField(N, 1.0, [("x1", 0.05), ("x1*x2", 0.03)])
        assert abs(K.positivity_lower_bound() - (1.0 - 0.05 - 0.015)) < 1e-12

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveField):
            ScalarField(N, 0.5, [("x1", 1.0)])

    def test_negative_on_the_hemisphere_rejected_by_the_constructor(self):
        # the coefficient bound fails, and K(-u) = -1e-3 at x6 ≈ 0.5 > 0
        u = np.array([0.4, -0.3, 0.5, 0.2, -0.45, -0.5])
        u /= np.linalg.norm(u)
        terms = [(f"x{i+1}", float(c)) for i, c in enumerate(1.001 * u)]
        with pytest.raises(NonPositiveField, match="takes values <= 0"):
            ScalarField(N, 1.0, terms)

    def test_kappa0_positive_required(self):
        with pytest.raises(ConfigError):
            ScalarField(N, -1.0, ())

    @pytest.mark.parametrize("kappa0, terms", [
        (float("nan"), ()), (float("inf"), ()), (1.0, [("x1", float("nan"))]),
        (1.0, [("x2*x3", float("-inf"))])], ids=["nan_kappa0", "inf_kappa0", "nan_coeff",
                                                 "inf_coeff"])
    def test_non_finite_coefficients_rejected(self, kappa0, terms):
        with pytest.raises(ConfigError, match="must be finite"):
            ScalarField(N, kappa0, terms)

    def test_values_positive_on_grid(self):
        K = field_linear()
        pts = hemisphere_grid(N, 12)
        vals = K.kappa0 + pts @ K.linear + np.einsum("ki,ij,kj->k", pts, K.quadratic, pts)
        assert np.all(vals > 0)


class TestCalculus:
    def test_coordinate_function_laplacian(self):
        # degree-one restrictions are eigenfunctions: lap x_k = -n x_k
        rng = np.random.default_rng(1)
        for k in range(N + 1):
            K = ScalarField(N, 2.0, [(f"x{k+1}", 0.5)])
            for _ in range(10):
                v = rand_hemi(rng)
                assert abs(K.laplace_beltrami(v) - (-N * 0.5 * v[k])) < 1e-8

    def test_tangent_gradient_is_tangent(self):
        K = ScalarField(N, 1.0, [("x1", 0.05), ("x2*x6", 0.01)])
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = rand_hemi(rng)
            assert abs(np.dot(K.tangent_gradient(v), v)) < 1e-10

    def test_normal_derivative_sign_convention(self):
        # matches the flipped one-sided difference along the inward geodesic
        K = ScalarField(N, 1.0, [("x6", 0.07), ("x1*x6", 0.02)])
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(30):
            v = rng.standard_normal(N + 1)
            v[-1] = 0.0
            v /= np.linalg.norm(v)
            z = BoundarySpherePoint(v)
            inward = np.zeros(N + 1)
            inward[-1] = 1.0
            fd = (K.value(geodesic_step(v, inward, h)) - K.value(v)) / h
            assert abs(K.normal_derivative(z) - (-fd)) < 1e-6

    def test_normal_derivative_batch_rows_match_single_points(self):
        K = ScalarField(N, 1.0, [("x6", 0.07), ("x1*x6", 0.02), ("x3*x6", -0.013),
                                 ("x6^2", 0.04), ("x2", 0.01)])
        rng = np.random.default_rng(9)
        raw = rng.standard_normal((50, N + 1))
        raw[:, -1] = 0.0
        points = [BoundarySpherePoint(v / np.linalg.norm(v)) for v in raw]
        batch = K.normal_derivative(np.array([p.coords for p in points]))
        assert batch.shape == (50,)
        for p, nu in zip(points, batch):
            single = K.normal_derivative(p)
            assert isinstance(single, float)
            assert single == nu
            assert abs(single - float(-K.ambient_gradient(p.coords)[-1])) <= 1e-15

    def test_value_and_tangent_gradient_batch_rows_match_single_points(self):
        K = ScalarField(N, 1.0, [("x1", 0.05), ("x1*x2", 0.03), ("x6^2", 0.02),
                                 ("x3^2", -0.04), ("x2*x6", 0.01)])
        rng = np.random.default_rng(10)
        pts = np.array([rand_hemi(rng) for _ in range(40)])
        values = K.value(pts)
        grads = K.tangent_gradient(pts)
        assert values.shape == (40,) and grads.shape == (40, N + 1)
        for v, val, g in zip(pts, values, grads):
            single = K.value(v)
            assert isinstance(single, float)
            assert single == val
            assert np.array_equal(K.tangent_gradient(v), g)

    def test_laplacian_and_hessian_batch_rows_match_single_points(self):
        K = ScalarField(N, 1.0, [("x1", 0.05), ("x1*x2", 0.03), ("x6^2", 0.02),
                                 ("x3^2", -0.04), ("x2*x6", 0.01), ("x6", -0.02)])
        rng = np.random.default_rng(12)
        pts = np.array([rand_hemi(rng) for _ in range(40)])
        bases = np.array([tangent_basis(v) for v in pts])
        laps, hess = K.laplace_beltrami(pts), K.tangent_hessian(pts, bases)
        assert laps.shape == (40,) and hess.shape == (40, N, N)
        for v, basis, lap, h in zip(pts, bases, laps, hess):
            single = K.laplace_beltrami(v)
            assert isinstance(single, float)
            assert single == lap
            assert np.array_equal(K.tangent_hessian(v, basis), h)
        raw = rng.standard_normal((40, N + 1))
        raw[:, -1] = 0.0
        zs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        bases = np.array([tangent_basis(z, within_equator=True) for z in zs])
        hess = K.boundary_hessian(zs, bases)
        assert hess.shape == (40, N - 1, N - 1)
        for z, basis, h in zip(zs, bases, hess):
            assert np.array_equal(K.boundary_hessian(z, basis), h)

    def test_default_batch_bases_give_the_single_point_spectra(self):
        # one construction for one point and for a batch: each row of a
        # default-basis batch is its single-point default call, bit for bit,
        # also next to a coordinate axis
        K = ScalarField(N, 1.0, [("x1", 0.05), ("x1*x2", 0.03), ("x6^2", 0.02),
                                 ("x3^2", -0.04), ("x4*x6", 0.01)])
        rng = np.random.default_rng(13)
        pts = np.concatenate([np.array([rand_hemi(rng) for _ in range(30)]), E, -E[:-1]])
        pts[30:, 2] += 1.26e-8
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        for v, h in zip(pts, K.tangent_hessian(pts)):
            assert K.tangent_hessian(v).tobytes() == h.tobytes()
        zs = np.concatenate([rng.standard_normal((30, N + 1)), np.eye(N + 1)[:N],
                             -np.eye(N + 1)[:N]])
        zs[30:, 2] += 1.26e-8
        zs[:, -1] = 0.0
        zs /= np.linalg.norm(zs, axis=1, keepdims=True)
        for z, h in zip(zs, K.boundary_hessian(zs)):
            assert K.boundary_hessian(z).tobytes() == h.tobytes()

    @pytest.mark.parametrize("n", range(5, 11))
    def test_trace_hessian_is_a_block_of_the_sphere_hessian(self, n):
        # at a point of the equator the tangent basis keeps e_{n+1} last,
        # so the trace's Hessian is the leading block of the sphere's
        rng = np.random.default_rng([15, n])
        for _ in range(10):
            K = random_field(rng, n)
            raw = rng.standard_normal((24, n + 1))
            # near-axis rows: one coordinate dominates by up to 1e8
            raw[12:, 1:] *= 10.0 ** -rng.integers(1, 9, size=(12, 1))
            raw[:, -1] = 0.0
            zs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            bases = tangent_basis(zs)
            assert np.array_equal(bases[:, -1], np.tile(np.eye(n + 1)[-1], (24, 1)))
            block = K.tangent_hessian(zs)[:, :-1, :-1]
            assert block.tobytes() == K.boundary_hessian(zs).tobytes()

    def test_chart_stack_blocks_match_one_chart_calls(self):
        K = ScalarField(N, 1.0, [("x1", 0.05), ("x1*x2", 0.03), ("x6^2", 0.02),
                                 ("x2*x6", -0.01)])
        rng = np.random.default_rng(11)
        charts = []
        for _ in range(3):
            anchor = rng.standard_normal(N + 1)
            anchor[-1] = 0.0
            charts.append(RotatedChart.for_anchor(anchor / np.linalg.norm(anchor)))
        pts = 0.4 * rng.standard_normal((3, 2 * N + 1, N))
        vals, grads, hess = K.chart_data(np.array([c.rotation for c in charts]), pts)
        assert vals.shape == (3, 2 * N + 1)
        assert grads.shape == (3, 2 * N + 1, N)
        assert hess.shape == (3, 2 * N + 1, N, N)
        for j, chart in enumerate(charts):
            one = K.chart_data(chart, pts[j])
            for stacked, single in zip((vals, grads, hess), one):
                assert np.array_equal(stacked[j], single)

    def test_tangent_hessian_matches_finite_differences(self):
        K = ScalarField(N, 1.0, [("x1", 0.05), ("x2^2", 0.03), ("x1*x6", -0.02)])
        rng = np.random.default_rng(4)
        v = rand_hemi(rng)
        basis = tangent_basis(v)
        hess = K.tangent_hessian(v, basis)
        h = 1e-4
        for i in range(len(basis)):
            # second derivative along the geodesic in direction basis[i]
            fplus = K.value(geodesic_step(v, basis[i], h))
            fminus = K.value(geodesic_step(v, basis[i], -h))
            fd = (fplus - 2 * K.value(v) + fminus) / h**2
            assert abs(hess[i, i] - fd) < 1e-6

    def test_boundary_hessian_stays_in_equator(self):
        K = ScalarField(N, 1.0, [("x1", 0.05), ("x6^2", 0.5)])
        z = BoundarySpherePoint(E[0])
        basis = tangent_basis(z.coords, within_equator=True)
        assert basis.shape == (N - 1, N + 1)
        assert np.allclose(basis[:, -1], 0.0)
        hess = K.boundary_hessian(z, basis)
        # the trace of 1 + 0.05 x1 restricted to the equator has pure
        # curvature Hessian -0.05 I at its maximum
        assert np.allclose(hess, -0.05 * np.eye(N - 1), atol=1e-12)

    def test_chart_pullback_derivatives(self):
        K = ScalarField(N, 1.0, [("x1", 0.05), ("x1*x2", 0.03), ("x6^2", 0.02)])
        chart = RotatedChart.for_anchor(np.array([0.6, 0.8, 0, 0, 0, 0.0]))
        def f(x):
            return K.value(to_sphere(chart, x))
        # a batch with one point beyond the unit ball; each row is checked against
        # the single-point call and against finite differences
        pts = np.array([[0.1, -0.2, 0.3, 0.05, 0.4],
                        [0.0, 0.0, 0.0, 0.0, 0.0],
                        [0.7, 0.5, -0.9, 0.2, 0.3],
                        [-0.3, 0.1, 0.2, -0.4, 0.05]])
        assert np.linalg.norm(pts[2]) > 1.0
        vals, grads, hessians = K.chart_data(chart, pts)
        assert vals.shape == (len(pts),)
        assert grads.shape == (len(pts), N)
        assert hessians.shape == (len(pts), N, N)
        for x0, bval, bgrad, bhess in zip(pts, vals, grads, hessians):
            val, grad, hess = K.chart_data(chart, x0)
            assert isinstance(val, float)
            assert grad.shape == (N,) and hess.shape == (N, N)
            assert abs(bval - val) < 1e-14
            assert np.max(np.abs(bgrad - grad)) < 1e-14
            assert np.max(np.abs(bhess - hess)) < 1e-14
            assert abs(val - f(x0)) < 1e-14
            h = 1e-6
            for j in range(N):
                fd = (f(x0 + h * np.eye(N)[j]) - f(x0 - h * np.eye(N)[j])) / (2 * h)
                assert abs(bgrad[j] - fd) < 1e-8
            h = 1e-4
            for i in range(N):
                ei = np.eye(N)[i]
                fd = (f(x0 + 2 * h * ei) - 2 * f(x0) + f(x0 - 2 * h * ei)) / (4 * h * h)
                assert abs(bhess[i, i] - fd) < 1e-6
            # an off-diagonal entry through the mixed second difference
            e0, e1 = np.eye(N)[0], np.eye(N)[1]
            fd = (f(x0 + h * (e0 + e1)) - f(x0 + h * (e0 - e1))
                  - f(x0 - h * (e0 - e1)) + f(x0 - h * (e0 + e1))) / (4 * h * h)
            assert abs(bhess[0, 1] - fd) < 1e-6

    @pytest.mark.parametrize("state", ["v4_interior", "boundary_pair"])
    def test_frame_m3_matches_per_axis_differences(self, state):
        # Each per-axis central difference of the chart Hessian is a third
        # derivative D^3 Kt(xi)[e_k, e_i, e_j] at a point between C +- h e_k,
        # so it stays within sup |D^3 Kt[u^3]| <= 12 |b| + 36 d = 3 m3, the
        # bound the m3 of every frame's cubic remainder is derived from.  The
        # chart is each frame's own, built by the chart route.
        K = field_diag()
        model = ReducedModel(K)
        rng = np.random.default_rng(17)
        cfg = (sample_v4(model, rng) if state == "v4_interior"
               else sample_cluster(model, E[0], rng))
        assert cfg.size == 2
        h = 0.25
        for frame in model.frames(cfg):
            cb = ChartedBubble.build(frame.param)
            center = cb.center
            assert abs(frame.rate - cb.rate) <= 1e-14 * cb.rate
            assert np.max(np.abs(center - frame.height * np.eye(N)[-1])) <= 1e-14
            largest = 0.0
            for k in range(N):
                e = h * np.eye(N)[k]
                _, _, hp = K.chart_data(cb.chart, center + e)
                _, _, hm = K.chart_data(cb.chart, center - e)
                largest = max(largest, float(np.max(np.abs(hp - hm))) / (2 * h))
            assert 0.0 < largest <= 3.0 * model.m3

    def test_cubic_remainder_within_the_field_bound(self):
        # |Kt(C + z) - T_2(z)| <= 0.5 m3 |z|^3 at every chart center C: the
        # six fixture fields, alternating boundary and interior frames, |z|
        # log-uniform in [0.05, 100].  A sampled m3 (twice the largest Hessian
        # difference at C +- 0.25 e_k) falls short on these draws, by up to
        # 4.2x on field_all_positive_laplacian.  The Taylor data come from
        # the chart route, after checking the frame's against it.
        rng = np.random.default_rng(2)
        worst = {}
        for make in FIXTURE_FIELDS:
            K = make()
            model = ReducedModel(K)
            worst[make.__name__] = 0.0
            for k in range(120):
                boundary = k % 2 == 0
                pt = boundary_point(rng) if boundary else interior_point(rng)
                cfg = make_cfg(model, [BubbleParam(pt, rng.uniform(30.0, 400.0))], q=int(boundary))
                f, = model.frames(cfg)
                ref = chart_frame(K, f.param)
                scale = np.max(np.abs(ref.kt_hess)) + np.max(np.abs(ref.kt_grad)) + ref.kt_val
                for got, want in ((f.kt_val, ref.kt_val), (f.g_n, ref.kt_grad[-1]),
                                  (f.h_nn, ref.kt_hess[-1, -1]), (f.kt_lap, np.trace(ref.kt_hess))):
                    assert abs(got - want) <= 1e-14 * scale
                u = rng.standard_normal((20, N))
                u /= np.linalg.norm(u, axis=1, keepdims=True)
                r = np.exp(rng.uniform(np.log(0.05), np.log(100.0), 20))
                z = u * r[:, None]
                vals, _, _ = K.chart_data(ref.cb.chart, ref.cb.center + z)
                taylor = (ref.kt_val + z @ ref.kt_grad
                          + 0.5 * np.einsum("ki,ij,kj->k", z, ref.kt_hess, z))
                ratio = np.abs(vals - taylor) / (0.5 * model.m3 * r**3)
                worst[make.__name__] = max(worst[make.__name__], float(ratio.max()))
        assert max(worst.values()) <= 1.0, worst

    def test_stereographic_derivative_sups(self):
        # |D^k p(y)[u^k]| = 2 k!/(1 + |y|^2)^{(k+1)/2} for k >= 1 and |p| = 1,
        # exactly, so M_0..M_3 = 1, 2, 4, 12, attained at y = 0.  p commutes
        # with rotations of R^n, so y = r e_1, u = cos(th) e_1 + sin(th) e_2
        # covers every pair (y, u).
        import sympy as sp
        r, th, t = sp.symbols("r theta t", real=True)
        x1, x2 = r + t * sp.cos(th), t * sp.sin(th)
        s = x1**2 + x2**2
        p = sp.Matrix([1 - s, 2 * x1, 2 * x2]) / (1 + s)
        assert sp.simplify(p.dot(p)) == 1
        for k in (1, 2, 3):
            dk = p.diff(t, k).subs(t, 0)
            assert sp.simplify(dk.dot(dk) * (1 + r**2) ** (k + 1)) == 4 * sp.factorial(k) ** 2


class TestMinMax:
    def test_constant_field(self):
        kmin, kmax = ScalarField(N, 1.0).min_max(10)
        assert kmin == kmax == 1.0

    def test_linear_field_extrema(self):
        kmin, kmax = field_linear().min_max(10)
        assert abs(kmin - 0.95) < 1e-9
        assert abs(kmax - 1.05) < 1e-9

    def test_linear_fields_match_the_closed_form(self):
        # K = 1 + b.x peaks at b/|b| and bottoms at -b/|b| when those lie in
        # the closed upper hemisphere, and on the equator at 1 -+ |b[:n]| otherwise
        rng = np.random.default_rng(3)
        for _ in range(30):
            b = rng.uniform(-0.1, 0.1, N + 1)
            K = ScalarField(N, 1.0, [(f"x{i+1}", float(c)) for i, c in enumerate(b)])
            top = np.linalg.norm(b if b[-1] >= 0 else b[:N])
            bottom = np.linalg.norm(b if b[-1] <= 0 else b[:N])
            kmin, kmax = K.min_max(12)
            assert abs(kmax - (1.0 + top)) <= 1e-13 * (1.0 + top)
            assert abs(kmin - (1.0 - bottom)) <= 1e-13 * (1.0 - bottom)

    def test_against_sampling_plus_polish_oracle(self):
        K = ScalarField(N, 1.0, [("x1", 0.05), ("x1*x2", 0.03)])
        kmin, kmax = K.min_max(12)
        rng = np.random.default_rng(12345)
        pts = rng.standard_normal((1_000_000, N + 1))
        pts[:, -1] = np.abs(pts[:, -1])
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        vals = K.kappa0 + pts @ K.linear + np.einsum("ki,ij,kj->k", pts, K.quadratic, pts)
        # polish the sampled extremizers independently through scipy on the
        # normalized-ambient parameterization (a different algorithm and code
        # path than the library's own ascent)
        from scipy.optimize import minimize

        def polish(start, sign):
            def obj(w):
                u = w.copy()
                u[-1] = abs(u[-1])
                u /= np.linalg.norm(u)
                return -sign * K.value(u)
            res = minimize(obj, start, method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000})
            return -sign * res.fun
        mc_max = polish(pts[np.argmax(vals)], +1.0)
        mc_min = polish(pts[np.argmin(vals)], -1.0)
        assert abs(kmax - mc_max) < 1e-6
        assert abs(kmin - mc_min) < 1e-6

    def test_grid_density_validated(self):
        with pytest.raises(ConfigError):
            field_linear().min_max(5)

    def test_refined_minimum_must_be_positive(self):
        # a field built around the constructor's check: min_max still rejects it
        K = ScalarField.__new__(ScalarField)
        object.__setattr__(K, "n", N)
        object.__setattr__(K, "kappa0", 0.9)
        b = np.zeros(N + 1)
        b[0] = -1.0
        object.__setattr__(K, "linear", b)
        object.__setattr__(K, "quadratic", np.zeros((N + 1, N + 1)))
        with pytest.raises(NonPositiveField):
            K.min_max(10)
