import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemiflow.errors import PoleSingularity
from hemiflow.geometry import (BoundarySpherePoint, HalfSpacePoint, RotatedChart,
                               SpherePoint, geodesic_distance, geodesic_step,
                               stereographic_to_halfspace, tangent_basis)

from _chart_route import chart_conformal_factor, chart_jacobians, halfspace_to_sphere, to_sphere

N = 5
E = np.eye(N + 1)


def rand_hemi(rng):
    v = rng.standard_normal(N + 1)
    v[-1] = abs(v[-1])
    return SpherePoint(v / np.linalg.norm(v))


class TestPoints:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            SpherePoint(1.001 * E[0])

    def test_lower_hemisphere_rejected(self):
        v = np.zeros(N + 1)
        v[0] = np.cos(0.1)
        v[-1] = -np.sin(0.1)
        with pytest.raises(ValueError):
            SpherePoint(v)

    def test_boundary_point_requires_zero_height(self):
        v = np.zeros(N + 1)
        v[0] = np.cos(0.1)
        v[-1] = np.sin(0.1)
        with pytest.raises(ValueError):
            BoundarySpherePoint(v)

    def test_halfspace_height(self):
        with pytest.raises(ValueError):
            HalfSpacePoint(np.array([0.0, 0, 0, 0, -0.1]))
        assert HalfSpacePoint(np.array([1.0, 0, 0, 0, 2.0])).height == 2.0

    def test_boundary_distance_is_latitude(self):
        p = SpherePoint(np.array([np.cos(0.3), 0, 0, 0, 0, np.sin(0.3)]))
        assert abs(p.boundary_distance() - 0.3) < 1e-14


class TestPointGuards:
    """The unit check and the renormalisation read |v| as sqrt(v @ v)."""

    @pytest.mark.parametrize("cls", [SpherePoint, BoundarySpherePoint])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_refused(self, cls, bad):
        v = E[0].copy()
        v[1] = bad
        with pytest.raises(ValueError, match="is not 1 within"):
            cls(v)

    @pytest.mark.parametrize("cls", [SpherePoint, BoundarySpherePoint])
    def test_non_unit_refused_with_a_plain_norm(self, cls):
        with pytest.raises(ValueError) as info:
            cls(2.0 * E[0])
        assert str(info.value) == "|coords| = 2.0 is not 1 within 1e-12"

    @pytest.mark.parametrize("cls", [SpherePoint, BoundarySpherePoint])
    def test_two_dimensional_coordinates_refused(self, cls):
        with pytest.raises(ValueError, match="1-d vector"):
            cls(E[:2])

    def test_zero_tangent_step_returns_a_copy(self):
        p = E[0].copy()
        for tangent, t in ((np.zeros(N + 1), 0.3), (E[1], 0.0)):
            q = geodesic_step(p, tangent, t)
            assert q is not p and q.tobytes() == p.tobytes()

    def test_boundary_point_just_off_the_equator_renormalised_once(self):
        # |flat| = 1 + 3e-13, and a second division would move a bit
        v = np.array([0.6, 0.8000000000003, 0.0, 0.0, 0.0, 5e-13])
        flat = v.copy()
        flat[-1] = 0.0
        once = flat / np.linalg.norm(flat)
        assert (once / np.linalg.norm(once)).tobytes() != once.tobytes()
        p = BoundarySpherePoint(v)
        assert p.coords[-1] == 0.0 and p.coords is not v and v[-1] == 5e-13
        assert p.coords.tobytes() == once.tobytes()

    def test_boundary_point_on_the_equator_stored_as_given(self):
        v = np.array([0.6, 0.8, 0.0, 0.0, 0.0, 0.0])
        assert BoundarySpherePoint(v).coords is v


class TestGeodesicDistance:
    def test_identity(self):
        assert geodesic_distance(SpherePoint(E[0]), SpherePoint(E[0])) == 0.0

    def test_orthogonal(self):
        assert abs(geodesic_distance(SpherePoint(E[0]), SpherePoint(E[1])) - np.pi / 2) < 1e-15

    def test_antipodal(self):
        assert abs(geodesic_distance(SpherePoint(E[0]), SpherePoint(-E[0])) - np.pi) < 1e-15

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((3 * 10_000, N + 1))
        pts[:, -1] = np.abs(pts[:, -1])
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        a, b, c = pts[:10_000], pts[10_000:20_000], pts[20_000:]
        dab = np.arccos(np.clip(np.sum(a * b, axis=1), -1, 1))
        dba = np.arccos(np.clip(np.sum(b * a, axis=1), -1, 1))
        dbc = np.arccos(np.clip(np.sum(b * c, axis=1), -1, 1))
        dac = np.arccos(np.clip(np.sum(a * c, axis=1), -1, 1))
        assert np.max(np.abs(dab - dba)) < 1e-14
        assert np.all(dac <= dab + dbc + 1e-12)


class TestStereographic:
    def test_center_antipode_to_origin(self):
        assert np.allclose(stereographic_to_halfspace(SpherePoint(E[0])).coords, 0.0)

    def test_north_pole_to_unit_height(self):
        x = stereographic_to_halfspace(SpherePoint(E[-1]))
        assert np.allclose(x.coords, np.eye(N)[-1])

    def test_equator_to_halfspace_boundary(self):
        x = stereographic_to_halfspace(BoundarySpherePoint(E[1]))
        assert np.allclose(x.coords, np.eye(N)[0])
        assert x.height == 0.0

    def test_pole_singularity(self):
        with pytest.raises(PoleSingularity):
            stereographic_to_halfspace(SpherePoint(-E[0]))

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rand_hemi(rng)
            back = halfspace_to_sphere(stereographic_to_halfspace(p).coords)
            assert np.allclose(back.coords, p.coords, atol=1e-13)

    def test_interior_maps_to_interior(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = rand_hemi(rng)
            x = stereographic_to_halfspace(p)
            assert (x.height > 0) == (p.height > 1e-15) or p.height <= 1e-15

    def test_conformality_via_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(30):
            p = rand_hemi(rng)
            if p.coords[0] < -0.9:
                continue
            basis = tangent_basis(p.coords)
            idx = rng.choice(len(basis), 2, replace=False)
            u, v = basis[idx[0]], basis[idx[1]]
            def push(direction):
                plus = stereographic_to_halfspace(SpherePoint(geodesic_step(p.coords, direction, h))).coords
                minus = stereographic_to_halfspace(SpherePoint(geodesic_step(p.coords, direction, -h))).coords
                return (plus - minus) / (2 * h)
            du, dv = push(u), push(v)
            assert abs(np.linalg.norm(du) - np.linalg.norm(dv)) < 1e-8
            assert abs(np.dot(du, dv)) < 1e-8
            expected = 1.0 / chart_conformal_factor(stereographic_to_halfspace(p).coords)
            assert abs(np.linalg.norm(du) - expected) < 1e-6


class TestRotatedChart:
    def test_anchor_goes_to_origin(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = rand_hemi(rng)
            chart = RotatedChart.for_point(p)
            rot = chart.rotation
            assert np.allclose(rot @ rot.T, np.eye(N + 1), atol=1e-12)
            assert np.allclose(rot[:, -1], E[-1])
            a = chart.to_chart(p.coords)
            assert np.linalg.norm(a[:-1]) < 1e-10
            assert np.allclose(to_sphere(chart, a), p.coords, atol=1e-12)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        p = rand_hemi(rng)
        chart = RotatedChart.for_point(rand_hemi(rng))
        jac = chart_jacobians(chart.rotation[None], p.coords[None])[0]
        h = 1e-6
        for e in tangent_basis(p.coords)[:3]:
            fd = (chart.to_chart(geodesic_step(p.coords, e, h))
                  - chart.to_chart(geodesic_step(p.coords, e, -h))) / (2 * h)
            assert np.allclose(jac @ e, fd, atol=1e-7)


def gram_schmidt_frame(p, within_equator):
    """The coordinate axes in order, each projected twice against p (and
    e_{n+1}) and the frame so far, skipping a residual shorter than 1e-8."""
    frame = [p] + ([E[-1]] if within_equator else [])
    first = len(frame)
    for e in np.eye(len(p)):
        w = e
        for _ in range(2):
            w = w - sum((q @ w) * q for q in frame)
        if np.linalg.norm(w) > 1e-8:
            frame.append(w / np.linalg.norm(w))
    return np.array(frame[first:])


def axis_neighbours(offset):
    """Random unit points, then every coordinate axis and its negative moved
    by ``offset`` along the third axis."""
    rng = np.random.default_rng(14)
    x = np.concatenate([rng.standard_normal((30, N + 1)), E, -E])
    x[30:, 2] += offset
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestTangentBasis:
    @pytest.mark.parametrize("offset", [0.0, 1.26e-8, 0.3])
    def test_batch_rows_are_orthonormal_and_tangent(self, offset):
        x = axis_neighbours(offset)
        bases = tangent_basis(x)
        assert bases.shape == (len(x), N, N + 1)
        for v, basis in zip(x, bases):
            assert tangent_basis(v).tobytes() == basis.tobytes()
            assert np.allclose(basis @ basis.T, np.eye(N), rtol=0.0, atol=1e-14)
            assert np.max(np.abs(basis @ v)) <= 1e-15

    @pytest.mark.parametrize("within_equator", [False, True])
    @pytest.mark.parametrize("offset", [0.0, 1e-9, 1.26e-8, 0.3])
    def test_rows_are_the_gram_schmidt_frame(self, offset, within_equator):
        x = axis_neighbours(offset)
        if within_equator:
            x[:, -1] = 0.0
            x = x[np.linalg.norm(x, axis=1) > 0.1]
            x /= np.linalg.norm(x, axis=1, keepdims=True)
        for v, basis in zip(x, tangent_basis(x, within_equator=within_equator)):
            want = gram_schmidt_frame(v, within_equator)
            assert np.max(np.abs(basis - want)) <= 1e-14

    def test_equator_rows_end_in_zero_and_off_equator_points_are_refused(self):
        z = axis_neighbours(1.26e-8)
        z[:, -1] = 0.0
        z = z[np.linalg.norm(z, axis=1) > 0.1]
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        bases = tangent_basis(z, within_equator=True)
        assert bases.shape == (len(z), N - 1, N + 1)
        assert np.all(bases[..., -1] == 0.0)
        assert np.array_equal(tangent_basis(z)[:, :-1], bases)
        lifted = z[0] + 1e-13 * E[-1]
        for point in (lifted, np.array([z[1], lifted])):
            with pytest.raises(ValueError, match="equator"):
                tangent_basis(point, within_equator=True)

    @pytest.mark.parametrize("within_equator", [False, True])
    def test_point_just_off_a_coordinate_axis(self, within_equator):
        # the residual of E[0] is 1.26e-8 long, just above the 1e-8 cut
        p = E[0] + 1.26e-8 * E[2]
        p /= np.linalg.norm(p)
        basis = tangent_basis(p, within_equator=within_equator)
        assert basis.shape == (N - 1 if within_equator else N, N + 1)
        assert np.max(np.abs(basis @ basis.T - np.eye(len(basis)))) < 1e-12
        assert np.max(np.abs(basis @ p)) < 1e-12
        if within_equator:
            assert np.max(np.abs(basis[:, -1])) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=N + 1, max_size=N + 1))
def test_projection_roundtrip_property(raw):
    v = np.asarray(raw)
    if np.linalg.norm(v) < 1e-3:
        return
    v[-1] = abs(v[-1])
    v /= np.linalg.norm(v)
    if 1.0 + v[0] < 1e-6:
        return
    p = SpherePoint(v)
    back = halfspace_to_sphere(stereographic_to_halfspace(p).coords)
    assert np.allclose(back.coords, v, atol=1e-10)


class TestPointEquality:
    def test_equal_points_compare_and_hash_equal(self):
        a = SpherePoint(np.array([0.6, 0.0, 0.0, 0.0, 0.0, 0.8]))
        b = SpherePoint(np.array([0.6, 0.0, 0.0, 0.0, 0.0, 0.8]))
        assert a == b and hash(a) == hash(b)
        assert a != SpherePoint(np.array([0.8, 0.0, 0.0, 0.0, 0.0, 0.6]))

    def test_signed_zero_is_one_point(self):
        plus = BoundarySpherePoint(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        minus = BoundarySpherePoint(np.array([1.0, 0.0, 0.0, 0.0, 0.0, -0.0]))
        assert plus == minus and hash(plus) == hash(minus)

    def test_class_is_part_of_equality(self):
        assert SpherePoint(E[0]) != BoundarySpherePoint(E[0])
