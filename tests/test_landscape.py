import json

import numpy as np
import pytest

from hemiflow import landscape
from hemiflow.errors import AmbiguousSign, DegenerateCriticalPoint
from hemiflow.fields import ScalarField
from hemiflow.landscape import (CriticalPointRecord, _classify_boundary,
                                check_assumptions, classify, find_critical_points,
                                hemisphere_index_tally, load_records,
                                poincare_hopf_boundary, save_records)

from _fixtures import (E, N, field_boundary_max, field_diag, field_h3_quadratic_flat,
                       field_interior_min, field_linear)

# a division at a pole of the secular function must fail, not warn
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def field_general() -> ScalarField:
    """Linear terms along every axis and two cross terms: every critical
    point is a secular root, none sits on a coordinate pole."""
    lin = [0.01, -0.008, 0.006, 0.003, -0.005, 0.004]
    diag = [0.02, 0.035, 0.05, 0.01, 0.065, 0.08]
    terms = [(f"x{i+1}", c) for i, c in enumerate(lin)]
    terms += [(f"x{i+1}^2", c) for i, c in enumerate(diag)]
    return ScalarField(N, 1.0, terms + [("x1*x3", 0.004), ("x2*x6", -0.003)])


def rotated_terms(eigenvalues, seed):
    """Monomial terms of x.Q.x with Q = R diag(eigenvalues) R^T, R random."""
    R, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((N + 1, N + 1)))
    Q = R @ np.diag(eigenvalues) @ R.T
    return ([(f"x{i+1}^2", Q[i, i]) for i in range(N + 1)]
            + [(f"x{i+1}*x{j+1}", 2.0 * Q[i, j]) for i in range(N + 1) for j in range(i + 1, N + 1)])


def assert_critical(K, records):
    for r in records:
        g = (K.boundary_gradient(r.location) if r.is_boundary
             else K.tangent_gradient(r.location))
        assert np.linalg.norm(g) < 1e-13


def multiplier_scan(b, Q, count=200000):
    """Critical points of x -> b.x + x.Q.x on the unit sphere, found without
    the enumeration's eigendecomposition: sign changes of |x(mu)|^2 - 1 over a
    dense grid of Lagrange multipliers, x(mu) = (mu - Q)^{-1} b / 2 from
    direct solves, plus every coordinate pole with vanishing gradient.  This
    is complete when the eigenvector-branch roots (b orthogonal to an
    eigenspace) all lie on coordinate poles, as for the fields tested here."""
    dim = len(b)

    def lift(mus):
        rhs = np.broadcast_to(b / 2.0, (len(mus), dim))[..., None]
        return np.linalg.solve(mus[:, None, None] * np.eye(dim) - Q, rhs)[..., 0]

    reach = 1.1 * (np.linalg.norm(Q, 2) + np.linalg.norm(b))  # bounds |mu|
    mus = np.linspace(-reach, reach, count)
    phi = np.sum(lift(mus) ** 2, axis=1) - 1.0
    k = np.flatnonzero((phi[:-1] < 0) != (phi[1:] < 0))
    # linear interpolation inside each bracket, then one more solve
    xs = list(lift(mus[k] - phi[k] * (mus[k + 1] - mus[k]) / (phi[k + 1] - phi[k])))
    for e in np.concatenate([np.eye(dim), -np.eye(dim)]):
        g = b + 2.0 * Q @ e
        if np.linalg.norm(g - (g @ e) * e) < 1e-12:
            xs.append(e)
    roots = []
    for x in xs:
        x = x / np.linalg.norm(x)
        if all(np.linalg.norm(x - y) > 1e-6 for y in roots):
            roots.append(x)
    return roots


@pytest.fixture(scope="module")
def linear_records():
    return find_critical_points(field_linear(), 8)


@pytest.fixture(scope="module")
def diag_records():
    return find_critical_points(field_diag(), 8)


class TestLinearField:
    def test_exactly_two_roots_on_equator(self, linear_records):
        assert len(linear_records) == 2
        locs = sorted(tuple(np.round(r.location.coords, 8)) for r in linear_records)
        assert np.allclose(locs[0], -E[0])
        assert np.allclose(locs[1], E[0])
        assert all(r.is_boundary for r in linear_records)

    def test_laplacian_values(self, linear_records):
        # coordinate restrictions satisfy lap x1 = -n x1
        for r in linear_records:
            expected = -N * 0.05 * r.location.coords[0]
            assert abs(r.laplacian - expected) < 1e-10

    def test_classification(self, linear_records):
        families = classify(linear_records)
        assert len(families["K_b_0_minus"]) == 1
        assert np.allclose(families["K_b_0_minus"][0].location.coords, E[0])
        assert len(families["K_infinity"]) == 1
        assert len(families["K_b_plus"]) == 0  # field independent of the height
        assert len(families["other"]) == 1

    def test_morse_index_of_trace_maximum(self, linear_records):
        top = max(linear_records, key=lambda r: r.value)
        assert top.morse_index == N - 1
        assert top.is_local_max()
        assert top.iota(N) == 0

    def test_gradient_norm_small(self, linear_records):
        K = field_linear()
        for r in linear_records:
            assert np.linalg.norm(K.boundary_gradient(r.location)) <= 1e-9


class TestDegenerateField:
    def test_constant_raises(self):
        with pytest.raises(DegenerateCriticalPoint):
            find_critical_points(ScalarField.constant(N), 8)

    @pytest.mark.parametrize("terms", [
        [("x1^2", 0.02), ("x2^2", 0.02), ("x3^2", 0.03)],  # circle in the x1-x2 plane
        [("x6^2", 0.02)],                                   # the whole equator
        # eigh splits the repeated eigenvalue by rounding
        rotated_terms([0.01, 0.03, 0.03, 0.05, 0.07, 0.09], seed=3),
    ], ids=["equal_x1_x2", "x6_only", "rotated_repeated"])
    def test_continuum_raises(self, terms):
        with pytest.raises(DegenerateCriticalPoint, match="continuum"):
            find_critical_points(ScalarField(N, 1.0, terms), 8)

    def test_continuum_below_equator_is_outside_the_domain(self):
        # x2^2 and x3^2 share their coefficient and the linear terms avoid
        # both, so a circle of critical points spans e2, e3 at a negative
        # height; the closed upper hemisphere keeps ten isolated ones
        K = ScalarField(N, 1.0, [
            ("x1", 0.01), ("x6", -0.01), ("x1^2", 0.04), ("x2^2", 0.04), ("x3^2", 0.04),
            ("x4^2", 0.05), ("x5^2", -0.05), ("x6^2", 0.03), ("x1*x6", 0.02)])
        with pytest.raises(DegenerateCriticalPoint, match="continuum"):
            landscape._sphere_critical_points(K.linear, K.quadratic)
        records = find_critical_points(K, 8)
        assert len(records) == 10
        assert_critical(K, records)

    def test_seed_floor(self):
        with pytest.raises(ValueError):
            find_critical_points(field_linear(), 4)


class TestCraftedQuadratic:
    @pytest.mark.parametrize("make_field", [
        field_diag, field_boundary_max, field_interior_min, field_h3_quadratic_flat,
        field_general], ids=lambda make: make.__name__)
    def test_full_root_list_against_grid_scan(self, make_field):
        # the scan and the enumeration agree root for root, on the equator
        # (trace) and in the open hemisphere (full field)
        K = make_field()
        records = find_critical_points(K, 8)
        trace = [r.location.coords[:N] for r in records if r.is_boundary]
        inner = [r.location.coords for r in records if not r.is_boundary]
        scan_trace = multiplier_scan(K.linear[:N], K.quadratic[:N, :N])
        # roots on the equator belong to the trace search
        scan_inner = [x for x in multiplier_scan(K.linear, K.quadratic) if x[-1] > 1e-6]
        for found, scanned in ((trace, scan_trace), (inner, scan_inner)):
            assert len(found) == len(scanned)
            for x in found:
                assert min(np.linalg.norm(x - y) for y in scanned) < 1e-4
            for y in scanned:
                assert min(np.linalg.norm(x - y) for x in found) < 1e-4
        assert_critical(K, records)

    def test_seed_arguments_do_not_change_records(self):
        K = field_general()
        first = [r.to_json() for r in find_critical_points(K, 8, seed=1)]
        assert first == [r.to_json() for r in find_critical_points(K, 12, seed=7)]

    def test_expected_count_and_kinds(self, diag_records):
        assert len(diag_records) == 11
        boundary = [r for r in diag_records if r.is_boundary]
        interior = [r for r in diag_records if not r.is_boundary]
        assert len(boundary) == 10 and len(interior) == 1
        assert np.allclose(np.abs(interior[0].location.coords), E[-1])
        assert interior[0].morse_index == N
        assert interior[0].classification == "K_in_minus"

    def test_admissible_families(self, diag_records):
        families = classify(diag_records)
        assert len(families["K_b_0_minus"]) == 2
        assert len(families["K_in_minus"]) == 1
        assert len(families["K_infinity"]) == 3


class TestAssumptions:
    def test_linear_field_satisfies_all(self, linear_records):
        rep = check_assumptions(linear_records, field_linear())
        assert rep.all_hold()
        assert rep.violations == []
        # the field has no height dependence: both branch reports hold with
        # the ratio chain identically zero
        for info in rep.h3_branches.values():
            assert info["branch_i"] and info["branch_ii"]
            assert max(info["ratios"]) == 0.0

    def test_boundary_max_field(self):
        K = field_boundary_max()
        recs = find_critical_points(K, 8)
        rep = check_assumptions(recs, K)
        assert rep.all_hold()
        families = classify(recs)
        assert len(families["K_b_plus"]) == 1
        assert families["K_b_plus"][0].is_local_max()

    def test_non_maximum_with_positive_normal_derivative_violates(self):
        # tilting the height linearly makes the trace minimum carry a
        # positive outward derivative
        K = ScalarField(N, 1.0, [("x1", 0.05), ("x6", -0.02)])
        recs = find_critical_points(K, 8)
        rep = check_assumptions(recs, K)
        assert not rep.h2
        assert any("non-maximum" in v for v in rep.violations)

    def test_quadratically_flat_normal_derivative_branch(self):
        K = field_h3_quadratic_flat()
        recs = find_critical_points(K, 8)
        rep = check_assumptions(recs, K)
        assert rep.h3
        z_key = tuple(np.round(E[0], 6))
        info = rep.h3_branches[z_key]
        assert info["branch_ii"]
        ratios = info["ratios"]
        assert ratios[-1] <= 0.01 * ratios[0] + 1e-12
        # the sampled ratio scales linearly with the radius
        assert ratios[1] < 0.75 * ratios[0]


class TestClassification:
    def test_positive_rescale_invariance(self, diag_records):
        K = field_diag()
        for t in (0.5, 3.0):
            K2 = ScalarField(N, t * K.kappa0, [
                (m["monomial"], t * m["coeff"]) for m in K.to_config()["terms"]])
            recs2 = find_critical_points(K2, 8)
            f1 = classify(diag_records)
            f2 = classify(recs2)
            for key in ("K_in_minus", "K_b_plus", "K_b_0_minus"):
                assert len(f1[key]) == len(f2[key])

    def test_dead_band_raises(self):
        with pytest.raises(AmbiguousSign):
            _classify_boundary(5e-9, -1.0)

    def test_exact_zero_and_clear_signs(self):
        assert _classify_boundary(0.0, -1.0) == "K_b_0_minus"
        assert _classify_boundary(0.0, 1.0) == "other"
        assert _classify_boundary(0.5, -1.0) == "K_b_plus"
        assert _classify_boundary(-0.5, -1.0) == "other"


class TestIndexSums:
    def test_equator_euler_characteristic(self, linear_records, diag_records):
        expected = 1 + (-1) ** (N - 1)
        assert poincare_hopf_boundary(linear_records, N) == expected
        assert poincare_hopf_boundary(diag_records, N) == expected

    def test_incomplete_root_list_raises(self, monkeypatch):
        enumerate_roots = landscape._sphere_critical_points
        monkeypatch.setattr(landscape, "_sphere_critical_points",
                            lambda b, Q, **kw: enumerate_roots(b, Q, **kw)[:-1])
        with pytest.raises(DegenerateCriticalPoint, match="Poincare-Hopf"):
            find_critical_points(field_diag(), 8)

    def test_interior_tally_reported(self, diag_records):
        assert hemisphere_index_tally(diag_records) == (-1) ** N


class TestSerialization:
    def test_roundtrip_reverifies_gradient(self, tmp_path, diag_records):
        path = tmp_path / "records.json"
        save_records(diag_records, path)
        K = field_diag()
        loaded = load_records(path)
        assert len(loaded) == len(diag_records)
        for r in loaded:
            g = (K.boundary_gradient(r.location) if r.is_boundary
                 else K.tangent_gradient(r.location))
            assert np.linalg.norm(g) <= 1e-9

    def test_json_fields(self, linear_records):
        doc = linear_records[0].to_json()
        back = CriticalPointRecord.from_json(json.loads(json.dumps(doc)))
        assert back.kind == linear_records[0].kind
        assert back.morse_index == linear_records[0].morse_index
        assert np.allclose(back.location.coords, linear_records[0].location.coords)
