import json

import numpy as np
import pytest

from hemiflow import fields, landscape
from hemiflow.census import census_report, existence_check
from hemiflow.constants import compute_constants
from hemiflow.errors import AmbiguousSign, DegenerateCriticalPoint
from hemiflow.fields import ScalarField, SphereRoots
from hemiflow.geometry import BoundarySpherePoint, SpherePoint, tangent_basis
from hemiflow.landscape import (_classify_boundary,
                                check_assumptions, classify, find_critical_points,
                                hemisphere_index_tally,
                                poincare_hopf_boundary, save_records)

from _fixtures import (E, N, field_all_positive_laplacian, field_boundary_max, field_diag,
                       field_h3_quadratic_flat, field_interior_min, field_linear)

README_TERMS = [("x1^2", 0.05), ("x2^2", 0.01), ("x3^2", 0.015), ("x4^2", 0.02),
                ("x5^2", 0.025), ("x6^2", 0.06)]

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


def bisect(g, a, b):
    """Sign change of a monotone g between a (where g <= 0) and b (where
    g > 0), in either order, to adjacent floats; a and b are never evaluated."""
    while True:
        mid = 0.5 * (a + b)
        if mid in (a, b):
            return mid
        if g(mid) <= 0.0:
            a = mid
        else:
            b = mid


def bisection_roots(p, s):
    """The secular roots by scalar bisection, one float at a time: one root
    beyond each outer pole, and two in a gap where f is <= 0 at the root of f'."""
    p, s = [float(v) for v in p], [float(v) for v in s]

    def f(mu):
        return sum(sk / (mu - pk) ** 2 for sk, pk in zip(s, p)) - 1.0

    def df(mu):
        return -2.0 * sum(sk / (mu - pk) ** 3 for sk, pk in zip(s, p))

    reach = 2.0 * np.sqrt(sum(s))
    mus = [bisect(f, p[0] - reach, p[0]), bisect(f, p[-1] + reach, p[-1])]
    for lo, hi in zip(p[:-1], p[1:]):
        m = bisect(df, lo, hi)
        if f(m) <= 0.0:
            mus += [bisect(f, m, lo), bisect(f, m, hi)]
    return np.sort(mus)


def bisection_critical_points(b, Q):
    """The enumeration with every secular root found by bisection: same
    clusters and eigenvector branches, no eigenvalue solve for the roots."""
    w, V = np.linalg.eigh(Q)
    c = V.T @ b / 2.0
    tol = 1e-12 * max(float(np.abs(w).max()), float(np.linalg.norm(c)))
    labels = np.concatenate([[0], np.cumsum(np.diff(w) > tol)])
    poles = np.bincount(labels, w) / np.bincount(labels)
    weights = np.bincount(labels, c * c)
    active = weights > tol * tol
    live = active[labels]

    def lift(mu):
        y = np.zeros_like(c)
        y[live] = c[live] / (mu - poles[labels[live]])
        return y

    mus = bisection_roots(poles[active], weights[active]) if active.any() else []
    ys, tops = [lift(mu) for mu in mus], []
    for g in np.flatnonzero(~active):
        y = lift(poles[g])
        r2 = 1.0 - float(y @ y)
        if r2 <= 0.0:
            continue
        members = np.flatnonzero(labels == g)
        if len(members) >= 2:
            up = V[-1, members]
            y[members] = np.sqrt(r2) * (up / np.linalg.norm(up) if up.any()
                                        else np.eye(len(members))[0])
            tops.append(y)
            continue
        for sign in (1.0, -1.0):
            ys.append(y.copy())
            ys[-1][members[0]] = sign * np.sqrt(r2)
    return SphereRoots(*(np.array([V @ (y / np.linalg.norm(y)) for y in rows]).reshape(-1, len(b))
                         for rows in (ys, tops)))


def bisection_landscape(K, monkeypatch):
    """A fresh copy of K whose spheres are enumerated by the bisection
    oracle, and the list of (b, Q) dimensions the oracle ran on.  A fresh
    field keeps the enumeration K already holds from answering instead."""
    ran = []

    def oracle(b, Q):
        ran.append(len(b))
        return bisection_critical_points(b, Q)

    monkeypatch.setattr(fields, "sphere_critical_points", oracle)
    return ScalarField.from_config(K.to_config()), ran


def random_field(rng, n):
    """Distinct diagonal terms, small linear terms along every axis and two
    cross terms (the benchmark's landscape family, any n)."""
    diag = 0.01 * (1.0 + 0.8 * np.arange(n + 1) + rng.uniform(0.0, 0.4, n + 1))
    rng.shuffle(diag)
    terms = [(f"x{i+1}^2", float(c)) for i, c in enumerate(diag)]
    terms += [(f"x{i+1}", float(c)) for i, c in enumerate(rng.uniform(-0.01, 0.01, n + 1))]
    for _ in range(2):
        i, j = sorted(int(k) for k in rng.choice(n + 1, 2, replace=False))
        terms.append((f"x{i+1}*x{j+1}", float(rng.uniform(-0.005, 0.005))))
    return ScalarField(n, 1.0, terms)


def near_tangent_trace(eps, t=0.8):
    """Trace with poles 0.01 < 0.03 and weights t^3 s, s, s = g^2 (1 - eps)/(1 + t)^3:
    at eps = 0 the secular function touches zero in the gap between them,
    so eps > 0 puts two roots about 0.01 sqrt(eps) apart there."""
    s = 0.02 ** 2 * (1.0 - eps) / (1.0 + t) ** 3
    return ScalarField(N, 1.0, [
        ("x1", 2.0 * np.sqrt(t ** 3 * s)), ("x2", 2.0 * np.sqrt(s)), ("x1^2", 0.01),
        ("x2^2", 0.03), ("x3^2", 0.05), ("x4^2", -0.02), ("x5^2", 0.07), ("x6^2", 0.04)])


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
            find_critical_points(ScalarField(N, 1.0), 8)

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
        # the enumeration reports the circle by its highest point, below the
        # equator
        tops = fields.sphere_critical_points(K.linear, K.quadratic).tops
        assert len(tops) == 1 and tops[0, -1] < 0.0
        records = find_critical_points(K, 8)
        assert len(records) == 10
        assert_critical(K, records)

    @pytest.mark.parametrize("terms, extrema", [
        ([("x1^2", 0.02), ("x2^2", 0.02), ("x3^2", 0.03)], (1.0, 1.03)),
        ([("x6^2", 0.02)], (1.0, 1.02)),
        (rotated_terms([0.01, 0.03, 0.03, 0.05, 0.07, 0.09], seed=3), (1.01, 1.09)),
    ], ids=["equal_x1_x2", "x6_only", "rotated_repeated"])
    def test_min_max_on_a_continuum(self, terms, extrema):
        # K is even, so its extrema over the sphere, 1 + the least and greatest
        # eigenvalues of Q, are also taken on the closed upper hemisphere
        kmin, kmax = ScalarField(N, 1.0, terms).min_max()
        assert abs(kmin - extrema[0]) <= 1e-14
        assert abs(kmax - extrema[1]) <= 1e-14

    def test_min_max_with_a_continuum_below_the_equator(self):
        K = ScalarField(N, 1.0, [
            ("x1", 0.01), ("x6", -0.01), ("x1^2", 0.04), ("x2^2", 0.04), ("x3^2", 0.04),
            ("x4^2", 0.05), ("x5^2", -0.05), ("x6^2", 0.03), ("x1*x6", 0.02)])
        kmin, kmax = K.min_max()
        # the extrema over the closed hemisphere sit at critical points of K
        # or of its trace, and no sample beats them
        values = [r.value for r in find_critical_points(K, 8)]
        assert (kmin, kmax) == (min(values), max(values))
        pts = np.random.default_rng(5).standard_normal((100_000, N + 1))
        pts[:, -1] = np.abs(pts[:, -1])
        sampled = K.value(pts / np.linalg.norm(pts, axis=1, keepdims=True))
        assert kmin <= sampled.min() < kmin + 1e-3
        assert kmax - 1e-3 < sampled.max() <= kmax

    def test_double_trace_root_just_off_an_axis_is_reported_degenerate(self):
        # the trace has a double secular root at e1 + 1.26e-8 e3, where the
        # tangent basis must stay tangent for the Hessian to come out singular
        K = ScalarField(N, 1.0, [
            ("x1^2", -0.01), ("x2^2", 0.01), ("x3^2", -0.01), ("x3", 0.03), ("x5^2", -0.04),
            ("x6^2", -0.02), ("x6", -0.03), ("x1*x3", -0.03)])
        with pytest.raises(DegenerateCriticalPoint, match="degenerate boundary critical point"):
            find_critical_points(K, 8)

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


class TestSecularSolve:
    """The eigenvalue-seeded secular roots against scalar bisection."""

    def test_roots_match_bisection(self):
        rng = np.random.default_rng(10)
        for i in range(200):
            K = random_field(rng, 5 + i % 4)
            n = K.n
            for b, Q, floor in ((K.linear, K.quadratic, 1e-9),
                                (K.linear[:n], K.quadratic[:n, :n], None)):
                # distinct eigenvalues and no zero weight: each eigenvalue of Q
                # is a pole of its own
                w, V = np.linalg.eigh(Q)
                s = (V.T @ b / 2.0) ** 2
                assert np.all(np.diff(w) > 1e-6) and np.all(s > 1e-20)
                got, want = np.sort(fields._secular_roots(w, s)), bisection_roots(w, s)
                assert len(got) == len(want)
                assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
                roots, oracle = (fields.sphere_critical_points(b, Q),
                                 bisection_critical_points(b, Q))
                assert len(roots.points) == len(oracle.points)
                assert len(roots.tops) == len(oracle.tops) == 0
                if floor is not None:
                    assert (np.sum(roots.points[:, -1] > floor)
                            == np.sum(oracle.points[:, -1] > floor))

    @pytest.mark.parametrize("make_field", [
        field_linear, field_boundary_max, field_interior_min, field_diag,
        lambda: ScalarField(N, 1.0, README_TERMS)],
        ids=["linear", "boundary_max", "interior_min", "diag", "readme"])
    def test_records_match_bisection(self, make_field, monkeypatch):
        K = make_field()
        records = find_critical_points(K, 8)
        fresh, ran = bisection_landscape(K, monkeypatch)
        expected = find_critical_points(fresh, 8)
        assert ran == [K.n + 1, K.n]
        assert len(records) == len(expected)
        for got, want in zip(records, expected):
            assert ((got.kind, got.morse_index, got.classification)
                    == (want.kind, want.morse_index, want.classification))
            assert np.max(np.abs(got.location.coords - want.location.coords)) <= 1e-13

    def test_near_tangent_pair_is_reported_degenerate(self, monkeypatch):
        # two trace roots 1e-9 apart in the multiplier: a near double root
        K = near_tangent_trace(1e-14)
        with pytest.raises(DegenerateCriticalPoint, match="degenerate boundary critical point"):
            find_critical_points(K, 8)
        fresh, ran = bisection_landscape(K, monkeypatch)
        with pytest.raises(DegenerateCriticalPoint, match="degenerate boundary critical point"):
            find_critical_points(fresh, 8)
        assert ran == [N + 1, N]

    def test_close_separable_pair_is_returned(self, monkeypatch):
        # two trace roots 1e-7 apart in the multiplier, both nondegenerate
        K = near_tangent_trace(1e-10)
        records = find_critical_points(K, 8)
        assert len(records) == 11 and sum(r.is_boundary for r in records) == 10
        assert_critical(K, records)
        fresh, ran = bisection_landscape(K, monkeypatch)
        expected = find_critical_points(fresh, 8)
        assert ran == [N + 1, N]
        assert [r.morse_index for r in records] == [r.morse_index for r in expected]
        for got, want in zip(records, expected):
            assert np.max(np.abs(got.location.coords - want.location.coords)) <= 1e-9

    def test_readme_extrema_are_exact(self):
        assert ScalarField(N, 1.0, README_TERMS).min_max() == (1.01, 1.06)


# landscape_sweep inputs (n = 5 and 6) with a trace root whose normal
# derivative lies in [ZERO_TOL, DEAD_BAND * ZERO_TOL)
DEAD_BAND_FIELDS = {
    "n5_other": {"dimension": 5, "kappa0": 1.0, "terms": [
        {"monomial": "x1", "coeff": 0.006826440299938086},
        {"monomial": "x2", "coeff": -0.009608032339267013},
        {"monomial": "x3", "coeff": -0.007265376039488501},
        {"monomial": "x4", "coeff": 0.0006683608012561411},
        {"monomial": "x5", "coeff": 0.008141870401044233},
        {"monomial": "x6", "coeff": 0.0019137062965600832},
        {"monomial": "x1^2", "coeff": 0.019647040468365632},
        {"monomial": "x2^2", "coeff": 0.045263894393621946},
        {"monomial": "x3^2", "coeff": 0.029057964657992593},
        {"monomial": "x3*x5", "coeff": 0.0029329356792290326},
        {"monomial": "x3*x6", "coeff": 0.0022053227778989163},
        {"monomial": "x4^2", "coeff": 0.011678636317928372},
        {"monomial": "x5^2", "coeff": 0.05344723642087496},
        {"monomial": "x6^2", "coeff": 0.03620866352620946}]},
    "n6_plus": {"dimension": 6, "kappa0": 1.0, "terms": [
        {"monomial": "x1", "coeff": 0.007507982462482301},
        {"monomial": "x2", "coeff": -0.0038378088561717653},
        {"monomial": "x3", "coeff": -0.0038558811308444007},
        {"monomial": "x4", "coeff": 0.0081667052231777},
        {"monomial": "x5", "coeff": -0.008790698293625013},
        {"monomial": "x6", "coeff": -0.007502630147841541},
        {"monomial": "x7", "coeff": -0.000604889554397697},
        {"monomial": "x1^2", "coeff": 0.06120111808973436},
        {"monomial": "x1*x3", "coeff": 0.0007854261499539508},
        {"monomial": "x2^2", "coeff": 0.026076688503827297},
        {"monomial": "x3^2", "coeff": 0.03627649680863728},
        {"monomial": "x4^2", "coeff": 0.021745736393177385},
        {"monomial": "x5^2", "coeff": 0.05313703042645017},
        {"monomial": "x5*x7", "coeff": 0.0006567495553970763},
        {"monomial": "x6^2", "coeff": 0.010344872638410359},
        {"monomial": "x7^2", "coeff": 0.043155090114344284}]},
}


def per_record_oracle(K):
    """The records' fields, one root at a time: Gram-Schmidt tangent bases,
    single-point Hessians and the per-point calculus, sorted as
    ``find_critical_points`` sorts.  Rows are (coords, kind, index, class,
    value, Laplacian, normal derivative, eigenvalues)."""
    n = K.n
    inner = fields.sphere_critical_points(K.linear, K.quadratic).points
    roots = [(v, False) for v in inner[inner[:, -1] > 1e-9]]
    roots += [(np.append(z, 0.0), True) for z in fields.sphere_critical_points(
        K.linear[:n], K.quadratic[:n, :n]).points]
    rows = []
    for v, on_equator in roots:
        if on_equator:
            hess = K.boundary_hessian(v, tangent_basis(v, within_equator=True))
            nu = K.normal_derivative(v)
        else:
            hess = K.tangent_hessian(v, tangent_basis(v))
            nu = None
        evals = np.linalg.eigvalsh(hess)
        lap = K.laplace_beltrami(v)
        cls = (_classify_boundary(nu, lap) if on_equator
               else "K_in_minus" if lap < 0 else "other")
        rows.append((v, "boundary_of_K1" if on_equator else "interior_of_K",
                     int(np.sum(evals < 0)), cls, K.value(v), lap, nu, evals))
    rows.sort(key=lambda row: tuple(np.round(row[0], 9)))
    return rows


class TestBatchedRecords:
    """The records built in one batched classification pass for both
    spheres (the interior roots, then the trace roots) against the
    per-record classification."""

    @staticmethod
    def assert_matches_oracle(K):
        records = find_critical_points(K, 8)
        rows = per_record_oracle(K)
        assert len(records) == len(rows)
        for r, (v, kind, index, cls, value, lap, nu, evals) in zip(records, rows):
            assert np.array_equal(r.location.coords, v)
            assert (r.kind, r.morse_index, r.classification) == (kind, index, cls)
            assert (r.value, r.laplacian, r.normal_derivative) == (value, lap, nu)
            got = np.array(r.hessian_eigenvalues)
            assert np.all(np.abs(got - evals) <= 1e-12 * np.abs(evals))

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_random_fields_match_the_per_record_loop(self, n):
        rng = np.random.default_rng(130 + n)
        for _ in range(70):
            self.assert_matches_oracle(random_field(rng, n))

    @pytest.mark.parametrize("make_field", [
        field_linear, field_diag, field_all_positive_laplacian, field_boundary_max,
        field_interior_min, field_h3_quadratic_flat, field_general,
        lambda: ScalarField(N, 1.0, README_TERMS)],
        ids=["linear", "diag", "all_positive_laplacian", "boundary_max", "interior_min",
             "h3_quadratic_flat", "general", "readme"])
    def test_fixture_fields_match_the_per_record_loop(self, make_field):
        # roots on coordinate axes, where the tangent bases are exact
        self.assert_matches_oracle(make_field())

    def test_degenerate_message_writes_plain_coordinates(self):
        K = near_tangent_trace(1e-14)
        with pytest.raises(DegenerateCriticalPoint) as info:
            find_critical_points(K, 8)
        message = str(info.value)
        assert "np.float64" not in message and "\n" not in message
        coords = json.loads(message.split(" at ", 1)[1])
        assert len(coords) == N + 1 and abs(np.linalg.norm(coords) - 1.0) < 1e-12


class TestAssumptions:
    def test_linear_field_satisfies_all(self, linear_records):
        rep = check_assumptions(linear_records, field_linear())
        assert rep.h1 and rep.h2 and rep.h3
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
        assert rep.h1 and rep.h2 and rep.h3
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

    def test_violation_messages_write_plain_coordinates(self):
        # a generic tilt: the trace minimum sits off every axis, so its
        # coordinates need full precision to parse back
        K = ScalarField(N, 1.0, [("x1", 0.05), ("x2", 0.03), ("x6", -0.02)])
        recs = find_critical_points(K, 8)
        rep = check_assumptions(recs, K)
        message = next(v for v in rep.violations if v.startswith("H2: non-maximum"))
        assert "np.float64" not in message and "\n" not in message
        coords = json.loads(message.split(" at ", 1)[1])
        assert any(coords == r.to_json()["location"] for r in recs if not r.is_local_max())

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


def per_sample_h3_chains(records, K, ball_radius=0.05, samples=200, seed=99):
    """H3 by sampling: `samples` random points on each sphere, one
    single-point call each.  A sample cannot exceed the exact supremum."""
    rng = np.random.default_rng(seed)
    out = {}
    for r in records:
        if not r.is_boundary or abs(r.normal_derivative) >= landscape.ZERO_TOL:
            continue
        z = r.location.coords
        basis = tangent_basis(z, within_equator=True)
        branch_i, chain = True, []
        for radius in [ball_radius / 2**k for k in range(8)]:
            worst = 0.0
            for _ in range(samples):
                u = rng.standard_normal(len(basis))
                u /= np.linalg.norm(u)
                a = np.cos(radius) * z + np.sin(radius) * (u @ basis)
                a /= np.linalg.norm(a)
                nu = K.normal_derivative(a)
                if nu * r.laplacian > 1e-12:
                    branch_i = False
                worst = max(worst, abs(nu) / radius)
            chain.append(worst)
        out[tuple(np.round(z, 6))] = (branch_i, chain)
    return out


# the README field, the same with dK/dnu != 0 at the roots +-e1 (|w_T| > 0 at
# the other trace roots), and one whose mean over each sphere is off zero too
H3_FIELDS = {
    "readme": README_TERMS,
    "tilted": README_TERMS + [("x1*x6", 0.02)],
    "offset": README_TERMS + [("x6", 0.01), ("x1*x6", -0.01), ("x2*x6", 0.02)],
}


class TestH3ExactSupremum:
    @pytest.mark.parametrize("terms, count", [(H3_FIELDS["readme"], 10),
                                              (H3_FIELDS["tilted"], 8)], ids=["readme", "tilted"])
    def test_exact_ratios_bound_the_sampled_ones(self, terms, count):
        K = ScalarField(N, 1.0, terms)
        recs = find_critical_points(K, 8)
        rep = check_assumptions(recs, K)
        sampled = per_sample_h3_chains(recs, K)
        assert len(sampled) == count
        assert rep.h3_branches.keys() == sampled.keys()
        for key, (branch_i, chain) in sampled.items():
            info = rep.h3_branches[key]
            assert info["branch_i"] == branch_i
            assert info["branch_ii"] == (chain[-1] <= max(0.01 * chain[0], 1e-12))
            assert len(info["ratios"]) == len(chain)
            assert all(exact >= seen for exact, seen in zip(info["ratios"], chain))

    def test_readme_ratios_are_exactly_zero(self):
        K = ScalarField(N, 1.0, H3_FIELDS["readme"])
        rep = check_assumptions(find_critical_points(K, 8), K)
        assert rep.h3
        for info in rep.h3_branches.values():
            assert info["branch_i"] and info["branch_ii"]
            assert info["ratios"] == [0.0] * 8

    @pytest.mark.parametrize("name", ["tilted", "offset"])
    def test_ratio_is_attained_at_the_witness(self, name):
        K = ScalarField(N, 1.0, H3_FIELDS[name])
        recs = find_critical_points(K, 8)
        rep = check_assumptions(recs, K)
        w = -2.0 * K.quadratic[-1]
        seen = 0
        for r in recs:
            key = tuple(np.round(r.location.coords, 6))
            if key not in rep.h3_branches:
                continue
            seen += 1
            z = r.location.coords
            basis = tangent_basis(z, within_equator=True)
            u = basis @ w / np.linalg.norm(basis @ w)
            for k, ratio in enumerate(rep.h3_branches[key]["ratios"]):
                radius = 0.05 / 2**k
                best = max(abs(K.normal_derivative(np.cos(radius) * z + np.sin(radius) * (s * u @ basis)))
                           for s in (1.0, -1.0)) / radius
                assert ratio == pytest.approx(best, rel=1e-12, abs=0.0)
        assert seen == len(rep.h3_branches) > 0


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

    @pytest.mark.parametrize("config, nu, classification", [
        (DEAD_BAND_FIELDS["n5_other"], -3.270607147306051e-09, "other"),
        (DEAD_BAND_FIELDS["n6_plus"], 6.7318037308807324e-09, "K_b_plus"),
    ], ids=["n5_other", "n6_plus"])
    def test_normal_derivative_far_outside_its_error_classifies(self, config, nu,
                                                                 classification):
        # |dK/dnu| is a few ZERO_TOL at one trace root, with an error near
        # 1e-17: the sign is certain, so the field classifies
        K = ScalarField.from_config(config)
        records = find_critical_points(K, 8)
        assert poincare_hopf_boundary(records, K.n) == 1 + (-1) ** (K.n - 1)
        near = [r for r in records if r.is_boundary
                and landscape.ZERO_TOL <= abs(r.normal_derivative) < 1e-8]
        assert [(r.normal_derivative, r.classification) for r in near] == [(nu, classification)]
        r = near[0]
        error = landscape._normal_derivative_error(
            K, r.location.coords[None], np.array([r.hessian_eigenvalues]))[0]
        assert 0.0 < error < 1e-16

    @staticmethod
    def field_with_normal_derivative(target):
        """field_general with its x6 coefficient set so that dK/dnu at its
        first trace root z is the least float >= target; x6 leaves the trace
        K_1, its roots and their Hessians unchanged.  Returns the field, z and
        the error bound of dK/dnu at z."""
        base = field_general()
        r = next(r for r in find_critical_points(base, 8) if r.is_boundary)
        z = r.location.coords
        terms = [(t["monomial"], t["coeff"]) for t in base.to_config()["terms"]
                 if t["monomial"] != f"x{N + 1}"]
        b = -target - 2.0 * base.quadratic[-1] @ z
        for _ in range(100):
            K = ScalarField(N, 1.0, terms + [(f"x{N + 1}", b)])
            if K.normal_derivative(z) >= target:
                break
            b = np.nextafter(b, -np.inf)
        error = landscape._normal_derivative_error(K, z[None], np.array([r.hessian_eigenvalues]))
        return K, z, float(error[0])

    def test_root_within_the_error_of_zero_tol_raises(self):
        K, z, error = self.field_with_normal_derivative(landscape.ZERO_TOL)
        assert error > 0.0
        assert landscape.ZERO_TOL <= K.normal_derivative(z) < landscape.ZERO_TOL + error
        with pytest.raises(AmbiguousSign, match="dead band"):
            find_critical_points(K, 8)

    def test_root_beyond_the_error_of_zero_tol_classifies(self):
        _, _, error = self.field_with_normal_derivative(landscape.ZERO_TOL)
        K, z, error = self.field_with_normal_derivative(landscape.ZERO_TOL + 4.0 * error)
        nu = K.normal_derivative(z)
        assert landscape.ZERO_TOL + error <= nu < landscape.DEAD_BAND * landscape.ZERO_TOL
        (r,) = [r for r in find_critical_points(K, 8) if np.array_equal(r.location.coords, z)]
        assert (r.normal_derivative, r.classification) == (nu, "K_b_plus")
        # without an error bound the whole band stays ambiguous
        with pytest.raises(AmbiguousSign):
            _classify_boundary(nu, r.laplacian)

    def test_normal_sign_agrees_with_the_classification(self):
        # one sign per boundary record, consistent with its stored class and
        # left out of the record's JSON
        signs = set()
        for K in (field_linear(), field_diag(), field_boundary_max(), field_h3_quadratic_flat(),
                  field_interior_min(), ScalarField(N, 1.0, README_TERMS)):
            for r in find_critical_points(K):
                assert "normal_sign" not in r.to_json()
                if not r.is_boundary:
                    assert r.normal_sign is None
                    continue
                nu = r.normal_derivative
                assert r.normal_sign == (0 if abs(nu) < landscape.ZERO_TOL else np.sign(nu))
                if r.classification == "K_b_plus":
                    assert r.normal_sign == 1
                elif r.classification == "K_b_0_minus":
                    assert r.normal_sign == 0 and r.laplacian < 0
                signs.add(r.normal_sign)
        assert signs == {-1, 0, 1}

    def test_exact_zero_and_clear_signs(self):
        assert _classify_boundary(0.0, -1.0) == "K_b_0_minus"
        assert _classify_boundary(0.0, 1.0) == "other"
        assert _classify_boundary(0.5, -1.0) == "K_b_plus"
        assert _classify_boundary(-0.5, -1.0) == "other"


class TestOneEnumerationPerField:
    @pytest.mark.parametrize("terms", [
        README_TERMS,
        # the coefficient bound fails, so the constructor asks for the extrema
        [("x1", 0.6), ("x2", 0.6)],
    ], ids=["readme", "constructor_extrema"])
    def test_each_sphere_is_enumerated_once(self, monkeypatch, terms):
        enumerate_roots = fields.sphere_critical_points
        ran = []

        def counted(b, Q):
            ran.append(len(b))
            return enumerate_roots(b, Q)

        monkeypatch.setattr(fields, "sphere_critical_points", counted)
        K = ScalarField(N, 1.0, terms)
        records = find_critical_points(K, 8)
        report = check_assumptions(records, K)
        kmin, kmax = K.min_max()
        census_report(records, report, kmin, kmax, compute_constants(N).s_n, N)
        existence_check(records, report, kmin, kmax, N)
        assert find_critical_points(K, 8) == records and K.min_max() == (kmin, kmax)
        assert ran == [N + 1, N]

    def test_kept_roots_are_read_only(self):
        K = field_general()
        for roots in K.sphere_roots:
            for rows in roots:
                with pytest.raises(ValueError, match="read-only"):
                    rows[...] = 0.0


class TestOneClassificationPass:
    @pytest.mark.parametrize("make_field", [field_general, field_diag, field_linear],
                             ids=["general", "diag", "linear"])
    def test_one_batch_per_field(self, monkeypatch, make_field):
        # the interior and the trace roots share one Hessian, value and
        # Laplacian call; the trace Hessian is a block of the sphere's
        K = make_field()
        K.sphere_roots
        calls = []
        for name in ("tangent_hessian", "boundary_hessian", "value", "laplace_beltrami",
                     "normal_derivative"):
            def counted(self, *args, _name=name, _method=getattr(ScalarField, name), **kw):
                calls.append(_name)
                return _method(self, *args, **kw)
            monkeypatch.setattr(ScalarField, name, counted)
        find_critical_points(K, 8)
        assert sorted(calls) == ["laplace_beltrami", "normal_derivative", "tangent_hessian",
                                 "value"]


class TestIndexSums:
    def test_equator_euler_characteristic(self, linear_records, diag_records):
        expected = 1 + (-1) ** (N - 1)
        assert poincare_hopf_boundary(linear_records, N) == expected
        assert poincare_hopf_boundary(diag_records, N) == expected

    def test_incomplete_root_list_raises(self, monkeypatch):
        enumerate_roots = fields.sphere_critical_points

        def drop_last(b, Q):
            roots = enumerate_roots(b, Q)
            return roots._replace(points=roots.points[:-1])

        monkeypatch.setattr(fields, "sphere_critical_points", drop_last)
        with pytest.raises(DegenerateCriticalPoint, match="Poincare-Hopf"):
            find_critical_points(field_diag(), 8)

    def test_interior_tally_reported(self, diag_records):
        assert hemisphere_index_tally(diag_records) == (-1) ** N


class TestSerialization:
    def test_roundtrip_reverifies_gradient(self, tmp_path, diag_records):
        path = tmp_path / "records.json"
        save_records(diag_records, path)
        K = field_diag()
        docs = json.loads(path.read_text())
        assert docs == [r.to_json() for r in diag_records]
        for doc in docs:
            if doc["kind"] == "boundary_of_K1":
                g = K.boundary_gradient(BoundarySpherePoint(doc["location"]))
            else:
                g = K.tangent_gradient(SpherePoint(doc["location"]))
            assert np.linalg.norm(g) <= 1e-9

    def test_json_fields(self, linear_records):
        back = json.loads(json.dumps(linear_records[0].to_json()))
        assert back["kind"] == linear_records[0].kind
        assert back["morse_index"] == linear_records[0].morse_index
        assert np.allclose(back["location"], linear_records[0].location.coords)
