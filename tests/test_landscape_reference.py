"""The landscape op against the form it had before its array passes were
trimmed (``tests/_landscape_reference.py``).  Sphere roots, extrema,
records, census entries, census documents and verdicts must agree bit for
bit, on seeded random fields of each dimension 5, 6, 7 (the benchmark's
recipe) and on the crafted fields, continua included.  The records of the
one classification pass must also equal those of the two per-sphere passes,
and a field that raises must raise the same error with the same message,
also at n = 8 and 10 and on fields built to raise."""

import copy
import json
import re

import numpy as np
import pytest

import _landscape_reference as ref
from _fixtures import (field_all_positive_laplacian, field_boundary_max, field_diag,
                       field_h3_quadratic_flat, field_interior_min, field_linear, random_field)
from hemiflow.census import census_report, enumerate_census
from hemiflow.constants import compute_constants
from hemiflow.errors import AmbiguousSign, DegenerateCriticalPoint, DomainError
from hemiflow.fields import ScalarField
from hemiflow.landscape import ZERO_TOL, check_assumptions, find_critical_points

FIELDS_PER_DIMENSION = 110

CRAFTED = (field_linear, field_diag, field_all_positive_laplacian, field_boundary_max,
           field_interior_min, field_h3_quadratic_flat)

# repeated eigenvalues: continua of critical points on either sphere
CONTINUA = (
    [("x1^2", 0.01), ("x2^2", 0.01), ("x3^2", 0.02)],
    [("x6", 0.05)],
    [("x1^2", 0.02), ("x2^2", 0.02), ("x6^2", 0.02), ("x3", 0.004)],
    [("x2^2", 0.03), ("x3^2", 0.03), ("x1", 0.01), ("x6", -0.01)],
    [("x2^2", 0.02), ("x3^2", 0.02), ("x4^2", 0.02), ("x1", 0.005)],
)


def with_roots(K: ScalarField, roots) -> ScalarField:
    """A copy of K whose kept enumeration is ``roots``."""
    twin = copy.copy(K)
    twin.__dict__["sphere_roots"] = roots
    return twin


def record_bits(records) -> list:
    # repr tells -0.0 from 0.0 and prints every bit of a float
    return [repr((type(r.location).__name__, r.location.coords.tobytes(), r.kind,
                  r.morse_index, r.value, r.laplacian, r.normal_derivative,
                  r.classification, r.hessian_eigenvalues)) for r in records]


def entry_bits(entries) -> list:
    return [repr((e.level, e.index, e.mass,
                  [r.location.coords.tobytes() for r in (*e.boundary_points, *e.interior_points)]))
            for e in entries]


def assert_matches_reference(K: ScalarField, label: str):
    expected = ref.sphere_roots(K)
    for got, want in zip(K.sphere_roots, expected):
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), label
            assert not a.flags.writeable, label
    assert repr(K.min_max()) == repr(ref.min_max(K, expected)), label

    twin = with_roots(K, expected)
    try:
        records = find_critical_points(K)
    except DomainError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            find_critical_points(twin)
        return
    twin_records = find_critical_points(twin)
    assert record_bits(records) == record_bits(twin_records), label

    n = K.n
    s_n = compute_constants(n, 1e-8).s_n
    kmin, kmax = K.min_max()
    assert entry_bits(enumerate_census(records, 4, s_n, n)) == \
        entry_bits(ref.enumerate_census(twin_records, 4, s_n, n)), label
    report = check_assumptions(records, K)
    doc = census_report(records, report, kmin, kmax, s_n, n, mass_max=4)
    want = ref.census_report(twin_records, check_assumptions(twin_records, twin),
                             kmin, kmax, s_n, n, mass_max=4)
    assert json.dumps(doc, sort_keys=True) == json.dumps(want, sort_keys=True), label


@pytest.mark.parametrize("n", [5, 6, 7])
def test_random_fields_bit_for_bit(n):
    for i in range(FIELDS_PER_DIMENSION):
        assert_matches_reference(random_field(np.random.default_rng([22, n, i]), n),
                                 f"n = {n}, field {i}")


@pytest.mark.parametrize("make", CRAFTED, ids=lambda f: f.__name__)
def test_crafted_fields_bit_for_bit(make):
    assert_matches_reference(make(), make.__name__)


@pytest.mark.parametrize("terms", CONTINUA, ids=str)
def test_continua_bit_for_bit(terms):
    K = ScalarField(5, 1.0, terms)
    assert len(K.sphere_roots[0].tops) + len(K.sphere_roots[1].tops) > 0
    assert_matches_reference(K, str(terms))


def assert_matches_the_per_sphere_passes(K: ScalarField, label: str):
    try:
        want = ref.find_critical_points(K)
    except DomainError as exc:
        with pytest.raises(DomainError) as info:
            find_critical_points(K)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc)), label
        return
    assert record_bits(find_critical_points(K)) == record_bits(want), label


def near_double_root(interior: bool) -> ScalarField:
    """Two secular roots about 1e-9 apart in the multiplier, in the plane of
    x1 and a partner axis: x2 puts them on the trace, x6 above the equator."""
    t, s = 0.8, 0.02 ** 2 * (1.0 - 1e-14) / 1.8 ** 3
    partner, other, sign = ("x6", "x2", -1.0) if interior else ("x2", "x6", 1.0)
    return ScalarField(5, 1.0, [
        ("x1", 2.0 * np.sqrt(t ** 3 * s)), (partner, sign * 2.0 * np.sqrt(s)),
        ("x1^2", 0.01), (f"{partner}^2", 0.03), ("x3^2", 0.05), ("x4^2", -0.02),
        ("x5^2", 0.07), (f"{other}^2", 0.04)])


def at_zero_tol(K: ScalarField) -> ScalarField:
    """K with its x_{n+1} coefficient set so that dK/dnu at its first trace
    root is the least float >= ZERO_TOL; the trace and its roots stay."""
    n = K.n
    z = np.append(K.sphere_roots[1].points[0], 0.0)
    terms = [(t["monomial"], t["coeff"]) for t in K.to_config()["terms"]
             if t["monomial"] != f"x{n + 1}"]
    b = -ZERO_TOL - 2.0 * K.quadratic[-1] @ z
    for _ in range(100):
        twin = ScalarField(n, K.kappa0, terms + [(f"x{n + 1}", b)])
        if twin.normal_derivative(z) >= ZERO_TOL:
            return twin
        b = np.nextafter(b, -np.inf)
    raise AssertionError("no coefficient puts dK/dnu at ZERO_TOL")


@pytest.mark.parametrize("n", [5, 6, 7, 8, 10])
def test_random_fields_match_the_per_sphere_passes(n):
    count = FIELDS_PER_DIMENSION if n <= 7 else 40
    for i in range(count):
        assert_matches_the_per_sphere_passes(
            random_field(np.random.default_rng([22, n, i]), n), f"n = {n}, field {i}")


@pytest.mark.parametrize("make", CRAFTED, ids=lambda f: f.__name__)
def test_crafted_fields_match_the_per_sphere_passes(make):
    assert_matches_the_per_sphere_passes(make(), make.__name__)


@pytest.mark.parametrize("terms", CONTINUA, ids=str)
def test_continua_match_the_per_sphere_passes(terms):
    assert_matches_the_per_sphere_passes(ScalarField(5, 1.0, terms), str(terms))


@pytest.mark.parametrize("make, error, where", [
    (lambda: near_double_root(False), DegenerateCriticalPoint, "degenerate boundary"),
    (lambda: near_double_root(True), DegenerateCriticalPoint, "degenerate interior"),
    (lambda: at_zero_tol(random_field(np.random.default_rng([22, 5, 0]), 5)),
     AmbiguousSign, "dead band"),
    (lambda: at_zero_tol(random_field(np.random.default_rng([22, 8, 0]), 8)),
     AmbiguousSign, "dead band"),
], ids=["boundary_double_root", "interior_double_root", "dead_band_n5", "dead_band_n8"])
def test_errors_match_the_per_sphere_passes(make, error, where):
    K = make()
    with pytest.raises(error, match=where):
        find_critical_points(K)
    assert_matches_the_per_sphere_passes(K, where)
