"""The landscape op against the form it had before its array passes were
trimmed (``tests/_landscape_reference.py``).  Sphere roots, extrema,
records, census entries, census documents and verdicts must agree bit for
bit, on seeded random fields of each dimension 5, 6, 7 (the benchmark's
recipe) and on the crafted fields, continua included."""

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
from hemiflow.errors import DomainError
from hemiflow.fields import ScalarField
from hemiflow.landscape import check_assumptions, find_critical_points

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
                  r.morse_index, r.value, r.laplacian, r.normal_derivative, r.nondegenerate,
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
