import itertools
import math

import numpy as np
import pytest

from hemiflow.census import (_alternating_sums, admissible_boundary, a1_boundary_set,
                             census_report, counting_A,
                             counting_A_closed_forms, counting_B,
                             counting_B_closed_form, entry_index, entry_level, level_terms,
                             enumerate_census, existence_check,
                             level_bands, pinch_threshold)
from hemiflow.config import mass_limit
from hemiflow.constants import compute_constants
from hemiflow.landscape import (CriticalPointRecord, check_assumptions, classify,
                                find_critical_points)
from hemiflow.oracles import brute_force_alternating_sums

from hemiflow.fields import ScalarField

from _fixtures import (N, field_all_positive_laplacian, field_boundary_max,
                       field_diag, field_linear, random_field)


@pytest.fixture(scope="module")
def s_n():
    return compute_constants(N).s_n


@pytest.fixture(scope="module")
def diag_setup():
    K = field_diag()
    records = find_critical_points(K, 8)
    report = check_assumptions(records, K)
    kmin, kmax = K.min_max(10)
    return K, records, report, kmin, kmax


class TestLevelBands:
    def test_constant_field_bands_collapse(self, s_n):
        bands, plain, deform = level_bands(1.0, 1.0, s_n, N, 3)
        for band in bands:
            assert band.lo == band.hi == (band.mass * s_n) ** (2.0 / N)

    def test_consecutive_floor_ratio(self, s_n):
        bands, _, _ = level_bands(0.9, 1.2, s_n, N, 4)
        for a, b in zip(bands[:-1], bands[1:]):
            assert abs(b.lo / a.lo - ((a.mass + 1) / a.mass) ** (2.0 / N)) < 1e-12

    def test_small_pinch_keeps_four_bands_apart(self, s_n):
        bands, plain, deform = level_bands(1.0, 1.05, s_n, N, 4)
        assert all(deform)
        assert 1.05 < pinch_threshold(4, N) < 1.08

    def test_threshold_values(self):
        assert abs(pinch_threshold(1, N) - 2 ** (1 / 3)) < 1e-15
        assert abs(pinch_threshold(2, N) - 1.5 ** (1 / 3)) < 1e-15
        assert abs(pinch_threshold(4, N) - 1.25 ** (1 / 3)) < 1e-15

    def test_deformation_disjointness_matches_threshold(self, s_n):
        for ell in (1, 2, 3):
            thr = pinch_threshold(ell, N)
            for pinch, expected in ((thr * 0.999, True), (thr * 1.001, False)):
                bands, _, deform = level_bands(1.0, pinch, s_n, N, ell + 1)
                assert deform[ell - 1] == expected


class TestCensus:
    def test_single_admissible_point(self, s_n):
        records = find_critical_points(field_linear(), 8)
        census = enumerate_census(records, 4, s_n, N)
        assert len(census) == 1
        entry = census[0]
        assert entry.q == 1 and entry.p == 0
        assert entry.index == 0  # trace maximum: q+p-1 + (n-1 - (n-1))
        k_val = records[0].value if records[0].value > 1 else records[1].value
        assert abs(entry.level - s_n ** (2 / N) * k_val ** (-(N - 2) / 2 * 2 / N)) < 1e-10

    def test_empty_census(self, s_n):
        # no admissible record at all: the enumeration is empty (for genuine
        # positive fields the hemisphere maximum always contributes, so this
        # only arises on synthetic inputs)
        assert enumerate_census([], 4, s_n, N) == []
        # and a field whose equator points all carry positive Laplacian
        # contributes no boundary entries
        records = find_critical_points(field_all_positive_laplacian(), 8)
        adm = admissible_boundary(records)
        census = enumerate_census(records, 2, s_n, N)
        boundary_entries = [e for e in census if e.q > 0]
        assert adm == [] and boundary_entries == []

    def test_exhaustive_subset_oracle(self, diag_setup, s_n):
        K, records, report, kmin, kmax = diag_setup
        census = enumerate_census(records, 4, s_n, N)
        adm = admissible_boundary(records)
        inn = classify(records)["K_in_minus"]
        expected = []
        for q in range(len(adm) + 1):
            for p in range(len(inn) + 1):
                if q + p < 1 or q + 2 * p > 4:
                    continue
                for zs in itertools.combinations(range(len(adm)), q):
                    for ys in itertools.combinations(range(len(inn)), p):
                        expected.append((q, p))
        assert len(census) == len(expected) == 7
        for entry in census:
            band_lo = (entry.mass * s_n) ** (2 / N) / kmax ** ((N - 2) / N)
            band_hi = (entry.mass * s_n) ** (2 / N) / kmin ** ((N - 2) / N)
            assert band_lo <= entry.level <= band_hi
            assert entry.index == entry_index([r.iota(N) for r in entry.boundary_points],
                                              [r.iota(N) for r in entry.interior_points])
            assert abs(entry.level - entry_level(level_terms(entry.boundary_points, N),
                                                 level_terms(entry.interior_points, N),
                                                 s_n, N)) < 1e-12

    def test_sorted_by_level_and_no_repeats(self, diag_setup, s_n):
        K, records, *_ = diag_setup
        census = enumerate_census(records, 4, s_n, N)
        levels = [e.level for e in census]
        assert levels == sorted(levels)
        for entry in census:
            keys = [tuple(np.round(r.location.coords, 9))
                    for r in entry.boundary_points + entry.interior_points]
            assert len(set(keys)) == len(keys)

    def test_non_maximum_plus_points_excluded_but_counted(self):
        # a trace minimum with positive outward derivative sits in the sign
        # set (first alternating sum) but never in the census
        K = ScalarField(N, 1.0, [("x1", 0.05), ("x6", -0.02)])
        records = find_critical_points(K, 8)
        sign_set = a1_boundary_set(records)
        adm = admissible_boundary(records)
        non_max_plus = [r for r in sign_set
                        if r.classification == "K_b_plus" and not r.is_local_max()]
        assert len(non_max_plus) == 1
        assert len(sign_set) == len(adm) + 1
        assert all(r.is_local_max() for r in adm if r.classification == "K_b_plus")

    def test_sign_set_equals_admissible_under_trace_conditions(self):
        # when the non-maximum sign condition holds the two sets coincide
        K = field_boundary_max()
        records = find_critical_points(K, 8)
        assert len(a1_boundary_set(records)) == len(admissible_boundary(records))


class TestHomology:
    def test_degree_equals_index(self, diag_setup, s_n):
        # crossing an entry's level adds one generator in degree entry.index,
        # which the census computes from the entry's own points
        K, records, *_ = diag_setup
        census = enumerate_census(records, 4, s_n, N)
        for entry in census:
            assert entry.index == entry_index([r.iota(N) for r in entry.boundary_points],
                                              [r.iota(N) for r in entry.interior_points])

    def test_mixed_collection_arithmetic(self):
        # two trace points with indices 4 and 3 plus one interior with 5:
        # degree = (3 - 1) + (4-4) + (4-3) + (5-5) = 3
        class Rec:
            iota = CriticalPointRecord.iota

            def __init__(self, morse, boundary, value=1.0):
                self.morse_index = morse
                self.value = value
                self.is_boundary = boundary
        z1, z2 = Rec(4, True), Rec(3, True)
        y = Rec(5, False)
        assert entry_index([z1.iota(N), z2.iota(N)], [y.iota(N)]) == 3


def chi_below(census, level: float, bands) -> int:
    """Alternating index sum over the entries strictly below a gap level;
    inside a band the sum has no topological meaning."""
    assert not any(band.lo <= level <= band.hi for band in bands)
    return int(sum((-1) ** e.index for e in census if e.level < level))


class TestChiBelow:
    def test_empty_below_everything(self, diag_setup, s_n):
        K, records, report, kmin, kmax = diag_setup
        census = enumerate_census(records, 4, s_n, N)
        bands, _, _ = level_bands(kmin, kmax, s_n, N, 4)
        low = bands[0].lo * 0.5
        assert chi_below(census, low, bands) == 0

    def test_gap_above_first_band_equals_first_sum(self, diag_setup, s_n):
        K, records, report, kmin, kmax = diag_setup
        census = enumerate_census(records, 4, s_n, N)
        bands, _, _ = level_bands(kmin, kmax, s_n, N, 4)
        gap = 0.5 * (bands[0].hi + bands[1].lo)
        adm = admissible_boundary(records)
        a1 = counting_A([N - 1 - r.morse_index for r in adm])[0]
        assert chi_below(census, gap, bands) == a1 == 2

    def test_gap_above_second_band_cross_check(self, diag_setup, s_n):
        K, records, report, kmin, kmax = diag_setup
        census = enumerate_census(records, 4, s_n, N)
        bands, _, _ = level_bands(kmin, kmax, s_n, N, 4)
        gap = 0.5 * (bands[1].hi + bands[2].lo)
        direct = sum((-1) ** e.index for e in census if e.level < gap)
        adm = admissible_boundary(records)
        inn = classify(records)["K_in_minus"]
        a1, a2, _, _ = counting_A([N - 1 - r.morse_index for r in adm])
        b1, _ = counting_B([N - r.morse_index for r in inn])
        assert chi_below(census, gap, bands) == direct == a1 - a2 + b1


class TestCountingFormulas:
    def test_known_small_cases(self):
        a1, a2, a3, a4 = counting_A([0, 0, 1])
        assert (a1, a2, a3, a4) == (1, -1, -1, 0)
        assert counting_A([0, 0, 0, 1, 1])[3] == 1

    def test_empty_sums(self):
        assert counting_B([]) == (0, 0)
        assert counting_A([]) == (0, 0, 0, 0)

    def test_two_point_mixed_parity(self):
        b1, b2 = counting_B([2, 1])
        assert b1 == 0 and b2 == -1

    def test_closed_forms_against_enumeration(self):
        for length in range(1, 13):
            for odd in range(length + 1):
                idx = [0] * (length - odd) + [1] * odd
                a1, a2, a3, a4 = counting_A(idx)
                assert a2 == brute_force_alternating_sums(idx, 2)
                assert a3 == brute_force_alternating_sums(idx, 3)
                assert a4 == brute_force_alternating_sums(idx, 4)
                if a1 == 1:
                    k = odd
                    assert (a2, a3, a4) == counting_A_closed_forms(k)
                    assert length == 2 * k + 1
                b1, b2 = counting_B(idx)
                if b1 <= 0:
                    k = -b1
                    r = (length - k) // 2
                    if length == 2 * r + k:
                        assert b2 == counting_B_closed_form(k, r)

    def test_random_lists_match_brute_force(self):
        # every length 0..14, negative indices included
        rng = np.random.default_rng(17)
        for t in range(2100):
            idx = rng.integers(-7, 8, size=t % 15).tolist()
            sums = tuple(brute_force_alternating_sums(idx, depth) for depth in range(1, 5))
            assert counting_A(idx) == sums
            assert counting_B(idx) == sums[:2]

    def test_recurrence_matches_the_binomial_double_sum(self):
        # the coefficient of t^k in (1 + t)^even (1 - t)^odd, summed term by term
        for length in range(31):
            for odd in range(length + 1):
                idx = [2] * (length - odd) + [1] * odd
                for depth in range(1, 5):
                    want = tuple(sum((-1) ** j * math.comb(odd, j) * math.comb(length - odd, k - j)
                                     for j in range(k + 1)) for k in range(1, depth + 1))
                    assert _alternating_sums(idx, depth) == want


class TestExistence:
    def test_diag_field_concludes(self, diag_setup):
        K, records, report, kmin, kmax = diag_setup
        verdict, table = existence_check(records, report, kmin, kmax, N)
        assert verdict.conclusion == "solution_exists"
        assert verdict.theorem == "T1_2"
        assert table["T1_1"].conclusion == "solution_exists"
        assert table["T1_3"].conclusion == "inconclusive"

    def test_linear_field_inconclusive(self):
        K = field_linear()
        records = find_critical_points(K, 8)
        report = check_assumptions(records, K)
        kmin, kmax = K.min_max(10)
        verdict, table = existence_check(records, report, kmin, kmax, N)
        assert verdict.conclusion == "inconclusive"
        # only one admissible point and the interior sum hits the forbidden value
        assert table["T1_1"].hypotheses["at_least_two_admissible"]["value"] == 1
        assert table["T1_2"].hypotheses["A1_not_one"]["value"] == 1
        assert table["T1_3"].hypotheses["B1_not_minus_k"]["value"] == 0

    def test_empty_sign_set_concludes(self):
        K = field_all_positive_laplacian()
        records = find_critical_points(K, 8)
        report = check_assumptions(records, K)
        kmin, kmax = K.min_max(10)
        verdict, _ = existence_check(records, report, kmin, kmax, N)
        assert verdict.theorem == "T1_2"
        assert verdict.conclusion == "solution_exists"
        assert verdict.hypotheses["A1_not_one"]["value"] == 0

    def test_threshold_strictness(self, diag_setup):
        K, records, report, kmin, kmax = diag_setup
        kmax_at = kmin * pinch_threshold(1, N)
        _, table = existence_check(records, report, kmin, kmax_at, N)
        verdict = table["T1_2"]
        assert verdict.conclusion == "inconclusive"
        assert not verdict.hypotheses["pinch_below_threshold"]["holds"]

    def test_report_bundle(self, diag_setup, s_n):
        K, records, report, kmin, kmax = diag_setup
        doc = census_report(records, report, kmin, kmax, s_n, N, mass_max=4)
        assert len(doc["census"]) == 7
        assert doc["A"][0] == 2
        assert doc["B"][0] == 1
        assert doc["verdict"]["conclusion"] == "solution_exists"
        assert doc["sign_set_minus_admissible"] == 0
        thr = doc["theorems"]["T1_2"]["hypotheses"]["pinch_below_threshold"]["threshold"]
        assert thr == pinch_threshold(1, N)

    @pytest.mark.parametrize("make", [field_diag, field_linear, field_all_positive_laplacian,
                                      field_boundary_max])
    def test_report_classifies_once(self, make, s_n, monkeypatch):
        import hemiflow.census as census_mod
        import hemiflow.landscape as landscape_mod
        K = make()
        records = find_critical_points(K, 8)
        report = check_assumptions(records, K)
        kmin, kmax = K.min_max(10)
        verdict, table = existence_check(records, report, kmin, kmax, N)
        bset = a1_boundary_set(records)
        calls = []

        def counted(fn):
            def wrapper(recs):
                calls.append(fn.__name__)
                return fn(recs)
            return wrapper

        monkeypatch.setattr(landscape_mod, "classify", counted(classify))
        monkeypatch.setattr(census_mod, "a1_boundary_set", counted(a1_boundary_set))
        doc = census_report(records, report, kmin, kmax, s_n, N, mass_max=4)
        assert sorted(calls) == ["a1_boundary_set", "classify"]
        # the document the public pieces give, one by one
        interior = classify(records)["K_in_minus"]
        assert doc["A"] == list(counting_A([N - 1 - r.morse_index for r in bset]))
        assert doc["B"] == list(counting_B([N - r.morse_index for r in interior]))
        assert doc["a1_set_size"] == len(bset)
        assert doc["census"] == [e.to_json() for e in enumerate_census(records, 4, s_n, N)]
        assert doc["verdict"] == verdict.to_json()
        assert doc["theorems"] == {k: v.to_json() for k, v in table.items()}


class TestCountingProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=12))
    def test_alternating_sums_match_enumeration(self, indices):
        a1, a2, a3, a4 = counting_A(indices)
        assert a1 == brute_force_alternating_sums(indices, 1)
        assert a2 == brute_force_alternating_sums(indices, 2)
        assert a3 == brute_force_alternating_sums(indices, 3)
        assert a4 == brute_force_alternating_sums(indices, 4)
        b1, b2 = counting_B(indices)
        assert b1 == a1 and b2 == a2

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=12))
    def test_closed_forms_under_their_hypotheses(self, indices):
        a1, a2, a3, a4 = counting_A(indices)
        if a1 == 1:
            k = sum(1 for i in indices if i % 2 == 1)
            assert (a2, a3, a4) == counting_A_closed_forms(k)
        b1, b2 = counting_B(indices)
        if b1 <= 0:
            k = -b1
            r = (len(indices) - k) // 2
            if len(indices) == 2 * r + k:
                assert b2 == counting_B_closed_form(k, r)


def test_mass_limit_bounds_every_census_entry():
    # the premise of config.mass_limit: at most 2n critical points of the
    # trace and 2(n+1) of K on the sphere, so no entry outweighs 6n + 4
    rng = np.random.default_rng(26)
    for n in (5, 6, 7):
        for _ in range(20):
            records = find_critical_points(random_field(rng, n))
            boundary = sum(r.is_boundary for r in records)
            assert boundary <= 2 * n and len(records) - boundary <= 2 * (n + 1)
            assert boundary + 2 * (len(records) - boundary) <= mass_limit(n) == 6 * n + 4
