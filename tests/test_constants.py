import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma

from hemiflow import constants
from hemiflow.constants import (ConstantsTable, c2_interaction_constant, closed_forms,
                                compute_constants, radial_moment)
from hemiflow.errors import ConfigError, ToleranceNotMet
from hemiflow.oracles import (c2_scheme_crosscheck, flat_bubble_pde_residual, flat_epsilon,
                              flat_two_bubble_overlap)


@pytest.fixture(scope="module")
def table5():
    return compute_constants(5, 1e-8)


class TestClosedFormAgreement:
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_every_entry(self, n):
        table = compute_constants(n, 1e-8)
        closed = closed_forms(n)
        for key, ref in closed.items():
            assert abs(table.values[key] - ref) <= 1e-6 * abs(ref), key

    def test_radial_core_value(self):
        # int_0^inf r^{n-1} (1+r^2)^{-n} dr at n = 5
        val = 0.5 * gamma(2.5) ** 2 / gamma(5.0)
        assert abs(val - 0.0368155) < 5e-7

    def test_normalization_constant(self, table5):
        assert abs(table5.c0 - 15.0 ** 0.75) < 1e-14

    def test_positive_entries(self, table5):
        for key in ("s_n", "c0", "c2", "c4", "c5", "c6", "c7"):
            assert table5.values[key] > 0

    def test_error_estimates_within_tolerance(self, table5):
        for key, err in table5.errors.items():
            assert err <= 1e-8 * max(1.0, abs(table5.values[key]))

    def test_gradient_level_link(self, table5):
        # the squared-norm constant and the tangential point-gradient unit
        # are tied: s_n = 2 n^2 c5 / (n - 2)
        assert abs(table5.s_n - 2 * 25 * table5.c5 / 3) < 1e-9 * table5.s_n


class TestToleranceWindow:
    """Every dimension/tolerance pair the run configuration accepts yields a
    table within the requested tolerance of the closed forms."""

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10, 12])
    def test_table_returned(self, n, tol):
        table = compute_constants(n, tol)
        for key, ref in closed_forms(n).items():
            assert table.errors[key] <= tol * max(1.0, abs(table.values[key])), key
            assert abs(table.values[key] - ref) <= tol * max(1.0, abs(ref)), key


class TestRadialQuadrature:
    def test_kronrod_and_gauss_rules_exact_on_polynomials(self):
        # qk15's Kronrod rule is exact to degree 22 and its Gauss rule to 13
        lo, hi = np.array([0.0]), np.array([1.0])
        for deg in range(23):
            val, _, _ = constants._gk15(lambda x: x ** deg, lo, hi)
            assert abs(val[0] - 1.0 / (deg + 1)) <= 1e-15, deg
        half = 0.5 * (constants._NODES + 1.0)
        for deg in range(14):
            assert abs(0.5 * constants._GAUSS @ half ** deg - 1.0 / (deg + 1)) <= 1e-15, deg

    @pytest.mark.parametrize("n, weight, power", [(5, 0, 5.0), (6, 3, 6.0), (8, 1, 6.5),
                                                  (12, 2, 13.0)])
    def test_against_scipy_quad(self, n, weight, power):
        val, err = radial_moment(n, weight, power, 1e-10)
        ref, _ = integrate.quad(lambda r: r ** (n - 1 + weight) * (1.0 + r * r) ** -power,
                                0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        assert abs(val - ref) <= 1e-13 * ref
        assert err <= 1e-12 * ref

    def test_closed_form_moment(self):
        # int_0^inf r^{n-1+w} (1+r^2)^{-p} dr = B((n+w)/2, p-(n+w)/2) / 2
        n, w, p = 7, 3, 9.0
        s = (n + w) / 2.0
        ref = 0.5 * math.gamma(s) * math.gamma(p - s) / math.gamma(p)
        val, err = radial_moment(n, w, p, 1e-12)
        assert abs(val - ref) <= 1e-14 * ref
        assert err <= 1e-13 * ref

    def test_panel_cap_raises(self, monkeypatch):
        monkeypatch.setattr(constants, "_MAX_PANELS", 3)
        with pytest.raises(ToleranceNotMet, match="panels"):
            radial_moment(16, 0, 16.0, 1e-12)


class TestProfileEquation:
    def test_residual_at_random_points(self):
        rng = np.random.default_rng(77)
        res = flat_bubble_pde_residual(5, rng.uniform(0.3, 3.0, 100))
        assert res <= 1e-8


class TestInteractionConstant:
    def test_two_schemes_agree(self, table5):
        assert abs(table5.c2 - c2_scheme_crosscheck(5, 24)) < 1e-7 * table5.c2

    def test_doubling_resolution_stable(self, table5):
        a = c2_scheme_crosscheck(5, 24)
        b = c2_scheme_crosscheck(5, 48)
        assert abs(a - b) <= max(1e-12 * abs(a), 1e-7)

    def test_positive(self, table5):
        assert c2_interaction_constant(5) > 0

    def test_against_two_profile_overlap(self, table5):
        # direct overlap integral over flat space at rate 50, separation 0.5
        val = flat_two_bubble_overlap(5, 50.0, 50.0, 0.5, tol=1e-9)
        eps = flat_epsilon(5, 50.0, 50.0, 0.5)
        assert abs(val / eps - table5.c2) <= 0.03 * table5.c2


class TestTableBehavior:
    def test_cache_returns_same_object(self):
        assert compute_constants(5, 1e-8) is compute_constants(5, 1e-8)

    def test_json_roundtrip(self, table5):
        doc = table5.to_json()
        back = ConstantsTable.from_json(doc)
        assert back.values == table5.values
        assert back.version == table5.version
        assert back.derived_entries() == ["c9"]

    def test_report_text_mentions_derived(self, table5):
        text = table5.report_text()
        assert "c9" in text and "(derived)" in text
        assert table5.version in text

    def test_dimension_validation(self):
        with pytest.raises(ConfigError):
            compute_constants(4, 1e-8)

    def test_tolerance_window(self):
        with pytest.raises(ConfigError):
            compute_constants(5, 1e-2)
        with pytest.raises(ConfigError):
            compute_constants(5, 1e-14)

    def test_doubling_quadrature_within_reported_errors(self):
        t1 = compute_constants(5, 1e-8)
        t2 = compute_constants(5, 1e-10)
        for key in t1.values:
            tol = max(t1.errors[key], t2.errors[key], 1e-12 * abs(t1.values[key]))
            assert abs(t1.values[key] - t2.values[key]) <= 10 * tol + 1e-13
