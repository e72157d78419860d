import math

import mpmath
import numpy as np
import pytest
from scipy.special import gamma

from hemiflow.constants import N_MAX, ConstantsTable, compute_constants
from hemiflow.errors import ConfigError, ToleranceNotMet
from hemiflow.oracles import (flat_bubble_pde_residual, flat_epsilon, flat_two_bubble_overlap,
                              radial_gauss_constants)


@pytest.fixture(scope="module")
def table5():
    return compute_constants(5, 1e-8)


def _beta_forms(n):
    """Every entry at 50 digits from the Beta forms of its defining
    integrals, differences and all (the constants module docstring)."""
    with mpmath.workdps(50):
        n = mpmath.mpf(n)
        cp = (n * (n - 2)) ** (n / 2)
        g = lambda p: mpmath.pi ** (n / 2) * mpmath.gamma(p - n / 2) / mpmath.gamma(p)
        x = lambda p: (mpmath.pi ** ((n - 1) / 2) * mpmath.gamma(p - (n + 1) / 2)
                       / (2 * mpmath.gamma(p)))
        return {
            "c0": (n * (n - 2)) ** ((n - 2) / 4),
            "s_n": cp * g(n) / 2,
            "c2": cp * g((n + 2) / 2),
            "c3": (n - 2) / 2 * cp * (x(n) - 2 * x(n + 1)),
            "c4": (n - 2) * cp * x(n + 1),
            "c5": (n - 2) / (2 * n**2) * cp * (g(n) - g(n + 1)),
            "c6": (n - 2) / (2 * n**2) * cp * (g(n - 1) - g(n)),
            "c7": 2 * (n - 2) / n * cp * x(n),
            "c9": (n - 2) / (8 * n) * cp * (g(n - 1) - 3 * g(n) + 2 * g(n + 1)),
        }


class TestClosedFormAgreement:
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_every_entry(self, n):
        # the table against the independent Gauss-Legendre route
        table = compute_constants(n, 1e-8)
        for key, ref in radial_gauss_constants(n).items():
            assert abs(table.values[key] - ref) <= 1e-6 * abs(ref), key

    def test_every_entry_within_its_rounding_bound(self):
        # every dimension the table accepts, against 50-digit values
        for n in range(5, N_MAX + 1):
            table = compute_constants(n, 1e-8)
            for key, ref in _beta_forms(n).items():
                with mpmath.workdps(50):
                    err = abs(mpmath.mpf(table.values[key]) - ref)
                assert err <= table.errors[key], (n, key, float(err / abs(ref)))

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
    table within the requested tolerance of the Gauss-Legendre route."""

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10, 12])
    def test_table_returned(self, n, tol):
        table = compute_constants(n, tol)
        for key, ref in radial_gauss_constants(n).items():
            assert table.errors[key] <= tol * max(1.0, abs(table.values[key])), key
            assert abs(table.values[key] - ref) <= tol * max(1.0, abs(ref)), key


class TestGaussLegendreRoute:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10, 92])
    def test_agrees_with_the_table(self, n):
        # the trig form of the integrand overflows no power, up to n = 92
        table = compute_constants(n, 1e-8)
        for key, val in radial_gauss_constants(n).items():
            assert abs(val - table.values[key]) <= 1e-14 * abs(table.values[key]), (n, key)


class TestProfileEquation:
    def test_residual_at_random_points(self):
        rng = np.random.default_rng(77)
        res, _ = flat_bubble_pde_residual(5, rng.uniform(0.3, 3.0, 100))
        assert res.max() <= 1e-8


class TestInteractionConstant:
    def test_two_schemes_agree(self, table5):
        assert abs(table5.c2 - radial_gauss_constants(5)["c2"]) < 1e-7 * table5.c2

    def test_doubling_resolution_stable(self, table5):
        a = radial_gauss_constants(5, 48)["c2"]
        b = radial_gauss_constants(5, 96)["c2"]
        assert abs(a - b) <= max(1e-12 * abs(a), 1e-7)

    def test_positive(self, table5):
        assert table5.c2 > 0

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

    @pytest.mark.parametrize("n", [93, 120, 144])
    def test_constants_beyond_the_float_range_refused(self, n):
        # the rounding bounds are certified up to n = 92; cp itself leaves
        # the float range from n = 144
        with pytest.raises(ToleranceNotMet, match=f"certified for dimensions up to 92, got {n}"):
            compute_constants(n, 1e-8)
        assert compute_constants(92, 1e-8).c2 < math.inf

    def test_tolerance_window(self):
        with pytest.raises(ConfigError):
            compute_constants(5, 1e-2)
        with pytest.raises(ConfigError):
            compute_constants(5, 1e-14)
