"""Tests for the principal washout eigenvalue solver."""

import numpy as np
import pytest

import flocstat as fs
from flocstat.operators import operator_bands

from oracles import EIGENVALUE_BY_DIFFUSIVITY, shooting_eigenvalue


class TestSolvePrincipal:
    @pytest.mark.parametrize("d", [0.05, 0.1, 0.5, 1.0, 10.0])
    def test_matches_closed_form(self, d):
        """FD eigenvalue converges to the closed-form transcendental root."""
        pair = fs.solve_principal(d, n=801)
        exact = EIGENVALUE_BY_DIFFUSIVITY[d]
        assert pair.value == pytest.approx(exact, rel=5e-5)

    def test_frozen_value_at_standard_grid(self):
        """Regression pin: d = 0.1 on the 401-point grid."""
        pair = fs.solve_principal(0.1, n=401)
        assert pair.value == pytest.approx(3.021909481416619, rel=1e-9)

    def test_shooting_cross_check(self):
        """Independent shooting integration agrees with the discrete value."""
        d = 0.5
        pair = fs.solve_principal(d, n=1601)
        assert pair.value == pytest.approx(shooting_eigenvalue(d), rel=2e-6)

    def test_second_order_convergence(self):
        d = 0.1
        exact = EIGENVALUE_BY_DIFFUSIVITY[d]
        err_coarse = abs(fs.solve_principal(d, n=101).value - exact)
        err_fine = abs(fs.solve_principal(d, n=401).value - exact)
        order = np.log(err_coarse / err_fine) / np.log(4.0)
        assert order > 1.9

    def test_eigenfunction_positive_normalized(self):
        pair = fs.solve_principal(0.2, n=201)
        assert np.min(pair.function) > 0.0
        assert np.max(pair.function) == pytest.approx(1.0, abs=1e-14)

    def test_eigen_residual_small(self):
        pair = fs.solve_principal(0.3, n=201)
        assert pair.residual < 1e-8

    @pytest.mark.parametrize("d", [0.01, 0.005])
    def test_small_diffusivity_pair_is_positive_and_resolved(self, d):
        """A positive eigenvector of A (whose inverse is nonnegative) is the
        principal one by Perron-Frobenius, so positivity and a residual at
        the rounding floor certify the pair without a dense oracle."""
        pair = fs.solve_principal(d, n=401)
        assert np.min(pair.function) > 0.0
        assert np.max(pair.function) == 1.0
        assert pair.residual <= 1e-9 * pair.value

    def test_unresolved_pair_near_unit_peclet_rejected(self):
        """Cell Peclet 0.998: the symmetric solve returns a vector that is not
        the positive eigenfunction of A, and the solver says so."""
        with pytest.raises(ValueError, match="grid too coarse"):
            fs.solve_principal(0.001, n=502)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d, n, band", [(1 / 30, 16, "zero"), (0.025, 21, "positive"),
                                            (1 / 38, 20, "negative"), (0.001, 501, "negative")])
    def test_unit_peclet_pair_rejected(self, d, n, band):
        """Cell Peclet 1 passes the Peclet rule, but A is then reducible and
        has no positive eigenvector.  Rounding leaves its upper band zero,
        positive or negative; each grid ends in the same error, unwarned."""
        upper = operator_bands(d, n)[0, 2]
        assert {"zero": upper == 0, "positive": upper > 0, "negative": upper < 0}[band]
        with pytest.raises(ValueError, match="grid too coarse.*not resolved at cell Peclet 1.000"):
            fs.solve_principal(d, n)

    def test_numpy_integer_grid_size(self):
        pair = fs.solve_principal(0.1, np.int64(401))
        assert type(pair.n) is int
        np.testing.assert_array_equal(pair.function, fs.solve_principal(0.1, 401).function)

    def test_rejects_grid_too_coarse_for_diffusivity(self):
        with pytest.raises(ValueError, match="n >"):
            fs.solve_principal(0.001, n=101)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            fs.solve_principal(1.0, n=8)

    @pytest.mark.parametrize("d", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_diffusivity_not_positive_and_finite(self, d):
        with pytest.raises(ValueError, match="diffusivity must be positive and finite"):
            fs.solve_principal(d, n=201)


class TestPairCache:
    def test_cached_pair_equals_uncached_solve_and_is_read_only(self):
        pair = fs.solve_principal(0.37, 201)
        fresh = fs.eigen._solve_principal(0.37, 201)
        assert pair.value == fresh.value and pair.residual == fresh.residual
        np.testing.assert_array_equal(pair.function, fresh.function)
        assert not pair.function.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            pair.function[0] = 2.0
        # 0-d arrays, numpy floats and numpy integers share the entry
        for d, n in ((0.37, 201), (np.float64(0.37), np.int64(201)), (np.array(0.37), 201)):
            assert fs.solve_principal(d, n) is pair

    def test_errors_are_raised_on_every_call(self):
        size = fs.eigen._solve_cached.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="grid too coarse"):
                fs.solve_principal(0.001, 101)
        assert fs.eigen._solve_cached.cache_info().currsize == size
        fs.solve_principal(0.5, 201)
        # a float size equal to a cached int one is still no grid size
        with pytest.raises(ValueError, match="grid size must be an integer"):
            fs.solve_principal(0.5, 201.0)


class TestLambdaBracket:
    @pytest.mark.parametrize("d", [0.02, 0.05, 0.1, 0.15])
    def test_encloses_exact_value_small_d(self, d):
        bracket = fs.lambda_bracket(d)
        exact = EIGENVALUE_BY_DIFFUSIVITY[d]
        assert bracket.enclosure
        assert bracket.lower < exact < bracket.upper
        assert bracket.lower == pytest.approx(1.0 / (4 * d) + np.pi**2 * d / 4)
        assert bracket.upper == pytest.approx(1.0 / (4 * d) + np.pi**2 * d)

    def test_tail_bound_large_d(self):
        bracket = fs.lambda_bracket(1.0)
        assert not bracket.enclosure
        assert bracket.lower == 1.0
        assert bracket.upper == np.inf

    @pytest.mark.parametrize("d", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_diffusivity_not_positive_and_finite(self, d):
        with pytest.raises(ValueError, match="diffusivity must be positive and finite"):
            fs.lambda_bracket(d)

    def test_eigenvalue_decreasing_in_diffusivity(self):
        values = [
            EIGENVALUE_BY_DIFFUSIVITY[d]
            for d in (0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 100.0, 1000.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_eigenvalue_below_exponential_attenuation(self):
        """lam_d < e^{1/d} across the full diffusivity range."""
        for d, lam in EIGENVALUE_BY_DIFFUSIVITY.items():
            assert lam < np.exp(1.0 / d)



DIFFUSIVITY_ENTRY_POINTS = {
    "solve_principal": lambda d: fs.solve_principal(d, 201),
    "lambda_bracket": fs.lambda_bracket,
    "kernel_matrix": lambda d: fs.kernel_matrix(d, 21),
}


@pytest.mark.parametrize("call", DIFFUSIVITY_ENTRY_POINTS.values(),
                         ids=DIFFUSIVITY_ENTRY_POINTS.keys())
@pytest.mark.parametrize("d", ["1", None, 1 + 0j], ids=["str", "None", "complex"])
def test_diffusivity_not_a_real_number_raises_value_error(call, d):
    """A d that is no real number gets the ValueError naming it that every
    other entry point gives, not a TypeError from comparing it."""
    with pytest.raises(ValueError, match=r"diffusivity must be a real number, got "):
        call(d)
