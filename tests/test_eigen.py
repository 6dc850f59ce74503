"""Tests for the principal washout eigenvalue solver."""

import numpy as np
import pytest

import flocstat as fs
from flocstat.eigen import BoundaryVariant

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

    def test_outflow_variant_is_reflection(self):
        """Outflow-normalized eigenfunction is the inflow one reversed in x."""
        pin = fs.solve_principal(0.2, n=201, variant=BoundaryVariant.INFLOW_ROBIN)
        pout = fs.solve_principal(0.2, n=201, variant=BoundaryVariant.OUTFLOW_ROBIN)
        assert pout.value == pytest.approx(pin.value, rel=1e-10)
        np.testing.assert_allclose(pout.function, pin.function[::-1], atol=1e-9)

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

    def test_rejects_grid_too_coarse_for_diffusivity(self):
        with pytest.raises(ValueError, match="n >"):
            fs.solve_principal(0.001, n=101)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            fs.solve_principal(1.0, n=8)


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


class TestRescale:
    def test_max_one(self):
        pair = fs.solve_principal(0.2, n=201)
        doubled = fs.rescale_eigenfunction(pair, "min_value", value=0.5)
        back = fs.rescale_eigenfunction(doubled, "max_one")
        np.testing.assert_allclose(back.function, pair.function, rtol=1e-12)

    def test_min_value(self):
        pair = fs.solve_principal(0.2, n=201)
        scaled = fs.rescale_eigenfunction(pair, "min_value", value=0.25)
        assert np.min(scaled.function) == pytest.approx(0.25, rel=1e-12)

    def test_dominated_by(self):
        pair = fs.solve_principal(0.2, n=201)
        other = fs.rescale_eigenfunction(pair, "min_value", value=0.1)
        scaled = fs.rescale_eigenfunction(pair, "dominated_by", other=other, factor=1.0)
        assert np.all(scaled.function <= other.function + 1e-14)
        # the bound is attained somewhere
        assert np.min(other.function - scaled.function) <= 1e-12

    def test_preserves_value_and_metadata(self):
        pair = fs.solve_principal(0.2, n=201)
        scaled = fs.rescale_eigenfunction(pair, "min_value", value=2.0)
        assert scaled.value == pair.value
        assert scaled.d == pair.d
        assert scaled.n == pair.n
