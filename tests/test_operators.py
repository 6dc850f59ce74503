"""Tests for the banded transport operators and boundary handling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import trapezoid as scipy_trapezoid
from scipy.linalg import solve_banded

from flocstat.operators import (
    MIN_GRID_N,
    TransportDefect,
    band_matvec,
    feed_vector,
    grid_spacing,
    min_grid_n,
    operator_bands,
    peclet_admissible,
    peclet_number,
    quadrature_inverse_bands,
    transport_defect,
    trapezoid,
)
from flocstat.steady import kernel_matrix


def dense_from_bands(ab: np.ndarray) -> np.ndarray:
    n = ab.shape[1]
    A = np.zeros((n, n))
    for j in range(n):
        A[j, j] = ab[1, j]
        if j + 1 < n:
            A[j, j + 1] = ab[0, j + 1]
            A[j + 1, j] = ab[2, j]
    return A


class TestBands:
    @pytest.mark.parametrize("d, n", [(1.0, 21), (0.05, 201), (0.001, 501), (10.0, 201)])
    def test_quadrature_inverse_bands_invert_kernel_matrix(self, d, n):
        T = dense_from_bands(quadrature_inverse_bands(d, n))
        np.testing.assert_allclose(T @ kernel_matrix(d, n), np.eye(n), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("bands", [operator_bands, quadrature_inverse_bands])
    @pytest.mark.parametrize("d", [1e-3, 1.0, 1e3])
    def test_unused_band_corners_are_zero(self, bands, d):
        """Blocks laid end to end by np.hstack are coupled through these corners."""
        ab = bands(d, 101)
        assert ab[0, 0] == 0.0 and ab[2, -1] == 0.0

    def test_interior_stencil_inflow(self):
        d, n = 0.5, 21
        h = grid_spacing(n)
        ab = operator_bands(d, n)
        j = 10
        assert ab[1, j] == pytest.approx(2.0 * d / h**2)
        assert ab[0, j + 1] == pytest.approx(-d / h**2 + 1.0 / (2.0 * h))
        assert ab[2, j - 1] == pytest.approx(-d / h**2 - 1.0 / (2.0 * h))

    def test_feed_consistency(self):
        """The constant feed profile is an exact discrete solution: A(g*1) = b(g)."""
        for d in (0.05, 0.3, 1.0, 10.0):
            n = 101
            ab = operator_bands(d, n)
            gamma = 1.7
            lhs = band_matvec(ab, np.full(n, gamma))
            rhs = feed_vector(d, n, gamma)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_band_matvec_matches_dense(self):
        rng = np.random.default_rng(7)
        ab = operator_bands(0.2, 17)
        w = rng.random(17)
        np.testing.assert_allclose(
            band_matvec(ab, w), dense_from_bands(ab) @ w, rtol=1e-13
        )

    def test_inverse_positivity(self):
        """(I + dt*A)^{-1} preserves nonnegativity and is bounded by 1 on constants."""
        d, n, dt = 0.1, 201, 0.05
        ab = operator_bands(d, n)
        lhs = ab * dt
        lhs[1, :] += 1.0
        rng = np.random.default_rng(11)
        for _ in range(5):
            w = rng.random(n)
            sol = solve_banded((1, 1), lhs, w)
            assert np.min(sol) >= -1e-13
        ones = solve_banded((1, 1), lhs, np.ones(n))
        assert np.max(ones) <= 1.0 + 1e-12
        assert np.min(ones) >= 0.0

    def test_min_grid_n_is_enforced(self):
        assert grid_spacing(MIN_GRID_N) == 1.0 / (MIN_GRID_N - 1)
        for n in (MIN_GRID_N - 1, 3):
            with pytest.raises(ValueError, match=f"at least {MIN_GRID_N} nodes"):
                grid_spacing(n)

    def test_peclet_number(self):
        assert peclet_number(0.01, 201) == pytest.approx(grid_spacing(201) / 0.02)

    @pytest.mark.parametrize("d", [0.001, 0.0011, 0.0025, 0.004, 0.01])
    def test_min_grid_n_is_least_admissible_grid(self, d):
        """The grid ``min_grid_n`` names passes the Peclet rule and the next
        coarser one does not, so "use n > min_grid_n" is a sound hint."""
        n = min_grid_n(d)
        assert peclet_admissible(d, n)
        assert not peclet_admissible(d, n - 1)

    @given(st.floats(min_value=0.02, max_value=50.0))
    def test_row_sums_nonnegative_inflow(self, d):
        """Row sums vanish in the interior and at outflow, and are positive at inflow."""
        n = 101
        A = dense_from_bands(operator_bands(d, n))
        sums = A.sum(axis=1)
        np.testing.assert_allclose(sums[1:], 0.0, atol=1e-8)
        assert sums[0] > 0.0


class TestTrapezoid:
    @pytest.mark.parametrize("n", [2, 17, 201, 1000])
    def test_matches_scipy_bit_for_bit(self, n):
        """Row by row and on a stack of rows, as scipy gives for each row."""
        rows = np.random.default_rng(n).uniform(0.0, 5.0, size=(4, 3, n))
        dx = 1.0 / (n - 1)
        expected = [[scipy_trapezoid(row, dx=dx) for row in block] for block in rows]
        np.testing.assert_array_equal(trapezoid(rows, dx), expected)
        assert trapezoid(rows[2, 1], dx) == expected[2][1]


class TestTransportDefect:
    def test_exact_for_constant_feed(self):
        n, d, gamma = 201, 0.5, 2.0
        w = np.full(n, gamma)
        defect = transport_defect(w, d, np.zeros(n), gamma=gamma)
        assert isinstance(defect, TransportDefect)
        assert defect.max_abs < 1e-12

    def test_detects_wrong_inflow(self):
        n, d = 201, 0.5
        w = np.full(n, 1.0)
        defect = transport_defect(w, d, np.zeros(n), gamma=0.0)
        assert abs(defect.inlet) == pytest.approx(1.0, abs=1e-12)

    def test_second_order_on_manufactured_solution(self):
        """w(x) = cos(pi*x/2)+c: defect of the exact transport balance is O(h^2)."""
        d = 0.7

        def defect_at(n: int) -> float:
            x = np.linspace(0.0, 1.0, n)
            w = np.cos(np.pi * x / 2.0)
            dw = -np.pi / 2.0 * np.sin(np.pi * x / 2.0)
            ddw = -((np.pi / 2.0) ** 2) * np.cos(np.pi * x / 2.0)
            source = -d * ddw + dw
            gamma = -d * dw[0] + w[0]
            # manufactured slope at the outlet is not zero, so cancel it in
            # the source; only interior + inlet rows are exact here
            res = transport_defect(w, d, source, gamma=gamma)
            return max(abs(res.interior), abs(res.inlet))

        coarse, fine = defect_at(101), defect_at(401)
        order = np.log(coarse / fine) / np.log(4.0)
        assert order > 1.9
