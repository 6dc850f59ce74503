"""Tests for the banded transport operators and boundary handling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import trapezoid as scipy_trapezoid
from scipy.linalg import solve_banded

from flocstat.operators import (
    BoundaryVariant,
    TransportDefect,
    band_matvec,
    feed_vector,
    grid_spacing,
    operator_bands,
    peclet_number,
    transport_defect,
    trapezoid,
)


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
    def test_interior_stencil_inflow(self):
        d, n = 0.5, 21
        h = grid_spacing(n)
        ab = operator_bands(d, n, BoundaryVariant.INFLOW_ROBIN)
        j = 10
        assert ab[1, j] == pytest.approx(2.0 * d / h**2)
        assert ab[0, j + 1] == pytest.approx(-d / h**2 + 1.0 / (2.0 * h))
        assert ab[2, j - 1] == pytest.approx(-d / h**2 - 1.0 / (2.0 * h))

    def test_feed_consistency(self):
        """The constant feed profile is an exact discrete solution: A(g*1) = b(g)."""
        for d in (0.05, 0.3, 1.0, 10.0):
            n = 101
            ab = operator_bands(d, n, BoundaryVariant.INFLOW_ROBIN)
            gamma = 1.7
            lhs = band_matvec(ab, np.full(n, gamma))
            rhs = feed_vector(d, n, gamma)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_outflow_is_reversed_inflow(self):
        """The outflow-normalized operator is the inflow one under index reversal."""
        d, n = 0.4, 33
        A_in = dense_from_bands(operator_bands(d, n, BoundaryVariant.INFLOW_ROBIN))
        A_out = dense_from_bands(operator_bands(d, n, BoundaryVariant.OUTFLOW_ROBIN))
        np.testing.assert_allclose(A_out, A_in[::-1, ::-1], atol=1e-12)

    def test_band_matvec_matches_dense(self):
        rng = np.random.default_rng(7)
        ab = operator_bands(0.2, 17, BoundaryVariant.INFLOW_ROBIN)
        w = rng.random(17)
        np.testing.assert_allclose(
            band_matvec(ab, w), dense_from_bands(ab) @ w, rtol=1e-13
        )

    def test_inverse_positivity(self):
        """(I + dt*A)^{-1} preserves nonnegativity and is bounded by 1 on constants."""
        d, n, dt = 0.1, 201, 0.05
        ab = operator_bands(d, n, BoundaryVariant.INFLOW_ROBIN)
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

    def test_peclet_number(self):
        assert peclet_number(0.01, 201) == pytest.approx(grid_spacing(201) / 0.02)

    @given(st.floats(min_value=0.02, max_value=50.0))
    def test_row_sums_nonnegative_inflow(self, d):
        """Row sums vanish in the interior and at outflow, and are positive at inflow."""
        n = 101
        A = dense_from_bands(operator_bands(d, n, BoundaryVariant.INFLOW_ROBIN))
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
