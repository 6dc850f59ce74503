"""Tests for reproductive numbers and the run functionals Q and mass."""

import numpy as np
import pytest

import flocstat as fs
from flocstat.operators import trapezoid
from conftest import floc_kinetics, standard_params


class TestReproductiveNumbers:
    def test_fast_attached_dispersal_values(self):
        """Frozen regression: saturating growth, du = 1, dv = 10."""
        params, kin = standard_params(), floc_kinetics()
        repro = fs.reproductive_numbers(params, kin, grid_n=201)
        assert repro.R_u == pytest.approx(1.706544, abs=2e-6)
        assert repro.R_v == pytest.approx(2.458882, abs=2e-6)
        assert repro.classification == "washout-unstable"

    def test_numpy_integer_grid_size(self):
        params, kin = standard_params(), floc_kinetics()
        assert (fs.reproductive_numbers(params, kin, grid_n=np.int64(201))
                == fs.reproductive_numbers(params, kin, grid_n=201))

    def test_slow_dispersal_is_washout_stable(self):
        params = standard_params(du=0.05, dv=0.05)
        kin = floc_kinetics(f=fs.Monod(1.0, 1.0), g=fs.Monod(1.0, 1.0))
        repro = fs.reproductive_numbers(params, kin, grid_n=201)
        assert repro.R_u < 1.0 and repro.R_v < 1.0
        assert repro.classification == "washout-stable"

    def test_ratio_structure(self):
        """R_u is growth at feed minus specific exchange loss over the eigenvalue."""
        params, kin = standard_params(), floc_kinetics()
        repro = fs.reproductive_numbers(params, kin, grid_n=401)
        lam_u = fs.solve_principal(1.0, n=401).value
        expected = (fs.Monod(4.0, 1.0)(1.0) - 0.0) / lam_u
        assert repro.R_u == pytest.approx(expected, rel=1e-12)

    def test_boundary_when_larger_index_is_one(self):
        """f = Monod(2*lambda(du), 1) at feed 1 grows at exactly lambda(du),
        and both exchange rates vanish at the origin: R_u is exactly 1."""
        params = standard_params(du=1.0, dv=1.0)
        lam = fs.solve_principal(1.0, 201).value
        kin = floc_kinetics(f=fs.Monod(2.0 * lam, 1.0), g=fs.ZeroGrowth())
        repro = fs.reproductive_numbers(params, kin, grid_n=201)
        assert (repro.R_u, repro.R_v, repro.classification) == (1.0, 0.0, "boundary")

    def test_negative_raw_floors_to_zero(self):
        params = standard_params(yu=0.1, yv=0.1)
        kin = floc_kinetics(
            f=fs.ZeroGrowth(), g=fs.ZeroGrowth(),
            alpha=fs.ConstantRate(1.0), beta=fs.ConstantRate(1.0),
        )
        repro = fs.reproductive_numbers(params, kin, grid_n=201)
        assert repro.R_u == 0.0 and repro.R_v == 0.0


def first_monitor_row(state, params):
    """The monitor row ``simulate`` records for its initial state."""
    result = fs.simulate(state, params, floc_kinetics(), t_end=1e-3)
    return result, {key: column[0] for key, column in result.monitors.items()}


class TestBlowupFunctional:
    def test_weighted_masses_of_constant_state(self):
        """Q weights u and v with the washout eigenfunction at du, reflected."""
        grid = fs.Grid(201)
        params = standard_params(du=1.0, yu=2.0, yv=2.0)
        state = fs.StateField.constant(grid, S=1.0, u=2.0, v=3.0)
        result, row = first_monitor_row(state, params)
        pair = fs.solve_principal(1.0, n=201)
        # the run's weight, cached
        assert fs.solve_principal(params.du[0], result.snapshots[0].grid.n) is pair
        phi_mass = trapezoid(pair.function[::-1], grid.h)
        assert row["Q"] == pytest.approx((2.0 + 1.0) * 2.0 * phi_mass
                                         + (2.0 + 1.0) * 3.0 * phi_mass, rel=1e-12)

    @pytest.mark.parametrize("du", [1.0, 0.2])
    def test_weight_meets_the_adjoint_boundary_conditions(self, du):
        """The Q weight w = phi(1 - x) satisfies w'(0) = 0 and
        du*w'(1) + w(1) = 0 at second order (one-sided differences)."""

        def defect(n: int) -> float:
            w = fs.solve_principal(du, n).function[::-1]
            h = 1.0 / (n - 1)
            dw_in = (-3.0 * w[0] + 4.0 * w[1] - w[2]) / (2.0 * h)
            dw_out = (3.0 * w[-1] - 4.0 * w[-2] + w[-3]) / (2.0 * h)
            return max(abs(dw_in), abs(du * dw_out + w[-1]))

        order = np.log(defect(201) / defect(801)) / np.log(4.0)
        assert order > 1.9


class TestWeightedMass:
    def test_list_reading_fixture(self):
        """The mass column weights the integrals with ``weight_vector``:
        y_max = max(yu, yv, 1) for the substrate, 1 + yield for biomass."""
        params = standard_params(yu=0.5, yv=2.0)
        assert fs.weight_vector(params) == (2.0, 1.5, 3.0)
        state = fs.StateField.constant(fs.Grid(51), S=1.0, u=1.0, v=1.0)
        _result, row = first_monitor_row(state, params)
        assert row["mass"] == pytest.approx(2.0 + 1.5 + 3.0, rel=1e-12)
