"""Tests for the steady-state kernel, fixed-point operator, and reports."""

import math
import re

import numpy as np
import pytest

import flocstat as fs
from flocstat.cli import build_initial_state
from flocstat.operators import transport_defect
from conftest import floc_kinetics, standard_params

from oracles import kernel_closed_form


def theory_params(du=1.0, dv=10.0):
    """Unit feed, zero biomass inflow: the regime the steady machinery handles."""
    return standard_params(du=du, dv=dv)


def preset_solve(name):
    """The fixed-point solve `flocstat steady` runs on a preset at its own grid."""
    config = fs.load_preset(name)
    initial = build_initial_state(config, fs.Grid(config.controls.grid_n))
    return fs.fixed_point_solve(
        (np.clip(1.0 - initial.S, 0.0, None), initial.u[0], initial.v[0]),
        config.params, config.kin,
    )


# presets whose damped Picard iteration stalls: fig6n and fig6o hover at a
# sup change of 4-7e-6, fig6p cycles between 3.5e-4 and 1.05e-3
STALLED_PRESETS = ("fig6n", "fig6o", "fig6p")

# Picard iterations of every preset whose solve converges; fig5l's change
# shrinks slowest, to 0.34 of its value 200 iterations earlier
CONVERGING_ITERATIONS = {
    "fig1a": 117, "fig1b": 114, "fig2a": 48, "fig2b": 45, "fig3a": 72, "fig3b": 69,
    "fig4d": 203, "fig4e": 119, "fig4f": 75, "fig4g": 71, "fig5h": 42, "fig5i": 48,
    "fig5j": 245, "fig5k": 450, "fig5l": 1155, "fig5m": 144, "washout_demo": 38,
}


class TestKernel:
    def test_matches_closed_form_pointwise(self):
        for d in (0.2, 0.7, 3.0):
            for x in (0.0, 0.3, 0.9, 1.0):
                for s in (0.1, 0.3, 0.8):
                    assert fs.kernel_eval(d, x, s) == pytest.approx(
                        kernel_closed_form(d, x, s), rel=1e-14
                    )

    def test_broadcasts(self):
        x = np.linspace(0, 1, 11)
        vals = fs.kernel_eval(0.5, x, 0.4)
        assert vals.shape == (11,)
        assert np.all(vals > 0.0)

    def test_rejects_outside_domain(self):
        with pytest.raises(ValueError):
            fs.kernel_eval(0.5, -0.1, 0.5)

    @pytest.mark.parametrize("density", ["one", "linear", "quadratic", "sine"])
    def test_quadrature_solves_transport_equation(self, density):
        """Integral against the kernel inverts the transport operator."""
        d, n = 1.0, 401
        x = np.linspace(0.0, 1.0, n)
        rho = {
            "one": np.ones_like(x),
            "linear": x,
            "quadratic": x**2,
            "sine": np.sin(np.pi * x),
        }[density]
        w = fs.kernel_matrix(d, n) @ rho
        defect = transport_defect(w, d, rho, gamma=0.0)
        assert defect.max_abs < 5e-4

    def test_quadrature_defect_second_order(self):
        d = 1.0

        def max_defect(n: int) -> float:
            x = np.linspace(0.0, 1.0, n)
            rho = np.sin(np.pi * x)
            w = fs.kernel_matrix(d, n) @ rho
            return transport_defect(w, d, rho, gamma=0.0).max_abs

        order = np.log(max_defect(101) / max_defect(401)) / np.log(4.0)
        assert order > 1.9


class TestSteadyOperator:
    def test_zero_biomass_maps_to_zero(self):
        params, kin = theory_params(), floc_kinetics()
        grid = fs.Grid(201)
        zeros = np.zeros(grid.n)
        out = fs.apply_steady_operator((zeros, zeros, zeros), params, kin)
        np.testing.assert_allclose(np.asarray(out), 0.0, atol=1e-15)

    def test_attached_free_subspace_invariant(self):
        """With attachment vanishing on v = 0, the v = 0 face is invariant."""
        params, kin = theory_params(), floc_kinetics()
        grid = fs.Grid(201)
        dep = np.full(grid.n, 0.3)
        u = np.full(grid.n, 0.5)
        v = np.zeros(grid.n)
        out = fs.apply_steady_operator((dep, u, v), params, kin)
        np.testing.assert_allclose(np.asarray(out)[2], 0.0, atol=1e-15)

    def test_output_nonnegative(self):
        params, kin = theory_params(), floc_kinetics()
        grid = fs.Grid(101)
        rng = np.random.default_rng(3)
        trip = (rng.random(101) * 0.5, rng.random(101), rng.random(101))
        out = np.asarray(fs.apply_steady_operator(trip, params, kin))
        assert np.min(out) >= 0.0

    @pytest.mark.parametrize("n", [101, 401])
    @pytest.mark.parametrize("d", [0.001, 0.01, 0.1, 1.0, 10.0, 100.0])
    def test_matches_dense_quadrature(self, n, d):
        """The O(n) operator applies exactly the rule of kernel_matrix.

        d = 0.001 drives the per-cell decay exp(-h/d) towards 0, d = 100
        towards 1.  Without exchange every source is nonnegative, so the
        comparison is free of cancellation.
        """
        params = standard_params(d0=d, du=d, dv=d)
        kin = floc_kinetics(alpha=fs.ConstantRate(0.0), beta=fs.ConstantRate(0.0))
        rng = np.random.default_rng(7)
        dep, u, v = rng.random(n) * 0.9, rng.random(n), rng.random(n)
        S = 1.0 - dep
        fS, gS = kin.f[0](S), kin.g[0](S)
        sources = np.stack([fS * u + gS * v, fS * u, gS * v])
        want = np.clip(fs.kernel_matrix(d, n) @ sources.T, 0.0, None).T
        got = np.asarray(fs.apply_steady_operator((dep, u, v), params, kin))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_fine_grid_needs_no_dense_matrix(self):
        """n = 200 001: three dense kernels would need about 960 GB.

        A constant source c gives ``c * (x + d*(1 - exp((x - 1)/d)))``,
        the integral of the kernel over [0, 1].
        """
        n = 200_001
        params = theory_params()
        kin = floc_kinetics(alpha=fs.ConstantRate(0.0), beta=fs.ConstantRate(0.0))
        dep, u, v = np.full(n, 0.2), np.full(n, 0.5), np.zeros(n)
        out = fs.apply_steady_operator((dep, u, v), params, kin)
        c = float(kin.f[0](0.8)) * 0.5
        x = np.linspace(0.0, 1.0, n)
        for row, d in zip(out[:2], (params.d0, params.du[0])):
            np.testing.assert_allclose(row, c * (x + d * (1.0 - np.exp((x - 1.0) / d))),
                                       rtol=1e-9)
        np.testing.assert_array_equal(out[2], 0.0)


class TestFixedPoint:
    def test_attached_free_fixed_point_regression(self):
        """Frozen: saturating growth, dv = 10, attached phase absent."""
        params, kin = theory_params(), floc_kinetics()
        grid = fs.Grid(201)
        init = (
            np.full(grid.n, 0.2),
            np.full(grid.n, 0.5),
            np.zeros(grid.n),
        )
        state = fs.fixed_point_solve(init, params, kin, tol=1e-12)
        assert state.converged and state.reason == ""
        assert state.iterations == 47
        assert state.residual < 1e-11
        assert state.pde_residual < 1e-5
        assert np.all(state.v == 0.0)
        assert float(np.min(state.u)) == pytest.approx(0.4226, abs=2e-4)
        assert float(np.max(state.u)) == pytest.approx(0.6707, abs=2e-4)
        assert float(np.max(state.Stilde)) == pytest.approx(0.6707, abs=2e-4)

    def test_substrate_depletion_consistency(self):
        """At the fixed point, depletion equals total growth consumption."""
        params, kin = theory_params(), floc_kinetics()
        grid = fs.Grid(401)
        init = (np.full(grid.n, 0.2), np.full(grid.n, 0.5), np.zeros(grid.n))
        state = fs.fixed_point_solve(init, params, kin, tol=1e-12)
        # S = 1 - depletion stays within physical bounds
        assert np.all(state.substrate >= 0.0)
        assert np.all(state.substrate <= 1.0 + 1e-12)

    def test_pde_residual_refines(self):
        params, kin = theory_params(), floc_kinetics()
        residuals = []
        for n in (201, 401, 801):
            grid = fs.Grid(n)
            init = (np.full(grid.n, 0.2), np.full(grid.n, 0.5), np.zeros(grid.n))
            state = fs.fixed_point_solve(init, params, kin, tol=1e-12)
            residuals.append(state.pde_residual)
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] < 1e-6

    def test_nonconvergence_flagged_not_raised(self):
        params, kin = theory_params(), floc_kinetics()
        grid = fs.Grid(101)
        init = (np.full(grid.n, 0.2), np.full(grid.n, 0.5), np.zeros(grid.n))
        state = fs.fixed_point_solve(init, params, kin, tol=1e-14, max_iter=3)
        assert not state.converged
        assert state.iterations == 3
        assert state.reason == "iteration limit 3 reached"

    def test_converging_presets_keep_their_iteration_counts(self):
        """The non-contraction stop never cuts a converging solve short."""
        names = [name for name in fs.available_presets()
                 if name not in STALLED_PRESETS and name != "blowup_demo"]
        got = {}
        for name in names:
            state = preset_solve(name)
            assert state.converged, name
            got[name] = state.iterations
        assert got == CONVERGING_ITERATIONS

    @pytest.mark.parametrize("name", STALLED_PRESETS)
    def test_stalled_preset_stops_not_contracting(self, name):
        state = preset_solve(name)
        assert not state.converged
        assert state.iterations <= 500
        match = re.fullmatch(r"not contracting: sup change (\S+) at iteration (\d+) "
                             r"is not below (\S+) at iteration (\d+)", state.reason)
        assert match, state.reason
        change, k, earlier, k_earlier = match.groups()
        assert int(k) == state.iterations and int(k_earlier) == state.iterations - 200
        assert float(change) >= float(earlier)
        assert math.isfinite(state.residual) and math.isfinite(state.pde_residual)

    def test_stops_at_first_non_finite_iterate(self):
        """blowup_demo's quadratic exchange with yields 2 overflows the
        iterate at iteration 12: the solve stops there, unconverged."""
        config = fs.load_preset("blowup_demo")
        grid = fs.Grid(config.controls.grid_n)
        init = (np.zeros(grid.n), np.full(grid.n, 2.0), np.full(grid.n, 2.0))
        state = fs.fixed_point_solve(init, config.params, config.kin)
        assert not state.converged
        assert state.iterations == 12
        assert state.reason == "non-finite iterate at iteration 12"
        assert np.isnan(state.residual) and np.isnan(state.pde_residual)
        assert not np.isfinite(np.stack([state.Stilde, state.u, state.v])).all()

    def test_rejects_negative_init(self):
        params, kin = theory_params(), floc_kinetics()
        grid = fs.Grid(101)
        bad = (np.full(grid.n, -0.1), np.zeros(grid.n), np.zeros(grid.n))
        with pytest.raises(ValueError):
            fs.fixed_point_solve(bad, params, kin)

    def test_requires_unit_feed_regime(self):
        params = standard_params(gamma_s=2.0)
        kin = floc_kinetics()
        grid = fs.Grid(101)
        init = (np.zeros(grid.n), np.zeros(grid.n), np.zeros(grid.n))
        with pytest.raises(ValueError):
            fs.fixed_point_solve(init, params, kin)


class TestHypothesisReports:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("which", ["du", "dv"])
    def test_coexistence_rejects_underflowed_eigenfunction(self, which):
        """At d = 7.1e-4 on 1001 nodes the eigenfunction's range passes the
        smallest double and its tail is exact zeros; the envelope ratios
        would be 0/0, so the report raises instead of returning nan."""
        params = theory_params(**{which: 7.1e-4})
        with pytest.raises(ValueError, match=f"{which}=0.00071 underflows"):
            fs.check_coexistence_hypotheses(params, floc_kinetics(), grid_n=1001)

    def test_extinction_report_saturating_growth(self):
        """Frozen margins for the fast-attached-dispersal configuration."""
        params, kin = theory_params(), floc_kinetics()
        report = fs.check_extinction_hypotheses(params, kin, "attached", grid_n=401)
        assert report.which == "attached"
        assert report.growth_at_feed == pytest.approx(2.0)
        assert report.kernel_attenuation == pytest.approx(np.e, rel=1e-12)
        assert report.eigenvalue == pytest.approx(1.171963, abs=1e-5)
        by_name = {c.name: c for c in report.clauses}
        assert by_name["growth-beats-kernel-attenuation"].margin == pytest.approx(
            2.0 - np.e, rel=1e-9
        )
        assert not by_name["growth-beats-kernel-attenuation"].satisfied
        assert by_name["attachment-vanishes-without-attached"].satisfied
        assert not report.window_nonempty
        assert not report.all_satisfied

    def test_extinction_window_always_empty(self):
        """The eigenvalue sits below the attenuation at every diffusivity."""
        for du in (0.05, 0.15, 1.0, 10.0):
            params = theory_params(du=du)
            kin = floc_kinetics(f=fs.Monod(1000.0, 0.01))
            report = fs.check_extinction_hypotheses(params, kin, "attached", grid_n=401)
            assert not report.window_nonempty
            assert report.eigenvalue < report.kernel_attenuation

    def test_structural_clause_tracks_rate_law(self):
        params = theory_params()
        kin = floc_kinetics(alpha=fs.ConstantRate(1.0))
        report = fs.check_extinction_hypotheses(params, kin, "attached", grid_n=201)
        by_name = {c.name: c for c in report.clauses}
        assert not by_name["attachment-vanishes-without-attached"].satisfied

    def test_coexistence_report_infeasible_with_floc_rates(self):
        params, kin = theory_params(du=0.1), floc_kinetics()
        report = fs.check_coexistence_hypotheses(params, kin, grid_n=201)
        assert not report.feasible
        assert report.feasible_count == 0
        assert report.binding_clause
        assert 0.0 < report.theta <= 1.0
        assert 0.0 < report.rho <= 1.0

    def test_coexistence_yield_balance_contradiction(self):
        """The exchange floor always undercuts the yield-balance requirement."""
        params, kin = theory_params(du=0.1), floc_kinetics()
        report = fs.check_coexistence_hypotheses(params, kin, grid_n=201)
        by_name = {c.name: c for c in report.clauses}
        sel = by_name["exchange-floor-selection"]
        bal = by_name["isolated-yield-balance"]
        assert not (sel.satisfied and bal.satisfied)
