"""Tests for the time integrator: invariants, verdicts, monitors, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import trapezoid

import flocstat as fs
from conftest import floc_kinetics, standard_params
from flocstat.pde import ATOL, CLAMP_TOL, RECORD_BLOCK, RTOL, _Stepper, monitor_keys
from oracles import binomial_phase_energy, imex_step_banded


def zero_growth_kinetics(rate_const=1.0):
    return fs.KineticsSpec(
        f=(fs.ZeroGrowth(),),
        g=(fs.ZeroGrowth(),),
        alpha=(fs.LinearTotalRate(rate_const),),
        beta=(fs.LinearTotalRate(rate_const),),
    )


class TestGridAndState:
    def test_grid_basics(self, grid_201):
        assert grid_201.n == 201
        assert grid_201.h == pytest.approx(1.0 / 200.0)
        assert grid_201.x[0] == 0.0 and grid_201.x[-1] == 1.0

    def test_grid_integrate_linear(self, grid_201):
        assert grid_201.integrate(grid_201.x) == pytest.approx(0.5, rel=1e-12)

    def test_grid_rejects_tiny(self):
        with pytest.raises(ValueError):
            fs.Grid(8)

    def test_state_constant_and_labels(self, grid_201):
        state = fs.StateField.constant(grid_201, S=0.1, u=1.0, v=2.0)
        assert state.m == 1
        assert state.component_labels() == ("S", "u", "v")
        assert np.all(state.v == 2.0)

    def test_state_from_profiles_callable(self, grid_201):
        state = fs.StateField.from_profiles(
            grid_201, S=lambda x: x, u=[lambda x: 1.0 + x], v=[0.5]
        )
        np.testing.assert_allclose(state.S, grid_201.x)
        np.testing.assert_allclose(state.u[0], 1.0 + grid_201.x)
        assert np.all(state.v == 0.5)

    def test_state_rejects_negative(self, grid_201):
        with pytest.raises(ValueError):
            fs.StateField.constant(grid_201, S=-0.1, u=1.0, v=1.0)

    def test_stack_round_trip(self, grid_201):
        state = fs.StateField.from_profiles(
            grid_201, S=lambda x: x, u=[lambda x: x**2], v=[lambda x: 1 - x]
        )
        stacked = state.stack()
        assert stacked.shape == (3, 201)
        rebuilt = fs.StateField.from_stack(grid_201, stacked, t=state.t)
        np.testing.assert_array_equal(rebuilt.S, state.S)
        np.testing.assert_array_equal(rebuilt.u, state.u)


class TestAdvance:
    def test_single_step_preserves_nonnegativity(self, grid_201, saturating_setup):
        params, kin = saturating_setup
        state = fs.StateField.constant(grid_201, S=0.1, u=1.0, v=1.0)
        stepped = fs.advance(state, params, kin, 1e-3)
        assert stepped.t == pytest.approx(1e-3)
        assert np.min(stepped.S) >= 0.0
        assert np.min(stepped.u) >= 0.0
        assert np.min(stepped.v) >= 0.0

    def test_feed_state_is_substrate_equilibrium(self, grid_201):
        """With no biomass, the constant feed profile is a discrete fixed point."""
        params, kin = standard_params(), floc_kinetics()
        state = fs.StateField.constant(grid_201, S=1.0, u=0.0, v=0.0)
        stepped = fs.advance(state, params, kin, 0.1)
        np.testing.assert_allclose(stepped.S, 1.0, atol=1e-11)
        assert np.all(stepped.u == 0.0)
        assert np.all(stepped.v == 0.0)


def two_species_setup():
    params = fs.ModelParams(
        m=2, d0=1.0, du=(0.5, 2.0), dv=(1.0, 0.2), yu=(0.1, 0.3), yv=(0.2, 0.1),
        gamma_s=1.0, gamma_u=(0.1, 0.0), gamma_v=(0.0, 0.05),
    )
    kin = fs.KineticsSpec(
        f=(fs.Monod(4.0, 1.0), fs.Haldane(3.0, 1.0, 0.5)),
        g=(fs.Monod(5.0, 1.0), fs.ZeroGrowth()),
        alpha=(fs.AttachedTimesTotalRate(), fs.LinearTotalRate(0.5)),
        beta=(fs.OnePlusAttachedTimesTotalRate(), fs.PowerTotalRate(0.2, 2)),
    )
    state = fs.StateField.from_profiles(
        fs.Grid(101), S=lambda x: 0.2 + 0.5 * x,
        u=[lambda x: 1.0 + x, lambda x: 0.5 * (1.0 - x) ** 2],
        v=[lambda x: 0.8 - 0.3 * x, 0.3],
    )
    return params, kin, state


def one_species_setup():
    params, kin = standard_params(du=0.1, dv=10.0), floc_kinetics()
    state = fs.StateField.from_profiles(
        fs.Grid(201), S=lambda x: 0.1 + 0.9 * x**2, u=[lambda x: 1.0 + np.sin(3 * x)],
        v=[lambda x: 1.0 - 0.5 * x],
    )
    return params, kin, state


class TestBatchedSolve:
    """The stepper solves all components as one block-diagonal system from
    factors cached per dt; it must match a per-component solve exactly."""

    @pytest.mark.parametrize("setup", [one_species_setup, two_species_setup])
    @pytest.mark.parametrize("dt", [1e-2, 5e-3, 1e-3])
    def test_advance_matches_per_component_solve(self, setup, dt):
        params, kin, state = setup()
        stepped = fs.advance(state, params, kin, dt)
        expected = imex_step_banded(params, kin, state.stack(), dt)
        np.testing.assert_array_equal(stepped.stack(), expected)

    @pytest.mark.parametrize("setup", [one_species_setup, two_species_setup])
    def test_cached_factors_match_across_dt_changes(self, setup):
        """Halving after a rejection, doubling back, and a shortened last step
        reuse or add cached factors without changing a bit of the result."""
        params, kin, state = setup()
        stepper = _Stepper(params, kin, state.grid)
        W = state.stack()
        for dt in (1e-2, 5e-3, 5e-3, 1e-2, 2.5e-3, 1e-2, 3e-3):
            W_new, _clamp, reason = stepper.try_step(W, stepper.rate(W), dt)
            assert reason == ""
            np.testing.assert_array_equal(W_new, imex_step_banded(params, kin, W, dt))
            W = W_new
        assert len(stepper._factors) == 4


def macro_step_oracle(state, params, kin, dt):
    """The documented macro step built from ``advance``: 2*fine - coarse
    from one step of dt and two of dt/2, clamped at zero, or the fine state
    when it undershoots below -CLAMP_TOL."""
    coarse = fs.advance(state, params, kin, dt).stack()
    fine = fs.advance(fs.advance(state, params, kin, dt / 2), params, kin, dt / 2).stack()
    W = 2.0 * fine - coarse
    if W.min() < -CLAMP_TOL:
        return fine
    return np.clip(W, 0.0, None)


def replayed_states(result, params, kin):
    """The recorded states of ``result``, one per monitor row, stepped again
    with the macro step oracle at each row's dt."""
    state = result.initial
    states = [state]
    rows = zip(result.monitors["t"][1:].tolist(), result.monitors["dt"][1:].tolist())
    for t, dt in rows:
        state = fs.StateField.from_stack(state.grid, macro_step_oracle(state, params, kin, dt), t)
        states.append(state)
    return states


def per_row_monitors(result, params, kin, energy_configs=()):
    """The monitors of ``result`` rebuilt one state at a time: the states
    come from ``advance`` at each row's dt, and every row's integrals from
    scipy's ``trapezoid`` on that row alone."""
    h = result.grid.h
    weights = np.asarray(fs.weight_vector(params))
    phi = result.blowup_eigenpair.function
    keys = monitor_keys(params.m)
    states = replayed_states(result, params, kin)
    rows = []
    for state, dt in zip(states, result.monitors["dt"].tolist()):
        W = state.stack()
        l1 = np.array([trapezoid(w, dx=h) for w in W])
        Y = trapezoid(W[1] * phi, dx=h)
        Z = trapezoid(W[2] * phi, dx=h)
        Q = (params.yu[0] + 1.0) * Y + (params.yv[0] + 1.0) * Z
        row = dict(zip(keys, [state.t, *(w.max() for w in W), *l1, weights @ l1, Q, dt]))
        for cfg in energy_configs:
            for i in range(params.m):
                H = binomial_phase_energy(W[1 + 2 * i], W[2 + 2 * i], cfg.p, cfg.a)
                row[f"energy_p{cfg.p}_{i + 1}"] = trapezoid(H, dx=h)
        rows.append(row)
    assert len(rows[0]) == len(result.monitors) - 1 and "clamp" not in rows[0]
    return {key: np.array([row[key] for row in rows]) for key in rows[0]}, states[-1]


class TestBlockRecording:
    """simulate evaluates its monitors a block of RECORD_BLOCK states at a
    time; every row must equal the same row computed on its own."""

    def test_partial_last_block(self):
        params, kin, state = two_species_setup()
        cfg = fs.EnergyConfig.for_params(params, p=2)
        result = fs.simulate(state, params, kin, t_end=1.5, energy_configs=(cfg,))
        rows = len(result.monitors["t"])
        assert rows > RECORD_BLOCK and rows % RECORD_BLOCK != 0
        expected, final = per_row_monitors(result, params, kin, (cfg,))
        for key, column in expected.items():
            np.testing.assert_array_equal(result.monitors[key], column, err_msg=key)
        np.testing.assert_array_equal(result.final.stack(), final.stack())

    def test_blow_up_ends_mid_block(self, grid_201):
        params = standard_params(du=1.0, dv=1.0, yu=2.0, yv=2.0)
        kin = zero_growth_kinetics(1.0)
        state = fs.StateField.constant(grid_201, S=1.0, u=2.0, v=2.0)
        result = fs.simulate(state, params, kin, t_end=20.0)
        assert result.verdict == fs.Verdict("blow_up", result.verdict.t_final, "sup-threshold")
        assert len(result.monitors["t"]) % RECORD_BLOCK != 0
        expected, final = per_row_monitors(result, params, kin)
        for key, column in expected.items():
            np.testing.assert_array_equal(result.monitors[key], column, err_msg=key)
        np.testing.assert_array_equal(result.final.stack(), final.stack())
        assert float(result.final.stack().max()) > 1e8


class TestSimulate:
    def test_rejects_grid_violating_diffusion_limit(self, saturating_setup):
        params, kin = saturating_setup
        params = standard_params(du=0.001)
        grid = fs.Grid(101)
        state = fs.StateField.constant(grid, S=0.1, u=1.0, v=1.0)
        with pytest.raises(ValueError):
            fs.simulate(state, params, kin, t_end=1.0)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_rejects_non_finite_horizon(self, grid_201, saturating_setup, t_end):
        params, kin = saturating_setup
        state = fs.StateField.constant(grid_201, S=0.1, u=1.0, v=1.0)
        with pytest.raises(ValueError, match="t_end must be finite"):
            fs.simulate(state, params, kin, t_end=t_end)

    def test_monitor_schema_and_growth(self, grid_201, saturating_setup):
        params, kin = saturating_setup
        state = fs.StateField.constant(grid_201, S=0.1, u=1.0, v=1.0)
        result = fs.simulate(state, params, kin, t_end=1.0)
        monitors = result.monitors
        for key in ("t", "sup_S", "sup_u_1", "sup_v_1", "l1_S", "l1_u_1",
                    "l1_v_1", "mass", "Q", "dt", "clamp"):
            assert key in monitors
            assert len(monitors[key]) == len(monitors["t"])
        assert monitors["t"][0] == 0.0
        assert monitors["t"][-1] == pytest.approx(1.0, abs=1e-9)
        assert all(b > a for a, b in zip(monitors["t"], monitors["t"][1:]))

    def test_snapshots_default_count_and_endpoints(self, grid_201, saturating_setup):
        params, kin = saturating_setup
        state = fs.StateField.constant(grid_201, S=0.1, u=1.0, v=1.0)
        result = fs.simulate(state, params, kin, t_end=2.0)
        assert len(result.snapshots) == 11
        assert result.snapshots[0].t == 0.0
        assert result.snapshots[-1].t == pytest.approx(2.0, abs=1e-9)

    def test_snapshot_selection(self):
        """Unsorted targets, two within 1e-9 of each other and one past
        t_end: steps land on each target, a target counts as reached 1e-9
        early, a state is kept once, and the final state closes the list."""
        params, kin, state = one_species_setup()
        targets = [0.3, 0.0, 0.1234, 5.0, 0.123, 0.2 + 5e-10, 0.2]
        result = fs.simulate(state, params, kin, t_end=0.5, snapshot_times=targets)
        ts = result.monitors["t"].tolist()
        assert [snap.t for snap in result.snapshots] == [0.0, 0.123, 0.1234, 0.2, 0.3, 0.5]
        states = replayed_states(result, params, kin)
        for snap in result.snapshots:
            np.testing.assert_array_equal(snap.stack(), states[ts.index(snap.t)].stack())

    def test_snapshots_land_on_targets_at_large_dt(self):
        """Once the biomass has washed out, dt grows past the spacing of the
        targets; steps are shortened to land on each target time exactly."""
        params, kin = standard_params(du=1.0, dv=1.0), zero_growth_kinetics(0.0)
        state = fs.StateField.constant(fs.Grid(101), S=1.0, u=1.0, v=1.0)
        targets = [0.7, 33.3, 50.0, 99.9]
        result = fs.simulate(state, params, kin, t_end=100.0, snapshot_times=targets)
        assert [snap.t for snap in result.snapshots] == targets + [100.0]
        assert result.monitors["dt"].max() >= 10.0
        assert result.steps_accepted < 1000

    @pytest.mark.parametrize("t_end", [1e-13, 0.0])
    def test_rejects_horizon_within_time_tolerance(self, grid_201, saturating_setup, t_end):
        params, kin = saturating_setup
        state = fs.StateField.constant(grid_201, S=0.1, u=1.0, v=1.0)
        with pytest.raises(ValueError, match="does not exceed the initial time"):
            fs.simulate(state, params, kin, t_end=t_end)

    def test_substrate_sup_bound(self, grid_201, saturating_setup):
        """sup_S never exceeds max(feed, initial sup) up to tolerance."""
        params, kin = saturating_setup
        state = fs.StateField.constant(grid_201, S=0.1, u=1.0, v=1.0)
        result = fs.simulate(state, params, kin, t_end=20.0)
        bound = fs.monitor_bounds(result, params)
        assert bound.sup_bound_ok
        assert bound.sup_S_max <= max(params.gamma_s, 0.1) + 1e-3

    def test_nonnegativity_throughout(self, grid_201, saturating_setup):
        params, kin = saturating_setup
        state = fs.StateField.constant(grid_201, S=0.1, u=1.0, v=1.0)
        result = fs.simulate(state, params, kin, t_end=5.0)
        for snap in result.snapshots:
            assert np.min(snap.S) >= 0.0
            assert np.min(snap.u) >= 0.0
            assert np.min(snap.v) >= 0.0

    def test_pure_washout_decays(self, grid_201):
        """No growth, no exchange: biomass decays like the washout semigroup."""
        params = standard_params(du=1.0, dv=1.0)
        kin = zero_growth_kinetics(rate_const=0.0)
        state = fs.StateField.constant(grid_201, S=1.0, u=1.0, v=1.0)
        result = fs.simulate(state, params, kin, t_end=10.0)
        final_sup = float(np.max(result.final.u))
        # principal decay rate is lam(1) ~ 1.1720, so sup should drop below
        # e^{-10*1.1} at least
        assert final_sup < np.exp(-11.0)
        assert result.verdict.kind == "completed"

    def test_blow_up_detected(self, grid_201):
        params = standard_params(du=1.0, dv=1.0, yu=2.0, yv=2.0)
        kin = zero_growth_kinetics(1.0)
        state = fs.StateField.constant(grid_201, S=1.0, u=2.0, v=2.0)
        result = fs.simulate(state, params, kin, t_end=20.0)
        assert result.verdict.kind == "blow_up"
        assert result.verdict.t_final < 20.0
        assert result.verdict.reason in ("sup-threshold", "dt-collapse")

    def test_bounded_when_yields_small(self, grid_201):
        params = standard_params(du=1.0, dv=1.0, yu=0.9, yv=0.9)
        kin = zero_growth_kinetics(1.0)
        state = fs.StateField.constant(grid_201, S=1.0, u=2.0, v=2.0)
        result = fs.simulate(state, params, kin, t_end=20.0)
        assert result.verdict.kind == "completed"
        bound = fs.monitor_bounds(result, params)
        assert bound.mass_growth_class == "bounded"

    def test_refinement_stability(self, saturating_setup):
        """Halving h and dt moves the final state by a small amount."""
        params, kin = saturating_setup
        finals = []
        for n in (101, 201):
            grid = fs.Grid(n)
            state = fs.StateField.constant(grid, S=0.1, u=1.0, v=1.0)
            result = fs.simulate(state, params, kin, t_end=5.0,
                                 dt_init=0.01 if n == 101 else 0.005)
            finals.append(result.final)
        coarse = finals[0].u[0][::1]
        fine = finals[1].u[0][::2]
        assert np.max(np.abs(coarse - fine)) < 0.02 * max(1.0, np.max(np.abs(fine)))

    def test_bitwise_determinism(self, grid_201, saturating_setup):
        params, kin = saturating_setup
        state = fs.StateField.constant(grid_201, S=0.1, u=1.0, v=1.0)
        a = fs.simulate(state, params, kin, t_end=3.0)
        b = fs.simulate(state, params, kin, t_end=3.0)
        assert np.array_equal(a.final.S, b.final.S)
        assert np.array_equal(a.final.u, b.final.u)
        assert np.array_equal(a.final.v, b.final.v)
        assert np.array_equal(a.monitors["sup_S"], b.monitors["sup_S"])

    def test_energy_monitor_tracked(self, grid_201, saturating_setup):
        params, kin = saturating_setup
        cfg = fs.EnergyConfig.for_params(params, p=2)
        state = fs.StateField.constant(grid_201, S=0.1, u=1.0, v=1.0)
        result = fs.simulate(state, params, kin, t_end=0.5, energy_configs=(cfg,))
        key = f"energy_p2_{0}" if f"energy_p2_{0}" in result.monitors else "energy_p2_1"
        assert key in result.monitors


def euler_run(params, kin, W, dt, t_end):
    """Fixed-dt IMEX steps from W to t_end."""
    stepper = _Stepper(params, kin, fs.Grid(W.shape[1]))
    for _ in range(round(t_end / dt)):
        W, _clamp, reason = stepper.try_step(W, stepper.rate(W), dt)
        assert reason == ""
    return W


def richardson_reference(params, kin, W, dt, t_end):
    """2*y(dt/2) - y(dt) from fixed-dt IMEX runs: second order in dt."""
    return 2.0 * euler_run(params, kin, W, dt / 2, t_end) - euler_run(params, kin, W, dt, t_end)


class TestErrorControl:
    def test_macro_step_is_second_order(self):
        """From a smooth state, the macro step's error at t = 0.5 falls about
        4x per halving of dt, where the IMEX step's falls about 2x."""
        params, kin = standard_params(du=0.1, dv=10.0), floc_kinetics()
        state = fs.StateField.from_profiles(
            fs.Grid(41), S=lambda x: 0.1 + 0.9 * x**2, u=[lambda x: 1.0 + np.sin(3 * x)],
            v=[lambda x: 1.0 - 0.5 * x])
        W0 = fs.simulate(state, params, kin, t_end=1.0).final.stack()
        dts = (0.02, 0.01, 0.005)
        ref = richardson_reference(params, kin, W0, dts[-1] / 16, 0.5)
        stepper = _Stepper(params, kin, state.grid)

        def macro_run(dt):
            W = W0
            for _ in range(round(0.5 / dt)):
                W = stepper.macro_step(W, stepper.rate(W), dt)[0]
            return W

        macro = [np.abs(macro_run(dt) - ref).max() for dt in dts]
        euler = [np.abs(euler_run(params, kin, W0, dt, 0.5) - ref).max() for dt in dts]
        for a, b in zip(macro, macro[1:]):
            assert 3.5 < a / b < 4.5
        for a, b in zip(euler, euler[1:]):
            assert 1.8 < a / b < 2.2

    def test_controlled_run_matches_richardson_reference(self):
        """fig6n's kinetics from constant data: the controlled run's final
        state is within RTOL-scale error of a fixed-dt reference, in fewer
        macro steps than the 500 steps of a fixed dt_init."""
        config = fs.load_preset("fig6n")
        state = fs.StateField.constant(fs.Grid(51), S=0.1, u=1.0, v=1.0)
        result = fs.simulate(state, config.params, config.kin, t_end=5.0)
        ref = richardson_reference(config.params, config.kin, state.stack(), 1e-3, 5.0)
        error = np.abs(result.final.stack() - ref).max(axis=1) / np.abs(ref).max(axis=1)
        assert error.max() < 3 * RTOL
        assert result.steps_accepted + result.steps_rejected < 500

    def test_fallback_keeps_the_fine_state(self):
        """Under strong diffusion a spike makes 2*fine - coarse undershoot;
        the macro step then keeps the fine state and reports the fallback."""
        params, kin = standard_params(du=1.0, dv=1.0), floc_kinetics()
        grid = fs.Grid(41)
        u = np.zeros(grid.n)
        u[20] = 1.0
        state = fs.StateField(grid=grid, S=np.full(grid.n, 0.5), u=u[None],
                              v=np.zeros((1, grid.n)))
        stepper = _Stepper(params, kin, grid)
        W = state.stack()
        W_new, _clamp, _err, fallback, reason = stepper.macro_step(W, stepper.rate(W), 1e-3)
        assert fallback and reason == ""
        fine = fs.advance(fs.advance(state, params, kin, 5e-4), params, kin, 5e-4)
        np.testing.assert_array_equal(W_new, fine.stack())
        np.testing.assert_array_equal(W_new, macro_step_oracle(state, params, kin, 1e-3))

    def test_error_estimate_is_zero_at_a_fixed_point(self):
        """The feed state without biomass is a fixed point of every step,
        so dt doubles after every step."""
        params, kin = standard_params(), floc_kinetics()
        state = fs.StateField.constant(fs.Grid(101), S=1.0, u=0.0, v=0.0)
        result = fs.simulate(state, params, kin, t_end=10.0, snapshot_times=())
        assert result.monitors["dt"][1:].tolist()[:6] == [0.01 * 2**k for k in range(6)]
        assert result.steps_rejected == 0 and result.fallbacks == 0


class TestClassifyOutcome:
    def test_coexistence(self, grid_201):
        params = standard_params(du=0.1, dv=10.0)
        kin = floc_kinetics()
        state = fs.StateField.constant(grid_201, S=0.1, u=1.0, v=1.0)
        result = fs.simulate(state, params, kin, t_end=100.0)
        outcome = fs.classify_outcome(result)
        assert outcome.label == "coexistence"
        assert not outcome.extinct

    def test_extinction_of_attached_phase(self, grid_201, saturating_setup):
        params, kin = saturating_setup
        state = fs.StateField.constant(grid_201, S=0.1, u=1.0, v=1.0)
        result = fs.simulate(state, params, kin, t_end=100.0)
        outcome = fs.classify_outcome(result)
        assert outcome.label == "extinction-v"
        assert outcome.surviving == ("u",)

    def test_washout(self, grid_201):
        params = standard_params(du=0.05, dv=0.05)
        kin = floc_kinetics(f=fs.Monod(1.0, 1.0), g=fs.Monod(1.0, 1.0))
        state = fs.StateField.constant(grid_201, S=1.0, u=0.01, v=0.01)
        result = fs.simulate(state, params, kin, t_end=200.0)
        assert fs.classify_outcome(result).label == "washout"

    def test_blow_up_label(self, grid_201):
        params = standard_params(du=1.0, dv=1.0, yu=2.0, yv=2.0)
        kin = zero_growth_kinetics(1.0)
        state = fs.StateField.constant(grid_201, S=1.0, u=2.0, v=2.0)
        result = fs.simulate(state, params, kin, t_end=20.0)
        assert fs.classify_outcome(result).label == "blow-up"


class TestQuasipositivityProperty:
    @given(
        S0=st.floats(min_value=0.0, max_value=1.0),
        u0=st.floats(min_value=0.0, max_value=2.0),
        v0=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_short_run_stays_nonnegative(self, S0, u0, v0):
        params = standard_params()
        kin = floc_kinetics()
        grid = fs.Grid(41)
        state = fs.StateField.constant(grid, S=S0, u=u0, v=v0)
        result = fs.simulate(state, params, kin, t_end=0.2)
        final = result.final
        assert np.min(final.S) >= 0.0
        assert np.min(final.u) >= 0.0
        assert np.min(final.v) >= 0.0
