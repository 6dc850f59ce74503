"""Tests for the time integrator: invariants, verdicts, monitors, determinism."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import trapezoid

import flocstat as fs
from conftest import floc_kinetics, mass_growth_class, standard_params
from flocstat.cli import build_initial_state
from flocstat.model import component_labels
from flocstat.operators import trapezoid as package_trapezoid
from flocstat.pde import (ATOL, EXTINCT_SUP, RECORD_BYTES, RTOL, _MonitorRecorder, _Stepper,
                          monitor_keys)
from oracles import imex_step_banded


def imex_step(state, params, kin, dt):
    """One accepted fixed-dt IMEX step from ``state``, as a new state."""
    stepper = _Stepper(params, kin, state.grid)
    W = state.stack()
    W_new, reason = stepper.try_step(W, stepper.rate(W), dt, stepper._coarse)
    assert reason == ""
    return fs.StateField.from_stack(state.grid, W_new, state.t + dt)


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
        assert package_trapezoid(grid_201.x, grid_201.h) == pytest.approx(0.5, rel=1e-12)

    def test_grid_rejects_tiny(self):
        with pytest.raises(ValueError, match="grid needs at least 16 nodes, got 8"):
            fs.Grid(8)

    @pytest.mark.parametrize("n", [np.int64(201), np.int32(201), np.uint16(201)])
    def test_grid_accepts_numpy_integers(self, n):
        grid = fs.Grid(n)
        assert grid == fs.Grid(201) and type(grid.n) is int

    @pytest.mark.parametrize("n", [201.0, np.float64(201.0), "201"])
    def test_grid_rejects_non_integral_size(self, n):
        with pytest.raises(ValueError, match="grid size must be an integer"):
            fs.Grid(n)

    def test_state_constant_and_labels(self, grid_201):
        state = fs.StateField.constant(grid_201, S=0.1, u=1.0, v=2.0)
        assert state.m == 1
        assert np.all(state.v == 2.0)

    @pytest.mark.parametrize("t, message", [
        (math.nan, "t must be finite, got nan"),
        (math.inf, "t must be finite, got inf"),
        (-math.inf, "t must be finite, got -inf"),
        ("1", "t must be a real number, got '1'"),
    ])
    def test_state_rejects_time_that_is_not_a_finite_number(self, grid_201, t, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fs.StateField.constant(grid_201, S=0.1, u=1.0, v=1.0, t=t)

    @pytest.mark.parametrize("t_end, message", [
        (math.nan, "t_end must be finite, got nan"),
        (math.inf, "t_end must be finite, got inf"),
        (-math.inf, "t_end must be finite, got -inf"),
        ("1", "t_end must be a real number, got '1'"),
    ])
    def test_simulate_rejects_horizon_that_is_not_a_finite_number(self, t_end, message):
        state = fs.StateField.constant(fs.Grid(41), S=0.1, u=1.0, v=1.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            fs.simulate(state, standard_params(), floc_kinetics(), t_end=t_end)

    def test_state_rejects_negative(self, grid_201):
        with pytest.raises(ValueError):
            fs.StateField.constant(grid_201, S=-0.1, u=1.0, v=1.0)

    def test_state_from_one_species_rows(self, grid_201):
        """A 1-D u or v is one species' row: the state has m = 1."""
        x = grid_201.x
        state = fs.StateField(grid=grid_201, S=1 - x, u=x, v=x**2)
        assert state.m == 1
        assert state.u.shape == state.v.shape == (1, 201)
        np.testing.assert_array_equal(state.v[0], x**2)

    @pytest.mark.parametrize(
        "S, u, v, message",
        [
            (np.ones(200), np.ones((1, 201)), np.ones((1, 201)), r"S has shape \(200,\)"),
            (np.ones(201), np.ones((1, 201)), np.ones((2, 201)), "expected matching"),
            (np.ones(201), np.ones((1, 200)), np.ones((1, 200)), "expected matching"),
            (np.full(201, np.nan), np.ones((1, 201)), np.ones((1, 201)), "S contains non-finite"),
            (np.ones(201), np.full((1, 201), np.inf), np.ones((1, 201)), "u contains non-finite"),
            (np.ones(201), -np.ones((1, 201)), np.ones((1, 201)), "u contains negative"),
            (np.ones(201), np.ones((1, 201)), -np.ones((1, 201)), "v contains negative"),
        ],
        ids=["S-length", "u-v-species", "u-v-nodes", "S-nan", "u-inf", "u-negative", "v-negative"],
    )
    def test_state_rejects_bad_arrays(self, grid_201, S, u, v, message):
        with pytest.raises(ValueError, match=message):
            fs.StateField(grid=grid_201, S=S, u=u, v=v)

    @pytest.mark.parametrize("field", ["S", "u", "v"])
    def test_state_rejects_profiles_that_are_not_numbers(self, field):
        """Strings and objects fail the number rule of ModelParams, in a
        profile and in a constant alike."""
        grid = fs.Grid(21)
        profiles = {"S": np.full(21, 0.5), "u": np.ones(21), "v": np.ones(21)}
        for bad in (["0.5"] * 21, [0.5] * 20 + [None]):
            with pytest.raises(ValueError, match=f"^{field} must hold real numbers"):
                fs.StateField(grid=grid, **{**profiles, field: bad})
        constants = {"S": 0.1, "u": 1.0, "v": 1.0}
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got '0.1'$"):
            fs.StateField.constant(grid, **{**constants, field: "0.1"})

    def test_stack_round_trip(self, grid_201):
        x = grid_201.x
        state = fs.StateField(grid=grid_201, S=x, u=x[None, :] ** 2, v=1 - x[None, :])
        stacked = state.stack()
        assert stacked.shape == (3, 201)
        rebuilt = fs.StateField.from_stack(grid_201, stacked, t=state.t)
        np.testing.assert_array_equal(rebuilt.S, state.S)
        np.testing.assert_array_equal(rebuilt.u, state.u)


class TestAdvance:
    def test_single_step_preserves_nonnegativity(self, grid_201, saturating_setup):
        params, kin = saturating_setup
        state = fs.StateField.constant(grid_201, S=0.1, u=1.0, v=1.0)
        stepped = imex_step(state, params, kin, 1e-3)
        assert stepped.t == pytest.approx(1e-3)
        assert np.min(stepped.S) >= 0.0
        assert np.min(stepped.u) >= 0.0
        assert np.min(stepped.v) >= 0.0

    def test_feed_state_is_substrate_equilibrium(self, grid_201):
        """With no biomass, the constant feed profile is a discrete fixed point."""
        params, kin = standard_params(), floc_kinetics()
        state = fs.StateField.constant(grid_201, S=1.0, u=0.0, v=0.0)
        stepped = imex_step(state, params, kin, 0.1)
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
    grid = fs.Grid(101)
    x = grid.x
    state = fs.StateField(
        grid=grid, S=0.2 + 0.5 * x,
        u=np.stack([1.0 + x, 0.5 * (1.0 - x) ** 2]),
        v=np.stack([0.8 - 0.3 * x, np.full(grid.n, 0.3)]),
    )
    return params, kin, state


def one_species_setup():
    params, kin = standard_params(du=0.1, dv=10.0), floc_kinetics()
    grid = fs.Grid(201)
    x = grid.x
    state = fs.StateField(grid=grid, S=0.1 + 0.9 * x**2, u=(1.0 + np.sin(3 * x))[None, :],
                          v=(1.0 - 0.5 * x)[None, :])
    return params, kin, state


class TestBatchedSolve:
    """The stepper solves all components as one block-diagonal system from
    factors cached per dt; it must match a per-component solve exactly."""

    @pytest.mark.parametrize("setup", [one_species_setup, two_species_setup])
    @pytest.mark.parametrize("dt", [1e-2, 5e-3, 1e-3])
    def test_advance_matches_per_component_solve(self, setup, dt):
        params, kin, state = setup()
        stepped = imex_step(state, params, kin, dt)
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
            W_new, reason = stepper.try_step(W, stepper.rate(W), dt, stepper._coarse)
            assert reason == ""
            np.testing.assert_array_equal(W_new, imex_step_banded(params, kin, W, dt))
            W = W_new.copy()
        assert len(stepper._factors) == 4


def macro_step_oracle(state, params, kin, dt):
    """The documented macro step built from single IMEX steps: 2*fine -
    coarse from one step of dt and two of dt/2, with the fine state at each
    node where that is negative."""
    coarse = imex_step(state, params, kin, dt).stack()
    fine = imex_step(imex_step(state, params, kin, dt / 2), params, kin, dt / 2).stack()
    W = 2.0 * fine - coarse
    return np.where(W < 0.0, fine, W)


def replayed_states(result, params, kin):
    """The recorded states of ``result``, one per monitor row, stepped again
    with the macro step oracle at each row's dt."""
    state = result.snapshots[0]
    states = [state]
    rows = zip(result.monitors["t"][1:].tolist(), result.monitors["dt"][1:].tolist())
    for t, dt in rows:
        state = fs.StateField.from_stack(state.grid, macro_step_oracle(state, params, kin, dt), t)
        states.append(state)
    return states


def per_row_monitors(result, params, kin):
    """The monitors of ``result`` rebuilt one state at a time: the states
    come from the macro step oracle at each row's dt, and every row's
    integrals from scipy's ``trapezoid`` on that row alone."""
    grid = result.snapshots[0].grid
    weights = np.asarray(fs.weight_vector(params))
    phi = fs.solve_principal(params.du[0], grid.n).function[::-1]
    keys = monitor_keys(params.m)
    states = replayed_states(result, params, kin)
    rows = []
    for state, dt in zip(states, result.monitors["dt"].tolist()):
        W = state.stack()
        l1 = np.array([trapezoid(w, dx=grid.h) for w in W])
        Y = trapezoid(W[1] * phi, dx=grid.h)
        Z = trapezoid(W[2] * phi, dx=grid.h)
        Q = (params.yu[0] + 1.0) * Y + (params.yv[0] + 1.0) * Z
        rows.append(dict(zip(keys, [state.t, *(w.max() for w in W), *l1, weights @ l1, Q, dt])))
    assert list(rows[0]) == list(result.monitors)
    return {key: np.array([row[key] for row in rows]) for key in rows[0]}, states[-1]


def block_states(params, grid):
    """The number of states the recorder of a run on ``grid`` holds in a block."""
    return len(_MonitorRecorder(params, grid, grid.x).block)


def assert_rows_match_per_row_monitors(result, params, kin):
    expected, final = per_row_monitors(result, params, kin)
    for key, column in expected.items():
        np.testing.assert_array_equal(result.monitors[key], column, err_msg=key)
    np.testing.assert_array_equal(result.snapshots[-1].stack(), final.stack())


class TestBlockRecording:
    """simulate evaluates its monitors a block of states at a time, the
    block at most RECORD_BYTES and at least one state; every row must equal
    the same row computed on its own."""

    def test_block_length_follows_the_byte_budget(self):
        params = standard_params()
        assert block_states(params, fs.Grid(201)) == RECORD_BYTES // (8 * 3 * 201) == 54
        assert block_states(params, fs.Grid(501)) == 21
        assert block_states(params, fs.Grid(20001)) == 1

    def test_partial_last_block(self):
        params, kin, state = two_species_setup()
        block = block_states(params, state.grid)
        result = fs.simulate(state, params, kin, t_end=1.5)
        rows = len(result.monitors["t"])
        # a full block, then a partial one of many states
        assert rows > block and rows % block > block // 2
        assert_rows_match_per_row_monitors(result, params, kin)

    def test_grid_whose_block_is_one_state(self):
        params, kin = standard_params(du=0.1, dv=10.0), floc_kinetics()
        grid = fs.Grid(11001)
        assert 8 * 3 * grid.n > RECORD_BYTES and block_states(params, grid) == 1
        x = grid.x
        state = fs.StateField(grid=grid, S=0.1 + 0.9 * x**2, u=(1.0 + np.sin(3 * x))[None, :],
                              v=(1.0 - 0.5 * x)[None, :])
        result = fs.simulate(state, params, kin, t_end=0.02)
        assert len(result.monitors["t"]) > 10
        assert_rows_match_per_row_monitors(result, params, kin)

    def test_blow_up_ends_mid_block(self, grid_201):
        params = standard_params(du=1.0, dv=1.0, yu=2.0, yv=2.0)
        kin = zero_growth_kinetics(1.0)
        state = fs.StateField.constant(grid_201, S=1.0, u=2.0, v=2.0)
        result = fs.simulate(state, params, kin, t_end=20.0)
        assert result.verdict == fs.Verdict("blow_up", result.verdict.t_final, "sup-threshold")
        assert len(result.monitors["t"]) % block_states(params, grid_201) != 0
        assert_rows_match_per_row_monitors(result, params, kin)
        assert float(result.snapshots[-1].stack().max()) > 1e8

    def test_fine_grid_run_memory_is_linear_in_the_state(self):
        """At n = 20001 a run holds its stepper (about 16 states of
        8*(2m+1)*n bytes), the LU factors of four step sizes (about 20), its
        11 snapshots and a record block of one state with its evaluation:
        its traced peak stays below 64 states, a bound with no term for the
        block length."""
        config = fs.load_preset("fig2a")
        grid = fs.Grid(20001)
        initial = build_initial_state(config, grid)
        state_bytes = 8 * (2 * config.params.m + 1) * grid.n
        tracemalloc.start()
        try:
            result = fs.simulate(initial, config.params, config.kin, t_end=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.snapshots) == fs.pde.SNAPSHOTS
        assert peak < 64 * state_bytes


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
        assert list(monitors) == ["t", "sup_S", "sup_u_1", "sup_v_1", "l1_S", "l1_u_1",
                                  "l1_v_1", "mass", "Q", "dt"] == monitor_keys(1)
        for key in monitors:
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

    def test_targets_within_the_reach_tolerance_coalesce(self):
        """On a horizon of 1e-10 every target lies within 1e-9 of the initial
        time, so all count as reached at once: the initial state is kept
        once, and the final state closes the list."""
        params, kin, state = one_species_setup()
        result = fs.simulate(state, params, kin, t_end=1e-10)
        ts = result.monitors["t"].tolist()
        assert [snap.t for snap in result.snapshots] == [0.0, 1e-10]
        states = replayed_states(result, params, kin)
        for snap in result.snapshots:
            np.testing.assert_array_equal(snap.stack(), states[ts.index(snap.t)].stack())

    def test_snapshots_land_on_targets_at_large_dt(self):
        """Once the biomass has washed out, dt grows past the spacing of the
        targets; steps are shortened to land on each target time exactly."""
        params, kin = standard_params(du=1.0, dv=1.0), zero_growth_kinetics(0.0)
        state = fs.StateField.constant(fs.Grid(101), S=1.0, u=1.0, v=1.0)
        result = fs.simulate(state, params, kin, t_end=1000.0)
        assert [snap.t for snap in result.snapshots] == [100.0 * k for k in range(11)]
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
        assert result.monitors["sup_S"].max() <= max(params.gamma_s, 0.1) + 1e-3

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
        final_sup = float(np.max(result.snapshots[-1].u))
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
        assert mass_growth_class(result) == "bounded"

    def test_refinement_stability(self, saturating_setup):
        """Halving h moves the final state by a small amount."""
        params, kin = saturating_setup
        finals = []
        for n in (101, 201):
            grid = fs.Grid(n)
            state = fs.StateField.constant(grid, S=0.1, u=1.0, v=1.0)
            result = fs.simulate(state, params, kin, t_end=5.0)
            finals.append(result.snapshots[-1])
        coarse = finals[0].u[0][::1]
        fine = finals[1].u[0][::2]
        assert np.max(np.abs(coarse - fine)) < 0.02 * max(1.0, np.max(np.abs(fine)))

    def test_bitwise_determinism(self, grid_201, saturating_setup):
        params, kin = saturating_setup
        state = fs.StateField.constant(grid_201, S=0.1, u=1.0, v=1.0)
        a = fs.simulate(state, params, kin, t_end=3.0)
        b = fs.simulate(state, params, kin, t_end=3.0)
        assert np.array_equal(a.snapshots[-1].S, b.snapshots[-1].S)
        assert np.array_equal(a.snapshots[-1].u, b.snapshots[-1].u)
        assert np.array_equal(a.snapshots[-1].v, b.snapshots[-1].v)
        assert np.array_equal(a.monitors["sup_S"], b.monitors["sup_S"])


def euler_run(params, kin, W, dt, t_end):
    """Fixed-dt IMEX steps from W to t_end."""
    stepper = _Stepper(params, kin, fs.Grid(W.shape[1]))
    outs = itertools.cycle((stepper._coarse, stepper._half))  # never the stack W is in
    for _ in range(round(t_end / dt)):
        W, reason = stepper.try_step(W, stepper.rate(W), dt, next(outs))
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
        grid = fs.Grid(41)
        x = grid.x
        state = fs.StateField(grid=grid, S=0.1 + 0.9 * x**2, u=(1.0 + np.sin(3 * x))[None, :],
                              v=(1.0 - 0.5 * x)[None, :])
        W0 = fs.simulate(state, params, kin, t_end=1.0).snapshots[-1].stack()
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
        macro steps than the 500 steps of a fixed DT_INIT."""
        config = fs.load_preset("fig6n")
        state = fs.StateField.constant(fs.Grid(51), S=0.1, u=1.0, v=1.0)
        result = fs.simulate(state, config.params, config.kin, t_end=5.0)
        ref = richardson_reference(config.params, config.kin, state.stack(), 1e-3, 5.0)
        error = np.abs(result.snapshots[-1].stack() - ref).max(axis=1) / np.abs(ref).max(axis=1)
        assert error.max() < 3 * RTOL
        assert result.steps_accepted + result.steps_rejected < 500

    def test_fallback_keeps_the_fine_state(self):
        """Under strong diffusion a spike makes 2*fine - coarse undershoot;
        the macro step then keeps the fine state at the nodes where it is
        negative, the extrapolated state elsewhere, and reports the
        fallback."""
        params, kin = standard_params(du=1.0, dv=1.0), floc_kinetics()
        grid = fs.Grid(41)
        u = np.zeros(grid.n)
        u[20] = 1.0
        state = fs.StateField(grid=grid, S=np.full(grid.n, 0.5), u=u[None],
                              v=np.zeros((1, grid.n)))
        stepper = _Stepper(params, kin, grid)
        W = state.stack()
        W_new, _err, fallback, reason = stepper.macro_step(W, stepper.rate(W), 1e-3)
        assert fallback and reason == ""
        coarse = imex_step(state, params, kin, 1e-3).stack()
        fine = imex_step(imex_step(state, params, kin, 5e-4), params, kin, 5e-4).stack()
        extrapolated = 2.0 * fine - coarse
        low = extrapolated < 0.0
        assert low.any() and not low.all()
        np.testing.assert_array_equal(W_new[low], fine[low])
        np.testing.assert_array_equal(W_new[~low], extrapolated[~low])
        np.testing.assert_array_equal(W_new, macro_step_oracle(state, params, kin, 1e-3))

    def test_decaying_phase_stays_positive(self):
        """A phase that dies out decays through values whose extrapolation
        is negative; keeping the fine state there keeps every value
        strictly positive instead of setting it to 0."""
        params = standard_params(du=0.05, dv=0.05)
        kin = floc_kinetics(f=fs.Monod(1.0, 1.0), g=fs.Monod(1.0, 1.0))
        state = fs.StateField.constant(fs.Grid(201), S=1.0, u=0.01, v=0.01)
        result = fs.simulate(state, params, kin, t_end=200.0)
        assert result.fallbacks > 0
        biomass = result.snapshots[-1].stack()[1:]
        assert 0.0 < biomass.min() and biomass.max() < 1e-30

    def test_error_estimate_is_zero_at_a_fixed_point(self):
        """The feed state without biomass is a fixed point of every step,
        so dt doubles after every step."""
        params, kin = standard_params(), floc_kinetics()
        state = fs.StateField.constant(fs.Grid(101), S=1.0, u=0.0, v=0.0)
        result = fs.simulate(state, params, kin, t_end=10.0)
        assert result.monitors["dt"][1:].tolist()[:6] == [0.01 * 2**k for k in range(6)]
        assert result.steps_rejected == 0 and result.fallbacks == 0


class TestStepBuffers:
    """A macro step writes its stages and its result into stepper buffers;
    the state and the rate it starts from must survive it, so that a
    rejected step retries from them unchanged."""

    def test_consecutive_rejections_replay_exactly(self, monkeypatch):
        """A seed population grows unseen while dt doubles, then blooms: two
        macro steps in a row are rejected from a state that an accepted step
        produced.  Every recorded state still equals the macro step
        oracle's replay."""
        starts = []
        real_macro_step = _Stepper.macro_step

        def recording_macro_step(stepper, W, F, dt):
            starts.append(id(W))
            return real_macro_step(stepper, W, F, dt)

        monkeypatch.setattr(_Stepper, "macro_step", recording_macro_step)
        params = standard_params(du=0.1, dv=0.1)
        kin = floc_kinetics(f=fs.Monod(10.0, 1.0), g=fs.Monod(10.0, 1.0))
        state = fs.StateField.constant(fs.Grid(41), S=1.0, u=1e-12, v=1e-12)
        result = fs.simulate(state, params, kin, t_end=10.0)
        assert result.steps_rejected >= 2
        # a step is retried from the same state only after a rejection
        attempts = [len(list(group)) for _, group in itertools.groupby(starts)]
        assert max(attempts[1:]) >= 3
        assert_rows_match_per_row_monitors(result, params, kin)

    def test_lu_cache_keeps_the_four_step_sizes_used_last(self, monkeypatch):
        """fig4e steps with more than four sizes; the stepper never holds the
        factors of more than four."""
        held, sizes = [], set()
        real_factors = _Stepper.factors

        def recording_factors(stepper, dt):
            lu = real_factors(stepper, dt)
            held.append(len(stepper._factors))
            sizes.add(dt)
            return lu

        monkeypatch.setattr(_Stepper, "factors", recording_factors)
        config = fs.load_preset("fig4e")
        state = build_initial_state(config, fs.Grid(config.controls.grid_n))
        fs.simulate(state, config.params, config.kin, t_end=config.controls.t_end)
        assert len(sizes) > 4 and max(held) == 4

    def test_rates_do_not_alias_held_arrays(self):
        """Each rate is a new array; macro steps leave the states and rates
        they start from unchanged, and a macro step's result stays valid
        through the next macro step from it."""
        params, kin, state = one_species_setup()
        stepper = _Stepper(params, kin, state.grid)
        W1 = state.stack()
        W2 = imex_step(state, params, kin, 1e-2).stack()
        F1, F2 = stepper.rate(W1), stepper.rate(W2)
        assert not np.shares_memory(F1, F2)
        held = [a.copy() for a in (W1, F1, W2, F2)]
        W_new = stepper.macro_step(W1, F1, 1e-2)[0]
        F_new = stepper.rate(W_new)
        kept = W_new.copy()
        W_next = stepper.macro_step(W_new, F_new, 1e-2)[0]
        assert W_new is not None and W_next is not None
        assert not np.shares_memory(W_next, W_new)
        np.testing.assert_array_equal(W_new, kept)
        for rate in (F_new, stepper.rate(W_next)):
            assert not any(np.shares_memory(rate, a) for a in (F1, F2, W1, W2, W_new, W_next))
        for array, copy in zip((W1, F1, W2, F2), held):
            np.testing.assert_array_equal(array, copy)

    def test_foreign_out_is_refused_before_any_write(self):
        """stage and try_step write only into the stepper's coarse, half and
        fine stacks; any other array, a view of one of them included, is
        refused before it is written or handed to LAPACK."""
        params, kin, state = one_species_setup()
        stepper = _Stepper(params, kin, state.grid)
        W = state.stack()
        F = stepper.rate(W)
        for out in (np.full_like(W, np.nan), stepper._coarse[:], stepper._results[0], W):
            before = out.copy()
            with pytest.raises(ValueError, match="coarse, half or fine stack"):
                stepper.stage(W, F, 1e-2, out)
            with pytest.raises(ValueError, match="coarse, half or fine stack"):
                stepper.try_step(W, F, 1e-2, out)
            np.testing.assert_array_equal(out, before)
        assert not stepper._factors


@pytest.mark.parametrize("t_end", [None, 0.05])
@pytest.mark.parametrize("preset", fs.available_presets())
def test_last_snapshot_is_the_final_state(preset, t_end):
    """The last snapshot is the state a run ends in, at its horizon or at
    blow-up: its time is the verdict's and the last monitor row's, and its
    sups are that row's."""
    config = fs.load_preset(preset)
    state = build_initial_state(config, fs.Grid(config.controls.grid_n))
    result = fs.simulate(state, config.params, config.kin, t_end=t_end or config.controls.t_end)
    last = result.snapshots[-1]
    assert last.t == result.verdict.t_final == result.monitors["t"][-1]
    sups = [float(result.monitors[f"sup_{c}"][-1]) for c in component_labels(last.m)]
    assert last.stack().max(axis=1).tolist() == sups
    if preset == "blowup_demo" and t_end is None:
        assert result.verdict.kind == "blow_up"


class TestClassifyOutcome:
    def test_coexistence(self, grid_201):
        params = standard_params(du=0.1, dv=10.0)
        kin = floc_kinetics()
        state = fs.StateField.constant(grid_201, S=0.1, u=1.0, v=1.0)
        result = fs.simulate(state, params, kin, t_end=100.0)
        assert fs.classify_outcome(result) == "coexistence"

    def test_extinction_of_attached_phase(self, grid_201, saturating_setup):
        params, kin = saturating_setup
        state = fs.StateField.constant(grid_201, S=0.1, u=1.0, v=1.0)
        result = fs.simulate(state, params, kin, t_end=100.0)
        assert fs.classify_outcome(result) == "extinction-v"

    def test_washout(self, grid_201):
        params = standard_params(du=0.05, dv=0.05)
        kin = floc_kinetics(f=fs.Monod(1.0, 1.0), g=fs.Monod(1.0, 1.0))
        state = fs.StateField.constant(grid_201, S=1.0, u=0.01, v=0.01)
        result = fs.simulate(state, params, kin, t_end=200.0)
        assert fs.classify_outcome(result) == "washout"

    @pytest.mark.parametrize("m, alpha, expected", [
        (1, fs.AttachedTimesTotalRate(), "extinction-v"),
        (1, fs.LinearTotalRate(1.0), "coexistence"),
        (2, fs.AttachedTimesTotalRate(), "extinction-v1,v2"),
        (2, fs.LinearTotalRate(1.0), "coexistence"),
    ])
    def test_phase_starting_at_zero(self, m, alpha, expected):
        """Every species starts with no attached biomass.  Attachment at the
        rate (u + v)*v keeps it at 0, which counts as extinct; attachment at
        the rate u + v makes it grow past EXTINCT_SUP, which does not."""
        grid = fs.Grid(41)
        params = fs.ModelParams(m=m, d0=1.0, du=1.0, dv=10.0, yu=0.1, yv=0.1, gamma_s=1.0)
        kin = fs.KineticsSpec(f=(fs.Monod(4.0, 1.0),) * m, g=(fs.Monod(5.0, 1.0),) * m,
                              alpha=(alpha,) * m, beta=(fs.OnePlusAttachedTimesTotalRate(),) * m)
        state = fs.StateField(grid=grid, S=np.full(grid.n, 0.1), u=np.ones((m, grid.n)),
                              v=np.zeros((m, grid.n)))
        result = fs.simulate(state, params, kin, t_end=5.0)
        for i in range(1, m + 1):
            sup = result.monitors[f"sup_v_{i}"]
            assert sup[0] == 0.0 and (sup[-1] < EXTINCT_SUP) == (expected != "coexistence")
        assert fs.classify_outcome(result) == expected

    def test_blow_up_label(self, grid_201):
        params = standard_params(du=1.0, dv=1.0, yu=2.0, yv=2.0)
        kin = zero_growth_kinetics(1.0)
        state = fs.StateField.constant(grid_201, S=1.0, u=2.0, v=2.0)
        result = fs.simulate(state, params, kin, t_end=20.0)
        assert fs.classify_outcome(result) == "blow-up"


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
        final = result.snapshots[-1]
        assert np.min(final.S) >= 0.0
        assert np.min(final.u) >= 0.0
        assert np.min(final.v) >= 0.0
