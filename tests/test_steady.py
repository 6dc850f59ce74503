"""Tests for the steady-state kernel, the steady equations and their solve, and reports."""

import math
import re

import numpy as np
import pytest

import flocstat as fs
from flocstat.cli import build_initial_state
from flocstat.operators import band_matvec, quadrature_inverse_bands, transport_defect
from conftest import floc_kinetics, standard_params

from oracles import kernel_closed_form


def theory_params(du=1.0, dv=10.0):
    """Unit feed, zero biomass inflow: the regime the steady machinery handles."""
    return standard_params(du=du, dv=dv)


def preset_solve(name, grid_n=None):
    """The fixed-point solve `flocstat steady` runs on a preset, at its own
    grid or at ``--grid-n grid_n``."""
    config = fs.load_preset(name)
    initial = build_initial_state(config, fs.Grid(grid_n or config.controls.grid_n))
    return fs.fixed_point_solve(
        (np.clip(1.0 - initial.S, 0.0, None), initial.u[0], initial.v[0]),
        config.params, config.kin,
    )


# (max, mean) of each steady.csv column (depletion, S, u, v) on every
# preset but blowup_demo, and on fig2a and fig3a at --grid-n 4001, as
# written by the damped Picard solver finished by Newton that the
# pseudo-transient loop replaced.  Roots hold them at the benchmark's
# steady tolerance, rtol 1e-6 and atol 1e-8
STEADY_REFERENCE = {
    "fig1a": (0.212091329419, 0.183573093708, 0.866722166064, 0.816426906292,
              0.0415640608137, 0.0355738628408, 0.0800166469523, 0.0788026469575),
    "fig1b": (0.212091329417, 0.183573093707, 0.866722166065, 0.816426906293,
              0.0415640608137, 0.0355738628408, 0.0800166469517, 0.0788026469569),
    "fig2a": (0.670678720115, 0.581565232618, 0.57742101441, 0.418434767382,
              0.670678720115, 0.581565232618, 0, 0),
    "fig2b": (0.670678720116, 0.581565232618, 0.577421014409, 0.418434767382,
              0.670678720116, 0.581565232618, 0, 0),
    "fig3a": (0.235889906683, 0.202372973585, 0.854459569838, 0.797627026415,
              0.0410674909323, 0.0182868365765, 0.0932320904778, 0.091946059431),
    "fig3b": (0.235889906683, 0.202372973585, 0.854459569838, 0.797627026415,
              0.0410674909323, 0.0182868365765, 0.0932320904778, 0.091946059431),
    "fig4d": (2.35331752646e-10, 1.75477957974e-10, 0.999999999892, 0.999999999825,
              0, 0, 3.26782182076e-10, 9.36303639946e-11),
    "fig4e": (2.07923651693e-14, 1.56097508768e-14, 1, 1,
              2.07739341029e-14, 6.52114668372e-15, 5.28005198618e-17, 3.84792076087e-18),
    "fig4f": (0.216347491707, 0.183740144319, 0.869894952915, 0.816259855681,
              0.0327784806392, 0.013983392418, 0.0970456842172, 0.085424773226),
    "fig4g": (0.2377352428, 0.204168209843, 0.852928624487, 0.795831790157,
              0.0419888353342, 0.0187772052576, 0.0926384861055, 0.0925085065747),
    "fig5h": (0.748155193302, 0.661593549412, 0.505129800617, 0.338406450588,
              0.7481551933, 0.747071250838, 0, 0),
    "fig5i": (0.670678720116, 0.581565232619, 0.577421014409, 0.418434767381,
              0.670678720116, 0.581565232619, 0, 0),
    "fig5j": (0.212945366258, 0.179142329677, 0.874748362886, 0.820857670323,
              0.0750275542732, 0.0398533459602, 0.0708545870235, 0.0630462637369),
    "fig5k": (0.152977050076, 0.125782400679, 0.914838729931, 0.874217599321,
              0.0576286243838, 0.0299330007535, 0.0610729233253, 0.0420082172715),
    "fig5l": (0.0991487839866, 0.0801004015013, 0.946930761489, 0.919899598499,
              0.050134208026, 0.0258694879654, 0.0369462510769, 0.020883080519),
    "fig5m": (0.393020475868, 0.325412810049, 0.777810589664, 0.674587189951,
              0.393020475868, 0.248971113368, 1.01262875828e-19, 4.28270856465e-20),
    "fig6n": (0.0100411656594, 0.00806990673986, 0.994682939724, 0.99193009326,
              0.00969597138533, 0.00503972336138, 6.53295545345e-06, 3.65481066115e-06),
    "fig6o": (0.0101137885304, 0.00812907607726, 0.994643256167, 0.991870923923,
              0.00976321735646, 0.00507588101492, 4.09622913154e-06, 4.04231249185e-06),
    "fig6p": (0.134225315868, 0.114785980135, 0.918111148256, 0.885214019865,
              0.0819721341856, 0.0707970918625, 0.000597052248713, 0.000594333518455),
    "washout_demo": (1.41112413791e-16, 1.02441677853e-16, 1, 1,
                     0, 0, 1.42465715601e-15, 3.06763005474e-16),
    "fig2a n=4001": (0.67067932138, 0.581732116243, 0.577421150841, 0.418267883757,
                     0.670679321396, 0.581732116259, 0, 0),
    "fig3a n=4001": (0.235890102241, 0.202428884256, 0.854459322935, 0.797571115744,
                     0.0410649183787, 0.0182708998742, 0.0932335451505, 0.0919510307169),
}

# pseudo-transient steps of each solve in STEADY_REFERENCE, the final
# Newton step, whose size stops the solve, included
SOLVE_COUNTS = {
    "fig1a": 12, "fig1b": 7, "fig2a": 10, "fig2b": 8, "fig3a": 11, "fig3b": 8,
    "fig4d": 13, "fig4e": 11, "fig4f": 11, "fig4g": 11, "fig5h": 9, "fig5i": 10,
    "fig5j": 13, "fig5k": 14, "fig5l": 15, "fig5m": 10, "fig6n": 14, "fig6o": 14,
    "fig6p": 10, "washout_demo": 7, "fig2a n=4001": 10, "fig3a n=4001": 11,
}

# presets whose differential-balance defect on their 201 nodes, a grid
# error, lies between 1e-5 and 1e-4; every other case stays below 1e-5
COARSE_PRESETS = {"fig3a", "fig3b", "fig4f", "fig4g", "fig5j", "fig5k", "fig5l", "fig5m"}


def dense_from_bands(band):
    """The square matrix of a (10, N) dgbtrf band array, kl = ku = 3."""
    N = band.shape[1]
    dense = np.zeros((N, N))
    for k in range(N):
        for j in range(max(0, k - 3), min(N, k + 4)):
            dense[k, j] = band[6 + k - j, j]
    return dense


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
        assert transport_defect(w, d, rho, gamma=0.0) < 5e-4

    def test_quadrature_defect_second_order(self):
        d = 1.0

        def max_defect(n: int) -> float:
            x = np.linspace(0.0, 1.0, n)
            rho = np.sin(np.pi * x)
            w = fs.kernel_matrix(d, n) @ rho
            return transport_defect(w, d, rho, gamma=0.0)

        order = np.log(max_defect(101) / max_defect(401)) / np.log(4.0)
        assert order > 1.9


class TestSteadyOperator:
    def test_zero_biomass_maps_to_zero(self):
        params, kin = theory_params(), floc_kinetics()
        grid = fs.Grid(201)
        zeros = np.zeros(grid.n)
        out = fs.steady._SteadyOperator(params, kin, grid.n).defect(np.stack((zeros, zeros, zeros)))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_attached_free_subspace_invariant(self):
        """With attachment vanishing on v = 0, the defect's v row vanishes
        on the v = 0 face."""
        params, kin = theory_params(), floc_kinetics()
        grid = fs.Grid(201)
        dep = np.full(grid.n, 0.3)
        u = np.full(grid.n, 0.5)
        v = np.zeros(grid.n)
        out = fs.steady._SteadyOperator(params, kin, grid.n).defect(np.stack((dep, u, v)))
        np.testing.assert_allclose(out[2], 0.0, atol=1e-15)

    def test_output_nonnegative(self, monkeypatch):
        """Every iterate of the solve is clamped to X >= 0.  From this
        start the fourth step, unclamped, takes a component below zero."""
        params, kin = theory_params(), floc_kinetics()
        rng = np.random.default_rng(3)
        trip = (rng.random(101) * 0.5, rng.random(101), rng.random(101))
        for limit in range(1, 7):
            monkeypatch.setattr(fs.steady, "MAX_ITER", limit)
            state = fs.fixed_point_solve(trip, params, kin)
            assert state.iterations == limit
            assert min(np.min(state.Stilde), np.min(state.u), np.min(state.v)) >= 0.0

    @pytest.mark.parametrize("alpha, beta", [
        (fs.AttachedTimesTotalRate(), fs.OnePlusAttachedTimesTotalRate()),
        (fs.LinearTotalRate(1.3), fs.PowerTotalRate(0.5, 3)),
        (fs.ConstantRate(0.7), fs.LinearTotalRate(2.0)),
    ])
    def test_sources_are_the_reaction_field(self, alpha, beta):
        """The operator's sources are the consumption -R[0] and the biomass
        rows R[1], R[2] of reaction_field at the available substrate
        max(1 - Stilde, 0), exactly, also where Stilde exceeds 1."""
        params = theory_params()
        kin = floc_kinetics(f=fs.Haldane(3.0, 1.0, 1.0), alpha=alpha, beta=beta)
        X = np.random.default_rng(5).uniform(0.0, 3.0, size=(3, 64))
        X[0] /= 2.0  # Stilde in [0, 1.5]
        X[:, ::7] = 0.0
        assert (X[0] > 1.0).any()
        got = fs.steady._SteadyOperator(params, kin, 64).sources(X)
        R = fs.reaction_field(params, kin, np.maximum(1.0 - X[0], 0.0), X[1:2], X[2:3])
        np.testing.assert_array_equal(got, np.stack((-R[0], R[1], R[2])))

    @pytest.mark.parametrize("n", [101, 401])
    @pytest.mark.parametrize("d", [0.001, 0.01, 0.1, 1.0, 10.0, 100.0])
    def test_matches_dense_quadrature(self, n, d):
        """The O(n) defect inverts exactly the rule of kernel_matrix: at
        X = M s its transport part returns s, to rounding in ``|s| + |T| |X|``.

        d = 0.001 drives the per-cell decay exp(-h/d) towards 0, d = 100
        towards 1.  Without exchange every source is nonnegative.
        """
        params = standard_params(d0=d, du=d, dv=d)
        kin = floc_kinetics(alpha=fs.ConstantRate(0.0), beta=fs.ConstantRate(0.0))
        rng = np.random.default_rng(7)
        dep, u, v = rng.random(n) * 0.9, rng.random(n), rng.random(n)
        S = 1.0 - dep
        fS, gS = kin.f[0](S), kin.g[0](S)
        sources = np.stack([fS * u + gS * v, fS * u, gS * v])
        X = (fs.kernel_matrix(d, n) @ sources.T).T
        got = fs.steady._SteadyOperator(params, kin, n).defect(X, sources)
        absT = np.abs(quadrature_inverse_bands(d, n))
        scale = np.abs(sources) + np.stack([band_matvec(absT, np.abs(row)) for row in X])
        assert np.all(np.abs(got) <= 1e-14 * scale)

    @pytest.mark.parametrize("n", [201, 401])
    @pytest.mark.parametrize("d", [1e-3, 1e-2, 0.1, 1.0, 10.0, 1e3, 1e6])
    def test_apply_matches_long_double_quadrature(self, d, n):
        """With signed sources s and X = M s in long double, M =
        kernel_matrix(d, n), the defect vanishes to within 1e-14*(|s| +
        |T| |M| |s|): the rounding of M's entries and of X, carried
        through T, whose entries grow like d/h**2 up to d = 1e6."""
        params = standard_params(d0=d, du=d, dv=d)
        op = fs.steady._SteadyOperator(params, floc_kinetics(), n)
        s = np.random.default_rng(11).standard_normal((3, n))
        M = fs.kernel_matrix(d, n)
        X = (s.astype(np.longdouble) @ M.T.astype(np.longdouble)).astype(float)
        absT = np.abs(quadrature_inverse_bands(d, n))
        absTM = np.stack([band_matvec(absT, col) for col in np.abs(M).T], axis=1)
        bound = 1e-14 * (np.abs(s) + np.abs(s) @ absTM.T)
        assert np.all(np.abs(op.defect(X, s.copy())) <= bound)

    @pytest.mark.parametrize("preset", ["fig5l", "fig6n"])
    def test_jacobian_bands_match_dense_difference_jacobian(self, preset):
        """The banded Jacobian of ``s(X) - T X``, from three source
        evaluations, equals a central-difference Jacobian taken one
        unknown at a time, node-major, on 21 nodes."""
        config = fs.load_preset(preset)
        n = 21
        op = fs.steady._SteadyOperator(config.params, config.kin, n)
        X = np.random.default_rng(13).uniform(0.05, 0.6, size=(3, n))
        dense = np.empty((3 * n, 3 * n))
        for j in range(3 * n):
            c, i = j % 3, j // 3
            step = 1e-6 * max(abs(X[c, i]), 1.0)
            up, down = X.copy(), X.copy()
            up[c, i] += step
            down[c, i] -= step
            dense[:, j] = ((op.defect(up) - op.defect(down)) / (2 * step)).T.reshape(-1)
        got = dense_from_bands(op.jacobian_bands(X))
        scale = float(np.max(np.abs(dense)))
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-8 * scale)

    def test_jacobian_bands_mass_scales_the_quadrature_inverse(self):
        """``jacobian_bands(X, c)`` is the Jacobian minus (c - 1) T, with T
        the inverse of each component's quadrature matrix, node-major."""
        config = fs.load_preset("fig5l")
        n = 21
        op = fs.steady._SteadyOperator(config.params, config.kin, n)
        X = np.random.default_rng(17).uniform(0.05, 0.6, size=(3, n))
        T = np.zeros((3 * n, 3 * n))
        for c, d in enumerate(config.params.diffusivities):
            T[c::3, c::3] = np.linalg.inv(fs.kernel_matrix(d, n))
        jac = dense_from_bands(op.jacobian_bands(X))
        got = dense_from_bands(op.jacobian_bands(X, 2.5))
        np.testing.assert_allclose(got, jac - 1.5 * T, rtol=0, atol=1e-9 * np.abs(T).max())

    def test_fine_grid_needs_no_dense_matrix(self):
        """n = 200 001: three dense kernels would need about 960 GB.

        A constant source c gives ``c * (x + d*(1 - exp((x - 1)/d)))``,
        the integral of the kernel over [0, 1]; on it the defect vanishes
        to rounding in ``|s| + |T| |X|``, as T's truncation error is far
        below that on this grid.
        """
        n = 200_001
        params = theory_params()
        kin = floc_kinetics(alpha=fs.ConstantRate(0.0), beta=fs.ConstantRate(0.0))
        op = fs.steady._SteadyOperator(params, kin, n)
        src = op.sources(np.stack((np.full(n, 0.2), np.full(n, 0.5), np.zeros(n)))).copy()
        c = float(kin.f[0](0.8)) * 0.5
        np.testing.assert_allclose(src[:2], c, rtol=1e-15)
        np.testing.assert_array_equal(src[2], 0.0)
        x = np.linspace(0.0, 1.0, n)
        X = np.zeros((3, n))
        for row, d in zip(X[:2], (params.d0, params.du[0])):
            row[:] = c * (x + d * (1.0 - np.exp((x - 1.0) / d)))
        out = op.defect(X, src)
        for row, Xrow, s, d in zip(out[:2], X[:2], src[:2], (params.d0, params.du[0])):
            absT = np.abs(quadrature_inverse_bands(d, n))
            assert np.all(np.abs(row) <= 1e-14 * (np.abs(s) + band_matvec(absT, np.abs(Xrow))))
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
        state = fs.fixed_point_solve(init, params, kin)
        assert state.converged and state.reason == ""
        assert state.iterations == 7 and not state.unstable
        assert state.residual < fs.steady.TOL
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
        state = fs.fixed_point_solve(init, params, kin)
        # S = 1 - depletion stays within physical bounds
        assert np.all(state.substrate >= 0.0)
        assert np.all(state.substrate <= 1.0 + 1e-12)

    def test_pde_residual_refines(self):
        params, kin = theory_params(), floc_kinetics()
        residuals = []
        for n in (201, 401, 801):
            grid = fs.Grid(n)
            init = (np.full(grid.n, 0.2), np.full(grid.n, 0.5), np.zeros(grid.n))
            state = fs.fixed_point_solve(init, params, kin)
            residuals.append(state.pde_residual)
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] < 1e-6

    @pytest.mark.parametrize("grid_n, at_rounding", [(None, False), (4001, True)])
    def test_rounding_level_of_the_returned_state(self, grid_n, at_rounding):
        """rounding_level is 4*eps*max_c ||T_c||_inf * sup X_c at the returned
        state; fig2a's pde_residual exceeds it at its shipped grid and falls
        below it at n = 4001, where the second differences are rounding noise."""
        config = fs.load_preset("fig2a")
        state = preset_solve("fig2a", grid_n)
        n = state.grid.n
        level = max(
            4.0 * np.finfo(float).eps
            * float(np.max(band_matvec(np.abs(quadrature_inverse_bands(d, n)), np.ones(n))))
            * float(np.max(X))
            for d, X in zip(config.params.diffusivities, (state.Stilde, state.u, state.v)))
        assert state.rounding_level == pytest.approx(level, rel=1e-12)
        assert (state.pde_residual <= state.rounding_level) is at_rounding

    def test_nonconvergence_flagged_not_raised(self, monkeypatch):
        monkeypatch.setattr(fs.steady, "MAX_ITER", 3)
        params, kin = theory_params(), floc_kinetics()
        grid = fs.Grid(101)
        init = (np.full(grid.n, 0.2), np.full(grid.n, 0.5), np.zeros(grid.n))
        state = fs.fixed_point_solve(init, params, kin)
        assert not state.converged
        assert state.iterations == 3
        assert state.reason == "iteration limit 3 reached"

    @pytest.mark.parametrize("case", STEADY_REFERENCE)
    def test_preset_root_matches_reference(self, case):
        """Each solve converges, in its pinned number of steps, to a root
        that is not flagged unstable and keeps its reference columns."""
        name, _, grid_n = case.partition(" n=")
        state = preset_solve(name, int(grid_n) if grid_n else None)
        assert state.converged and state.reason == "" and not state.unstable
        assert state.iterations == SOLVE_COUNTS[case]
        assert state.residual < fs.steady.TOL
        assert state.pde_residual < (1e-4 if case in COARSE_PRESETS else 1e-5)
        got = [float(stat(col)) for col in (state.Stilde, state.substrate, state.u, state.v)
               for stat in (np.max, np.mean)]
        assert got == pytest.approx(STEADY_REFERENCE[case], rel=1e-6, abs=1e-8)

    def test_blowup_demo_root_is_flagged_unstable(self):
        """blowup_demo's quadratic exchange with yields 2 has a finite root,
        sup u = 1.396, where the steady Jacobian has the eigenvalue +1.18.
        The solve reaches it from the preset's data and from (0, 2, 2),
        and flags it: det(-J) < 0 there."""
        config = fs.load_preset("blowup_demo")
        n = config.controls.grid_n
        two = (np.zeros(n), np.full(n, 2.0), np.full(n, 2.0))
        for state in (preset_solve("blowup_demo"),
                      fs.fixed_point_solve(two, config.params, config.kin)):
            assert state.converged and state.unstable
            assert state.residual < fs.steady.TOL
            assert float(np.max(state.u)) == pytest.approx(1.396, abs=5e-4)

    def test_perturbed_starts_keep_or_flag_the_root(self):
        """Every step is accepted, so the start decides the root.  From
        fig1a's data with the biomass halved, doubled or swapped between
        the phases the solve keeps the preset's coexistence root; from five
        times the biomass it reaches washout, which det(-J) < 0 flags."""
        config = fs.load_preset("fig1a")
        initial = build_initial_state(config, fs.Grid(config.controls.grid_n))
        dep, u, v = np.clip(1.0 - initial.S, 0.0, None), initial.u[0], initial.v[0]
        for init in ((dep, 0.5 * u, 0.5 * v), (dep, 2.0 * u, 2.0 * v), (dep, v, u)):
            state = fs.fixed_point_solve(init, config.params, config.kin)
            assert state.converged and not state.unstable
            got = [float(stat(col)) for col in (state.Stilde, state.substrate, state.u, state.v)
                   for stat in (np.max, np.mean)]
            assert got == pytest.approx(STEADY_REFERENCE["fig1a"], rel=1e-6, abs=1e-8)
        state = fs.fixed_point_solve((dep, 5.0 * u, 5.0 * v), config.params, config.kin)
        assert state.converged and state.unstable
        assert float(np.max(state.u)) == float(np.max(state.v)) == 0.0

    @pytest.mark.parametrize("preset, unstable", [("fig1a", True), ("washout_demo", False)])
    def test_zero_start_takes_one_step_and_gets_its_stability(self, preset, unstable):
        """At X = 0 the defect vanishes: the solve takes one zero step,
        whose LU gives the sign of det(-J): washout is flagged unstable on
        fig1a, and not on washout_demo."""
        config = fs.load_preset(preset)
        zeros = np.zeros(config.controls.grid_n)
        state = fs.fixed_point_solve((zeros, zeros, zeros), config.params, config.kin)
        assert state.converged and state.reason == "" and state.unstable == unstable
        assert state.iterations == 1 and state.residual == 0.0
        np.testing.assert_array_equal(np.stack([state.Stilde, state.u, state.v]), 0.0)

    def test_zero_step_limit_returns_init(self, monkeypatch):
        monkeypatch.setattr(fs.steady, "MAX_ITER", 0)
        params, kin = theory_params(), floc_kinetics()
        grid = fs.Grid(101)
        init = (np.full(grid.n, 0.2), np.full(grid.n, 0.5), np.zeros(grid.n))
        state = fs.fixed_point_solve(init, params, kin)
        assert not state.converged and state.iterations == 0
        assert state.reason == "iteration limit 0 reached"
        assert state.residual == math.inf and math.isfinite(state.pde_residual)
        np.testing.assert_array_equal(np.stack([state.Stilde, state.u, state.v]),
                                      np.stack(init))

    def test_singular_step_matrix_stops_unconverged(self, monkeypatch):
        monkeypatch.setattr(fs.steady._SteadyOperator, "jacobian_bands",
                            lambda self, X, mass=1.0, src=None:
                            np.zeros((10, 3 * self.n), order="F"))
        params, kin = theory_params(), floc_kinetics()
        grid = fs.Grid(101)
        init = (np.full(grid.n, 0.2), np.full(grid.n, 0.5), np.zeros(grid.n))
        state = fs.fixed_point_solve(init, params, kin)
        assert not state.converged and not state.unstable
        assert state.iterations == 1
        assert state.reason == "singular step matrix at step 1"
        assert state.residual == math.inf and math.isfinite(state.pde_residual)

    @pytest.mark.parametrize("bad, message", [
        (["0.5"] * 21, "{} must hold real numbers, got dtype <U3"),
        ([0.5] * 20 + [math.nan], "{} contains non-finite values"),
        ([0.5] * 20 + [-1e-300], "{} contains negative values"),
    ], ids=["dtype", "nan", "negative"])
    def test_one_faulty_profile_is_named_as_its_caller_names_it(self, bad, message):
        """StateField and the steady solve check a profile by the same rules;
        each names the profile its own way."""
        grid, good = fs.Grid(21), np.full(21, 0.5)
        with pytest.raises(ValueError, match="^" + re.escape(message.format("u")) + "$"):
            fs.StateField(grid=grid, S=good, u=bad, v=good)
        with pytest.raises(ValueError, match="^" + re.escape(message.format("init.u")) + "$"):
            fs.fixed_point_solve((good, bad, good), theory_params(), floc_kinetics())

    @pytest.mark.parametrize("case", ["fig2a", "theory"])
    def test_fine_grid_stops_at_the_rounding_level(self, case):
        """At n = 50 001 T's entries, about d/h**2, leave each step's
        rounding noise above TOL; the solve stops once the defect stays at
        the rounding level of T X, in at most 15 steps (200, unconverged,
        with a stop on TOL alone)."""
        n = 50_001
        if case == "fig2a":
            state = preset_solve("fig2a", n)
        else:
            init = (np.full(n, 0.2), np.full(n, 0.5), np.zeros(n))
            state = fs.fixed_point_solve(init, theory_params(), floc_kinetics())
        assert state.converged and state.reason == "" and not state.unstable
        assert state.iterations <= 15
        assert state.residual < 1e-8 and state.pde_residual < 1e-5

    def test_rejects_string_init(self):
        grid = fs.Grid(21)
        init = (["0.5"] * grid.n, np.zeros(grid.n), np.zeros(grid.n))
        with pytest.raises(ValueError, match="init.Stilde must hold real numbers"):
            fs.fixed_point_solve(init, theory_params(), floc_kinetics())

    @pytest.mark.filterwarnings("error")
    def test_stops_at_first_non_finite_iterate(self):
        """On blowup_demo's kinetics u = v = 1e160 overflows the sources:
        the solve stops before its first step, without a warning, and
        returns that iterate unconverged, with nan residuals."""
        config = fs.load_preset("blowup_demo")
        grid = fs.Grid(config.controls.grid_n)
        init = (np.zeros(grid.n), np.full(grid.n, 1e160), np.full(grid.n, 1e160))
        state = fs.fixed_point_solve(init, config.params, config.kin)
        assert not state.converged and not state.unstable
        assert state.iterations == 0
        assert state.reason == "non-finite defect at step 0"
        assert np.isnan(state.residual) and np.isnan(state.pde_residual)
        assert np.isnan(state.rounding_level)
        np.testing.assert_array_equal(np.stack([state.Stilde, state.u, state.v]),
                                      np.stack(init))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("limit", [4, 200])
    def test_overflow_at_the_last_allowed_step_is_named(self, limit, monkeypatch):
        """From u = 1e150, v = 0.1 on blowup_demo's kinetics the fourth
        step overflows; the reason names it, also when it is the last step
        the limit allows."""
        monkeypatch.setattr(fs.steady, "MAX_ITER", limit)
        config = fs.load_preset("blowup_demo")
        grid = fs.Grid(config.controls.grid_n)
        init = (np.zeros(grid.n), np.full(grid.n, 1e150), np.full(grid.n, 0.1))
        state = fs.fixed_point_solve(init, config.params, config.kin)
        assert not state.converged and state.iterations == 4
        assert state.reason == "non-finite defect at step 4"
        assert np.isnan(state.residual) and np.isnan(state.pde_residual)

    def test_rejects_negative_init(self):
        params, kin = theory_params(), floc_kinetics()
        grid = fs.Grid(101)
        bad = (np.full(grid.n, -0.1), np.zeros(grid.n), np.zeros(grid.n))
        with pytest.raises(ValueError):
            fs.fixed_point_solve(bad, params, kin)

    @pytest.mark.parametrize("n", [0, 2, 15])
    def test_rejects_init_on_a_tiny_grid(self, n):
        init = (np.zeros(n), np.zeros(n), np.zeros(n))
        with pytest.raises(ValueError, match=f"grid needs at least 16 nodes, got {n}"):
            fs.fixed_point_solve(init, theory_params(), floc_kinetics())

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

    def test_numpy_integer_grid_size(self):
        params, kin = theory_params(du=0.1), floc_kinetics()
        assert (fs.check_coexistence_hypotheses(params, kin, grid_n=np.int64(201))
                == fs.check_coexistence_hypotheses(params, kin, grid_n=201))
        assert (fs.check_extinction_hypotheses(params, kin, "isolated", grid_n=np.int64(201))
                == fs.check_extinction_hypotheses(params, kin, "isolated", grid_n=201))
        np.testing.assert_array_equal(fs.kernel_matrix(0.5, np.int64(101)),
                                      fs.kernel_matrix(0.5, 101))

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
