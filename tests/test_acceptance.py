"""Acceptance gate: nine (criterion 9 retired) end-to-end criteria with stated
tolerances and budgets.

Each test computes its criterion, records one PASS/FAIL line (echoed in the
terminal summary), and enforces a wall-clock budget.
"""

import time

import numpy as np
import pytest

import flocstat as fs
from flocstat.cli import _simulate_config
from flocstat.operators import transport_defect
from conftest import floc_kinetics, mass_growth_class, standard_params

from oracles import EIGENVALUE_BY_DIFFUSIVITY, sample_box

CRITERION_RESULTS: dict[int, tuple[bool, str]] = {}


def _record(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    within = elapsed < budget
    line = f"{detail} [{elapsed:.2f}s / budget {budget:.0f}s]"
    verdict = bool(ok and within)
    CRITERION_RESULTS[num] = (verdict, line)
    print(("PASS" if verdict else "FAIL") + f" criterion {num}: {line}")
    assert ok, line
    assert within, f"criterion {num} exceeded budget: {line}"


def test_criterion_01_eigenvalue_bracket():
    """FD eigenvalue lies strictly inside the analytic bracket for small d."""
    start = time.perf_counter()
    margins = []
    ok = True
    for d in (0.02, 0.05, 0.1, 0.15):
        pair = fs.solve_principal(d, n=401)
        bracket = fs.lambda_bracket(d)
        inside = bracket.lower < pair.value < bracket.upper
        ok = ok and bracket.enclosure and inside
        margins.append(
            min(pair.value - bracket.lower, bracket.upper - pair.value)
        )
    detail = f"four diffusivities strictly bracketed, min margin {min(margins):.4f}"
    _record(1, ok, detail, time.perf_counter() - start, 1.0)


def test_criterion_02_eigenvalue_monotone_with_tail():
    """Eigenvalue strictly decreases in d and approaches 1 from above."""
    start = time.perf_counter()
    ds = (0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 100.0, 1000.0)
    values = [fs.solve_principal(d, n=401).value for d in ds]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    tail = 1.0 < values[-1] < 1.01
    detail = (
        f"strictly decreasing over 8 diffusivities, "
        f"value at d=1000 is {values[-1]:.6f} in (1, 1.01)"
    )
    _record(2, decreasing and tail, detail, time.perf_counter() - start, 1.0)


def test_criterion_03_kernel_quadrature_consistency():
    """Kernel quadrature satisfies the transport equation and both boundary
    conditions with second-order defect decay under refinement."""
    start = time.perf_counter()
    densities = {
        "one": lambda s: np.ones_like(s),
        "linear": lambda s: s,
        "quadratic": lambda s: s**2,
        "sine": lambda s: np.sin(np.pi * s),
    }
    worst_order = np.inf
    worst_defect = 0.0
    ok = True
    for d in (0.2, 1.0, 10.0):
        for name, rho_fn in densities.items():
            defects = {}
            for n in (101, 401):
                x = np.linspace(0.0, 1.0, n)
                rho = rho_fn(x)
                w = fs.kernel_matrix(d, n) @ rho
                defects[n] = transport_defect(w, d, rho, gamma=0.0)
            order = np.log(defects[101] / defects[401]) / np.log(4.0)
            worst_order = min(worst_order, order)
            worst_defect = max(worst_defect, defects[401])
            ok = ok and order >= 1.9
    detail = (
        f"12 (diffusivity, density) pairs: defect order >= {worst_order:.3f}, "
        f"fine-grid defect <= {worst_defect:.2e}"
    )
    _record(3, ok and worst_defect < 1e-2, detail, time.perf_counter() - start, 1.0)


def test_criterion_04_substrate_bound_over_preset_suite():
    """sup_S never exceeds max(feed, initial sup) + 1e-3 on any preset."""
    start = time.perf_counter()
    failures = []
    for name in fs.available_presets():
        config = fs.load_preset(name)
        result = _simulate_config(config)
        sup_max = float(result.monitors["sup_S"].max())
        limit = max(config.params.gamma_s, float(result.snapshots[0].S.max()))
        if sup_max - limit > 1e-3:
            failures.append(f"{name}: {sup_max:.6f} > {limit:.6f}")
    detail = (
        f"all {len(fs.available_presets())} presets respect the bound"
        if not failures
        else "violations: " + "; ".join(failures)
    )
    _record(4, not failures, detail, time.perf_counter() - start, 120.0)


def test_criterion_05_blow_up_dichotomy():
    """Doubling search: yields above one blow up at finite data, yields below
    one stay bounded at the same magnitude."""
    start = time.perf_counter()
    kin = fs.KineticsSpec(
        f=(fs.ZeroGrowth(),),
        g=(fs.ZeroGrowth(),),
        alpha=(fs.LinearTotalRate(1.0),),
        beta=(fs.LinearTotalRate(1.0),),
    )
    grid = fs.Grid(201)

    def run(y: float, magnitude: float):
        params = fs.ModelParams(m=1, d0=1.0, du=1.0, dv=1.0, yu=y, yv=y, gamma_s=1.0)
        initial = fs.StateField.constant(grid, S=1.0, u=magnitude, v=magnitude)
        return fs.simulate(initial, params, kin, t_end=20.0)

    magnitude, blow_at = 1.0, None
    for _ in range(12):
        result = run(1.5, magnitude)
        if result.verdict.kind == "blow_up":
            blow_at = magnitude
            break
        magnitude *= 2.0
    ok = blow_at is not None
    detail = f"doubling search found blow-up at magnitude {blow_at}"
    if ok:
        safe = run(0.9, blow_at)
        growth = mass_growth_class(safe)
        ok = safe.verdict.kind == "completed" and growth == "bounded"
        detail += f"; yield 0.9 at the same magnitude completed t=20 with {growth} mass"
    _record(5, ok, detail, time.perf_counter() - start, 60.0)


def test_criterion_06_washout_stability_threshold():
    """Sub-threshold reproductive numbers decay below 1e-4 by t = 200; a
    super-threshold configuration retains order-one biomass."""
    start = time.perf_counter()
    grid = fs.Grid(201)
    decayed, grew = [], None

    def total_biomass(params, kin):
        initial = fs.StateField.constant(grid, S=params.gamma_s, u=0.01, v=0.01)
        result = fs.simulate(initial, params, kin, t_end=200.0)
        final = result.snapshots[-1]
        return float(np.max(final.u) + np.max(final.v))

    stable_cases = [
        (0.05, 0.05),
        (0.1, 0.1),
        (0.1, 0.15),
    ]
    ok = True
    for du, dv in stable_cases:
        params = standard_params(du=du, dv=dv)
        kin = floc_kinetics(f=fs.Monod(1.0, 1.0), g=fs.Monod(1.0, 1.0))
        repro = fs.reproductive_numbers(params, kin, grid_n=201)
        ok = ok and repro.R_u < 1.0 and repro.R_v < 1.0
        biomass = total_biomass(params, kin)
        decayed.append(biomass)
        ok = ok and biomass < 1e-4

    params = standard_params(du=1.0, dv=10.0)
    kin = floc_kinetics()
    repro = fs.reproductive_numbers(params, kin, grid_n=201)
    ok = ok and repro.R_u > 1.0
    grew = total_biomass(params, kin)
    ok = ok and grew >= 1e-4

    detail = (
        f"three sub-threshold runs decayed to <= {max(decayed):.2e}; "
        f"super-threshold run kept biomass {grew:.4f}"
    )
    _record(6, ok, detail, time.perf_counter() - start, 120.0)


def test_criterion_07_figure_preset_verdicts():
    """Canonical presets reproduce the expected long-run outcomes."""
    start = time.perf_counter()
    expected = {
        "fig1": "coexistence",
        "fig2": "extinction-v",
        "fig3": "coexistence",
        "fig6": "extinction-v",
    }
    got = {}
    for name in expected:
        config = fs.load_preset(name)
        result = _simulate_config(config)
        got[name] = fs.classify_outcome(result)
    ok = got == expected
    detail = ", ".join(f"{k}->{v}" for k, v in got.items())
    _record(7, ok, detail, time.perf_counter() - start, 180.0)


def test_criterion_08_steady_state_is_dynamic_equilibrium():
    """A converged fixed point drifts less than 1e-5 over ten time units."""
    start = time.perf_counter()
    params, kin = standard_params(), floc_kinetics()
    grid = fs.Grid(801)
    init = (np.full(grid.n, 0.2), np.full(grid.n, 0.5), np.zeros(grid.n))
    steady = fs.fixed_point_solve(init, params, kin)
    residual_ok = steady.converged and steady.residual < 1e-6 and steady.pde_residual < 1e-6
    state = fs.StateField(
        grid=grid,
        S=steady.substrate,
        u=steady.u[None, :],
        v=steady.v[None, :],
    )
    result = fs.simulate(state, params, kin, t_end=10.0)
    final = result.snapshots[-1]
    drift = max(
        float(np.max(np.abs(final.S - state.S))),
        float(np.max(np.abs(final.u - state.u))),
        float(np.max(np.abs(final.v - state.v))),
    )
    ok = residual_ok and drift < 1e-5
    detail = (
        f"fixed point residual {steady.residual:.2e}, transport defect "
        f"{steady.pde_residual:.2e}, drift over t=10 is {drift:.2e}"
    )
    _record(8, ok, detail, time.perf_counter() - start, 30.0)


def test_criterion_10_property_suites():
    """Quasipositivity, dissipativity, quadrature refinement, determinism."""
    start = time.perf_counter()
    parts = []

    # (QP) for every preset, each row of the reaction field is nonnegative
    # on the face of a 64^3 state box where its own component vanishes;
    # with m species, every species takes the box's (u, v)
    qp_ok, state_box = True, sample_box()
    for name in fs.available_presets():
        config = fs.load_preset(name)
        box = np.concatenate([state_box[:1]] + [state_box[1:]] * config.params.m)
        for row in range(len(box)):
            face = box.copy()
            face[row] = 0.0
            field = fs.reaction_field(config.params, config.kin, face[0], face[1::2], face[2::2])
            qp_ok = qp_ok and bool(np.min(field[row]) >= 0.0)
    parts.append(("quasipositivity", qp_ok))

    # (DISS) weighted-mass inequality for every preset whose yield
    # products stay at or below one
    diss_ok = True
    for name in fs.available_presets():
        config = fs.load_preset(name)
        if max(config.params.yield_products) > 1.0:
            continue
        report = fs.check_structural_conditions(config.params, config.kin)
        diss_ok = diss_ok and report.mass_control == "satisfied"
    parts.append(("dissipativity", diss_ok))

    # quadrature defect refines at second order
    defects = {}
    for n in (101, 401):
        x = np.linspace(0.0, 1.0, n)
        rho = np.sin(np.pi * x)
        w = fs.kernel_matrix(0.5, n) @ rho
        defects[n] = transport_defect(w, 0.5, rho, gamma=0.0)
    order = float(np.log(defects[101] / defects[401]) / np.log(4.0))
    parts.append(("quadrature-order", order >= 1.9))

    # bitwise determinism of repeated runs
    config = fs.load_preset("fig2a")
    grid = fs.Grid(101)
    initial = fs.StateField.constant(grid, S=0.1, u=1.0, v=1.0)
    a = fs.simulate(initial, config.params, config.kin, t_end=3.0)
    b = fs.simulate(initial, config.params, config.kin, t_end=3.0)
    det_ok = (
        np.array_equal(a.snapshots[-1].S, b.snapshots[-1].S)
        and np.array_equal(a.snapshots[-1].u, b.snapshots[-1].u)
        and np.array_equal(a.snapshots[-1].v, b.snapshots[-1].v)
        and np.array_equal(a.monitors["mass"], b.monitors["mass"])
    )
    parts.append(("determinism", det_ok))

    ok = all(flag for _, flag in parts)
    detail = ", ".join(f"{name}={'ok' if flag else 'FAILED'}" for name, flag in parts)
    detail += f" (quadrature order {order:.3f})"
    _record(10, ok, detail, time.perf_counter() - start, 60.0)
