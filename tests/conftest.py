"""Shared fixtures and hypothesis configuration for the test suite."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

import flocstat as fs

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


def floc_kinetics(f=None, g=None, alpha=None, beta=None) -> fs.KineticsSpec:
    """Single-species kinetics with the standard flocculation exchange laws."""
    return fs.KineticsSpec(
        f=(f if f is not None else fs.Monod(4.0, 1.0),),
        g=(g if g is not None else fs.Monod(5.0, 1.0),),
        alpha=(alpha if alpha is not None else fs.AttachedTimesTotalRate(),),
        beta=(beta if beta is not None else fs.OnePlusAttachedTimesTotalRate(),),
    )


def standard_params(d0=1.0, du=1.0, dv=10.0, yu=0.1, yv=0.1, gamma_s=1.0) -> fs.ModelParams:
    return fs.ModelParams(m=1, d0=d0, du=du, dv=dv, yu=yu, yv=yv, gamma_s=gamma_s)


def mass_growth_class(result: fs.SimulationResult) -> str:
    """Heuristic three-way fit of a run's weighted-mass monitor series:
    bounded (no sustained late growth), linear (steady late increments), or
    exponential (late increments outpacing earlier ones)."""
    t = result.monitors["t"]
    mass = result.monitors["mass"]
    peak = float(mass.max())
    t0, t1 = float(t[0]), float(t[-1])
    if t1 <= t0:
        return "bounded"
    quart = [np.interp(t0 + q * (t1 - t0), t, mass) for q in (0.5, 0.75, 1.0)]
    late_growth = quart[2] - quart[0]
    scale = max(abs(peak), 1.0)
    if late_growth <= 0.05 * scale:
        return "bounded"
    inc1 = quart[1] - quart[0]
    inc2 = quart[2] - quart[1]
    return "exponential" if inc2 > 1.5 * max(inc1, 0.0) else "linear"


@pytest.fixture
def saturating_setup():
    """Saturating attached growth with fast isolated dispersal."""
    return standard_params(), floc_kinetics()


@pytest.fixture
def grid_201():
    return fs.Grid(201)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion after the run."""
    try:
        import test_acceptance
    except ImportError:
        return
    results = getattr(test_acceptance, "CRITERION_RESULTS", {})
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        ok, detail = results[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{status} criterion {num}: {detail}")
