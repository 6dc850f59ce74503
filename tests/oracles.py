"""Independent reference computations used to validate the package.

Everything here is derived from first principles with generic tools
(root-finding on closed forms, shooting with an adaptive ODE integrator)
and deliberately shares no code with the package implementations it
checks.  The one exception is the reference IMEX step, which reuses the
package's stencil and kinetics to check only its solve.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from flocstat.model import reaction_field
from flocstat.operators import operator_bands


def transcendental_eigenvalue(d: float) -> float:
    """Principal eigenvalue of the washout operator from its closed form.

    Substituting w(x) = exp(x/(2d)) * (cos(om*x) + c*sin(om*x)) into
    -d w'' + w' = lam * w with the inflow/outflow boundary conditions reduces
    the eigenproblem to the scalar root of  om + 2*atan(2*d*om) = pi  on
    (0, pi), with  lam = 1/(4d) + d*om^2.
    """
    om = brentq(
        lambda w: w + 2.0 * math.atan(2.0 * d * w) - math.pi,
        1e-12,
        math.pi - 1e-12,
        xtol=1e-15,
        rtol=8.9e-16,
    )
    return 1.0 / (4.0 * d) + d * om * om


def shooting_eigenvalue(d: float, *, rtol: float = 1e-12) -> float:
    """Cross-check of the principal eigenvalue by shooting.

    Integrates the initial value problem for -d w'' + w' = lam w starting
    from the inflow condition w(0) = 1, w'(0) = 1/d and bisects lam until
    the outflow condition w'(1) = 0 holds.  Independent of both the closed
    form above and any finite-difference discretization.
    """

    def outflow_slope(lam: float) -> float:
        def rhs(_x, y):
            return [y[1], (y[1] - lam * y[0]) / d]

        sol = solve_ivp(
            rhs, (0.0, 1.0), [1.0, 1.0 / d], rtol=rtol, atol=1e-14, dense_output=False
        )
        return sol.y[1, -1]

    # om in (0, pi) gives the always-valid upper bound; the quarter-pi lower
    # bound is only below the eigenvalue for small d, so fall back to the
    # universal floor lam > 1 otherwise.
    if d < 1.0 / (2.0 * math.pi):
        lower = 1.0 / (4.0 * d) + math.pi**2 * d / 4.0
    else:
        lower = 1.0 + 1e-9
    upper = 1.0 / (4.0 * d) + math.pi**2 * d
    return brentq(outflow_slope, lower, upper, xtol=1e-13, rtol=8.9e-16)


def kernel_closed_form(d: float, x: float, s: float) -> float:
    """Green's function of -d w'' + w' on (0,1) with the chemostat boundary
    conditions, evaluated directly from its piecewise-exponential form."""
    return math.exp((min(x, s) - s) / d)


def _growth_reference(law, S):
    """A growth law's formula, read off its class and coefficients."""
    name = type(law).__name__
    if name == "Monod":
        return law.a * S / (law.b + S)
    if name == "Haldane":
        return law.a * S / (law.b + S + law.c * S * S)
    if name == "ZeroGrowth":
        return np.zeros_like(S)
    raise NotImplementedError(name)


def rate_reference(law, total, attached):
    """An exchange-rate law's formula on total and attached biomass, read off
    its class and coefficients, in the floating-point operations the package
    has always evaluated it with: ``c*T`` as ``np.multiply(c, T)``, ``T*V``,
    ``(1 + V)*T`` as ``np.add(1, V) * T``, ``c*T**l`` with the in-place power
    operator, and a constant as a filled row."""
    name = type(law).__name__
    if name == "ConstantRate":
        return np.full(np.shape(total), law.c)
    if name == "LinearTotalRate":
        return np.multiply(law.c, total)
    if name == "AttachedTimesTotalRate":
        return total * attached
    if name == "OnePlusAttachedTimesTotalRate":
        return np.add(1, attached) * total
    if name == "PowerTotalRate":
        power = np.array(total, dtype=float)
        power **= law.l
        return law.c * power
    raise NotImplementedError(name)


def sample_box() -> np.ndarray:
    """The tensor grid of 64 points per axis on [0, 10]^3, as the rows
    ``(S, u, v)`` of a (3, 64**3) array: a single-species state box."""
    axis = np.linspace(0.0, 10.0, 64)
    return np.stack([g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij")])


def reaction_reference(params, kin, S, u, v):
    """Reaction terms of the profile state ``S`` (n,), ``u``/``v`` (m, n).

    Every law is written out here from its coefficients, and every row is
    one whole-array expression of the formulas in ``reaction_field``'s
    docstring, with the substrate row accumulated species by species.
    """
    total = np.sum(u, axis=0) + np.sum(v, axis=0)
    attached = np.sum(v, axis=0)
    out = np.empty((2 * params.m + 1, S.shape[0]))
    substrate = np.zeros(S.shape[0])
    for i in range(params.m):
        growth_u = _growth_reference(kin.f[i], S) * u[i]
        growth_v = _growth_reference(kin.g[i], S) * v[i]
        attach = rate_reference(kin.alpha[i], total, attached) * u[i]
        detach = rate_reference(kin.beta[i], total, attached) * v[i]
        substrate = substrate - (growth_u + growth_v)
        out[1 + 2 * i] = growth_u - attach / params.yu[i] + detach
        out[2 + 2 * i] = growth_v + attach - detach / params.yv[i]
    out[0] = substrate
    return out


def imex_step_banded(params, kin, W, dt: float):
    """One IMEX step of the stack ``W = (S, u_1, v_1, ..., u_m, v_m)``, the
    transport solved component by component.

    The explicit stage comes from the public ``reaction_field``; each
    component then solves ``(I + dt*A) w = rhs`` with ``A`` from
    ``operator_bands`` and its own ``solve_banded`` call.  The inlet feed
    enters the first row as ``(2/h + 1/d) * gamma``.  Undershoots are
    clamped to zero as the stepper does.
    """
    n = W.shape[1]
    h = 1.0 / (n - 1)
    diffs = [params.d0]
    feeds = [params.gamma_s]
    for i in range(params.m):
        diffs += [params.du[i], params.dv[i]]
        feeds += [params.gamma_u[i], params.gamma_v[i]]
    R = reaction_field(params, kin, W[0], W[1::2], W[2::2])
    out = np.empty_like(W)
    for c, (d, gamma) in enumerate(zip(diffs, feeds)):
        feed = np.zeros(n)
        feed[0] = (2.0 / h + 1.0 / d) * gamma
        lhs = dt * operator_bands(d, n)
        lhs[1] += 1.0
        out[c] = solve_banded((1, 1), lhs, W[c] + dt * (R[c] + feed))
    if out.min() < 0.0:
        np.clip(out, 0.0, None, out=out)
    return out


# Closed-form principal eigenvalues, frozen from transcendental_eigenvalue
# (16-digit root solve of om + 2*atan(2*d*om) = pi; lam = 1/(4d) + d*om^2).
EIGENVALUE_BY_DIFFUSIVITY = {
    0.02: 12.66934426288988,
    0.05: 5.345233909055855,
    0.1: 3.0218728751143926,
    0.15: 2.292270830930398,
    0.5: 1.3535264877754616,
    1.0: 1.1719626735897388,
    5.0: 1.0335534464168554,
    10.0: 1.0167219581194766,
    100.0: 1.0016672219577163,
    1000.0: 1.0001666722219553,
}
