"""Derived quantities for runs and parameter sets.

Three families:

* **Reproductive numbers** — washout-stability indices for a single
  species.  Each compares the washout-state net growth rate of one phase
  (growth at the feed concentration minus the phase's exchange loss)
  against the principal transport eigenvalue at that phase's
  diffusivity.  Both below 1 means the washout state damps invasions of
  either phase; either above 1 flags an unstable washout state.

* **Blow-up functional** — the eigenfunction-weighted biomass
  ``Q = (yu + 1) * int(u * phi) + (yv + 1) * int(v * phi)`` with ``phi``
  the principal eigenfunction of the *adjoint* transport (outlet-Robin
  variant), normalized into (0, 1].  Along trajectories of quadratic
  attachment models Q obeys a Riccati-type lower bound, so sustained
  superlinear growth of Q is the canonical blow-up signature.  It is a
  monitor, not a certificate: the Riccati coefficient is not pinned
  down numerically here.

* **Mass and energy functionals** — the weighted total mass whose
  growth the structural conditions control, and two-phase polynomial
  energies ``H_p`` used to track higher-moment growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt
from typing import Optional

import numpy as np

from .eigen import EigenPair, solve_principal
from .model import KineticsSpec, ModelParams, weight_vector
from .operators import Array, BoundaryVariant, trapezoid

__all__ = [
    "ReproductiveNumbers",
    "reproductive_numbers",
    "blowup_functional",
    "EnergyConfig",
    "hp_energy",
    "weighted_mass",
]

#: half-width of the neutral band around R = 1 in the classification
CLASSIFICATION_TOL = 1e-9


@dataclass(frozen=True)
class ReproductiveNumbers:
    """Washout-stability indices of a single-species model.

    ``R_u``/``R_v`` are the indices floored at zero (a phase whose
    washout-state net growth is negative cannot invade at all);
    ``raw_u``/``raw_v`` keep the signed values.  ``lambda_u``/``lambda_v``
    are the principal transport eigenvalues the comparison divides by.
    ``classification`` is ``"washout-stable"`` (both indices below 1),
    ``"washout-unstable"`` (at least one above 1), or ``"boundary"``
    (the larger index within ``CLASSIFICATION_TOL`` of 1).
    """

    R_u: float
    R_v: float
    raw_u: float
    raw_v: float
    lambda_u: float
    lambda_v: float
    classification: str
    grid_n: int


def reproductive_numbers(
    params: ModelParams,
    kin: KineticsSpec,
    *,
    grid_n: int = 401,
) -> ReproductiveNumbers:
    """Washout-stability indices for a single-species model.

    The isolated-phase index is
    ``(f(feed) - alpha(0, 0) / yu) / lambda(du)`` and the attached-phase
    index is ``(g(feed) - beta(0, 0) / yv) / lambda(dv)``, with each
    ``lambda`` the principal eigenvalue of the inlet-Robin transport
    operator at that phase's diffusivity.  Only defined for m = 1: with
    several species the washout linearization does not decouple into
    per-phase scalar comparisons.
    """
    if params.m != 1 or kin.m != 1:
        raise ValueError(
            f"reproductive numbers are defined for single-species models; got m={params.m}"
        )
    lam_u = solve_principal(params.du[0], grid_n, BoundaryVariant.INFLOW_ROBIN).value
    lam_v = solve_principal(params.dv[0], grid_n, BoundaryVariant.INFLOW_ROBIN).value

    S_in = params.gamma_s
    loss_u = float(kin.alpha[0](0.0, 0.0)) / params.yu[0]
    loss_v = float(kin.beta[0](0.0, 0.0)) / params.yv[0]
    raw_u = (float(kin.f[0](S_in)) - loss_u) / lam_u
    raw_v = (float(kin.g[0](S_in)) - loss_v) / lam_v
    R_u = max(0.0, raw_u)
    R_v = max(0.0, raw_v)

    top = max(R_u, R_v)
    if abs(top - 1.0) <= CLASSIFICATION_TOL:
        classification = "boundary"
    elif top < 1.0:
        classification = "washout-stable"
    else:
        classification = "washout-unstable"
    return ReproductiveNumbers(
        R_u=R_u,
        R_v=R_v,
        raw_u=raw_u,
        raw_v=raw_v,
        lambda_u=lam_u,
        lambda_v=lam_v,
        classification=classification,
        grid_n=grid_n,
    )


def blowup_functional(state, pair: EigenPair, *, yu: float, yv: float,
                      species: int = 0) -> tuple[float, float, float]:
    """Eigenfunction-weighted biomass of one species: ``(Y, Z, Q)``.

    ``Y = int(u * phi)``, ``Z = int(v * phi)``, and
    ``Q = (yu + 1) * Y + (yv + 1) * Z``.  The weight must be the
    principal eigenfunction of the **outlet-Robin** transport variant
    (the adjoint of the physical operator up to reflection), sampled on
    the state's grid and normalized into (0, 1]; anything else is
    rejected rather than silently producing a meaningless Q.
    """
    if pair.variant is not BoundaryVariant.OUTFLOW_ROBIN:
        raise ValueError(
            f"blow-up weight must use the outlet-Robin variant, got {pair.variant}"
        )
    grid_n = state.grid.n
    if pair.n != grid_n:
        raise ValueError(f"eigenfunction grid n={pair.n} != state grid n={grid_n}")
    phi = pair.function
    if float(phi.min()) <= 0.0 or float(phi.max()) > 1.0 + 1e-12:
        raise ValueError("blow-up weight must be positive with sup at most 1")
    if yu <= 0 or yv <= 0:
        raise ValueError(f"yields must be positive, got yu={yu}, yv={yv}")
    if not (0 <= species < state.m):
        raise ValueError(f"species index {species} out of range for m={state.m}")
    h = state.grid.h
    Y = float(trapezoid(state.u[species] * phi, h))
    Z = float(trapezoid(state.v[species] * phi, h))
    Q = (yu + 1.0) * Y + (yv + 1.0) * Z
    return Y, Z, Q


@dataclass(frozen=True)
class EnergyConfig:
    """Degree and coupling weight of the two-phase polynomial energy.

    ``p`` is the homogeneity degree (an integer, at least 2).  ``a`` is
    the coupling weight, at least 1; the energy's dissipation argument
    requires ``a`` to dominate both every yield coefficient and every
    ratio ``(du + dv) / (2 * sqrt(du * dv))``, which is what
    :meth:`for_params` computes as the minimal admissible choice.
    """

    p: int
    a: float

    def __post_init__(self) -> None:
        if not (isinstance(self.p, int) and self.p >= 2):
            raise ValueError(f"energy degree p must be an integer >= 2, got {self.p}")
        if not (self.a >= 1.0 and np.isfinite(self.a)):
            raise ValueError(f"energy weight a must be >= 1, got {self.a}")

    @classmethod
    def for_params(cls, params: ModelParams, *, p: int = 2) -> "EnergyConfig":
        """Minimal admissible weight for the given diffusivities and yields."""
        a = 1.0
        for i in range(params.m):
            du, dv = params.du[i], params.dv[i]
            a = max(a, params.yu[i], params.yv[i], (du + dv) / (2.0 * sqrt(du * dv)))
        return cls(p=p, a=a)


def hp_energy(u: Array, v: Array, cfg: EnergyConfig) -> tuple[Array, float]:
    """Two-phase polynomial energy of one species.

    Pointwise value ``H_p = sum_{k=0}^{p} C(p, k) * a^(k^2) * u^k * v^(p-k)``
    and its integral over the unit interval (the inputs are profiles on a
    uniform grid over [0, 1]; scalars are treated as constant profiles).
    Returns ``(pointwise, integral)``.
    """
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    if u_arr.shape != v_arr.shape:
        raise ValueError(f"u/v shapes differ: {u_arr.shape} vs {v_arr.shape}")
    if not (np.isfinite(u_arr).all() and np.isfinite(v_arr).all()):
        raise ValueError("energy inputs must be finite")
    if (u_arr.size and float(u_arr.min()) < 0.0) or (v_arr.size and float(v_arr.min()) < 0.0):
        raise ValueError("energy inputs must be nonnegative densities")
    H = np.zeros_like(u_arr)
    for k in range(cfg.p + 1):
        H = H + comb(cfg.p, k) * cfg.a ** (k * k) * u_arr**k * v_arr ** (cfg.p - k)
    if H.ndim == 0:
        return H, float(H)
    if H.ndim != 1:
        raise ValueError(f"energy inputs must be scalar or 1-D profiles, got shape {H.shape}")
    if H.size == 1:
        return H, float(H[0])
    return H, float(trapezoid(H, 1.0 / (H.size - 1)))


def weighted_mass(state, params: ModelParams, *, reading: str = "list") -> float:
    """Weighted total mass ``sum_c w_c * int(component_c)`` of a state.

    The weights are :func:`flocstat.model.weight_vector` in the given
    reading; components are ordered (substrate, u_1, v_1, ...).  This is
    the functional whose growth the structural mass-control condition
    bounds.
    """
    weights = np.asarray(weight_vector(params, reading), dtype=float)
    if state.m != params.m:
        raise ValueError(f"state has m={state.m} species, params have m={params.m}")
    h = state.grid.h
    total = weights[0] * float(trapezoid(state.S, h))
    for i in range(params.m):
        total += weights[1 + 2 * i] * float(trapezoid(state.u[i], h))
        total += weights[2 + 2 * i] * float(trapezoid(state.v[i], h))
    return total
