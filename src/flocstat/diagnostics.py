"""Derived quantities for runs and parameter sets.

**Reproductive numbers** are washout-stability indices for a single
species.  Each compares the washout-state net growth rate of one phase
(growth at the feed concentration minus the phase's exchange loss)
against the principal transport eigenvalue at that phase's
diffusivity.  Both below 1 means the washout state damps invasions of
either phase; either above 1 flags an unstable washout state.

The weighted total mass and the eigenfunction-weighted biomass Q of a run
are monitor columns of :func:`flocstat.pde.simulate`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eigen import solve_principal
from .model import KineticsSpec, ModelParams

__all__ = [
    "ReproductiveNumbers",
    "reproductive_numbers",
]

#: half-width of the neutral band around R = 1 in the classification
CLASSIFICATION_TOL = 1e-9


@dataclass(frozen=True)
class ReproductiveNumbers:
    """Washout-stability indices of a single-species model.

    ``R_u``/``R_v`` are the indices floored at zero (a phase whose
    washout-state net growth is negative cannot invade at all).
    ``classification`` is ``"washout-stable"`` (both indices below 1),
    ``"washout-unstable"`` (at least one above 1), or ``"boundary"`` (the
    larger index within ``CLASSIFICATION_TOL`` of 1).
    """

    R_u: float
    R_v: float
    classification: str


def reproductive_numbers(params: ModelParams, kin: KineticsSpec, *,
                         grid_n: int) -> ReproductiveNumbers:
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
    lam_u = solve_principal(params.du[0], grid_n).value
    lam_v = solve_principal(params.dv[0], grid_n).value

    S_in = params.gamma_s
    loss_u = float(kin.alpha[0](0.0, 0.0)) / params.yu[0]
    loss_v = float(kin.beta[0](0.0, 0.0)) / params.yv[0]
    R_u = max(0.0, (float(kin.f[0](S_in)) - loss_u) / lam_u)
    R_v = max(0.0, (float(kin.g[0](S_in)) - loss_v) / lam_v)

    top = max(R_u, R_v)
    if abs(top - 1.0) <= CLASSIFICATION_TOL:
        classification = "boundary"
    elif top < 1.0:
        classification = "washout-stable"
    else:
        classification = "washout-unstable"
    return ReproductiveNumbers(R_u=R_u, R_v=R_v, classification=classification)
