"""Steady-state machinery for the single-species model under unit feed.

At steady state every component of the model solves a transport balance
``-d*w'' + w' = source`` with a homogeneous inlet condition once the
substrate is rewritten as its depletion ``Stilde = 1 - S``.  That
balance inverts explicitly: the Green's kernel of the transport operator
is ``exp((min(x, s) - s)/d)``, so the steady system becomes a
fixed-point equation for the triple ``(Stilde, u, v)`` under an integral
operator.  This module provides:

* the kernel and its trapezoid quadrature matrix, kept as the dense
  reference (the kernel has a derivative kink at ``s = x``; keeping the
  kink on a grid node retains second-order accuracy);
* one application of the integral operator, which evaluates the same
  trapezoid rule in O(n) without forming the matrix: the matrix has a
  tridiagonal inverse, so the quadrature is one LAPACK ``dgttrs`` solve,
  as in the time stepper (the two-component extinction systems are the
  exact restriction of the full operator when one biomass component is
  identically zero and the matching exchange rate vanishes there — no
  special casing).  Its sources are the reaction terms at the available
  substrate ``max(1 - Stilde, 0)``, assembled by the reaction kernel of
  the time stepper (``flocstat.model._ReactionKernel``);
* a damped Picard iteration, where non-convergence is a reportable
  result, not an exception: the iteration stops at its limit, at an
  iterate that overflows, or once it stops contracting (its sup change
  is no smaller than 200 iterations earlier);
* hypothesis checkers for the extinction and coexistence existence
  theorems, reporting every clause as a signed margin.  The checkers
  are honest: for several clause systems no admissible parameters
  satisfy all clauses simultaneously, and the reports say so rather
  than manufacturing a pass.

Everything here assumes the single-species normalization the theory is
stated in: m = 1, unit substrate feed, zero biomass feed.  Calls outside
that regime raise instead of extrapolating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError

from ._lapack import dgttrf, dgttrs
from .eigen import solve_principal
from .model import GrowthLaw, KineticsSpec, ModelParams, _ReactionKernel
from .operators import Array, quadrature_inverse_bands, transport_defect, trapezoid_weights
from .pde import Grid

__all__ = [
    "kernel_eval",
    "kernel_matrix",
    "SteadyState",
    "fixed_point_solve",
    "ClauseMargin",
    "ExtinctionReport",
    "check_extinction_hypotheses",
    "CoexistenceReport",
    "check_coexistence_hypotheses",
]


# ---------------------------------------------------------------------------
# Kernel and quadrature
# ---------------------------------------------------------------------------


def kernel_eval(d: float, x, s):
    """Green's kernel ``exp((min(x, s) - s)/d)`` of the steady transport.

    Equals 1 for ``s <= x`` (everything released upstream of x arrives
    undiminished) and decays like ``exp((x - s)/d)`` for ``s > x``.
    Accepts scalars or broadcastable arrays; arguments outside ``[0, 1]``
    or a nonpositive ``d`` raise ValueError.
    """
    if not (d > 0 and math.isfinite(d)):
        raise ValueError(f"diffusivity must be positive, got {d}")
    x_arr = np.asarray(x, dtype=float)
    s_arr = np.asarray(s, dtype=float)
    for name, arr in (("x", x_arr), ("s", s_arr)):
        if arr.size and (float(arr.min()) < 0.0 or float(arr.max()) > 1.0):
            raise ValueError(f"{name} must lie in [0, 1]")
    out = np.exp((np.minimum(x_arr, s_arr) - s_arr) / d)
    if out.ndim == 0:
        return float(out)
    return out


def kernel_matrix(d: float, n: int) -> Array:
    """Quadrature matrix M with ``(M @ rho)_i ~ int K_d(x_i, s) rho(s) ds``.

    Composite trapezoid on the uniform n-node grid; the kernel kink at
    ``s = x_i`` always falls on a node, so the rule stays second order.
    This dense n-by-n matrix is the reference for the rule; the steady
    operator applies it in O(n), as a solve with its tridiagonal inverse.
    """
    x = Grid(n).x
    K = kernel_eval(d, x[:, None], x[None, :])
    return K * trapezoid_weights(n)[None, :]


# ---------------------------------------------------------------------------
# The steady integral operator
# ---------------------------------------------------------------------------


def _require_theory_regime(params: ModelParams, kin: KineticsSpec) -> None:
    if params.m != 1 or kin.m != 1:
        raise ValueError(
            f"the steady-state machinery covers the single-species system only; got m={params.m}"
        )
    if params.gamma_s != 1.0 or params.gamma_u[0] != 0.0 or params.gamma_v[0] != 0.0:
        raise ValueError(
            "the steady-state machinery assumes unit substrate feed and zero "
            f"biomass feed (gamma_s=1, gamma_u=gamma_v=0); got gamma_s={params.gamma_s}, "
            f"gamma_u={params.gamma_u[0]}, gamma_v={params.gamma_v[0]}"
        )


def _as_triple(init) -> Array:
    """Coerce the (Stilde, u, v) initial triple to a (3, n) array."""
    parts = tuple(init)
    if len(parts) != 3:
        raise ValueError(f"init must have exactly three components, got {len(parts)}")
    arrays = [np.asarray(p, dtype=float) for p in parts]
    n = arrays[0].shape[0] if arrays[0].ndim == 1 else -1
    for label, arr in zip(("Stilde", "u", "v"), arrays):
        if arr.ndim != 1 or arr.shape[0] != n:
            raise ValueError(f"init.{label} must be a 1-D array matching the others")
        if not np.isfinite(arr).all():
            raise ValueError(f"init.{label} contains non-finite values")
        if arr.size and float(arr.min()) < 0.0:
            raise ValueError(f"init.{label} contains negative values")
    return np.stack(arrays)


class _SteadyOperator:
    """Workspace applying the trapezoid quadrature of ``kernel_matrix`` in O(n):
    one ``dgttrs`` solve with its inverse T, the three components laid end
    to end as one block-diagonal system of size 3n.  ``dgttrf`` factors T's
    transpose, whose pivots a exceed the entries ``a*exp(-h/d)`` below them;
    on T every pivot ties with the entry below, and the row swaps rounding
    picks cost up to 5300 ulp (d = 0.1, n = 401)."""

    def __init__(self, params: ModelParams, kin: KineticsSpec, n: int):
        _require_theory_regime(params, kin)
        self.n = n
        self.diffs = (params.d0, params.du[0], params.dv[0])
        T = np.hstack([quadrature_inverse_bands(d, n) for d in self.diffs])
        *self._factors, info = dgttrf(T[0, 1:], T[1], T[2, :-1])
        if info != 0:
            raise LinAlgError(f"steady quadrature inverse for n={n} is singular")
        # work rows, reused by every application: the available substrate
        # and the sources, which the solve overwrites
        self._kernel = _ReactionKernel(params, kin, n)
        self._available = np.empty(n)
        self._sources = np.empty((3, n))
        self._zero, self._one = np.array(0.0), np.array(1.0)

    def sources(self, X: Array) -> Array:
        """Reaction densities feeding each component's transport balance,
        in a work array that the next call overwrites: the consumption and
        the isolated and attached reaction terms, at the available
        substrate."""
        # the available substrate 1 - Stilde, clamped as np.clip(.., 0, None)
        S_avail = np.subtract(self._one, X[0], out=self._available)
        np.maximum(S_avail, self._zero, out=S_avail)
        # (u, v) as the kernel's (1, 2, n) stack: a view of X's rows
        out = self._kernel(S_avail, X[1:].reshape(1, 2, self.n), self._sources)
        # consumption: minus the substrate row, as 0 - row (never -0.0)
        np.subtract(self._zero, out[0], out=out[0])
        return out

    def apply(self, X: Array) -> Array:
        """The operator at X, in a work array that the next call overwrites."""
        src = self.sources(X).reshape(-1)
        out = dgttrs(*self._factors, src, overwrite_b=1, trans="T")[0].reshape(3, self.n)
        return np.maximum(out, self._zero, out=out)  # np.clip(out, 0, None)

    def differential_defect(self, X: Array) -> float:
        """Sup-norm defect of the triple against the differential balances."""
        src = self.sources(X)
        return max(transport_defect(X[c], self.diffs[c], src[c], gamma=0.0).max_abs
                   for c in range(3))


# ---------------------------------------------------------------------------
# Steady states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SteadyState:
    """A (possibly unconverged) iterate of the steady fixed-point solve.

    Stilde is the substrate depletion (unit feed minus substrate,
    clamped nonnegative); u and v are the biomass profiles.  residual is
    the sup-norm defect of the fixed-point equation; pde_residual is the
    sup-norm defect of the differential balances (second-order
    differences, boundary conditions included) — the quantity that
    governs drift when the state is transplanted into the transient
    solver.  reason says why an unconverged solve stopped; it is empty
    for a converged state.  A solve that stops at a non-finite iterate
    returns that iterate, with both residuals nan; every other state is
    finite.  ``fixed_point_solve`` builds every state, from nonnegative
    profiles of the grid's length; the constructor does not check them.
    """

    grid: Grid
    Stilde: Array
    u: Array
    v: Array
    residual: float
    pde_residual: float
    converged: bool
    iterations: int
    reason: str = ""

    @property
    def substrate(self) -> Array:
        """Physical substrate profile ``(1 - Stilde)`` clamped nonnegative.

        Its outlet value being (near) zero flags total depletion — a
        post-hoc dichotomy check on converged states.
        """
        return np.clip(1.0 - self.Stilde, 0.0, None)


def _kernel_attenuation(d: float) -> float:
    """``exp(1/d)``, the kernel's decay across the unit interval; inf once
    it overflows (d below about 1/709.78)."""
    try:
        return math.exp(1.0 / d)
    except OverflowError:
        return math.inf


def _largest_depletion_margin(growth: GrowthLaw, d: float) -> Optional[float]:
    """Largest k in (0, 1) with ``growth(1 - k) >= exp(1/d)``; None if
    even an arbitrarily small depletion fails (growth(1) below the
    attenuation).  The value returned is the supremum — the crossing
    point where equality holds — located by a 4096-interval scan plus 60
    bisection steps, so non-monotone growth laws are handled.
    """
    target = _kernel_attenuation(d)
    if float(growth(1.0)) <= target:
        return None
    ks = np.linspace(0.0, 1.0, 4097)
    vals = np.asarray(growth(1.0 - ks), dtype=float)
    holds = vals >= target
    last = int(np.max(np.nonzero(holds)[0]))
    if last == ks.size - 1:
        return 1.0
    lo, hi = float(ks[last]), float(ks[last + 1])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(growth(1.0 - mid)) >= target:
            lo = mid
        else:
            hi = mid
    return lo


#: depletion cap used for exploratory envelopes when no admissible margin exists
_FALLBACK_DEPLETION = 0.5


# ---------------------------------------------------------------------------
# Fixed-point iteration
# ---------------------------------------------------------------------------


#: the weight w of the new iterate in the Picard update ``(1 - w)*x + w*G(x)``
DAMPING = 0.5

#: the solve converges once the sup change of an iteration is below TOL
TOL = 1e-10

#: the solve stops unconverged after this many iterations
MAX_ITER = 5000

#: iterations between the two sup changes the non-contraction test compares;
#: the largest ratio over that span on a converging shipped preset is 0.34
#: (fig5l), while a span of 50 or 100 stops fig5l before it converges
_CONTRACTION_WINDOW = 200

# the reduction behind ndarray.max, without its wrapper
_max = np.maximum.reduce


def fixed_point_solve(init, params: ModelParams, kin: KineticsSpec) -> SteadyState:
    """Damped Picard iteration ``x <- (1 - w)*x + w*G(x)`` on the triple,
    with ``w = DAMPING``.

    The iteration stops when the successive sup-norm change drops below
    ``TOL``; hitting ``MAX_ITER`` iterations first returns the last iterate
    marked unconverged — the operator is not proven contractive, so
    non-convergence is a result, not an error.  So does an iteration that
    stops contracting: once the sup change at iteration k is at least the
    change at iteration k - 200, the solve stops with the reason "not
    contracting".  So does an iterate that overflows: the iteration stops
    at the first non-finite one and returns it with nan residuals.  The
    returned residual is the fixed-point defect ``sup |G(x) - x|``;
    pde_residual is the differential-balance defect.
    """
    X = _as_triple(init)
    n = X.shape[1]
    grid = Grid(n)
    op = _SteadyOperator(params, kin, n)
    converged = False
    reason = f"iteration limit {MAX_ITER} reached"
    iterations = 0
    changes = []
    # the iterate, the next one and their difference live in three buffers
    X_new, diff = np.empty_like(X), np.empty_like(X)
    keep, step = np.array(1.0 - DAMPING), np.array(DAMPING)
    # overflow is detected below and reported as the stopping reason
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, MAX_ITER + 1):
            GX = op.apply(X)
            # X_new = (1 - w)*X + w*G(X)
            np.multiply(keep, X, out=X_new)
            np.add(X_new, np.multiply(step, GX, out=GX), out=X_new)
            # X is finite, so the change is finite exactly when X_new is
            np.subtract(X_new, X, out=diff)
            change = float(_max(np.absolute(diff, out=diff), None))
            X, X_new = X_new, X
            if not math.isfinite(change):
                reason = f"non-finite iterate at iteration {iterations}"
                break
            if change < TOL:
                converged, reason = True, ""
                break
            changes.append(change)
            if iterations > _CONTRACTION_WINDOW:
                earlier = changes[-1 - _CONTRACTION_WINDOW]
                if change >= earlier:
                    reason = (f"not contracting: sup change {change:.3e} at iteration "
                              f"{iterations} is not below {earlier:.3e} at iteration "
                              f"{iterations - _CONTRACTION_WINDOW}")
                    break
    if math.isfinite(change):
        residual = float(np.max(np.abs(op.apply(X) - X)))
        pde_residual = op.differential_defect(X)
    else:
        residual = pde_residual = math.nan
    return SteadyState(
        grid=grid, Stilde=X[0], u=X[1], v=X[2],
        residual=residual, pde_residual=pde_residual,
        converged=converged, iterations=iterations, reason=reason,
    )


# ---------------------------------------------------------------------------
# Hypothesis checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClauseMargin:
    """One inequality of an existence theorem as a signed margin.

    margin > 0 satisfies a strict clause; margin >= 0 a non-strict one.
    Structural (boolean) clauses use the sentinel margins +1/-1.
    """

    name: str
    margin: float
    satisfied: bool


@dataclass(frozen=True)
class ExtinctionReport:
    """Clause-by-clause audit of a single-phase survival construction.

    The construction needs the surviving phase's growth at the feed to
    exceed the kernel attenuation ``exp(1/d)`` (inf once that overflows,
    d below about 1/709.78) while staying at or below
    the principal eigenvalue — the window ``(exp(1/d), lambda_d]``.
    ``window_nonempty`` reports whether that window exists at all for
    this diffusivity; it is False for every positive d (the eigenvalue
    always sits below the attenuation), which the report states rather
    than hides.
    """

    which: str
    growth_at_feed: float
    kernel_attenuation: float
    eigenvalue: float
    clauses: tuple[ClauseMargin, ...]
    window_nonempty: bool
    all_satisfied: bool


def check_extinction_hypotheses(params: ModelParams, kin: KineticsSpec,
                                which: str, *, grid_n: int) -> ExtinctionReport:
    """Audit the hypotheses of the extinction existence construction.

    ``which`` names the phase that goes extinct: ``"attached"`` keeps
    the isolated phase (growth law f, diffusivity du, attachment must
    vanish without attached biomass), ``"isolated"`` keeps the attached
    phase (growth law g, diffusivity dv, detachment must vanish without
    isolated biomass).
    """
    _require_theory_regime(params, kin)
    if which == "attached":
        growth = kin.f[0]
        d_bio = params.du[0]
        structural_ok = bool(kin.alpha[0].vanishes_without_attached)
        structural_name = "attachment-vanishes-without-attached"
    elif which == "isolated":
        growth = kin.g[0]
        d_bio = params.dv[0]
        structural_ok = bool(kin.beta[0].vanishes_without_isolated)
        structural_name = "detachment-vanishes-without-isolated"
    else:
        raise ValueError(f"which must be 'attached' or 'isolated', got {which!r}")

    lam = solve_principal(d_bio, grid_n).value
    attenuation = _kernel_attenuation(d_bio)
    growth_at_feed = float(growth(1.0))
    clauses = (
        ClauseMargin("growth-beats-kernel-attenuation",
                     growth_at_feed - attenuation,
                     growth_at_feed > attenuation),
        ClauseMargin("growth-capped-by-eigenvalue",
                     lam - growth_at_feed,
                     growth_at_feed <= lam),
        ClauseMargin(structural_name,
                     1.0 if structural_ok else -1.0,
                     structural_ok),
    )
    return ExtinctionReport(
        which=which,
        growth_at_feed=growth_at_feed,
        kernel_attenuation=attenuation,
        eigenvalue=lam,
        clauses=clauses,
        window_nonempty=lam > attenuation,
        all_satisfied=all(cl.satisfied for cl in clauses),
    )


@dataclass(frozen=True)
class CoexistenceReport:
    """Clause-by-clause audit of the two-phase coexistence construction.

    The five clauses are evaluated at the best (theta, rho) found on a
    logarithmic grid: two strict growth clauses (each phase's growth at
    the feed beats its eigenvalue inflated by the exchange loss), two
    yield-balance clauses trading growth against the exchange floors,
    and the selection clause requiring theta below both the envelope
    ratio and the attachment floor, rho below the detachment floor.
    ``feasible`` reports whether any grid point satisfies all five; when
    none does, ``binding_clause`` names the worst-violated clause at the
    best point.  For the exchange laws studied here the system is
    infeasible for every admissible parameter set (the yield-balance
    floor always overshoots the attachment floor); the report says so
    honestly instead of returning a fabricated pass.
    """

    clauses: tuple[ClauseMargin, ...]
    theta: float
    rho: float
    feasible: bool
    feasible_count: int
    binding_clause: str


def check_coexistence_hypotheses(params: ModelParams, kin: KineticsSpec, *,
                                 grid_n: int) -> CoexistenceReport:
    """Audit the coexistence construction over a (theta, rho) grid.

    theta and rho are searched on a 64-point logarithmic grid over
    [1e-4, 1] (the construction only requires them "small enough", so
    the grid brackets plausible magnitudes).  Requires exchange-rate
    descriptors that are monotone in the densities — the envelope floors are
    evaluated at the lower envelopes, which bounds the rates from below
    on the whole envelope box only under monotonicity.
    """
    _require_theory_regime(params, kin)
    pairs = [solve_principal(d, grid_n) for d in (params.d0, params.du[0], params.dv[0])]
    for label, pair in zip(("d0", "du", "dv"), pairs):
        # the envelope ratios below are 0/0 wherever an eigenfunction is 0
        if float(np.min(pair.function)) <= 0.0:
            raise ValueError(
                f"eigenfunction for {label}={pair.d:g} underflows to zero on the "
                f"{grid_n}-node grid (its range exceeds the smallest double); "
                "the coexistence envelopes are undefined"
            )
    pair0, pair1, pair2 = pairs
    f1 = float(kin.f[0](1.0))
    g1 = float(kin.g[0](1.0))
    if f1 + g1 <= 0.0:
        raise ValueError("coexistence envelopes need positive growth at the feed")
    # envelope geometry: depletion capped by both margins, nested biomass
    # envelopes, lower envelopes the uppers over their eigenvalues
    k = _largest_depletion_margin(kin.f[0], params.du[0])
    k_prime = _largest_depletion_margin(kin.g[0], params.dv[0])
    cap = min(k if k is not None else _FALLBACK_DEPLETION,
              k_prime if k_prime is not None else _FALLBACK_DEPLETION)
    # 0.999 keeps the depletion envelope strictly below the margin
    upper_S = 0.999 * cap * pair0.function
    ceiling = (pair0.value / (f1 + g1)) * upper_S
    upper_u = float(np.min(ceiling / pair1.function)) * pair1.function
    upper_v = float(np.min(upper_u / pair2.function)) * pair2.function
    lower_u = upper_u / pair1.value
    lower_v = upper_v / pair2.value
    theta_cap = float(np.min(upper_v / upper_u))
    alpha_floor = float(np.min(kin.alpha[0](lower_u[None, :], lower_v[None, :])))
    beta_floor = float(np.min(kin.beta[0](lower_u[None, :], lower_v[None, :])))

    a11 = float(kin.alpha[0](1.0, 1.0))
    b11 = float(kin.beta[0](1.0, 1.0))
    yu, yv = params.yu[0], params.yv[0]
    lam1, lam2 = pair1.value, pair2.value

    growth_u = f1 - lam1 * (1.0 + a11 / yu)
    growth_v = g1 - lam2 * (1.0 + b11 / yv)

    thetas = rhos = np.geomspace(1e-4, 1.0, 64)
    m3 = lam1 + thetas / (yu * lam1) - (f1 + b11)                      # (T,)
    m4 = lam2 + rhos[None, :] / (yv * lam2) - (g1 + a11 / thetas[:, None])  # (T, R)
    sel_theta = np.minimum(theta_cap - thetas, alpha_floor - thetas)
    m5 = np.minimum(sel_theta[:, None], (beta_floor - rhos)[None, :])   # (T, R)

    score = np.minimum(np.minimum(m3[:, None], m4), m5)
    score = np.minimum(score, min(growth_u, growth_v))
    best_flat = int(np.argmax(score))
    it, ir = np.unravel_index(best_flat, score.shape)
    theta_best = float(thetas[it])
    rho_best = float(rhos[ir])

    feasible_mask = (
        (growth_u > 0.0) & (growth_v > 0.0)
        & (m3[:, None] >= 0.0) & (m4 >= 0.0) & (m5 >= 0.0)
    )
    feasible_count = int(np.count_nonzero(feasible_mask))

    clauses = (
        ClauseMargin("isolated-growth-beats-washout", growth_u, growth_u > 0.0),
        ClauseMargin("attached-growth-beats-washout", growth_v, growth_v > 0.0),
        ClauseMargin("isolated-yield-balance", float(m3[it]), float(m3[it]) >= 0.0),
        ClauseMargin("attached-yield-balance", float(m4[it, ir]), float(m4[it, ir]) >= 0.0),
        ClauseMargin("exchange-floor-selection", float(m5[it, ir]), float(m5[it, ir]) >= 0.0),
    )
    binding = min(clauses, key=lambda cl: cl.margin).name
    return CoexistenceReport(
        clauses=clauses,
        theta=theta_best,
        rho=rho_best,
        feasible=feasible_count > 0,
        feasible_count=feasible_count,
        binding_clause=binding,
    )
