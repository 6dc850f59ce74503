"""Steady-state machinery for the single-species model under unit feed.

At steady state every component of the model solves a transport balance
``-d*w'' + w' = source`` with a homogeneous inlet condition once the
substrate is rewritten as its depletion ``Stilde = 1 - S``.  That
balance inverts explicitly: the Green's kernel of the transport operator
is ``exp((min(x, s) - s)/d)``, so the steady system becomes a
fixed-point equation for the triple ``(Stilde, u, v)`` under an integral
operator.  This module provides:

* the kernel and its trapezoid quadrature matrix M, kept as the dense
  reference (the kernel has a derivative kink at ``s = x``; keeping the
  kink on a grid node retains second-order accuracy);
* the steady equations ``X = M s(X)`` as the root problem
  ``F(X) = s(X) - T X = 0``, with T the tridiagonal inverse of M, so that
  M is never applied (the two-component extinction systems are the exact
  restriction of the full system when one biomass component is
  identically zero and the matching exchange rate vanishes there — no
  special casing).  The sources s are the reaction terms at the available
  substrate ``max(1 - Stilde, 0)``, assembled by the reaction kernel of
  the time stepper (``flocstat.model._ReactionKernel``);
* pseudo-transient continuation on F: implicit Euler steps of the flow
  ``T X' = F(X)`` whose pseudo-time step grows until they are Newton's.
  Each step makes one LAPACK ``dgbtrf`` factorization of the equations'
  band (node-major, kl = ku = 3), which also gives the stop test, the
  step's size, and at the root the sign of det(-J), negative on an
  unstable root.  Non-convergence is a reportable result, not an
  exception;
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

from ._lapack import dgbtrf, dgbtrs
from .eigen import _as_diffusivity, solve_principal
from .model import GrowthLaw, KineticsSpec, ModelParams, _ReactionKernel, _as_profile
from .operators import (Array, band_matvec, quadrature_inverse_bands, transport_defect,
                        trapezoid_weights)
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
    or a d that is not a positive finite real number raise ValueError.
    """
    d = _as_diffusivity(d)
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
    solve never forms or applies it, and works with its tridiagonal
    inverse (``operators.quadrature_inverse_bands``) instead.
    """
    x = Grid(n).x
    K = kernel_eval(d, x[:, None], x[None, :])
    return K * trapezoid_weights(n)[None, :]


# ---------------------------------------------------------------------------
# The steady equations
# ---------------------------------------------------------------------------


def _require_theory_regime(params: ModelParams, kin: KineticsSpec) -> None:
    if params.m != 1 or kin.m != 1:
        raise ValueError(
            f"the steady-state machinery covers the single-species system only; got m={params.m}"
        )
    if params.feeds != (1.0, 0.0, 0.0):
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
    labels = ("Stilde", "u", "v")
    arrays = [_as_profile(p, f"init.{label}") for label, p in zip(labels, parts)]
    n = arrays[0].shape[0] if arrays[0].ndim == 1 else -1
    for label, arr in zip(labels, arrays):
        if arr.ndim != 1 or arr.shape[0] != n:
            raise ValueError(f"init.{label} must be a 1-D array matching the others")
    return np.stack(arrays)


class _SteadyOperator:
    """Workspace for the steady equations ``s(X) - T X = 0`` on n nodes:
    the sources s, the defect, and the band of its Jacobian.  T is the
    tridiagonal inverse of ``kernel_matrix``'s quadrature, the three
    components laid end to end as one block-diagonal system of size 3n."""

    def __init__(self, params: ModelParams, kin: KineticsSpec, n: int):
        _require_theory_regime(params, kin)
        self.n = n
        self.diffs = params.diffusivities
        self._T = np.hstack([quadrature_inverse_bands(d, n) for d in self.diffs])
        # work rows, reused by every evaluation: the available substrate
        # and the sources
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

    def defect(self, X: Array, src: Optional[Array] = None) -> Array:
        """``s(X) - T X``: the steady equations ``X = M s(X)`` as a root
        problem.  src, if given, holds the sources at X."""
        if src is None:
            src = self.sources(X)
        # T's three blocks end to end are one tridiagonal matrix: each
        # block's bands are zero at its edges, so no block couples to the next
        return src - band_matvec(self._T, X.reshape(-1)).reshape(3, self.n)

    def jacobian_bands(self, X: Array, mass: float = 1.0,
                       src: Optional[Array] = None) -> Array:
        """``ds/dX - mass*T`` at X, which for mass 1 is the Jacobian of
        :meth:`defect`, in node-major order (unknown ``3i + c`` is
        component c at node i), where it is banded with kl = ku = 3: entry
        (k, j) sits at row ``6 + k - j`` of the (10, 3n) array, whose top
        three rows are the fill space ``dgbtrf`` needs.  The sources are
        node-local, so one forward difference per component, with every
        node perturbed at once, gives all their 3x3 node blocks; T's part
        is exact.  src, if given, holds the sources at X, from which the
        differences are taken; it must not be the work array of
        :meth:`sources`."""
        n = self.n
        # Fortran order, so that dgbtrf factors it in place
        band = np.zeros((10, 3 * n), order="F")
        for c in range(3):
            Tc = self._T[:, c * n:(c + 1) * n]
            band[3, c + 3::3] = -mass * Tc[0, 1:]
            band[6, c::3] = -mass * Tc[1]
            band[9, c:3 * n - 3:3] = -mass * Tc[2, :-1]
        base = self.sources(X).copy() if src is None else src
        shifted = X.copy()
        for c in range(3):
            shifted[c] = X[c] + _DIFFERENCE_STEP * np.maximum(np.abs(X[c]), 1.0)
            slopes = self.sources(shifted)  # a work array: difference it in place
            slopes -= base
            slopes /= shifted[c] - X[c]
            for r in range(3):
                band[6 + r - c, c::3] += slopes[r]
            shifted[c] = X[c]
        return band

    def differential_defect(self, X: Array) -> float:
        """Sup-norm defect of the triple against the differential balances."""
        src = self.sources(X)
        return max(transport_defect(X[c], self.diffs[c], src[c], gamma=0.0) for c in range(3))


# ---------------------------------------------------------------------------
# Steady states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SteadyState:
    """A (possibly unconverged) iterate of the steady fixed-point solve.

    Stilde is the substrate depletion (unit feed minus substrate,
    clamped nonnegative); u and v are the biomass profiles.  residual is
    the sup norm of the solve's last pseudo-transient step, inf if it took
    none; pde_residual is the sup-norm defect of the differential balances
    (second-order differences, boundary conditions included) — the
    quantity that governs drift when the state is transplanted into the
    transient solver.  rounding_level is the rounding level of T X at the
    returned state, the one the solve's stop compares ``sup |F|`` with (see
    ``fixed_point_solve``); a pde_residual at most this is rounding noise
    of the second differences, not a measure of the profile's error.
    iterations counts the pseudo-transient steps, the final Newton step of
    a converged solve included.  reason says why an unconverged solve
    stopped; it is empty for a converged state.  A solve that stops at a
    non-finite defect returns its iterate, with both residuals and
    rounding_level nan; on every other state pde_residual is finite.
    unstable is True on a converged state where det(-J) < 0, J the
    Jacobian of the steady equations: J then has an odd number of positive
    real eigenvalues, so the state is linearly unstable.  False proves no
    stability: an even number of them, or a complex pair in the right
    half-plane, leaves det(-J) > 0.  ``fixed_point_solve`` builds every state, from
    nonnegative profiles of the grid's length; the constructor does not
    check them.
    """

    grid: Grid
    Stilde: Array
    u: Array
    v: Array
    residual: float
    pde_residual: float
    rounding_level: float
    converged: bool
    iterations: int
    reason: str = ""
    unstable: bool = False

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


#: the solve converges once a pseudo-transient step's sup norm is below TOL,
#: or once its defect stays at rounding level (see fixed_point_solve)
TOL = 1e-10

#: the solve stops unconverged after this many pseudo-transient steps
MAX_ITER = 200

#: relative forward-difference step of the Jacobian, about sqrt(eps)
_DIFFERENCE_STEP = 2.0**-26

# the reduction behind ndarray.max, without its wrapper
_max = np.maximum.reduce


def _sup(a: Array) -> float:
    return float(_max(np.absolute(a), None))


def fixed_point_solve(init, params: ModelParams, kin: KineticsSpec) -> SteadyState:
    """Pseudo-transient continuation on the steady equations
    ``F(X) = s(X) - T X = 0``, T the inverse of the quadrature matrix.

    Each step is one implicit Euler step of the flow ``T X' = F(X)``, of
    pseudo-time step delta, linearized at X: it solves
    ``((1 + 1/delta) T - ds/dX) D = F(X)`` on the node-major band of
    ``jacobian_bands`` and sets ``X <- max(X + D, 0)``.  delta starts at 1
    and grows by switched evolution relaxation, ``delta <- delta *
    |F_old| / |F_new|`` in the sup norm, that is ``delta = |F_0| / |F_k|``,
    so the steps become Newton's as the defect falls.  Every step is
    accepted, so which root the solve reaches depends on the start delta
    = 1, not only on init: on the presets a start of 0.25 took fig1a to
    washout, 0.5 took blowup_demo to washout, and 10 stalled fig2b.

    The solve converges once a step's ``sup |D|``, its residual, is below
    ``TOL``, or once ``sup |F|`` has been at most the rounding level of
    T X, ``4*eps`` times the largest ``||T_c||_inf * sup X_c`` over the
    components c, at two steps in a row: T's entries grow like d/h**2, and
    on fine grids the steps such a defect makes are rounding noise above
    TOL.  That step's matrix is -J up to a shift of T by
    ``|F_k| / |F_0|``, so the parity of its LU's row swaps and negative
    pivots is the sign of det(-J), which flags the state ``unstable`` when
    negative; an init where F = 0 takes one zero step to get it.  The
    operator is not proven to have a root, so non-convergence is a result,
    not an error: the solve stops unconverged after ``MAX_ITER`` steps, at
    a singular step matrix, and at a non-finite defect, which returns the
    iterate with nan residuals; the reason names the step that produced
    it, step 0 being init.
    """
    X = _as_triple(init)
    n = X.shape[1]
    op = _SteadyOperator(params, kin, n)
    # 4*eps*||T_c||_inf for each component c, from the row sums of |T|
    T_rounding = band_matvec(np.absolute(op._T), np.full(3 * n, 4.0 * np.finfo(float).eps))
    T_rounding = _max(T_rounding.reshape(3, n), 1)

    def rounding_level(X: Array) -> float:
        return float(_max(T_rounding * _max(X, 1), None))

    converged = unstable = was_rounding = False
    iterations, residual = 0, math.inf
    # overflow is detected below and reported as the stopping reason
    with np.errstate(over="ignore", invalid="ignore"):
        while not converged:
            src = op.sources(X).copy()
            F = op.defect(X, src)
            norm = _sup(F)
            if not math.isfinite(norm):
                reason = f"non-finite defect at step {iterations}"
                break
            if iterations >= MAX_ITER:
                reason = f"iteration limit {MAX_ITER} reached"
                break
            if not iterations:
                first = norm or 1.0
            at_rounding = norm <= rounding_level(X)
            iterations += 1
            # (1 + 1/delta) T - ds/dX, with delta = |F_0| / |F_k|: the
            # negated band of jacobian_bands, which at a root is -J
            band = op.jacobian_bands(X, 1.0 + norm / first, src)
            pivots, info = dgbtrf(np.negative(band, out=band), 3, 3)  # band now holds the LU
            if info != 0:
                reason = f"singular step matrix at step {iterations}"
                break
            step = F.T.reshape(-1)  # node-major, a copy
            dgbtrs(band, 3, 3, pivots, step)
            X = np.maximum(X + step.reshape(n, 3).T, 0.0)
            residual = _sup(step)
            if residual < TOL or at_rounding and was_rounding:
                converged, reason = True, ""
                # LAPACK's pivots are 1-based: row k kept its place if pivots[k-1] == k
                swaps = int(np.count_nonzero(pivots != np.arange(1, pivots.size + 1)))
                unstable = (swaps + int(np.count_nonzero(band[6] < 0.0))) % 2 == 1
            was_rounding = at_rounding
            del band, step  # free the factors before the next band or the defect below
        if math.isfinite(norm):
            pde_residual, level = op.differential_defect(X), rounding_level(X)
        else:
            residual = pde_residual = level = math.nan
    return SteadyState(
        grid=Grid(n), Stilde=X[0], u=X[1], v=X[2],
        residual=residual, pde_residual=pde_residual, rounding_level=level,
        converged=converged, iterations=iterations, reason=reason,
        unstable=unstable,
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
    pairs = [solve_principal(d, grid_n) for d in params.diffusivities]
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
