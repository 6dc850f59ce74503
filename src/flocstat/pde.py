"""Transient solver for the flocculation chemostat on the unit interval.

Time stepping is IMEX: the linear transport of every component
(diffusion, drift, boundary feed) is folded into a tridiagonal solve per
step, while the kinetic coupling is advanced explicitly.  The 2m+1
components are solved together as one block-diagonal tridiagonal system,
whose LU factors (LAPACK ``dgttrf``) are computed once per distinct step
size and reused by every step of that size (``dgttrs``).  On grids whose
cell Peclet number ``h/(2*min d)`` does not exceed 1, the implicit
matrix is an M-matrix, which yields two discrete structure theorems this
module leans on:

* a step whose explicit stage is nonnegative produces a nonnegative
  result, so positivity is enforced by rejecting steps whose explicit
  stage undershoots below a tolerance (the undershoot test doubles as
  the stiffness estimate: it trips exactly when dt times the per-capita
  loss rate outruns the state);
* the substrate obeys a maximum principle bounded by
  ``max(feed, initial sup)`` regardless of the step size.

``simulate`` controls the error by step doubling with local
extrapolation: each step of size dt takes one IMEX step of dt and two of
dt/2 and keeps ``2*fine - coarse``, which is second order.  The difference
of the two first-order results estimates the error against RTOL and ATOL.
dt stays on the ladder ``dt_init * 2**k``: it halves after a rejected step
and doubles after a step whose estimate is well inside the tolerance,
unless the explicit stage of the doubled step would undershoot.  Steps are
shortened only to land on snapshot times and on the horizon.  A step
rejected for positivity or non-finite values at a dt below the floor ends
the run with a ``dt-collapse`` verdict; a step rejected only for accuracy
there is kept.  A run ends either at the requested horizon or with a
blow-up verdict — when some sup norm crosses a threshold, or when the step
size collapses below a floor.  Blow-up is a verdict, not an exception, so
parameter sweeps can tabulate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgttrf, dgttrs

from .diagnostics import hp_energy
from .eigen import EigenPair, solve_principal
from .model import KineticsSpec, ModelParams, _reaction_terms, weight_vector
from .operators import (Array, BoundaryVariant, feed_vector, operator_bands, peclet_number,
                         trapezoid)

__all__ = [
    "Grid",
    "StateField",
    "Verdict",
    "SimulationResult",
    "OutcomeReport",
    "BoundReport",
    "advance",
    "simulate",
    "monitor_keys",
    "classify_outcome",
    "monitor_bounds",
]

#: accepted steps must not undershoot below this before clamping
CLAMP_TOL = 1e-12

#: simulate copies each recorded state into a buffer of this many states
#: and evaluates the monitors of the whole buffer at once
RECORD_BLOCK = 64

#: relative and absolute tolerance of the step-doubling error estimate.
#: Values below ATOL/RTOL = 1e-7 are held to an absolute error, so that a
#: phase dying out does not keep dt small; the benchmark compares final
#: values at an absolute 1e-8, which ATOL stays well below
RTOL = 1e-3
ATOL = 1e-10

#: an accepted step whose error estimate is at most this doubles dt; the
#: estimate grows about 4x when dt doubles
GROW_BELOW = 0.2

#: a run that takes this many steps, accepted and rejected, is stalled
MAX_STEPS = 5_000_000


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, 1] with n nodes, x_j = j*h, h = 1/(n-1)."""

    n: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 16):
            raise ValueError(f"grid needs at least 16 nodes, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n - 1)

    @property
    def x(self) -> Array:
        return np.linspace(0.0, 1.0, self.n)

    def integrate(self, w: Array) -> float:
        """Composite trapezoid integral over [0, 1] (last axis)."""
        return float(self.integrate_rows(np.asarray(w, dtype=float)))

    def integrate_rows(self, W: Array) -> Array:
        """Composite trapezoid integrals over [0, 1] along the last axis."""
        return trapezoid(W, self.h)


_Profile = Union[float, Sequence[float], Array, Callable[[Array], Array]]


def _as_profile(grid: Grid, value: _Profile, name: str) -> Array:
    if callable(value):
        out = np.asarray(value(grid.x), dtype=float)
    elif np.ndim(value) == 0:
        out = np.full(grid.n, float(value))
    else:
        out = np.asarray(value, dtype=float)
    if out.shape != (grid.n,):
        raise ValueError(f"{name} profile has shape {out.shape}, expected ({grid.n},)")
    return out


@dataclass(frozen=True)
class StateField:
    """All fields of the model at one instant: substrate S (n,), isolated
    densities u (m, n), attached densities v (m, n), and the time t.

    Values must be finite and nonnegative — the continuous solutions the
    scheme approximates are componentwise nonnegative, so a negative
    sample is a construction error, not data.
    """

    grid: Grid
    S: Array
    u: Array
    v: Array
    t: float = 0.0

    def __post_init__(self) -> None:
        S = np.asarray(self.S, dtype=float)
        u = np.atleast_2d(np.asarray(self.u, dtype=float))
        v = np.atleast_2d(np.asarray(self.v, dtype=float))
        n = self.grid.n
        if S.shape != (n,):
            raise ValueError(f"S has shape {S.shape}, expected ({n},)")
        if u.shape != v.shape or u.ndim != 2 or u.shape[1] != n:
            raise ValueError(
                f"u/v have shapes {u.shape}/{v.shape}, expected matching (m, {n})"
            )
        for name, arr in (("S", S), ("u", u), ("v", v)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
            if arr.size and float(arr.min()) < 0.0:
                raise ValueError(f"{name} contains negative values")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "t", float(self.t))

    @property
    def m(self) -> int:
        return self.u.shape[0]

    @classmethod
    def constant(cls, grid: Grid, *, S: float, u: _Profile, v: _Profile,
                 m: int = 1, t: float = 0.0) -> "StateField":
        """State with constant (or per-species constant) profiles."""
        u_arr = np.asarray(u, dtype=float)
        v_arr = np.asarray(v, dtype=float)
        if u_arr.ndim == 0:
            u_arr = np.full(m, float(u_arr))
        if v_arr.ndim == 0:
            v_arr = np.full(m, float(v_arr))
        if u_arr.shape != (m,) or v_arr.shape != (m,):
            raise ValueError(f"u/v must be scalars or length-{m} sequences")
        return cls(
            grid=grid,
            S=np.full(grid.n, float(S)),
            u=np.repeat(u_arr[:, None], grid.n, axis=1),
            v=np.repeat(v_arr[:, None], grid.n, axis=1),
            t=t,
        )

    @classmethod
    def from_profiles(cls, grid: Grid, *, S: _Profile, u: Sequence[_Profile],
                      v: Sequence[_Profile], t: float = 0.0) -> "StateField":
        """State from per-component profiles (scalar, array, or callable of x)."""
        u_rows = [_as_profile(grid, p, f"u{i + 1}") for i, p in enumerate(u)]
        v_rows = [_as_profile(grid, p, f"v{i + 1}") for i, p in enumerate(v)]
        return cls(grid=grid, S=_as_profile(grid, S, "S"),
                   u=np.stack(u_rows), v=np.stack(v_rows), t=t)

    def stack(self) -> Array:
        """(2m+1, n) array ordered (S, u_1, v_1, ..., u_m, v_m)."""
        W = np.empty((2 * self.m + 1, self.grid.n))
        W[0] = self.S
        W[1::2] = self.u
        W[2::2] = self.v
        return W

    @classmethod
    def from_stack(cls, grid: Grid, W: Array, t: float) -> "StateField":
        return cls(grid=grid, S=W[0].copy(), u=W[1::2].copy(), v=W[2::2].copy(), t=t)

    def component_labels(self) -> tuple[str, ...]:
        """Labels matching stack() order; species index dropped when m=1."""
        if self.m == 1:
            return ("S", "u", "v")
        labels = ["S"]
        for i in range(self.m):
            labels += [f"u{i + 1}", f"v{i + 1}"]
        return tuple(labels)

    def sup(self) -> float:
        """Largest value over all components and nodes."""
        return float(max(self.S.max(), self.u.max(), self.v.max()))


@dataclass(frozen=True)
class Verdict:
    """How a run ended: the full horizon, or detected blow-up.

    kind: ``"completed"`` or ``"blow_up"``.
    t_final: the horizon for completed runs, the detection time otherwise.
    reason: empty for completed runs; ``"sup-threshold"`` when a sup norm
        crossed the configured bound, ``"dt-collapse"`` when repeated
        rejections for positivity or non-finite values drove dt below its
        floor.
    """

    kind: str
    t_final: float
    reason: str = ""


@dataclass(frozen=True)
class SimulationResult:
    """Transient run output: monitor series, snapshots, verdict.

    monitors: column name -> 1D array, one row per recorded instant
        (every accepted step, plus the initial instant).  Columns:
        ``t``, ``sup_S``, ``sup_u_i``/``sup_v_i`` per species, ``l1_S``,
        ``l1_u_i``/``l1_v_i``, ``mass`` (weighted total), ``Q`` (blow-up
        functional of species 1), ``dt`` (step that produced the row),
        ``clamp`` (largest undershoot removed by clamping in the step),
        and ``energy_p<p>_<i>`` when energy configs were requested.
    snapshots: states at selected times (each carries its t).
    steps_accepted/steps_rejected: macro steps (see ``simulate``).
    fallbacks: accepted steps that kept the fine state because the
        extrapolated one undershot below -CLAMP_TOL.
    """

    grid: Grid
    monitors: dict[str, Array]
    snapshots: tuple[StateField, ...]
    verdict: Verdict
    initial: StateField
    final: StateField
    steps_accepted: int
    steps_rejected: int
    fallbacks: int
    clamp_total: float
    blowup_eigenpair: EigenPair


class _Stepper:
    """Per-run workspace: the transport bands of all components, laid end to
    end as one block-diagonal tridiagonal matrix A, the feed vectors, and a
    per-dt cache of the LU factors of ``I + dt*A``.  ``sup`` is the largest
    entry of the stack the last accepted macro step returned."""

    def __init__(self, params: ModelParams, kin: KineticsSpec, grid: Grid):
        self.params = params
        self.kin = kin
        self.grid = grid
        diffs = [params.d0]
        feeds = [params.gamma_s]
        for i in range(params.m):
            diffs += [params.du[i], params.dv[i]]
            feeds += [params.gamma_u[i], params.gamma_v[i]]
        n = grid.n
        ab = np.hstack([operator_bands(d, n, BoundaryVariant.INFLOW_ROBIN) for d in diffs])
        # side by side, each block's unused band corners ab[0, 0] and
        # ab[2, -1] are the couplings between blocks: they must stay zero
        ab[0, ::n] = 0.0
        ab[2, n - 1::n] = 0.0
        self.A = ab
        self.B = np.stack([feed_vector(d, n, g) for d, g in zip(diffs, feeds)])
        self._factors: dict[float, list[Array]] = {}
        self.sup = math.nan

    def factors(self, dt: float) -> list[Array]:
        """LU factors of ``I + dt*A``, in dgttrs argument order.  A run's
        step sizes are the ladder ``dt_init * 2**k`` and their halves, plus
        two for each step shortened onto a snapshot time or the horizon, so
        the cache stays small."""
        got = self._factors.get(dt)
        if got is None:
            A = self.A
            *got, info = dgttrf(dt * A[2, :-1], dt * A[1] + 1.0, dt * A[0, 1:])
            if info != 0:
                raise LinAlgError(f"transport matrix for dt={dt} is singular")
            self._factors[dt] = got
        return got

    def rate(self, W: Array) -> Array:
        """The explicit part of the right-hand side at W: reactions plus feed."""
        F = _reaction_terms(self.params, self.kin, W[0], W[1::2], W[2::2])
        F += self.B
        return F

    def try_step(self, W: Array, F: Array, dt: float) -> tuple[Optional[Array], float, str]:
        """One IMEX step from W, whose ``rate(W)`` is F.  Returns (new stack,
        clamp magnitude, "") on acceptance, (None, 0, reason) on rejection."""
        # the explicit stage W + dt*(R + B), solved in place: it is this
        # step's own array
        rhs = F * dt
        rhs += W
        # min and max propagate nan, so they also decide finiteness
        low, high = float(rhs.min()), float(rhs.max())
        if not (math.isfinite(low) and math.isfinite(high)):
            return None, 0.0, "non-finite explicit stage"
        if low < -CLAMP_TOL:
            return None, 0.0, "explicit stage undershoot"
        W_new = dgttrs(*self.factors(dt), rhs.reshape(-1), overwrite_b=1)[0].reshape(W.shape)
        low, high = float(W_new.min()), float(W_new.max())
        if not (math.isfinite(low) and math.isfinite(high)):
            return None, 0.0, "non-finite solve"
        if low < -CLAMP_TOL:
            return None, 0.0, "implicit stage undershoot"
        clamp = max(0.0, -low)
        if clamp > 0.0:
            np.clip(W_new, 0.0, None, out=W_new)
        return W_new, clamp, ""

    def macro_step(self, W: Array, F: Array,
                   dt: float) -> tuple[Optional[Array], float, float, bool, str]:
        """One step of dt by step doubling with local extrapolation.

        A coarse step of dt and two fine steps of dt/2 (the coarse and the
        first fine step share ``F = rate(W)``) give ``2*fine - coarse``,
        which is second order.  If it undershoots below -CLAMP_TOL the fine state is
        kept instead (a fallback).  Returns (new stack, clamp magnitude,
        error estimate, fallback, "") on acceptance, or (None, 0, inf,
        False, reason) when a substep is rejected.  The error estimate is
        the RMS over all nodes of ``(fine - coarse)/(ATOL + RTOL*max(fine,
        coarse))``; the step is accurate when it is at most 1.
        """
        coarse, clamp, reason = self.try_step(W, F, dt)
        if coarse is None:
            return None, 0.0, math.inf, False, reason
        half, clamp_half, reason = self.try_step(W, F, 0.5 * dt)
        if half is None:
            return None, 0.0, math.inf, False, reason
        fine, clamp_fine, reason = self.try_step(half, self.rate(half), 0.5 * dt)
        if fine is None:
            return None, 0.0, math.inf, False, reason
        scale = np.maximum(fine, coarse)
        scale *= RTOL
        scale += ATOL
        ratio = fine - coarse
        ratio /= scale
        err = math.sqrt(float(np.vdot(ratio, ratio)) / ratio.size)
        W_new = 2.0 * fine - coarse
        low, high = float(W_new.min()), float(W_new.max())
        fallback = low < -CLAMP_TOL
        if fallback:
            W_new = fine
            high = float(fine.max())
        elif low < 0.0:
            np.clip(W_new, 0.0, None, out=W_new)
            clamp = max(clamp, -low)
        self.sup = max(high, 0.0)
        return W_new, max(clamp, clamp_half, clamp_fine), err, fallback, ""


def _require_consistent(params: ModelParams, kin: KineticsSpec, state: StateField) -> None:
    if kin.m != params.m or state.m != params.m:
        raise ValueError(
            f"species counts disagree: params m={params.m}, kinetics m={kin.m}, "
            f"state m={state.m}"
        )


def _require_monotone_grid(params: ModelParams, grid: Grid) -> None:
    d_min = min([params.d0, *params.du, *params.dv])
    # Pe = 1 is admitted: the upper band of A vanishes there, and I + dt*A
    # stays an M-matrix (the eigen solver needs Pe < 1 strictly)
    pe = peclet_number(d_min, grid.n)
    if pe > 1.0 + 1e-12:
        need = 1 + math.ceil(1.0 / (2.0 * d_min))
        raise ValueError(
            f"grid too coarse for the smallest diffusivity {d_min}: cell Peclet "
            f"{pe:.3f} > 1 breaks the scheme's positivity; use n >= {need}"
        )


def advance(state: StateField, params: ModelParams, kin: KineticsSpec,
            dt: float) -> StateField:
    """One IMEX step of size dt (no adaptivity — see simulate for that).

    Raises ArithmeticError if the step produces non-finite values, and
    ValueError if it would undershoot zero beyond the clamp tolerance;
    both mean dt is too large for the current state.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    _require_consistent(params, kin, state)
    _require_monotone_grid(params, state.grid)
    stepper = _Stepper(params, kin, state.grid)
    W = state.stack()
    W_new, _clamp, reason = stepper.try_step(W, stepper.rate(W), dt)
    if W_new is None:
        if "non-finite" in reason:
            raise ArithmeticError(f"step of size {dt} produced {reason}")
        raise ValueError(f"step of size {dt} rejected ({reason}); reduce dt")
    return StateField.from_stack(state.grid, W_new, state.t + dt)


def monitor_keys(m: int) -> list[str]:
    """The monitor columns ``simulate`` records for m species, in order,
    before any energy columns (see :class:`SimulationResult`)."""
    labels = ["S"] + [f"{k}_{i + 1}" for i in range(m) for k in ("u", "v")]
    return (["t"] + [f"sup_{c}" for c in labels] + [f"l1_{c}" for c in labels]
            + ["mass", "Q", "dt", "clamp"])


class _MonitorRecorder:
    """The monitor rows of one run (columns: ``monitor_keys`` plus energies).

    Recorded states wait in a buffer of RECORD_BLOCK states.  When it fills,
    and when the run ends, the monitors of the whole buffer are evaluated at
    once, one row per state, with the same floating-point operations as
    state by state.
    """

    def __init__(self, params: ModelParams, grid: Grid, phi: Array,
                 energy_configs: Sequence):
        m = params.m
        self.params = params
        self.grid = grid
        self.phi = phi
        self.weights = np.asarray(weight_vector(params))
        self.energy = [(cfg, i) for cfg in energy_configs for i in range(m)]
        self.keys = monitor_keys(m) + [f"energy_p{cfg.p}_{i + 1}" for cfg, i in self.energy]
        self.block = np.empty((RECORD_BLOCK, 2 * m + 1, grid.n))
        self.pending: list[tuple[float, float, float]] = []  # (t, dt used, clamp)
        self.rows: list[Array] = []

    def record(self, W: Array, t: float, dt_used: float, clamp: float) -> None:
        self.block[len(self.pending)] = W
        self.pending.append((t, dt_used, clamp))
        if len(self.pending) == RECORD_BLOCK:
            self.flush()

    def flush(self) -> None:
        k = len(self.pending)
        if not k:
            return
        Ws = self.block[:k]
        c = Ws.shape[1]  # columns: t, c sups, c l1s, mass, Q, dt, clamp, energies
        rows = np.empty((k, len(self.keys)))
        rows[:, [0, 2 * c + 3, 2 * c + 4]] = self.pending
        rows[:, 1:c + 1] = Ws.max(axis=-1)
        l1s = self.grid.integrate_rows(Ws)
        rows[:, c + 1:2 * c + 1] = l1s
        rows[:, 2 * c + 1] = [self.weights @ l1 for l1 in l1s]
        YZ = self.grid.integrate_rows(Ws[:, 1:3] * self.phi)
        yu, yv = self.params.yu[0], self.params.yv[0]
        rows[:, 2 * c + 2] = (yu + 1.0) * YZ[:, 0] + (yv + 1.0) * YZ[:, 1]
        for j, (cfg, i) in enumerate(self.energy):
            rows[:, 2 * c + 5 + j] = [hp_energy(W[1 + 2 * i], W[2 + 2 * i], cfg)[1] for W in Ws]
        self.rows.append(rows)
        self.pending.clear()

    def monitors(self) -> dict[str, Array]:
        """Flush what is pending and return the columns by name."""
        self.flush()
        data = np.concatenate(self.rows)
        return {key: data[:, j].copy() for j, key in enumerate(self.keys)}


def _targets_reached(targets: list[float], k: int, t: float) -> int:
    """Index of the first of the sorted ``targets``, from index k on, that
    time t has not reached; a target counts as reached 1e-9 early."""
    while k < len(targets) and t >= targets[k] - 1e-9:
        k += 1
    return k


def simulate(
    initial: StateField,
    params: ModelParams,
    kin: KineticsSpec,
    *,
    t_end: float,
    dt_init: float = 1e-2,
    dt_min: float = 1e-8,
    sup_threshold: float = 1e8,
    snapshot_times: Optional[Sequence[float]] = None,
    energy_configs: Sequence = (),
) -> SimulationResult:
    """Run the error-controlled IMEX scheme from ``initial`` to ``t_end``
    (or to blow-up), starting with steps of ``dt_init``.

    Monitors are recorded at every accepted step; the ``dt`` column varies.
    Snapshots are taken at ``snapshot_times`` (default: 11 evenly spaced
    times from the initial time to ``t_end``), in sorted order: steps are
    shortened to land on each target, a target counts as reached 1e-9
    early, each state is kept at most once, and the final state is appended
    unless it was kept already.
    The blow-up functional Q is tracked against the outlet-Robin
    eigenfunction at the first species' isolated-phase diffusivity.

    ``energy_configs`` takes EnergyConfig values from
    :mod:`flocstat.diagnostics`; each adds per-species monitor columns
    ``energy_p<p>_<i>``.

    Raises ValueError for inconsistent inputs, among them a horizon that
    does not exceed the initial time by more than the time tolerance
    ``1e-12*max(1, |t_end|)``, before the first step; and RuntimeError when
    MAX_STEPS steps do not reach ``t_end``.
    """
    _require_consistent(params, kin, initial)
    _require_monotone_grid(params, initial.grid)
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    time_tol = 1e-12 * max(1.0, abs(t_end))
    if t_end - initial.t <= time_tol:
        raise ValueError(
            f"t_end={t_end} does not exceed the initial time {initial.t} by more than "
            f"the time tolerance {time_tol:.3g}"
        )
    for name, val in (("dt_init", dt_init), ("dt_min", dt_min),
                      ("sup_threshold", sup_threshold)):
        if val <= 0:
            raise ValueError(f"{name} must be positive, got {val}")
    if sup_threshold <= initial.sup():
        raise ValueError(
            f"sup_threshold {sup_threshold} does not exceed the initial sup {initial.sup()}"
        )

    grid = initial.grid
    stepper = _Stepper(params, kin, grid)
    pair = solve_principal(params.du[0], grid.n, BoundaryVariant.OUTFLOW_ROBIN)
    recorder = _MonitorRecorder(params, grid, pair.function, energy_configs)
    record = recorder.record
    if snapshot_times is None:
        targets = np.linspace(initial.t, t_end, 11).tolist()
    else:
        targets = sorted(float(s) for s in snapshot_times)

    W = initial.stack()
    F = stepper.rate(W)
    t = initial.t
    dt = dt_init
    accepted = 0
    rejected = 0
    fallbacks = 0
    clamp_total = 0.0
    record(W, t, dt_init, 0.0)
    due = _targets_reached(targets, 0, t)  # the first target not yet reached
    snapshots = [initial] if due else []
    verdict: Optional[Verdict] = None

    while t < t_end - time_tol:
        if accepted + rejected >= MAX_STEPS:
            raise RuntimeError(
                f"step budget {MAX_STEPS} exhausted at t={t:.6g} (dt={dt:.3e}); "
                f"the run is stalled, not blowing up"
            )
        # land on the next snapshot time or t_end rather than step past it
        stop = min(targets[due], t_end) if due < len(targets) else t_end
        if t + dt >= stop - time_tol:
            dt_eff, t_next = stop - t, stop
        else:
            dt_eff, t_next = dt, t + dt
        W_new, clamp, err, fallback, _reason = stepper.macro_step(W, F, dt_eff)
        if W_new is None or err > 1.0:
            smaller = 0.5 * dt  # the ladder value below the step that failed
            while smaller >= dt_eff:
                smaller *= 0.5
            if smaller >= dt_min:
                rejected += 1
                dt = smaller
                continue
            if W_new is None:
                rejected += 1
                verdict = Verdict(kind="blow_up", t_final=t, reason="dt-collapse")
                break
            # an accurate step would be shorter than dt_min: keep this one
        accepted += 1
        fallbacks += fallback
        t = t_next
        W = W_new
        clamp_total += clamp
        record(W, t, dt_eff, clamp)
        reached = _targets_reached(targets, due, t)
        if reached > due:
            due = reached
            snapshots.append(StateField.from_stack(grid, W, t))
        if stepper.sup > sup_threshold:
            verdict = Verdict(kind="blow_up", t_final=t, reason="sup-threshold")
            break
        F = stepper.rate(W)
        # double dt when the error allows it and the explicit stage of the
        # doubled coarse step stays nonnegative, so that no step is rejected
        # for positivity again and again
        if err <= GROW_BELOW and dt_eff == dt and float((F * (2.0 * dt) + W).min()) >= -CLAMP_TOL:
            dt *= 2.0

    final = StateField.from_stack(grid, W, t)
    if verdict is None:
        verdict = Verdict(kind="completed", t_final=t)
    if not snapshots or snapshots[-1].t < final.t - 1e-12:
        snapshots.append(final)

    return SimulationResult(
        grid=grid,
        monitors=recorder.monitors(),
        snapshots=tuple(snapshots),
        verdict=verdict,
        initial=initial,
        final=final,
        steps_accepted=accepted,
        steps_rejected=rejected,
        fallbacks=fallbacks,
        clamp_total=clamp_total,
        blowup_eigenpair=pair,
    )


# ---------------------------------------------------------------------------
# Outcome classification and bound reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutcomeReport:
    """Ecological reading of a finished run.

    label: ``blow-up`` | ``washout`` | ``coexistence`` |
        ``extinction-u`` / ``extinction-v`` (single species) or
        ``extinction-<comma list>`` (multiple species).
    extinct/surviving: biomass component labels, empty for blow-up.
    A component counts as extinct when its final sup norm is below
    ``EXTINCT_SUP`` and below ``EXTINCT_FRACTION`` times its initial sup
    norm.
    """

    label: str
    extinct: tuple[str, ...]
    surviving: tuple[str, ...]


#: sup norm below which a biomass component may count as extinct
EXTINCT_SUP = 1e-2
#: fraction of its initial sup norm an extinct component must fall below
EXTINCT_FRACTION = 0.1


def classify_outcome(result: SimulationResult) -> OutcomeReport:
    """Classify a run per the documented sup-norm thresholds."""
    if result.verdict.kind == "blow_up":
        return OutcomeReport("blow-up", (), ())
    labels = result.final.component_labels()[1:]
    # rows u_1, v_1, u_2, v_2, ...: the order of the labels
    init = result.initial.stack()[1:]
    fin = result.final.stack()[1:]
    extinct: list[str] = []
    surviving: list[str] = []
    for j, label in enumerate(labels):
        s0 = float(init[j].max())
        s1 = float(fin[j].max())
        gone = s1 < EXTINCT_SUP and (s0 == 0.0 or s1 < EXTINCT_FRACTION * s0)
        (extinct if gone else surviving).append(label)
    if not extinct:
        label = "coexistence"
    elif not surviving:
        label = "washout"
    else:
        label = "extinction-" + ",".join(extinct)
    return OutcomeReport(label, tuple(extinct), tuple(surviving))


@dataclass(frozen=True)
class BoundReport:
    """A-posteriori check of the run against the model's a priori bounds.

    sup_S_limit is ``max(feed, initial sup of S)``; the substrate may
    exceed it only by discretization slack, at most ``SUP_S_SLACK``.  The weighted-mass growth
    class is a heuristic three-way fit on the monitor series: bounded
    (no sustained late growth), linear (steady late increments), or
    exponential (late increments outpacing earlier ones).
    """

    sup_S_max: float
    sup_S_limit: float
    sup_S_slack: float
    sup_bound_ok: bool
    mass_growth_class: str
    mass_initial: float
    mass_peak: float
    mass_final: float


#: discretization slack by which sup S may exceed its a priori bound
SUP_S_SLACK = 1e-3


def monitor_bounds(result: SimulationResult, params: ModelParams) -> BoundReport:
    """Evaluate the substrate sup bound and classify weighted-mass growth."""
    sup_S = result.monitors["sup_S"]
    limit = max(params.gamma_s, float(result.initial.S.max()))
    sup_max = float(sup_S.max())
    slack = sup_max - limit

    t = result.monitors["t"]
    mass = result.monitors["mass"]
    m0 = float(mass[0])
    peak = float(mass.max())
    m_end = float(mass[-1])
    t0, t1 = float(t[0]), float(t[-1])
    if t1 <= t0:
        growth = "bounded"
    else:
        quart = [np.interp(t0 + q * (t1 - t0), t, mass) for q in (0.5, 0.75, 1.0)]
        late_growth = quart[2] - quart[0]
        scale = max(abs(peak), 1.0)
        if late_growth <= 0.05 * scale:
            growth = "bounded"
        else:
            inc1 = quart[1] - quart[0]
            inc2 = quart[2] - quart[1]
            growth = "exponential" if inc2 > 1.5 * max(inc1, 0.0) else "linear"
    return BoundReport(
        sup_S_max=sup_max,
        sup_S_limit=limit,
        sup_S_slack=slack,
        sup_bound_ok=slack <= SUP_S_SLACK,
        mass_growth_class=growth,
        mass_initial=m0,
        mass_peak=peak,
        mass_final=m_end,
    )
