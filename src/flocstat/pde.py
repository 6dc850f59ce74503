"""Transient solver for the flocculation chemostat on the unit interval.

Time stepping is IMEX: the linear transport of every component
(diffusion, drift, boundary feed) is folded into a tridiagonal solve per
step, while the kinetic coupling is stepped explicitly.  The 2m+1
components are solved together as one block-diagonal tridiagonal system,
whose LU factors (LAPACK ``dgttrf``) are computed once per distinct step
size and reused by every step of that size (``dgttrs``); both routines come
from :mod:`flocstat._lapack`.  On grids whose
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
dt stays on the ladder ``DT_INIT * 2**k``: it halves after a rejected step
and doubles after a step whose estimate is well inside the tolerance,
unless the explicit stage of the doubled step would undershoot.  Steps are
shortened only to land on snapshot times and on the horizon.  A step
rejected for positivity or non-finite values at a dt below the floor ends
the run with a ``dt-collapse`` verdict; a step rejected only for accuracy
there is kept.  A run ends either at the requested horizon or with a
blow-up verdict — when some sup norm crosses a threshold, or when the step
size collapses below a floor.  Blow-up is a verdict, not an exception, so
parameter sweeps can tabulate it.

The monitor rows ``simulate`` records are the one place a run's reported
numbers are computed: ``monitors.csv`` writes them as they are, and a sweep
reads its summary columns from the last row.

A macro step costs three ``dgttrs`` solves, two reaction evaluations, about
twenty whole-stack numpy calls (the explicit stages and their checks, the
extrapolation and its error estimate) and the copy of the accepted state
into the monitor buffer.  The stepper owns every stack a macro step writes
and its reaction kernel owns its work rows, so a step allocates only the
rate of the state it accepts.  On the 2-core machine of ``BENCH_step.json``
a macro step of fig4e (n=501) costs about 230 µs: 98 µs for the solves,
65 µs for the reaction evaluations, 17 µs for recording and 49 µs for the
rest; at n=201 (fig2a) about 146 µs: 35, 43, 7 and 61 µs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError

from ._lapack import dgttrf, dgttrs
from .eigen import EigenPair, solve_principal
from .model import KineticsSpec, ModelParams, _ReactionKernel, weight_vector
from .operators import (Array, feed_vector, grid_spacing, min_grid_n, operator_bands,
                         peclet_admissible, peclet_number, trapezoid)

__all__ = [
    "Grid",
    "StateField",
    "Verdict",
    "SimulationResult",
    "simulate",
    "monitor_keys",
    "classify_outcome",
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

#: a step rejected for positivity or non-finite values whose halved dt
#: would fall below this ends the run with a dt-collapse verdict
DT_MIN = 1e-8

#: a sup norm above this ends the run with a sup-threshold verdict
SUP_THRESHOLD = 1e8

#: the step size a run starts with; its steps stay on the ladder DT_INIT * 2**k
DT_INIT = 1e-2

#: a run keeps snapshots at this many evenly spaced target times, from the
#: initial time to the horizon
SNAPSHOTS = 11

# the reductions behind ndarray.min and ndarray.max, without their wrappers
_min, _max = np.minimum.reduce, np.maximum.reduce


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, 1] with n nodes, x_j = j*h, h = 1/(n-1)."""

    n: int

    def __post_init__(self) -> None:
        grid_spacing(self.n)  # raises unless an integer of at least MIN_GRID_N
        object.__setattr__(self, "n", int(self.n))

    @property
    def h(self) -> float:
        return 1.0 / (self.n - 1)

    @property
    def x(self) -> Array:
        return np.linspace(0.0, 1.0, self.n)


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
    def constant(cls, grid: Grid, *, S: float, u: float, v: float,
                 t: float = 0.0) -> "StateField":
        """Single-species state with constant profiles."""
        return cls(grid=grid, S=np.full(grid.n, float(S)), u=np.full((1, grid.n), float(u)),
                   v=np.full((1, grid.n), float(v)), t=t)

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
        (every accepted step, plus the initial instant); the columns are
        ``monitor_keys(m)``, the header of ``monitors.csv``: ``t``,
        ``sup_S``, ``sup_u_i``/``sup_v_i`` per species, ``l1_S``,
        ``l1_u_i``/``l1_v_i`` (trapezoid integrals), ``mass`` (the
        ``weight_vector`` sum of the integrals), ``Q`` (the
        eigenfunction-weighted biomass of species 1,
        ``(yu + 1)*int(u*w) + (yv + 1)*int(v*w)`` with ``w(x) = phi(1 - x)``)
        and ``dt`` (step that produced the row).  The last row is the final
        state.
    snapshots: states at selected times (each carries its t).
    steps_accepted/steps_rejected: macro steps (see ``simulate``).
    fallbacks: accepted steps in which the extrapolated state was negative
        at some node, which then kept the fine state.
    blowup_eigenpair: the washout eigenpair at the first species' isolated-phase
        diffusivity.  Q's weight is its function reflected, ``function[::-1]``:
        the principal eigenfunction of the adjoint operator, with
        ``w'(0) = 0`` and ``d*w'(1) + w(1) = 0``.
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
    blowup_eigenpair: EigenPair


class _Stepper:
    """Per-run workspace: the transport bands of all components, laid end to
    end as one block-diagonal tridiagonal matrix A, the feed vectors, a
    per-dt cache of the LU factors of ``I + dt*A``, the reaction kernel, and
    the stacks a macro step writes.  ``sup`` is the largest entry of the
    stack the last accepted macro step returned."""

    def __init__(self, params: ModelParams, kin: KineticsSpec, grid: Grid):
        self.params = params
        diffs = [params.d0]
        feeds = [params.gamma_s]
        for i in range(params.m):
            diffs += [params.du[i], params.dv[i]]
            feeds += [params.gamma_u[i], params.gamma_v[i]]
        n = grid.n
        self.A = np.hstack([operator_bands(d, n) for d in diffs])
        self.B = np.stack([feed_vector(d, n, g) for d, g in zip(diffs, feeds)])
        self._factors: dict[float, list[Array]] = {}
        self._kernel = _ReactionKernel(params, kin, n)
        # coarse, half and fine IMEX results, the rate at the half state,
        # and two result stacks, so that a macro step never writes the
        # state or the rate it starts from
        self._coarse, self._half, self._fine, self._rate_half, *self._results = (
            np.empty_like(self.B) for _ in range(6))
        self.sup = math.nan

    def factors(self, dt: float) -> list[Array]:
        """LU factors of ``I + dt*A``, in dgttrs argument order.  A run's
        step sizes are the ladder ``DT_INIT * 2**k`` and their halves, plus
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

    def _rate_into(self, W: Array, out: Array) -> Array:
        self._kernel(W[0], W[1:].reshape(self.params.m, 2, -1), out)
        return np.add(out, self.B, out=out)

    def rate(self, W: Array) -> Array:
        """The explicit part of the right-hand side at W: reactions plus
        feed, in a new array."""
        return self._rate_into(W, np.empty_like(self.B))

    def stage(self, W: Array, F: Array, dt: float, out: Optional[Array] = None) -> Array:
        """The explicit stage ``W + dt*F``, in ``out`` or a new array."""
        rhs = np.multiply(F, dt, out=out)
        rhs += W
        return rhs

    def try_step(self, W: Array, F: Array, dt: float,
                 out: Optional[Array] = None) -> tuple[Optional[Array], str]:
        """One IMEX step from W, whose ``rate(W)`` is F, into ``out`` (a new
        array if None; never W or F).  Returns (new stack, "") on acceptance,
        (None, reason) on rejection; an accepted undershoot within CLAMP_TOL
        is clipped to 0."""
        # the explicit stage is solved in place.  Its minimum propagates nan
        # and -inf; an entry of +inf passes into the solve, whose result it
        # makes non-finite, and is looked for only then
        rhs = self.stage(W, F, dt, out)
        low = float(_min(rhs, None))
        if not low >= -CLAMP_TOL:
            if math.isfinite(low) and math.isfinite(float(_max(rhs, None))):
                return None, "explicit stage undershoot"
            return None, "non-finite explicit stage"
        W_new = dgttrs(*self.factors(dt), rhs.reshape(-1), overwrite_b=1)[0].reshape(W.shape)
        low, high = float(_min(W_new, None)), float(_max(W_new, None))
        if not (math.isfinite(low) and math.isfinite(high)):
            # the solve overwrote the stage: form it again to name the cause
            if math.isfinite(float(_max(self.stage(W, F, dt, W_new), None))):
                return None, "non-finite solve"
            return None, "non-finite explicit stage"
        if low < -CLAMP_TOL:
            return None, "implicit stage undershoot"
        if low < 0.0:
            np.clip(W_new, 0.0, None, out=W_new)
        return W_new, ""

    def macro_step(self, W: Array, F: Array,
                   dt: float) -> tuple[Optional[Array], float, bool, str]:
        """One step of dt by step doubling with local extrapolation.

        A coarse step of dt and two fine steps of dt/2 (the coarse and the
        first fine step share ``F = rate(W)``) give ``2*fine - coarse``,
        which is second order.  At each node where it is negative the fine
        state is kept instead, so a decaying value stays positive rather
        than being clipped to 0 (a fallback).  Returns (new stack, error
        estimate, fallback, "") on acceptance, or (None, inf, False, reason)
        when a substep is rejected.  The error estimate is the RMS over all
        nodes of ``(fine - coarse)/(ATOL + RTOL*max(fine, coarse))``; the
        step is accurate when it is at most 1.

        W and F are only read, so a rejected step can be retried from them.
        The new stack is one of two stepper buffers, the one W is not: it
        stays valid through the next macro step from it.
        """
        coarse, reason = self.try_step(W, F, dt, self._coarse)
        if coarse is None:
            return None, math.inf, False, reason
        half, reason = self.try_step(W, F, 0.5 * dt, self._half)
        if half is None:
            return None, math.inf, False, reason
        fine, reason = self.try_step(
            half, self._rate_into(half, self._rate_half), 0.5 * dt, self._fine)
        if fine is None:
            return None, math.inf, False, reason
        W_new = self._results[np.may_share_memory(W, self._results[0])]
        np.multiply(fine, 2.0, out=W_new)
        W_new -= coarse
        # the half state and then the coarse one are not needed again
        ratio = np.subtract(fine, coarse, out=half)
        scale = np.maximum(fine, coarse, out=coarse)
        scale *= RTOL
        scale += ATOL
        ratio /= scale
        err = math.sqrt(float(np.vdot(ratio, ratio)) / ratio.size)
        fallback = float(_min(W_new, None)) < 0.0
        if fallback:
            np.copyto(W_new, fine, where=W_new < 0.0)
        self.sup = float(_max(W_new, None))
        return W_new, err, fallback, ""

    def stage_min(self, W: Array, F: Array, dt: float) -> float:
        """The smallest entry of the explicit stage of a step of dt from W
        (nan if the stage has one)."""
        return float(_min(self.stage(W, F, dt, self._coarse), None))


def _require_consistent(params: ModelParams, kin: KineticsSpec, state: StateField) -> None:
    if kin.m != params.m or state.m != params.m:
        raise ValueError(
            f"species counts disagree: params m={params.m}, kinetics m={kin.m}, "
            f"state m={state.m}"
        )


def _require_monotone_grid(params: ModelParams, grid: Grid) -> None:
    d_min = min([params.d0, *params.du, *params.dv])
    if not peclet_admissible(d_min, grid.n):
        raise ValueError(
            f"grid too coarse for the smallest diffusivity {d_min}: cell Peclet "
            f"{peclet_number(d_min, grid.n):.3f} > 1 breaks the scheme's positivity; "
            f"use n >= {min_grid_n(d_min)}"
        )


def monitor_keys(m: int) -> list[str]:
    """The monitor columns ``simulate`` records for m species, in order:
    the header of ``monitors.csv`` (see :class:`SimulationResult`)."""
    labels = ["S"] + [f"{k}_{i + 1}" for i in range(m) for k in ("u", "v")]
    return (["t"] + [f"sup_{c}" for c in labels] + [f"l1_{c}" for c in labels]
            + ["mass", "Q", "dt"])


class _MonitorRecorder:
    """The monitor rows of one run (columns: ``monitor_keys``).

    Recorded states wait in a buffer of RECORD_BLOCK states.  When it fills,
    and when the run ends, the monitors of the whole buffer are evaluated at
    once, one row per state, with the same floating-point operations as
    state by state.
    """

    def __init__(self, params: ModelParams, grid: Grid, q_weight: Array):
        self.params = params
        self.h = grid.h
        self.q_weight = q_weight
        self.weights = np.asarray(weight_vector(params))
        self.keys = monitor_keys(params.m)
        self.block = np.empty((RECORD_BLOCK, 2 * params.m + 1, grid.n))
        self.pending: list[tuple[float, float]] = []  # (t, dt used)
        self.rows: list[Array] = []

    def record(self, W: Array, t: float, dt_used: float) -> None:
        self.block[len(self.pending)] = W
        self.pending.append((t, dt_used))
        if len(self.pending) == RECORD_BLOCK:
            self.flush()

    def flush(self) -> None:
        k = len(self.pending)
        if not k:
            return
        Ws = self.block[:k]
        c = Ws.shape[1]  # columns: t, c sups, c l1s, mass, Q, dt
        rows = np.empty((k, len(self.keys)))
        rows[:, [0, 2 * c + 3]] = self.pending
        rows[:, 1:c + 1] = Ws.max(axis=-1)
        l1s = trapezoid(Ws, self.h)
        rows[:, c + 1:2 * c + 1] = l1s
        rows[:, 2 * c + 1] = [self.weights @ l1 for l1 in l1s]
        YZ = trapezoid(Ws[:, 1:3] * self.q_weight, self.h)
        yu, yv = self.params.yu[0], self.params.yv[0]
        rows[:, 2 * c + 2] = (yu + 1.0) * YZ[:, 0] + (yv + 1.0) * YZ[:, 1]
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


def simulate(initial: StateField, params: ModelParams, kin: KineticsSpec, *,
             t_end: float) -> SimulationResult:
    """Run the error-controlled IMEX scheme from ``initial`` to ``t_end``
    (or to blow-up), starting with steps of ``DT_INIT``.

    Monitors are recorded at every accepted step; the ``dt`` column varies.
    Snapshots are taken at ``SNAPSHOTS`` evenly spaced target times from the
    initial time to ``t_end``: steps are shortened to land on each target,
    a target counts as reached 1e-9 early, so targets closer than that
    coalesce, each state is kept at most once, and the final state is
    appended unless it was kept already.
    The blow-up functional Q weights biomass with the washout eigenfunction
    at the first species' isolated-phase diffusivity, reflected x -> 1 - x.

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
    if SUP_THRESHOLD <= initial.sup():
        raise ValueError(
            f"sup_threshold {SUP_THRESHOLD} does not exceed the initial sup {initial.sup()}"
        )

    grid = initial.grid
    stepper = _Stepper(params, kin, grid)
    pair = solve_principal(params.du[0], grid.n)
    # Q's weight: the adjoint eigenfunction, phi reflected, copied contiguous once
    recorder = _MonitorRecorder(params, grid, pair.function[::-1].copy())
    record = recorder.record
    targets = np.linspace(initial.t, t_end, SNAPSHOTS).tolist()

    W = initial.stack()
    F = stepper.rate(W)
    t = initial.t
    dt = DT_INIT
    accepted = 0
    rejected = 0
    fallbacks = 0
    record(W, t, DT_INIT)
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
        W_new, err, fallback, _reason = stepper.macro_step(W, F, dt_eff)
        if W_new is None or err > 1.0:
            smaller = 0.5 * dt  # the ladder value below the step that failed
            while smaller >= dt_eff:
                smaller *= 0.5
            if smaller >= DT_MIN:
                rejected += 1
                dt = smaller
                continue
            if W_new is None:
                rejected += 1
                verdict = Verdict(kind="blow_up", t_final=t, reason="dt-collapse")
                break
            # an accurate step would be shorter than DT_MIN: keep this one
        accepted += 1
        fallbacks += fallback
        t = t_next
        W = W_new
        record(W, t, dt_eff)
        reached = _targets_reached(targets, due, t)
        if reached > due:
            due = reached
            snapshots.append(StateField.from_stack(grid, W, t))
        if stepper.sup > SUP_THRESHOLD:
            verdict = Verdict(kind="blow_up", t_final=t, reason="sup-threshold")
            break
        F = stepper.rate(W)
        # double dt when the error allows it and the explicit stage of the
        # doubled coarse step stays nonnegative, so that no step is rejected
        # for positivity again and again
        if err <= GROW_BELOW and dt_eff == dt and stepper.stage_min(W, F, 2.0 * dt) >= -CLAMP_TOL:
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
        blowup_eigenpair=pair,
    )


# ---------------------------------------------------------------------------
# Outcome classification
# ---------------------------------------------------------------------------


#: sup norm below which a biomass component may count as extinct
EXTINCT_SUP = 1e-2
#: fraction of its initial sup norm an extinct component must fall below
EXTINCT_FRACTION = 0.1


def classify_outcome(result: SimulationResult) -> str:
    """Ecological reading of a finished run, as a label.

    ``blow-up`` for a blow-up verdict; otherwise ``coexistence`` (no biomass
    component extinct), ``washout`` (every one extinct), or
    ``extinction-<components>``: ``extinction-u`` / ``extinction-v`` for a
    single species, a comma list of ``u<i>``/``v<i>`` such as
    ``extinction-u1,v2`` for several.  A component counts as extinct when its
    final sup norm is below ``EXTINCT_SUP`` and below ``EXTINCT_FRACTION``
    times its initial sup norm.
    """
    if result.verdict.kind == "blow_up":
        return "blow-up"
    labels = result.final.component_labels()[1:]
    # rows u_1, v_1, u_2, v_2, ...: the order of the labels
    init = result.initial.stack()[1:]
    fin = result.final.stack()[1:]
    extinct: list[str] = []
    for j, label in enumerate(labels):
        s0 = float(init[j].max())
        s1 = float(fin[j].max())
        if s1 < EXTINCT_SUP and (s0 == 0.0 or s1 < EXTINCT_FRACTION * s0):
            extinct.append(label)
    if not extinct:
        return "coexistence"
    if len(extinct) == len(labels):
        return "washout"
    return "extinction-" + ",".join(extinct)
