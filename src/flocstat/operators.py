"""Finite-difference transport stencils on the unit interval.

Every scalar field in the model is transported by ``w -> d*w'' - w'``
with a feed condition ``-d*w'(0) + w(0) = gamma`` at the inlet and a
no-flux condition ``w'(1) = 0`` at the outlet.  This module builds the
tridiagonal matrices for that operator (and its advection-reversed
mirror) on a uniform grid, with the boundary conditions folded into the
first and last rows by second-order ghost-node elimination.  It also holds
the composite trapezoid rule that integrates sampled profiles, and its
weights.

Matrices are returned in scipy's banded layout: ``ab[0, 1:]`` upper
diagonal, ``ab[1, :]`` main diagonal, ``ab[2, :-1]`` lower diagonal.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

Array = np.ndarray


class BoundaryVariant(str, Enum):
    """Which end carries the Robin (flux-balance) row.

    INFLOW_ROBIN:  operator ``-d*w'' + w'`` with ``-d*w'(0) + w(0) = 0``
                   and ``w'(1) = 0`` — the sign convention under which the
                   transport part of the evolution equations is ``-A w``.
    OUTFLOW_ROBIN: operator ``-d*w'' - w'`` with ``w'(0) = 0`` and
                   ``d*w'(1) + w(1) = 0`` — the adjoint convention used by
                   the weighted-mass (blow-up) functional.
    """

    INFLOW_ROBIN = "inflow_robin"
    OUTFLOW_ROBIN = "outflow_robin"


def grid_spacing(n: int) -> float:
    if not (isinstance(n, int) and n >= 3):
        raise ValueError(f"grid needs at least 3 nodes, got {n}")
    return 1.0 / (n - 1)


def operator_bands(d: float, n: int, variant: BoundaryVariant = BoundaryVariant.INFLOW_ROBIN) -> Array:
    """Banded matrix of the (negative-definite-free) transport operator.

    For INFLOW_ROBIN this is ``A`` with ``(A w)_j ~ -d*w''(x_j) + w'(x_j)``
    and homogeneous boundary rows; the evolution operator applied by the
    time stepper is ``-A`` plus the feed vector.  All eigenvalues of ``A``
    are real and exceed 1 on Peclet-compliant grids (h < 2d).
    """
    if not (d > 0 and np.isfinite(d)):
        raise ValueError(f"diffusivity must be positive, got {d}")
    h = grid_spacing(n)
    ab = np.zeros((3, n))
    diff = d / h**2
    adv = 1.0 / (2.0 * h)
    if variant == BoundaryVariant.INFLOW_ROBIN:
        ab[0, 2:] = -diff + adv      # upper diagonal, interior columns
        ab[1, 1:-1] = 2.0 * diff     # main diagonal, interior
        ab[2, :-2] = -diff - adv     # lower diagonal, interior columns
        # Robin feed row at x=0 (ghost value w_{-1} = w_1 - 2h(w_0-gamma)/d)
        ab[1, 0] = 2.0 * diff + 2.0 / h + 1.0 / d
        ab[0, 1] = -2.0 * diff
        # no-flux row at x=1 (ghost value w_n = w_{n-2})
        ab[1, -1] = 2.0 * diff
        ab[2, -2] = -2.0 * diff
    elif variant == BoundaryVariant.OUTFLOW_ROBIN:
        ab[0, 2:] = -diff - adv
        ab[1, 1:-1] = 2.0 * diff
        ab[2, :-2] = -diff + adv
        # no-flux row at x=0
        ab[1, 0] = 2.0 * diff
        ab[0, 1] = -2.0 * diff
        # Robin outflow row at x=1 (ghost value w_n = w_{n-2} - 2h*w_{n-1}/d)
        ab[1, -1] = 2.0 * diff + 2.0 / h + 1.0 / d
        ab[2, -2] = -2.0 * diff
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown boundary variant {variant!r}")
    return ab


def feed_vector(d: float, n: int, gamma: float) -> Array:
    """Inhomogeneity carrying the inlet feed ``gamma`` into the first row.

    The full transport right-hand side for a field with feed gamma is
    ``-(A w) + feed_vector`` where ``A = operator_bands(d, n, INFLOW_ROBIN)``.
    """
    if gamma < 0:
        raise ValueError(f"feed concentration must be nonnegative, got {gamma}")
    h = grid_spacing(n)
    b = np.zeros(n)
    b[0] = (2.0 / h + 1.0 / d) * gamma
    return b


def band_matvec(ab: Array, x: Array) -> Array:
    """Multiply a banded (3, n) matrix by a vector."""
    n = ab.shape[1]
    if x.shape != (n,):
        raise ValueError(f"vector has shape {x.shape}, expected ({n},)")
    y = ab[1] * x
    y[:-1] += ab[0, 1:] * x[1:]
    y[1:] += ab[2, :-1] * x[:-1]
    return y


def trapezoid(y: Array, dx: float) -> Array:
    """Composite trapezoid integrals of samples ``dx`` apart, along the last axis.

    The expression is the one ``scipy.integrate.trapezoid`` evaluates, so the
    results agree with it bit for bit, without importing ``scipy.integrate``.
    """
    return (dx * (y[..., 1:] + y[..., :-1]) / 2.0).sum(axis=-1)


def trapezoid_weights(n: int) -> Array:
    """Composite trapezoid weights on the uniform n-node grid of [0, 1]."""
    h = grid_spacing(n)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def peclet_number(d: float, n: int) -> float:
    """Cell Peclet number h/(2d); the time stepper needs this <= 1, the
    eigen solver < 1."""
    return grid_spacing(n) / (2.0 * d)


class TransportDefect(NamedTuple):
    """Pointwise defect of a profile against the steady transport balance.

    interior: max abs residual of ``-d*w'' + w' = source`` on interior
        nodes (second-order central differences).
    inlet: residual of the feed condition ``-d*w'(0) + w(0) - gamma``.
    outlet: residual of the no-flux condition ``w'(1)``.
    max_abs: the largest of the three in absolute value.
    """

    interior: float
    inlet: float
    outlet: float
    max_abs: float


def transport_defect(w: Array, d: float, source: Array, *, gamma: float = 0.0) -> TransportDefect:
    """Measure how well a profile solves ``-d*w'' + w' = source`` with the
    inlet feed/outlet no-flux conditions (second-order differences, the
    boundary derivatives one-sided).  All three residuals shrink as O(h^2)
    for a profile that solves the problem exactly in the continuum.
    """
    w = np.asarray(w, dtype=float)
    source = np.asarray(source, dtype=float)
    n = w.shape[0]
    if w.shape != (n,) or source.shape != (n,) or n < 3:
        raise ValueError(
            f"profile and source must be matching 1-D arrays of length >= 3, "
            f"got {w.shape} and {source.shape}"
        )
    if not (d > 0 and np.isfinite(d)):
        raise ValueError(f"diffusivity must be positive, got {d}")
    h = 1.0 / (n - 1)
    interior = (
        -d * (w[2:] - 2.0 * w[1:-1] + w[:-2]) / h**2
        + (w[2:] - w[:-2]) / (2.0 * h)
        - source[1:-1]
    )
    dw_in = (-3.0 * w[0] + 4.0 * w[1] - w[2]) / (2.0 * h)
    dw_out = (3.0 * w[-1] - 4.0 * w[-2] + w[-3]) / (2.0 * h)
    inlet = -d * dw_in + w[0] - gamma
    outlet = dw_out
    interior_max = float(np.max(np.abs(interior))) if interior.size else 0.0
    return TransportDefect(
        interior=interior_max,
        inlet=float(inlet),
        outlet=float(outlet),
        max_abs=max(interior_max, abs(float(inlet)), abs(float(outlet))),
    )
