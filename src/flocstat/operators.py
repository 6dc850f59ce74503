"""Finite-difference transport stencils on the unit interval.

Every scalar field in the model is transported by ``w -> d*w'' - w'``
with a feed condition ``-d*w'(0) + w(0) = gamma`` at the inlet and a
no-flux condition ``w'(1) = 0`` at the outlet.  This module builds the
tridiagonal matrix for that operator on a uniform grid, with the boundary
conditions folded into the first and last rows by second-order ghost-node
elimination, and the tridiagonal inverse of the steady solver's quadrature.
It also holds the composite trapezoid rule and its weights.

Diffusivities, feeds and arrays arrive as ``ModelParams``, ``StateField``
and ``Grid`` checked them and are not checked again here.

Matrices are returned in scipy's banded layout: ``ab[0, 1:]`` upper
diagonal, ``ab[1, :]`` main diagonal, ``ab[2, :-1]`` lower diagonal.  The
unused corners ``ab[0, 0]`` and ``ab[2, -1]`` are zero, so blocks laid end
to end by ``np.hstack`` form one block-diagonal matrix.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

Array = np.ndarray


#: the fewest grid nodes a run, an eigen solve or a steady solve accepts
MIN_GRID_N = 16


def grid_spacing(n: int) -> float:
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"grid size must be an integer, got {n!r}")
    if n < MIN_GRID_N:
        raise ValueError(f"grid needs at least {MIN_GRID_N} nodes, got {n}")
    return 1.0 / (int(n) - 1)


def operator_bands(d: float, n: int) -> Array:
    """Banded matrix A of the transport operator, ``(A w)_j ~ -d*w''(x_j) + w'(x_j)``
    with homogeneous boundary rows.

    The evolution operator applied by the time stepper is ``-A`` plus the
    feed vector.  All eigenvalues of ``A`` are real and exceed 1 on
    Peclet-compliant grids (h < 2d).  The adjoint operator ``-d*w'' - w'``
    with ``w'(0) = 0`` and ``d*w'(1) + w(1) = 0`` is, on this grid, exactly
    ``A`` under index reversal (x -> 1 - x).
    """
    h = grid_spacing(n)
    ab = np.zeros((3, n))
    diff = d / h**2
    adv = 1.0 / (2.0 * h)
    ab[0, 2:] = -diff + adv      # upper diagonal, interior columns
    ab[1, 1:-1] = 2.0 * diff     # main diagonal, interior
    ab[2, :-2] = -diff - adv     # lower diagonal, interior columns
    # Robin feed row at x=0 (ghost value w_{-1} = w_1 - 2h(w_0-gamma)/d)
    ab[1, 0] = 2.0 * diff + 2.0 / h + 1.0 / d
    ab[0, 1] = -2.0 * diff
    # no-flux row at x=1 (ghost value w_n = w_{n-2})
    ab[1, -1] = 2.0 * diff
    ab[2, -2] = -2.0 * diff
    return ab


def quadrature_inverse_bands(d: float, n: int) -> Array:
    """Banded inverse T of the steady quadrature ``kernel_matrix(d, n)``; its
    kernel is semiseparable, so T is tridiagonal.

    With ``D = (h/2)*coth(h/(2d))``, ``a = D/h**2 + 1/(2h)`` and
    ``b = D/h**2 - 1/(2h)``, the interior rows are the exponentially fitted
    (Il'in-Allen-Southwell) stencil ``-a, 2D/h**2, -b``, the inlet row is
    ``2a, -2b`` and the outlet row ``-2a, 2a``.  Formed from ``exp(-h/d)``
    as below, a and b lose no digits as h/d goes to 0 or to infinity.
    """
    h = grid_spacing(n)
    a = -1.0 / (h * math.expm1(-h / d))
    b = a * math.exp(-h / d)
    ab = np.zeros((3, n))
    ab[0, 2:] = -b               # upper diagonal, interior columns
    ab[1, 1:-1] = a + b          # main diagonal, interior
    ab[2, :-2] = -a              # lower diagonal, interior columns
    ab[1, 0], ab[0, 1] = 2.0 * a, -2.0 * b     # inlet row
    ab[1, -1], ab[2, -2] = 2.0 * a, -2.0 * a   # outlet row
    return ab


def feed_vector(d: float, n: int, gamma: float) -> Array:
    """Inhomogeneity carrying the inlet feed ``gamma`` into the first row.

    The full transport right-hand side for a field with feed gamma is
    ``-(A w) + feed_vector`` where ``A = operator_bands(d, n)``.
    """
    h = grid_spacing(n)
    b = np.zeros(n)
    b[0] = (2.0 / h + 1.0 / d) * gamma
    return b


def band_matvec(ab: Array, x: Array) -> Array:
    """Multiply a banded (3, n) matrix by a vector of length n."""
    y = ab[1] * x
    y[:-1] += ab[0, 1:] * x[1:]
    y[1:] += ab[2, :-1] * x[:-1]
    return y


def trapezoid(y: Array, dx: float) -> Array:
    """Composite trapezoid integrals of samples ``dx`` apart, along the last axis.

    The operations are the ones ``scipy.integrate.trapezoid`` evaluates, so
    the results agree with it bit for bit, without importing
    ``scipy.integrate``; they run in place on one temporary.  The pair sums
    of every row come from one add over the flattened samples, and the sum
    over each row skips the pair that straddles it and the next row.
    """
    s = np.empty(y.shape)
    pairs = s.reshape(-1)[:-1]
    flat = y.reshape(-1)  # a copy only where y is not contiguous
    np.add(flat[1:], flat[:-1], out=pairs)
    pairs *= dx
    pairs /= 2.0
    return s[..., :-1].sum(axis=-1)


def trapezoid_weights(n: int) -> Array:
    """Composite trapezoid weights on the uniform n-node grid of [0, 1]."""
    h = grid_spacing(n)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def peclet_number(d: float, n: int) -> float:
    """Cell Peclet number h/(2d)."""
    return grid_spacing(n) / (2.0 * d)


def peclet_admissible(d: float, n: int) -> bool:
    """Whether the n-node grid resolves diffusivity d: cell Peclet number
    up to 1 (up to rounding).

    At Pe = 1 the upper band of A vanishes and ``I + dt*A`` stays an
    M-matrix, so the time stepper runs there.  A is then reducible and has
    no positive eigenvector, which the eigen solver detects and reports.
    """
    return peclet_number(d, n) <= 1.0 + 1e-12


def min_grid_n(d: float) -> int:
    """Smallest n whose cell Peclet number for diffusivity d is at most 1."""
    return 1 + math.ceil(1.0 / (2.0 * d))


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
    ``w`` and ``source`` are 1-D arrays of the same length, at least 3.
    """
    w = np.asarray(w, dtype=float)
    source = np.asarray(source, dtype=float)
    h = 1.0 / (w.shape[0] - 1)
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
