"""Principal eigenvalue of the transport operator on (0, 1).

The washout rate of the chemostat is governed by the smallest eigenvalue
of ``-d*phi'' + phi'`` under the feed-balance condition
``-d*phi'(0) + phi(0) = 0`` and no-flux outlet ``phi'(1) = 0``.  This
eigenvalue always exceeds 1, decreases in the diffusivity d, and its
positive eigenfunction spans a dynamic range of order ``exp(1/(2d))``,
which is what makes small-d computations delicate.

The solver discretizes with the second-order stencils in
:mod:`flocstat.operators`.  Below cell Peclet number 1 the tridiagonal
matrix is similar, through a diagonal scaling, to a symmetric one, whose
smallest eigenpair LAPACK returns directly.  The mirrored variant
(advection reversed, Robin row at the outlet) has the same spectrum — its
matrix is the index-reversal of the other — and is provided because the
blow-up functional weights mass with its eigenfunction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .operators import Array, BoundaryVariant, band_matvec, operator_bands, peclet_number

__all__ = [
    "BoundaryVariant",
    "EigenPair",
    "LambdaBracket",
    "solve_principal",
    "rescale_eigenfunction",
    "lambda_bracket",
]


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenvalue and positive eigenfunction on the grid.

    Attributes:
        d: diffusivity the pair belongs to.
        n: number of grid nodes.
        variant: which boundary row carries the Robin condition.
        value: principal eigenvalue (strictly above 1 on admissible grids).
        function: eigenfunction sampled on the uniform grid, strictly
            positive (entries below the smallest double, about
            ``exp(-708)`` times the sup, flush to zero); normalized to
            sup = 1 by the solver, possibly rescaled afterwards.
        iterations: always 1; the solve is direct.
        residual: sup-norm of the eigen-equation defect relative to the
            sup of the eigenfunction (scale-invariant, so rescaling
            leaves it unchanged).
    """

    d: float
    n: int
    variant: BoundaryVariant
    value: float
    function: Array
    iterations: int
    residual: float

    @property
    def x(self) -> Array:
        return np.linspace(0.0, 1.0, self.n)


def solve_principal(
    d: float,
    n: int = 401,
    variant: BoundaryVariant = BoundaryVariant.INFLOW_ROBIN,
) -> EigenPair:
    """Principal eigenpair by one symmetric tridiagonal eigen-solve.

    With cell Peclet number below 1 (``h < 2d``) every off-diagonal entry
    of A is negative, so a diagonal D whose entries grow by
    ``sqrt(lower/upper)`` per node makes ``D^{-1} A D`` symmetric
    tridiagonal; its smallest eigenpair ``(lam, y)`` gives the pair
    ``(lam, D y)`` of A.  D spans about ``exp(1/(2d))`` over the grid, so
    ``D y`` is formed in log space.  A is an irreducible M-matrix, so by
    Perron-Frobenius on its positive inverse the principal eigenvector is
    the only positive one; a result that is not positive, or whose
    residual is above the rounding floor, means the grid does not resolve
    the eigenfunction and raises ValueError.
    """
    if not (isinstance(n, int) and n >= 16):
        raise ValueError(f"eigen solves need at least 16 nodes, got {n}")
    if d <= 0:
        raise ValueError(f"diffusivity must be positive, got {d}")
    # strictly below 1: at Pe = 1 the interior upper band of A is zero, so
    # A is reducible and has no positive eigenvector
    pe = peclet_number(d, n)
    if pe >= 1.0:
        raise ValueError(
            f"grid too coarse for d={d}: cell Peclet h/(2d) = {pe:.3f} >= 1; "
            f"use n > {1 + math.ceil(1.0 / (2.0 * d))}"
        )
    ab = operator_bands(d, n, variant)
    upper, lower = ab[0, 1:], ab[2, :-1]
    values, vectors = eigh_tridiagonal(
        ab[1], -np.sqrt(upper * lower), select="i", select_range=(0, 0)
    )
    lam, y = float(values[0]), vectors[:, 0]
    if y[int(np.argmax(np.abs(y)))] < 0:
        y = -y
    # phi = D y, its magnitude formed in log space node by node
    with np.errstate(divide="ignore"):
        log_phi = np.log(np.abs(y)) + np.concatenate(
            ([0.0], np.cumsum(0.5 * np.log(lower / upper)))
        )
    phi = np.copysign(np.exp(log_phi - np.max(log_phi)), y)
    resid = float(np.max(np.abs(band_matvec(ab, phi) - lam * phi)))
    # the backward error of a computed tridiagonal eigenpair grows like
    # n * eps * |A|; an unresolved one misses this by many orders
    floor = 8.0 * n * np.finfo(float).eps * float(np.max(np.abs(ab)))
    if not (np.all(y > 0) and resid <= floor):
        raise ValueError(
            f"grid too coarse for d={d}: eigenfunction not resolved at cell Peclet "
            f"{pe:.3f} (min {float(np.min(phi)):.3e}, residual {resid:.3e}); use a finer grid"
        )
    return EigenPair(d=float(d), n=n, variant=variant, value=lam, function=phi,
                     iterations=1, residual=resid)


def rescale_eigenfunction(
    pair: EigenPair,
    mode: str = "max_one",
    *,
    value: float = 1.0,
    other: EigenPair | None = None,
    factor: float = 1.0,
) -> EigenPair:
    """Return a copy of the pair with the eigenfunction rescaled.

    Modes:
        ``max_one``      — sup equal to 1 (the solver's normalization).
        ``min_value``    — minimum equal to ``value`` (seed strictly
                           positive profiles).
        ``dominated_by`` — largest positive multiple with
                           ``phi <= factor * other.function`` pointwise;
                           equality is attained at the binding node.

    The eigenvalue and the (relative) residual are scale-invariant and
    carried over unchanged.
    """
    phi = pair.function
    if mode == "max_one":
        scale = 1.0 / float(np.max(phi))
    elif mode == "min_value":
        lo = float(np.min(phi))
        if lo <= 0:
            raise ValueError("eigenfunction minimum is not positive; cannot rescale")
        if value <= 0:
            raise ValueError(f"min_value target must be positive, got {value}")
        scale = value / lo
    elif mode == "dominated_by":
        if other is None:
            raise ValueError("dominated_by mode needs the dominating pair")
        if other.n != pair.n:
            raise ValueError(f"grids differ: {pair.n} vs {other.n} nodes")
        if factor <= 0:
            raise ValueError(f"dominated_by factor must be positive, got {factor}")
        ceiling = factor * other.function
        if np.any(ceiling <= 0):
            raise ValueError("dominating function must be strictly positive")
        scale = float(np.min(ceiling / phi))
    else:
        raise ValueError(f"unknown rescale mode {mode!r}")
    return replace(pair, function=phi * scale)


class LambdaBracket(NamedTuple):
    """Enclosure for the principal eigenvalue at one diffusivity.

    For small d (below 1/(2*pi)) the enclosure is the two-sided bracket
    ``(1/(4d) + pi^2 d/4, 1/(4d) + pi^2 d)`` and ``enclosure`` is True.
    For larger d only the one-sided tail bound holds — the eigenvalue
    approaches 1 from above — so the marker ``(1, inf)`` is returned
    with ``enclosure`` False.
    """

    lower: float
    upper: float
    enclosure: bool


def lambda_bracket(d: float) -> LambdaBracket:
    """Closed-form enclosure of the principal eigenvalue (see LambdaBracket)."""
    if d <= 0:
        raise ValueError(f"diffusivity must be positive, got {d}")
    if d < 1.0 / (2.0 * math.pi):
        lo = 1.0 / (4.0 * d) + math.pi**2 * d / 4.0
        hi = 1.0 / (4.0 * d) + math.pi**2 * d
        return LambdaBracket(lo, hi, True)
    return LambdaBracket(1.0, math.inf, False)
