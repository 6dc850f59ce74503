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
smallest eigenpair LAPACK returns directly: bisection (``dstebz``) and
inverse iteration (``dstein``), called through
:func:`flocstat._lapack.smallest_eigenpair`.  Each (d, n) is solved once
per process: the CLI's verbs ask for the same few pairs many times over.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._lapack import smallest_eigenpair
from .model import _as_float
from .operators import (Array, band_matvec, grid_spacing, min_grid_n, operator_bands,
                        peclet_admissible, peclet_number)


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenvalue and positive eigenfunction on the grid.

    Attributes:
        d: diffusivity the pair belongs to.
        n: number of grid nodes.
        value: principal eigenvalue (strictly above 1 on admissible grids).
        function: eigenfunction sampled on the uniform grid, strictly
            positive (entries below the smallest double, about
            ``exp(-708)`` times the sup, flush to zero); normalized to
            sup = 1.  Read-only: one pair serves every caller.
        iterations: always 1; the solve is direct.
        residual: sup-norm of the eigen-equation defect relative to the
            sup of the eigenfunction.
    """

    d: float
    n: int
    value: float
    function: Array
    iterations: int
    residual: float


def _as_diffusivity(d) -> float:
    """``float(d)``, or a ValueError unless d is a positive finite real number."""
    d = _as_float(d, "diffusivity")
    if not (d > 0 and math.isfinite(d)):
        raise ValueError(f"diffusivity must be positive and finite, got {d}")
    return d


def _solve_principal(d: float, n: int) -> EigenPair:
    """The solve behind :func:`solve_principal`, uncached, for the float d
    and the int n it has checked."""
    pe = peclet_number(d, n)
    if not peclet_admissible(d, n):
        raise ValueError(
            f"grid too coarse for d={d}: cell Peclet h/(2d) = {pe:.3f} > 1; "
            f"use n > {min_grid_n(d)}"
        )
    unresolved = f"grid too coarse for d={d}: eigenfunction not resolved at cell Peclet {pe:.3f}"
    ab = operator_bands(d, n)
    upper, lower = ab[0, 1:], ab[2, :-1]
    if not np.all(upper < 0):  # rounding leaves it zero or of either sign at cell Peclet 1
        raise ValueError(f"{unresolved} (upper band not negative); use a finer grid")
    lam, y = smallest_eigenpair(ab[1], -np.sqrt(upper * lower))
    if y[int(np.argmax(np.abs(y)))] < 0:
        y = -y
    # phi = D y, its magnitude formed in log space node by node
    log_phi = np.log(np.abs(y)) + np.concatenate(([0.0], np.cumsum(0.5 * np.log(lower / upper))))
    phi = np.copysign(np.exp(log_phi - np.max(log_phi)), y)
    resid = float(np.max(np.abs(band_matvec(ab, phi) - lam * phi)))
    # the backward error of a computed tridiagonal eigenpair grows like
    # n * eps * |A|; an unresolved one misses this by many orders
    floor = 8.0 * n * np.finfo(float).eps * float(np.max(np.abs(ab)))
    if not (np.all(y > 0) and resid <= floor):
        raise ValueError(
            f"{unresolved} (min {float(np.min(phi)):.3e}, residual {resid:.3e}); use a finer grid"
        )
    phi.flags.writeable = False
    return EigenPair(d=float(d), n=int(n), value=lam, function=phi, iterations=1, residual=resid)


#: the (d, n) pairs one process keeps; a `steady-eigen` benchmark pass asks
#: for 13 distinct ones
_CACHE_SIZE = 64

_solve_cached = functools.lru_cache(maxsize=_CACHE_SIZE)(_solve_principal)


def solve_principal(d: float, n: int) -> EigenPair:
    """Principal eigenpair at diffusivity d on the n-node grid, by one
    symmetric tridiagonal eigen-solve.

    With cell Peclet number below 1 (``h < 2d``) every off-diagonal entry
    of A is negative, so a diagonal D whose entries grow by
    ``sqrt(lower/upper)`` per node makes ``D^{-1} A D`` symmetric
    tridiagonal; its smallest eigenpair ``(lam, y)`` gives the pair
    ``(lam, D y)`` of A.  D spans about ``exp(1/(2d))`` over the grid, so
    ``D y`` is formed in log space.  A is an irreducible M-matrix, so by
    Perron-Frobenius on its positive inverse the principal eigenvector is
    the only positive one; a result that is not positive, or whose
    residual is above the rounding floor, means the grid does not resolve
    the eigenfunction and raises ValueError, as do an upper band that is
    not negative (at cell Peclet 1, where A is reducible), a d that is not
    a positive finite real number, an n that is not an integer of at least
    ``MIN_GRID_N``, and a grid that breaks the Peclet rule.

    Each (d, n) is solved once per process and kept in a bounded LRU
    cache, keyed by the float and int they hold: a 0-d array or numpy
    number d and a numpy integer n share the entry of the plain ones.  An
    error is never kept: it is raised afresh on every call.
    """
    d = _as_diffusivity(d)
    grid_spacing(n)  # raises unless an integer of at least MIN_GRID_N
    return _solve_cached(d, int(n))


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
    """Closed-form enclosure of the principal eigenvalue (see LambdaBracket);
    a d that is not a positive finite real number raises ValueError."""
    d = _as_diffusivity(d)
    if d < 1.0 / (2.0 * math.pi):
        lo = 1.0 / (4.0 * d) + math.pi**2 * d / 4.0
        hi = 1.0 / (4.0 * d) + math.pi**2 * d
        return LambdaBracket(lo, hi, True)
    return LambdaBracket(1.0, math.inf, False)
