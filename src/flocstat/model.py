"""Model data for the flocculation chemostat.

The state is a substrate concentration ``S`` and, for each of ``m``
microbial species, an isolated-cell density ``u_i`` and an attached
(flocculated) density ``v_i``, all living on the reactor interval
``[0, 1]``.  Substrate is consumed through per-species growth laws
``f_i`` (isolated) and ``g_i`` (attached); biomass moves between the
isolated and attached compartments through an attachment rate
``alpha_i(u, v)`` and a detachment rate ``beta_i(u, v)``, weighted by
the yields ``y_u``/``y_v``.

This module holds the parameter and kinetics containers, pointwise
reaction-term evaluation, and the sampled structural-condition checks
used by the rest of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Optional, Sequence, Union

import numpy as np

Array = np.ndarray

#: Verdict of a sampled inequality check.  "satisfied" means the check was
#: not refuted at any sampled point (sampling cannot prove an inequality on
#: an unbounded set); "violated" comes with a concrete witness point.
CheckVerdict = Literal["satisfied", "violated", "not_applicable"]


def _as_float_tuple(value: Union[float, Sequence[float]], m: int, name: str) -> tuple[float, ...]:
    """Normalise a scalar-or-sequence parameter to an m-tuple of floats."""
    if isinstance(value, (int, float)):
        return (float(value),) * m
    out = tuple(float(x) for x in value)
    if len(out) != m:
        raise ValueError(f"{name} must have {m} entries, got {len(out)}")
    return out


# ---------------------------------------------------------------------------
# Growth laws  f_i(S), g_i(S)
# ---------------------------------------------------------------------------
#
# Calling a law checks that the substrate is nonnegative; ``_rate`` is the
# same formula unchecked, for the reaction kernel of the time stepper.


@dataclass(frozen=True)
class Monod:
    """Saturating uptake law ``S -> a*S/(b + S)``; nondecreasing, sup = a."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError(f"Monod coefficient a must be positive, got {self.a}")
        if not (self.b > 0 and math.isfinite(self.b)):
            raise ValueError(f"Monod half-saturation b must be positive, got {self.b}")

    def __call__(self, S):
        _require_nonneg_substrate(S)
        return self._rate(S)

    def _rate(self, S):
        return self.a * S / (self.b + S)

    @property
    def sup(self) -> float:
        """Least upper bound of the law on [0, inf)."""
        return self.a

    @property
    def nondecreasing(self) -> bool:
        return True


@dataclass(frozen=True)
class Haldane:
    """Inhibited uptake law ``S -> a*S/(b + S + c*S^2)``.

    Rises to a single interior maximum and decays afterwards, so it is not
    a nondecreasing law (for c > 0).
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for coeff, label in ((self.a, "a"), (self.b, "b"), (self.c, "c")):
            if not (coeff > 0 and math.isfinite(coeff)):
                raise ValueError(f"Haldane coefficient {label} must be positive, got {coeff}")

    def __call__(self, S):
        _require_nonneg_substrate(S)
        return self._rate(S)

    def _rate(self, S):
        return self.a * S / (self.b + S + self.c * S * S)

    @property
    def sup(self) -> float:
        """Maximum value, attained at S = sqrt(b/c)."""
        return self.a / (1.0 + 2.0 * math.sqrt(self.b * self.c))

    @property
    def nondecreasing(self) -> bool:
        return False


@dataclass(frozen=True)
class ZeroGrowth:
    """Identically zero uptake (species does not consume substrate)."""

    def __call__(self, S):
        _require_nonneg_substrate(S)
        return self._rate(S)

    def _rate(self, S):
        return np.zeros_like(np.asarray(S, dtype=float)) if np.ndim(S) else 0.0

    @property
    def sup(self) -> float:
        return 0.0

    @property
    def nondecreasing(self) -> bool:
        return True


GrowthLaw = Union[Monod, Haldane, ZeroGrowth]


def _require_nonneg_substrate(S) -> None:
    arr = np.asarray(S)
    if arr.size and float(arr.min()) < 0.0:
        raise ValueError("growth laws are defined for nonnegative substrate only")


# ---------------------------------------------------------------------------
# Attachment / detachment rate laws  alpha_i(u, v), beta_i(u, v)
# ---------------------------------------------------------------------------
#
# Each law maps the full density vectors (u, v) -- shape (m,) pointwise or
# (m, n) on a grid -- to a scalar rate field (shape () or (n,)).  All laws
# are built from the species totals ``U = sum_j u_j`` and ``V = sum_j v_j``
# (total biomass ``U + V``, attached biomass ``V``), are continuous,
# nonnegative on the nonnegative orthant and nondecreasing in every density.
#
# Calling a law sums the species axis and delegates to ``_rate(U, V)``, the
# formula on the totals.  The reaction kernel computes U and V once per
# evaluation and calls ``_rate`` for every law.


class _TotalsRate:
    """Evaluates ``_rate`` on the species totals of (u, v)."""

    def __call__(self, u: Array, v: Array):
        return self._rate(np.sum(u, axis=0), np.sum(v, axis=0))


@dataclass(frozen=True)
class ConstantRate(_TotalsRate):
    """Density-independent rate ``c``."""

    c: float

    def __post_init__(self) -> None:
        if not (self.c >= 0 and math.isfinite(self.c)):
            raise ValueError(f"ConstantRate coefficient must be nonnegative, got {self.c}")

    def _rate(self, U, V):
        return np.full_like(U, self.c)

    #: polynomial degree in the densities
    degree: int = field(default=0, init=False, repr=False)

    @property
    def vanishes_without_attached(self) -> bool:
        return self.c == 0.0

    @property
    def vanishes_without_isolated(self) -> bool:
        return self.c == 0.0


@dataclass(frozen=True)
class LinearTotalRate(_TotalsRate):
    """Rate proportional to total biomass: ``c * sum_j(u_j + v_j)``."""

    c: float

    def __post_init__(self) -> None:
        if not (self.c >= 0 and math.isfinite(self.c)):
            raise ValueError(f"LinearTotalRate coefficient must be nonnegative, got {self.c}")

    def _rate(self, U, V):
        return self.c * (U + V)

    degree: int = field(default=1, init=False, repr=False)

    @property
    def vanishes_without_attached(self) -> bool:
        return self.c == 0.0

    @property
    def vanishes_without_isolated(self) -> bool:
        return self.c == 0.0


@dataclass(frozen=True)
class AttachedTimesTotalRate(_TotalsRate):
    """Rate ``(sum_j(u_j + v_j)) * (sum_j v_j)``: total biomass times attached.

    Vanishes identically when no attached biomass is present, which makes
    the all-isolated state invariant under attachment.
    """

    def _rate(self, U, V):
        return (U + V) * V

    degree: int = field(default=2, init=False, repr=False)

    @property
    def vanishes_without_attached(self) -> bool:
        return True

    @property
    def vanishes_without_isolated(self) -> bool:
        return False


@dataclass(frozen=True)
class OnePlusAttachedTimesTotalRate(_TotalsRate):
    """Rate ``(1 + sum_j v_j) * (sum_j(u_j + v_j))``."""

    def _rate(self, U, V):
        return (1.0 + V) * (U + V)

    degree: int = field(default=2, init=False, repr=False)

    @property
    def vanishes_without_attached(self) -> bool:
        return False

    @property
    def vanishes_without_isolated(self) -> bool:
        return False


@dataclass(frozen=True)
class PowerTotalRate(_TotalsRate):
    """Rate ``c * (sum_j(u_j + v_j))**l`` with integer exponent ``l >= 1``."""

    c: float
    l: int

    def __post_init__(self) -> None:
        if not (self.c >= 0 and math.isfinite(self.c)):
            raise ValueError(f"PowerTotalRate coefficient must be nonnegative, got {self.c}")
        if not (isinstance(self.l, int) and self.l >= 1):
            raise ValueError(f"PowerTotalRate exponent must be an integer >= 1, got {self.l}")

    def _rate(self, U, V):
        return self.c * (U + V)**self.l

    @property
    def degree(self) -> int:
        return self.l if self.c > 0 else 0

    @property
    def vanishes_without_attached(self) -> bool:
        return self.c == 0.0

    @property
    def vanishes_without_isolated(self) -> bool:
        return self.c == 0.0


FlocRate = Union[
    ConstantRate, LinearTotalRate, AttachedTimesTotalRate, OnePlusAttachedTimesTotalRate, PowerTotalRate
]


# ---------------------------------------------------------------------------
# Parameter and kinetics containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: diffusivities, yields and feed concentrations.

    Scalars are accepted for the per-species fields and broadcast to all
    ``m`` species.  All diffusivities and yields must be positive and all
    feed concentrations nonnegative.
    """

    m: int
    d0: float
    du: tuple[float, ...]
    dv: tuple[float, ...]
    yu: tuple[float, ...]
    yv: tuple[float, ...]
    gamma_s: float
    gamma_u: tuple[float, ...] = 0.0  # type: ignore[assignment]
    gamma_v: tuple[float, ...] = 0.0  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError(f"species count m must be an integer >= 1, got {self.m}")
        for name in ("du", "dv", "yu", "yv", "gamma_u", "gamma_v"):
            object.__setattr__(self, name, _as_float_tuple(getattr(self, name), self.m, name))
        object.__setattr__(self, "d0", float(self.d0))
        object.__setattr__(self, "gamma_s", float(self.gamma_s))
        if not (self.d0 > 0 and math.isfinite(self.d0)):
            raise ValueError(f"substrate diffusivity d0 must be positive, got {self.d0}")
        for name in ("du", "dv"):
            for x in getattr(self, name):
                if not (x > 0 and math.isfinite(x)):
                    raise ValueError(f"diffusivity {name} entries must be positive, got {x}")
        for name in ("yu", "yv"):
            for x in getattr(self, name):
                if not (x > 0 and math.isfinite(x)):
                    raise ValueError(f"yield {name} entries must be positive, got {x}")
        if self.gamma_s < 0:
            raise ValueError(f"feed concentration gamma_s must be nonnegative, got {self.gamma_s}")
        for name in ("gamma_u", "gamma_v"):
            for x in getattr(self, name):
                if x < 0:
                    raise ValueError(f"feed concentration {name} entries must be nonnegative, got {x}")

    @property
    def yield_products(self) -> tuple[float, ...]:
        """Per-species products ``yu_i * yv_i`` (the exchange-loss balance)."""
        return tuple(a * b for a, b in zip(self.yu, self.yv))


@dataclass(frozen=True)
class KineticsSpec:
    """Per-species growth laws and attachment/detachment rate laws."""

    f: tuple[GrowthLaw, ...]
    g: tuple[GrowthLaw, ...]
    alpha: tuple[FlocRate, ...]
    beta: tuple[FlocRate, ...]

    def __post_init__(self) -> None:
        for name in ("f", "g", "alpha", "beta"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        m = len(self.f)
        if m < 1:
            raise ValueError("KineticsSpec needs at least one species")
        for name in ("g", "alpha", "beta"):
            if len(getattr(self, name)) != m:
                raise ValueError(
                    f"KineticsSpec field {name} has {len(getattr(self, name))} entries, expected {m}"
                )
        # all growth laws vanish at S = 0 by construction; verify to guard
        # against future descriptor additions breaking the washout state
        for law in self.f + self.g:
            if abs(float(law(0.0))) > 0.0:
                raise ValueError(f"growth law {law!r} does not vanish at S = 0")

    @property
    def m(self) -> int:
        return len(self.f)


def single_species(
    *,
    d0: float = 1.0,
    du: float = 1.0,
    dv: float = 1.0,
    yu: float = 0.1,
    yv: float = 0.1,
    gamma_s: float = 1.0,
    gamma_u: float = 0.0,
    gamma_v: float = 0.0,
) -> ModelParams:
    """Convenience constructor for the single-species (m = 1) model."""
    return ModelParams(
        m=1, d0=d0, du=(du,), dv=(dv,), yu=(yu,), yv=(yv,),
        gamma_s=gamma_s, gamma_u=(gamma_u,), gamma_v=(gamma_v,),
    )


# ---------------------------------------------------------------------------
# Reaction field
# ---------------------------------------------------------------------------


def reaction_field(params: ModelParams, kin: KineticsSpec, S, u, v) -> Array:
    """Evaluate the reaction terms at a point (or along a grid).

    Parameters
    ----------
    S : float or (n,) array of nonnegative substrate values.
    u, v : (m,) or (m, n) arrays of nonnegative densities.

    Returns
    -------
    (2m+1,) or (2m+1, n) array ordered ``(S, u_1, v_1, ..., u_m, v_m)``:

    - substrate row: ``-sum_i (f_i(S) u_i + g_i(S) v_i)``
    - isolated row i: ``f_i(S) u_i - alpha_i(u,v) u_i / yu_i + beta_i(u,v) v_i``
    - attached row i: ``g_i(S) v_i + alpha_i(u,v) u_i - beta_i(u,v) v_i / yv_i``
    """
    if kin.m != params.m:
        raise ValueError(f"kinetics have m={kin.m} species but params have m={params.m}")
    S_arr = np.asarray(S, dtype=float)
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    if u_arr.shape != (params.m,) + S_arr.shape or v_arr.shape != u_arr.shape:
        raise ValueError(
            f"density shapes {u_arr.shape}/{v_arr.shape} do not match substrate shape {S_arr.shape} "
            f"for m={params.m}"
        )
    if u_arr.size and float(u_arr.min()) < 0.0:
        raise ValueError("isolated densities must be nonnegative")
    if v_arr.size and float(v_arr.min()) < 0.0:
        raise ValueError("attached densities must be nonnegative")
    _require_nonneg_substrate(S_arr)
    # the kernel works on profiles: a pointwise state is a one-node profile
    m = params.m
    out = _reaction_terms(params, kin, S_arr.reshape(-1), u_arr.reshape(m, -1),
                          v_arr.reshape(m, -1))
    return out.reshape((2 * m + 1,) + S_arr.shape)


def _reaction_terms(params: ModelParams, kin: KineticsSpec, S: Array, u: Array,
                    v: Array) -> Array:
    """:func:`reaction_field` without its checks, on (n,) and (m, n) profiles.

    The caller guarantees what ``reaction_field`` verifies: float arrays of
    matching shapes, with nonnegative entries.  The time stepper calls this
    on every step, with states that construction and clamping keep valid,
    and may overwrite the returned array.

    The species totals are summed once for all rate laws, and each row is
    written in place; every row takes the same floating-point operations, in
    the same order, as the formulas in ``reaction_field``'s docstring.
    """
    U = np.add.reduce(u, axis=0)  # np.sum's reduction, without its wrapper
    V = np.add.reduce(v, axis=0)
    out = np.zeros((2 * params.m + 1, S.shape[0]))
    growth_u, growth_v, attach, detach = np.empty((4, S.shape[0]))
    for i in range(params.m):
        iso, att = out[1 + 2 * i], out[2 + 2 * i]
        np.multiply(kin.f[i]._rate(S), u[i], out=growth_u)
        np.multiply(kin.g[i]._rate(S), v[i], out=growth_v)
        np.multiply(kin.alpha[i]._rate(U, V), u[i], out=attach)
        np.multiply(kin.beta[i]._rate(U, V), v[i], out=detach)
        # isolated: growth_u - attach / yu + detach
        np.divide(attach, params.yu[i], out=iso)
        np.subtract(growth_u, iso, out=iso)
        iso += detach
        # attached: growth_v + attach - detach / yv
        np.add(growth_v, attach, out=att)
        detach /= params.yv[i]
        att -= detach
        # substrate: minus (growth_u + growth_v), accumulated over species
        growth_u += growth_v
        out[0] -= growth_u
    return out


# ---------------------------------------------------------------------------
# Structural-condition checks (sampled)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Sampled verdicts for the structural conditions of the reaction field.

    - ``quasipositive``: every component's reaction term is nonnegative on
      the part of the boundary where that component vanishes (so the
      nonnegative orthant is forward-invariant for the reaction part).
    - ``mass_control``: the weighted reaction sum with weights
      ``(y_max, 1+yu_1, 1+yv_1, ...)`` is bounded by ``K1 * sum(w) + K2``.
    - ``rate_growth_bound``: attachment/detachment rates are bounded by
      ``h * (sum_i (u_i+v_i)**l + 1)`` for the declared degree ``l``.
    - ``one_sided_balance``: per species, one of the two signed exchange
      combinations grows at most like ``K * (sum_i (u_i+v_i)**r + 1)`` with
      ``r < 3``.
    - ``exchange_floor``: ``delta * sum(u_i+v_i) <= sum_i (alpha_i u_i +
      beta_i v_i) + 1`` for some ``delta > 0``, together with strict
      ``yu_i * yv_i < 1``.

    Sampled verdicts cannot prove an inequality on an unbounded set; a
    "satisfied" verdict means "not refuted on the sampled box"
    ``[0, SAMPLE_BOX]^(2m+1)``, while a "violated" verdict carries a
    concrete witness point.
    """

    quasipositive: CheckVerdict
    qp_witness: Optional[tuple[float, ...]]
    mass_control: CheckVerdict
    mass_weights: tuple[float, ...]
    mass_K1: float
    mass_K2: float
    mass_witness: Optional[tuple[float, ...]]
    rate_growth_bound: CheckVerdict
    rate_growth_l: int
    rate_growth_h: float
    one_sided_balance: CheckVerdict
    balance_branches: tuple[tuple[Optional[str], float, float], ...]
    balance_witness: Optional[tuple[float, ...]]
    exchange_floor: CheckVerdict
    exchange_delta: float
    exchange_witness: Optional[tuple[float, ...]]
    yuyv_class: str


def weight_vector(params: ModelParams, reading: str = "list") -> tuple[float, ...]:
    """Mass-control weight vector ``(y_max, 1+yu_1, 1+yv_1, ..., 1+yu_m, 1+yv_m)``.

    ``reading`` selects how the substrate weight ``y_max`` aggregates the
    yields: ``"list"`` (default) takes ``max_i max(yu_i, yv_i, 1)``;
    ``"product"`` takes ``max_i max(yu_i * yv_i, 1)``.
    """
    if reading == "list":
        y_max = max(1.0, max(max(a, b) for a, b in zip(params.yu, params.yv)))
    elif reading == "product":
        y_max = max(1.0, max(params.yield_products))
    else:
        raise ValueError(f"unknown y_max reading {reading!r} (expected 'list' or 'product')")
    weights = [y_max]
    for i in range(params.m):
        weights.append(1.0 + params.yu[i])
        weights.append(1.0 + params.yv[i])
    return tuple(weights)


#: edge of the box [0, SAMPLE_BOX]^(2m+1) the structural checks sample
SAMPLE_BOX = 10.0
#: samples per axis of that box (m = 1); m > 1 draws as many points in all
SAMPLES_PER_AXIS = 64


def _sample_points(m: int) -> Array:
    """Sample the box: full tensor grid for m = 1, seeded uniform draws of
    the same cardinality for m > 1."""
    axis = np.linspace(0.0, SAMPLE_BOX, SAMPLES_PER_AXIS)
    if m == 1:
        Sg, ug, vg = np.meshgrid(axis, axis, axis, indexing="ij")
        return np.stack([Sg.ravel(), ug.ravel(), vg.ravel()], axis=0)
    rng = np.random.default_rng(20240)
    return rng.uniform(0.0, SAMPLE_BOX, size=(2 * m + 1, SAMPLES_PER_AXIS**3))


def _eval_field_on_samples(params: ModelParams, kin: KineticsSpec, pts: Array) -> Array:
    S = pts[0]
    u = pts[1 : 1 + 2 * params.m : 2]
    v = pts[2 : 2 + 2 * params.m : 2]
    return reaction_field(params, kin, S, u, v)


def check_structural_conditions(params: ModelParams, kin: KineticsSpec) -> ConditionReport:
    """Run all sampled structural checks and collect them in one report."""
    if kin.m != params.m:
        raise ValueError(f"kinetics have m={kin.m} species but params have m={params.m}")
    m = params.m
    tol = 1e-9

    pts = _sample_points(m)

    # --- quasipositivity: zero out one component at a time -----------------
    qp_verdict: CheckVerdict = "satisfied"
    qp_witness = None
    for comp in range(2 * m + 1):
        boundary = pts.copy()
        boundary[comp] = 0.0
        F = _eval_field_on_samples(params, kin, boundary)
        worst = int(np.argmin(F[comp]))
        if F[comp][worst] < -tol:
            qp_verdict = "violated"
            qp_witness = tuple(boundary[:, worst])
            break

    # --- weighted mass control ---------------------------------------------
    weights = weight_vector(params)
    y_max = weights[0]
    products = params.yield_products
    if max(products) < 1.0:
        yuyv_class = "all_products_below_one"
    elif max(products) <= 1.0:
        yuyv_class = "all_products_at_most_one"
    else:
        yuyv_class = "some_product_exceeds_one"

    # With all yield products <= 1 the exchange terms carry nonpositive
    # weighted coefficients, so only bounded growth-law terms remain:
    #   K1 = max_i max(0, (1+yu_i-y_max)) * sup f_i   (and the g_i analogue).
    K1 = 0.0
    for i in range(m):
        K1 = max(K1, max(0.0, 1.0 + params.yu[i] - y_max) * kin.f[i].sup)
        K1 = max(K1, max(0.0, 1.0 + params.yv[i] - y_max) * kin.g[i].sup)
    K2 = 0.0

    F = _eval_field_on_samples(params, kin, pts)
    weighted = np.tensordot(np.asarray(weights), F, axes=(0, 0))
    budget = K1 * pts.sum(axis=0) + K2
    excess = weighted - budget
    worst = int(np.argmax(excess))
    if excess[worst] > tol * max(1.0, abs(budget[worst])):
        mass_verdict: CheckVerdict = "violated"
        mass_witness = tuple(pts[:, worst])
    else:
        mass_verdict = "satisfied"
        mass_witness = None

    # --- polynomial growth bound on the exchange rates ---------------------
    l_declared = max(1, max(max(r.degree for r in kin.alpha), max(r.degree for r in kin.beta)))
    u_pts = pts[1 : 1 + 2 * m : 2]
    v_pts = pts[2 : 2 + 2 * m : 2]
    power_sum = ((u_pts + v_pts) ** l_declared).sum(axis=0) + 1.0
    h_needed = 0.0
    for i in range(m):
        h_needed = max(h_needed, float(np.max(kin.alpha[i](u_pts, v_pts) / power_sum)))
        h_needed = max(h_needed, float(np.max(kin.beta[i](u_pts, v_pts) / power_sum)))
    rate_growth_verdict: CheckVerdict = "satisfied"  # finite sampled constant always exists

    # --- one-sided balance: sub-cubic growth of one signed combination -----
    branches: list[tuple[Optional[str], float, float]] = []
    balance_verdict: CheckVerdict = "satisfied"
    balance_witness = None
    for i in range(m):
        ai = kin.alpha[i](u_pts, v_pts)
        bi = kin.beta[i](u_pts, v_pts)
        expr_u = -ai * u_pts[i] / params.yu[i] + bi * v_pts[i]
        expr_v = ai * u_pts[i] - bi * v_pts[i] / params.yv[i]
        r_u = kin.beta[i].degree + 1
        r_v = kin.alpha[i].degree + 1
        chosen: Optional[tuple[str, float, float]] = None
        for label, expr, r_decl in (("isolated", expr_u, r_u), ("attached", expr_v, r_v)):
            r_eff = max(1, r_decl)
            if r_eff >= 3:
                continue
            denom = ((u_pts + v_pts) ** r_eff).sum(axis=0) + 1.0
            K = max(0.0, float(np.max(expr / denom)))
            if chosen is None or K < chosen[1]:
                chosen = (label, K, float(r_eff))
        if chosen is None:
            # neither signed combination has declared sub-cubic degree:
            # refute the r=2 form with the constant that works on the unit
            # sub-box, and report the sampled point breaking it
            denom = ((u_pts + v_pts) ** 2).sum(axis=0) + 1.0
            small = pts.sum(axis=0) <= 1.0
            both = np.minimum(expr_u, expr_v)
            K_small = max(1.0, float(np.max(both[small] / denom[small])) if small.any() else 1.0)
            ratio = both / denom
            worst = int(np.argmax(ratio))
            balance_verdict = "violated"
            balance_witness = tuple(pts[:, worst])
            branches.append((None, K_small, 2.0))
        else:
            branches.append(chosen)

    # --- exchange floor -----------------------------------------------------
    strict_products = max(products) < 1.0
    exchange_witness = None
    if not strict_products:
        exchange_verdict: CheckVerdict = "not_applicable"
        exchange_delta = 0.0
    else:
        total = (u_pts + v_pts).sum(axis=0)
        supplied = np.zeros_like(total)
        for i in range(m):
            supplied += kin.alpha[i](u_pts, v_pts) * u_pts[i] + kin.beta[i](u_pts, v_pts) * v_pts[i]
        ratio = (supplied + 1.0) / np.maximum(total, 1e-300)
        ratio[total == 0.0] = np.inf
        # a genuine floor must not decay as the box grows: compare the
        # sampled minimum on the full box against the half box
        delta_full = float(np.min(ratio))
        half = total <= 0.5 * float(np.max(total))
        delta_half = float(np.min(ratio[half])) if half.any() else delta_full
        if delta_full < 0.5 * delta_half:
            exchange_verdict = "violated"
            exchange_witness = tuple(pts[:, int(np.argmin(ratio))])
            exchange_delta = delta_full
        else:
            exchange_verdict = "satisfied"
            exchange_delta = delta_full

    return ConditionReport(
        quasipositive=qp_verdict,
        qp_witness=qp_witness,
        mass_control=mass_verdict,
        mass_weights=weights,
        mass_K1=K1,
        mass_K2=K2,
        mass_witness=mass_witness,
        rate_growth_bound=rate_growth_verdict,
        rate_growth_l=l_declared,
        rate_growth_h=h_needed,
        one_sided_balance=balance_verdict,
        balance_branches=tuple(branches),
        balance_witness=balance_witness,
        exchange_floor=exchange_verdict,
        exchange_delta=exchange_delta,
        exchange_witness=exchange_witness,
        yuyv_class=yuyv_class,
    )
