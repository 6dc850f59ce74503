"""Model data for the flocculation chemostat.

The state is a substrate concentration ``S`` and, for each of ``m``
microbial species, an isolated-cell density ``u_i`` and an attached
(flocculated) density ``v_i``, all living on the reactor interval
``[0, 1]``.  Substrate is consumed through per-species growth laws
``f_i`` (isolated) and ``g_i`` (attached); biomass moves between the
isolated and attached compartments through an attachment rate
``alpha_i(u, v)`` and a detachment rate ``beta_i(u, v)``, weighted by
the yields ``y_u``/``y_v``.

This module holds the law classes, the only definition of each law; the
parameter and kinetics containers; the reaction kernel, the only code
that assembles the reaction terms (for the time stepper, the steady
operator and :func:`reaction_field`); and the structural-condition checks,
of which quasipositivity is decided from the law classes and the others
on a sampled box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, Sequence, Union

import numpy as np

Array = np.ndarray

#: Verdict of an inequality check.  "satisfied" means the check was not
#: refuted at any sampled point (sampling cannot prove an inequality on an
#: unbounded set); "violated" comes with a concrete witness point when a
#: sampled point refutes the check (see ConditionReport).
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
# A law's formula is its ``_plan(row)``: it returns the evaluation that
# writes the formula at S into ``row``, or None when the row does not depend
# on S and is filled now.  The reaction kernel plans each law once into a
# work row it owns and evaluates it once per state.


class _GrowthLaw:
    """Calling a law checks that the substrate is nonnegative and evaluates
    the law's formula on it."""

    def __call__(self, S):
        _require_nonneg_substrate(S)
        S = np.asarray(S, dtype=float)
        row = np.empty(S.shape)
        evaluate = self._plan(row)
        if evaluate is not None:
            evaluate(S)
        return row if row.ndim else float(row)


@dataclass(frozen=True)
class Monod(_GrowthLaw):
    """Saturating uptake law ``S -> a*S/(b + S)``; increasing, sup = a."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError(f"Monod coefficient a must be positive, got {self.a}")
        if not (self.b > 0 and math.isfinite(self.b)):
            raise ValueError(f"Monod half-saturation b must be positive, got {self.b}")

    def _plan(self, row):
        a, b, denominator = np.array(self.a), np.array(self.b), np.empty_like(row)

        def evaluate(S):  # a*S / (b + S)
            np.multiply(a, S, out=row)
            np.add(b, S, out=denominator)
            np.divide(row, denominator, out=row)
        return evaluate

    @property
    def sup(self) -> float:
        """Least upper bound of the law on [0, inf)."""
        return self.a


@dataclass(frozen=True)
class Haldane(_GrowthLaw):
    """Inhibited uptake law ``S -> a*S/(b + S + c*S^2)``.

    Rises to a single interior maximum and decays afterwards.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for coeff, label in ((self.a, "a"), (self.b, "b"), (self.c, "c")):
            if not (coeff > 0 and math.isfinite(coeff)):
                raise ValueError(f"Haldane coefficient {label} must be positive, got {coeff}")

    def _plan(self, row):
        a, b, c = (np.array(x) for x in (self.a, self.b, self.c))
        denominator, square = np.empty_like(row), np.empty_like(row)

        def evaluate(S):  # a*S / ((b + S) + (c*S)*S)
            np.multiply(a, S, out=row)
            np.add(b, S, out=denominator)
            np.multiply(c, S, out=square)
            np.multiply(square, S, out=square)
            np.add(denominator, square, out=denominator)
            np.divide(row, denominator, out=row)
        return evaluate

    @property
    def sup(self) -> float:
        """Maximum value, attained at S = sqrt(b/c)."""
        return self.a / (1.0 + 2.0 * math.sqrt(self.b * self.c))


@dataclass(frozen=True)
class ZeroGrowth(_GrowthLaw):
    """Identically zero uptake (species does not consume substrate)."""

    def _plan(self, row):
        row[...] = 0.0

    @property
    def sup(self) -> float:
        return 0.0


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
# nonnegative on the nonnegative orthant and monotone in every density.
#
# A law's formula is its ``_plan(row)``, as for the growth laws; its
# evaluation takes ``(U + V, V)``, which the reaction kernel forms once per
# state for all laws.


class _TotalsRate:
    """Calling a law evaluates its formula on the species totals of (u, v)."""

    def __call__(self, u: Array, v: Array):
        U, V = np.sum(u, axis=0), np.sum(v, axis=0)
        row = np.empty(np.shape(U))
        evaluate = self._plan(row)
        if evaluate is not None:
            evaluate(U + V, V)
        return row if row.ndim else row[()]


class _ScaledRate(_TotalsRate):
    """A law with a nonnegative coefficient ``c``: it vanishes identically,
    and so without either phase, exactly when ``c = 0``."""

    def __post_init__(self) -> None:
        if not (self.c >= 0 and math.isfinite(self.c)):
            raise ValueError(f"{type(self).__name__} coefficient must be nonnegative, got {self.c}")

    @property
    def vanishes_without_attached(self) -> bool:
        return self.c == 0.0

    vanishes_without_isolated = vanishes_without_attached


@dataclass(frozen=True)
class ConstantRate(_ScaledRate):
    """Density-independent rate ``c``."""

    c: float
    #: polynomial degree in the densities
    degree = 0

    def _plan(self, row):
        row[...] = self.c


@dataclass(frozen=True)
class LinearTotalRate(_ScaledRate):
    """Rate proportional to total biomass: ``c * sum_j(u_j + v_j)``."""

    c: float
    degree = 1

    def _plan(self, row):
        c = np.array(self.c)
        return lambda total, V: np.multiply(c, total, out=row)


@dataclass(frozen=True)
class AttachedTimesTotalRate(_TotalsRate):
    """Rate ``(sum_j(u_j + v_j)) * (sum_j v_j)``: total biomass times attached.

    Vanishes identically when no attached biomass is present, which makes
    the all-isolated state invariant under attachment.
    """

    degree = 2
    vanishes_without_attached = True
    vanishes_without_isolated = False

    def _plan(self, row):
        return lambda total, V: np.multiply(total, V, out=row)


@dataclass(frozen=True)
class OnePlusAttachedTimesTotalRate(_TotalsRate):
    """Rate ``(1 + sum_j v_j) * (sum_j(u_j + v_j))``."""

    degree = 2
    vanishes_without_attached = vanishes_without_isolated = False

    def _plan(self, row):
        one = np.array(1.0)

        def evaluate(total, V):
            np.add(one, V, out=row)
            np.multiply(row, total, out=row)
        return evaluate


@dataclass(frozen=True)
class PowerTotalRate(_ScaledRate):
    """Rate ``c * (sum_j(u_j + v_j))**l`` with integer exponent ``l >= 1``."""

    c: float
    l: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (isinstance(self.l, int) and self.l >= 1):
            raise ValueError(f"PowerTotalRate exponent must be an integer >= 1, got {self.l}")

    def _plan(self, row):
        c = np.array(self.c)

        def evaluate(total, V):
            np.copyto(row, total)
            power = row  # a local name, for the in-place operator
            power **= self.l  # numpy takes the same power as for total**l
            np.multiply(c, row, out=row)
        return evaluate

    @property
    def degree(self) -> int:
        return self.l if self.c > 0 else 0


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
    ``m`` species.  All diffusivities and yields must be finite and positive,
    and all feed concentrations finite and nonnegative.
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
        if not (self.gamma_s >= 0 and math.isfinite(self.gamma_s)):
            raise ValueError(f"feed concentration gamma_s must be nonnegative, got {self.gamma_s}")
        for name in ("gamma_u", "gamma_v"):
            for x in getattr(self, name):
                if not (x >= 0 and math.isfinite(x)):
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
    m, n = params.m, S_arr.size
    uv = np.stack((u_arr.reshape(m, n), v_arr.reshape(m, n)), axis=1)
    out = _ReactionKernel(params, kin, n)(S_arr.reshape(n), uv, np.empty((2 * m + 1, n)))
    return out.reshape((2 * m + 1,) + S_arr.shape)


def _plan_laws(laws: Sequence, rows: Array) -> list:
    """Plan each law into its row; the per-state evaluations of the laws
    whose rows are not filled now."""
    return [form for form in (law._plan(row) for law, row in zip(laws, rows))
            if form is not None]


class _ReactionKernel:
    """The reaction terms of one (params, kin) on n-node profiles, planned
    once.  The only code that assembles them: the time stepper evaluates a
    kernel twice per macro step, the steady operator once per application,
    and :func:`reaction_field` plans one per call.

    The kernel owns its work rows, laid out species by species like the
    state stack, so that with one species every call below takes whole
    contiguous arrays of one shape, numpy's cheapest call.  The growth and
    exchange laws write their rates through their ``_plan`` forms; the
    species totals U, V and U + V are formed once per evaluation for all
    exchange laws, and with one species the totals are the density rows
    themselves, without a reduction.

    Every element takes the same floating-point operations, in the same
    order, as the formulas in ``reaction_field``'s docstring: ``a - b`` is
    computed as ``a + (-b)`` and ``-(b / y)`` as ``b / (-y)``, which IEEE
    arithmetic rounds identically, so that the isolated and attached rows
    of a species are written by two calls.  Only the sign of a zero total
    can differ, where a density is -0.0 (``np.add.reduce`` over one species
    adds +0.0); no magnitude depends on it, and the stepper's addition of
    the feed turns every -0.0 into +0.0.
    """

    def __init__(self, params: ModelParams, kin: KineticsSpec, n: int):
        m = self.m = params.m
        # rows (m, 2, n), in the order of the densities they multiply:
        # f_i(S), g_i(S), and alpha_i, beta_i
        self._growth_rates = np.empty((m, 2, n))
        self._exchange_rates = np.empty((m, 2, n))
        self._growth_forms = _plan_laws([law for pair in zip(kin.f, kin.g) for law in pair],
                                        self._growth_rates.reshape(2 * m, n))
        self._exchange_forms = _plan_laws(
            [law for pair in zip(kin.alpha, kin.beta) for law in pair],
            self._exchange_rates.reshape(2 * m, n))
        self._growth = np.empty((m, 2, n))  # f_i(S) u_i, g_i(S) v_i
        # per species: -attach/yu, attach, detach, -detach/yv
        ex = np.empty((m, 4, n))
        self._terms = ex[:, 1:3]
        self._first = ex[:, 0:2]  # added to the isolated and attached rows,
        self._second = ex[:, 2:4]  # and then these
        self._scalings = []  # (term, -yield, where term / -yield goes)
        for i in range(m):
            self._scalings += [(ex[i, 1], np.array(-params.yu[i]), ex[i, 0]),
                               (ex[i, 2], np.array(-params.yv[i]), ex[i, 3])]
        self._totals = np.empty((3, n))  # U, V (more than one species), U + V
        self._consumed = np.empty((m, n))
        self._zero = np.array(0.0)

    def __call__(self, S: Array, uv: Array, out: Array) -> Array:
        """Write the reaction terms into ``out`` (2m+1, n), in
        ``reaction_field``'s row order; ``uv`` (m, 2, n) holds u_i, v_i."""
        for form in self._growth_forms:
            form(S)
        np.multiply(self._growth_rates, uv, out=self._growth)
        if self._exchange_forms:
            totals = self._totals
            if self.m == 1:
                V = uv[0, 1]
                total = np.add(uv[0, 0], V, out=totals[2])
            else:
                U = np.add.reduce(uv[:, 0], axis=0, out=totals[0])
                V = np.add.reduce(uv[:, 1], axis=0, out=totals[1])
                total = np.add(U, V, out=totals[2])
            for form in self._exchange_forms:
                form(total, V)
        np.multiply(self._exchange_rates, uv, out=self._terms)
        for term, neg_yield, scaled in self._scalings:
            np.divide(term, neg_yield, out=scaled)
        # isolated: growth_u - attach/yu + detach;
        # attached: growth_v + attach - detach/yv
        rows = out[1:].reshape(self._growth.shape)
        np.add(self._growth, self._first, out=rows)
        np.add(rows, self._second, out=rows)
        # substrate: minus (growth_u + growth_v), accumulated over species
        consumed = np.add(self._growth[:, 0], self._growth[:, 1], out=self._consumed)
        np.subtract(self._zero, consumed[0], out=out[0])
        for row in consumed[1:]:
            np.subtract(out[0], row, out=out[0])
        return out


# ---------------------------------------------------------------------------
# Structural-condition checks (sampled)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Verdicts for the structural conditions of the reaction field.

    - ``quasipositive``: every component's reaction term is nonnegative on
      the part of the boundary where that component vanishes (so the
      nonnegative orthant is forward-invariant for the reaction part).
      Decided from the law classes, not sampled: on ``u_i = 0`` the
      isolated row is ``beta_i v_i``, on ``v_i = 0`` the attached row is
      ``alpha_i u_i``, and on ``S = 0`` the substrate row is 0, because
      every rate law is nonnegative and every growth law vanishes at
      ``S = 0`` (:class:`KineticsSpec` checks it).  It is always
      "satisfied" and has no witness.
    - ``mass_control``: the weighted reaction sum with weights
      ``(y_max, 1+yu_1, 1+yv_1, ...)`` is bounded by ``K1 * sum(w) + K2``.
    - ``rate_growth_l``, ``rate_growth_h``: the declared degree ``l`` of
      the attachment/detachment rates and the smallest ``h`` with rates at
      most ``h * (sum_i (u_i+v_i)**l + 1)`` on the sampled box.  This is a
      measured constant, not a verdict: on a bounded box a finite ``h``
      always exists, so no sample could refute the bound.
    - ``one_sided_balance``: per species, one of the two signed exchange
      combinations grows at most like ``K * (sum_i (u_i+v_i)**r + 1)`` with
      ``r < 3``.  The exponent r of a combination is one more than the
      declared degree of the rate law it carries; a species whose two
      exponents are both at least 3 violates the condition by degree, and
      its ``balance_branches`` entry is ``(None, None, smaller exponent)``.
    - ``exchange_floor``: ``delta * sum(u_i+v_i) <= sum_i (alpha_i u_i +
      beta_i v_i) + 1`` for some ``delta > 0``, together with strict
      ``yu_i * yv_i < 1``.

    Sampled verdicts cannot prove an inequality on an unbounded set; a
    "satisfied" verdict means "not refuted on the sampled box"
    ``[0, SAMPLE_BOX]^(2m+1)``.  A "violated" verdict of ``mass_control``
    or ``exchange_floor`` carries the sampled point that refutes it;
    ``one_sided_balance`` is decided by declared degrees and carries none.
    """

    quasipositive: CheckVerdict
    mass_control: CheckVerdict
    mass_weights: tuple[float, ...]
    mass_K1: float
    mass_K2: float
    mass_witness: Optional[tuple[float, ...]]
    rate_growth_l: int
    rate_growth_h: float
    one_sided_balance: CheckVerdict
    balance_branches: tuple[tuple[Optional[str], Optional[float], float], ...]
    exchange_floor: CheckVerdict
    exchange_delta: float
    exchange_witness: Optional[tuple[float, ...]]
    yuyv_class: str


def weight_vector(params: ModelParams) -> tuple[float, ...]:
    """Mass-control weight vector ``(y_max, 1+yu_1, 1+yv_1, ..., 1+yu_m, 1+yv_m)``
    with ``y_max = max_i max(yu_i, yv_i, 1)``."""
    y_max = max(1.0, max(max(a, b) for a, b in zip(params.yu, params.yv)))
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


def check_structural_conditions(params: ModelParams, kin: KineticsSpec) -> ConditionReport:
    """Run the structural checks and collect them in one report."""
    if kin.m != params.m:
        raise ValueError(f"kinetics have m={kin.m} species but params have m={params.m}")
    m = params.m
    tol = 1e-9

    pts = _sample_points(m)
    u_pts, v_pts = pts[1::2], pts[2::2]
    # alpha_i and beta_i on the box, evaluated once for the three checks
    # that read them
    rates = [(kin.alpha[i](u_pts, v_pts), kin.beta[i](u_pts, v_pts)) for i in range(m)]

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

    F = reaction_field(params, kin, pts[0], u_pts, v_pts)
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
    power_sum = ((u_pts + v_pts) ** l_declared).sum(axis=0) + 1.0
    h_needed = 0.0
    for ai, bi in rates:
        h_needed = max(h_needed, float(np.max(ai / power_sum)))
        h_needed = max(h_needed, float(np.max(bi / power_sum)))

    # --- one-sided balance: sub-cubic growth of one signed combination -----
    branches: list[tuple[Optional[str], Optional[float], float]] = []
    balance_verdict: CheckVerdict = "satisfied"
    for i, (ai, bi) in enumerate(rates):
        expr_u = -ai * u_pts[i] / params.yu[i] + bi * v_pts[i]
        expr_v = ai * u_pts[i] - bi * v_pts[i] / params.yv[i]
        r_u = kin.beta[i].degree + 1
        r_v = kin.alpha[i].degree + 1
        chosen: Optional[tuple[str, float, float]] = None
        for label, expr, r in (("isolated", expr_u, r_u), ("attached", expr_v, r_v)):
            if r >= 3:
                continue
            denom = ((u_pts + v_pts) ** r).sum(axis=0) + 1.0
            K = max(0.0, float(np.max(expr / denom)))
            if chosen is None or K < chosen[1]:
                chosen = (label, K, float(r))
        if chosen is None:
            # neither signed combination has declared sub-cubic degree
            balance_verdict = "violated"
            branches.append((None, None, float(min(r_u, r_v))))
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
        for i, (ai, bi) in enumerate(rates):
            supplied += ai * u_pts[i] + bi * v_pts[i]
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
        quasipositive="satisfied",  # decided from the law classes
        mass_control=mass_verdict,
        mass_weights=weights,
        mass_K1=K1,
        mass_K2=K2,
        mass_witness=mass_witness,
        rate_growth_l=l_declared,
        rate_growth_h=h_needed,
        one_sided_balance=balance_verdict,
        balance_branches=tuple(branches),
        exchange_floor=exchange_verdict,
        exchange_delta=exchange_delta,
        exchange_witness=exchange_witness,
        yuyv_class=yuyv_class,
    )
