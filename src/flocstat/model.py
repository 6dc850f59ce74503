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
each decided exactly, on the whole nonnegative orthant, from the rate laws'
term tables, the yields and the growth laws' ``sup``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Literal, Optional, Sequence, Union

import numpy as np

Array = np.ndarray

#: Verdict of a structural condition, decided on the whole nonnegative
#: orthant: "satisfied" means the inequality holds everywhere, "violated"
#: that it fails along a ray (see ConditionReport).
CheckVerdict = Literal["satisfied", "violated", "not_applicable"]


def _as_float(value: float, name: str) -> float:
    """``float(value)``, or a ValueError naming the parameter if value is not one number."""
    if np.ndim(value) != 0 or np.iscomplexobj(value) or not hasattr(value, "__float__"):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _as_profile(value, name: str) -> Array:
    """A new float array of the samples, each -0.0 made +0.0, or a ValueError
    naming the profile if value holds anything but real numbers (strings and
    objects included), or a value that is not finite or is negative."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    arr = np.asarray(arr, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    if arr.size and float(arr.min()) < 0.0:
        raise ValueError(f"{name} contains negative values")
    return arr + 0.0


def _as_float_tuple(value: Union[float, Sequence[float]], m: int, name: str) -> tuple[float, ...]:
    """Normalise a scalar-or-sequence parameter to an m-tuple of floats."""
    if isinstance(value, (str, bytes)):
        raise ValueError(f"{name} must be a number or a sequence of numbers, got {value!r}")
    if isinstance(value, numbers.Real) or np.ndim(value) == 0:
        return (_as_float(value, name),) * m
    out = tuple(_as_float(x, f"each entry of {name}") for x in value)
    if len(out) != m:
        raise ValueError(f"{name} must have {m} entries, got {len(out)}")
    return out


def _set_coefficient(law, field: str, label: str, rule: str = "positive") -> None:
    """Store ``law.<field>`` as a float, or raise a ValueError naming it by
    ``label`` unless it is a finite real number that is positive (or, for
    ``rule="nonnegative"``, 0)."""
    value = _as_float(getattr(law, field), label)
    if not (math.isfinite(value) and (value > 0 or (value == 0 and rule == "nonnegative"))):
        raise ValueError(f"{label} must be {rule}, got {value}")
    object.__setattr__(law, field, value)


def component_labels(m: int) -> list[str]:
    """The 2m+1 state components ``S, u_1, v_1, ..., u_m, v_m``, in the order
    of the state stack and of every per-component parameter and output."""
    return ["S"] + [f"{k}_{i}" for i in range(1, m + 1) for k in ("u", "v")]


def _by_component(s: float, u: Sequence[float], v: Sequence[float]) -> tuple[float, ...]:
    """``(s, u_1, v_1, ..., u_m, v_m)``, in ``component_labels`` order."""
    return (s, *(x for pair in zip(u, v) for x in pair))


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
        _set_coefficient(self, "a", "Monod coefficient a")
        _set_coefficient(self, "b", "Monod half-saturation b")

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
        for field in ("a", "b", "c"):
            _set_coefficient(self, field, f"Haldane coefficient {field}")

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
# (m, n) on a grid -- to a scalar rate field (shape () or (n,)).  Every law is
# a polynomial in the species totals ``T = sum_j (u_j + v_j)`` (total
# biomass) and ``V = sum_j v_j`` (attached biomass) with nonnegative
# coefficients, so it is nonnegative on the nonnegative orthant and
# nondecreasing in every density.
#
# A law is its ``terms``, the table ``{(j, k): c}`` of its terms
# ``c * T**j * V**k`` without the zero coefficients: the structural checks
# decide the conditions from it, and ``_TotalsRate._plan`` evaluates it at
# ``(T, V)``, which the reaction kernel forms once per state for all laws.


class _TotalsRate:
    """Calling a law evaluates its formula on the species totals of (u, v)."""

    def __call__(self, u: Array, v: Array):
        U, V = np.sum(u, axis=0), np.sum(v, axis=0)
        row = np.empty(np.shape(U))
        evaluate = self._plan(row)
        if evaluate is not None:
            evaluate(U + V, V)
        return row if row.ndim else row[()]

    def _plan(self, row):
        """As for the growth laws, from the term table: ``c0 * T**j``, ``V * T``
        or ``(c0 + V) * T``.  V's coefficient 1 is not multiplied, nor an
        absent c0 added: either could change the sign of a zero."""
        terms = self.terms
        if set(terms) <= {(0, 0)}:  # a constant, or the zero law
            row[...] = terms.get((0, 0), 0.0)
            return None
        j = next(iter(terms))[0]  # every term has the same power of T
        c0 = np.array(terms.get((j, 0), 0.0))
        if (j, 1) in terms:
            if (j, 0) not in terms:
                return lambda total, V: np.multiply(total, V, out=row)
            return lambda total, V: np.multiply(np.add(c0, V, out=row), total, out=row)
        if j == 1:
            return lambda total, V: np.multiply(c0, total, out=row)

        def evaluate(total, V):
            np.copyto(row, total)
            power = row  # a local name, for the in-place operator
            power **= j  # numpy takes the same power as for total**j
            np.multiply(c0, row, out=row)
        return evaluate

    @property
    def degree(self) -> int:
        """Polynomial degree in the densities; 0 for the zero law."""
        return max((j + k for j, k in self.terms), default=0)

    @property
    def vanishes_without_attached(self) -> bool:
        """The law is 0 wherever V = 0: every term carries a power of V."""
        return all(k >= 1 for _, k in self.terms)

    @property
    def vanishes_without_isolated(self) -> bool:
        """The law is 0 wherever every u_i = 0.  There T = V, so every term
        is positive once V > 0: only the zero law is."""
        return not self.terms


class _ScaledRate(_TotalsRate):
    """A law ``c * T**_power`` with a nonnegative coefficient ``c``."""

    def __post_init__(self) -> None:
        _set_coefficient(self, "c", f"{type(self).__name__} coefficient", "nonnegative")

    @property
    def terms(self) -> dict[tuple[int, int], float]:
        return {(self._power, 0): self.c} if self.c else {}


@dataclass(frozen=True)
class ConstantRate(_ScaledRate):
    """Density-independent rate ``c``."""

    c: float
    _power = 0


@dataclass(frozen=True)
class LinearTotalRate(_ScaledRate):
    """Rate proportional to total biomass: ``c * sum_j(u_j + v_j)``."""

    c: float
    _power = 1


@dataclass(frozen=True)
class AttachedTimesTotalRate(_TotalsRate):
    """Rate ``(sum_j(u_j + v_j)) * (sum_j v_j)``: total biomass times attached.

    Vanishes identically when no attached biomass is present, which makes
    the all-isolated state invariant under attachment.
    """

    terms = {(1, 1): 1.0}


@dataclass(frozen=True)
class OnePlusAttachedTimesTotalRate(_TotalsRate):
    """Rate ``(1 + sum_j v_j) * (sum_j(u_j + v_j))``."""

    terms = {(1, 0): 1.0, (1, 1): 1.0}


@dataclass(frozen=True)
class PowerTotalRate(_ScaledRate):
    """Rate ``c * (sum_j(u_j + v_j))**l`` with integer exponent ``l >= 1``."""

    c: float
    l: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (isinstance(self.l, numbers.Integral) and self.l >= 1):
            raise ValueError(f"PowerTotalRate exponent must be an integer >= 1, got {self.l}")
        object.__setattr__(self, "l", int(self.l))

    @property
    def _power(self) -> int:
        return self.l


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
        if not (isinstance(self.m, numbers.Integral) and self.m >= 1):
            raise ValueError(f"species count m must be an integer >= 1, got {self.m}")
        object.__setattr__(self, "m", int(self.m))
        for name in ("du", "dv", "yu", "yv", "gamma_u", "gamma_v"):
            object.__setattr__(self, name, _as_float_tuple(getattr(self, name), self.m, name))
        object.__setattr__(self, "d0", _as_float(self.d0, "d0"))
        object.__setattr__(self, "gamma_s", _as_float(self.gamma_s, "gamma_s"))
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
    def diffusivities(self) -> tuple[float, ...]:
        """One diffusivity per component, in ``component_labels`` order."""
        return _by_component(self.d0, self.du, self.dv)

    @property
    def feeds(self) -> tuple[float, ...]:
        """One feed concentration per component, in ``component_labels`` order."""
        return _by_component(self.gamma_s, self.gamma_u, self.gamma_v)

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

    @property
    def m(self) -> int:
        return len(self.f)


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
# Structural-condition checks (decided from the term tables)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Verdicts for the structural conditions of the reaction field, each
    decided on the whole nonnegative orthant from the rate laws' term
    tables, the yields and the growth laws' ``sup``.

    A ray is a tuple of state indices, in :func:`reaction_field`'s row order
    ``(S, u_1, v_1, ..., u_m, v_m)``: the components that go to infinity
    together, all others being 0.  A violated ``mass_control`` or
    ``exchange_floor`` carries the ray along which its inequality fails by
    an unbounded amount.

    Quasipositivity is not reported: every rate law is nonnegative, so it
    holds for every configuration.  On ``u_i = 0`` the isolated row is
    ``beta_i v_i``, on ``v_i = 0`` the attached row is ``alpha_i u_i``, and
    on ``S = 0`` the substrate row is 0, since every growth law vanishes
    there by its formula.

    - ``mass_control``: the weighted reaction sum with weights
      ``(y_max, 1+yu_1, 1+yv_1, ...)`` is at most ``K1 * (S + sum_i (u_i +
      v_i))``.  It is violated exactly when some species has ``yu_i * yv_i >
      1`` and an exchange law of degree at least 1 (ray ``u_i = v_i``).
      ``K1`` is the largest bound on the coefficient of one biomass
      component.
    - ``rate_growth_l``, ``rate_growth_h``: ``l`` is the largest degree of
      the exchange laws (at least 1), and ``h`` the least constant with
      every rate at most ``h * (sum_i (u_i+v_i)**l + 1)``.  A constant, not
      a verdict: such an ``h`` always exists.
    - ``one_sided_balance``: per species, one of the two signed exchange
      combinations is at most ``K * (sum_i (u_i+v_i)**r + 1)`` with
      ``r < 3``.  The exponent r of a combination is one more than the
      degree of the rate law it carries, and K is that law's least bound.
      A species whose two exponents are both at least 3 violates the
      condition by degree, and its ``balance_branches`` entry is
      ``(None, None, smaller exponent)``.
    - ``exchange_floor``: ``delta * sum(u_i+v_i) <= sum_i (alpha_i u_i +
      beta_i v_i) + 1`` for some ``delta > 0``, together with strict
      ``yu_i * yv_i < 1``; "not_applicable" otherwise.  It is violated
      exactly when some ``alpha_i`` vanishes without attached biomass (ray
      ``u_i``) or some ``beta_i`` is the zero law (ray ``v_i``).
    """

    mass_control: CheckVerdict
    mass_weights: tuple[float, ...]
    mass_K1: float
    mass_ray: Optional[tuple[int, ...]]
    rate_growth_l: int
    rate_growth_h: float
    one_sided_balance: CheckVerdict
    balance_branches: tuple[tuple[Optional[str], Optional[float], float], ...]
    exchange_floor: CheckVerdict
    exchange_ray: Optional[tuple[int, ...]]
    yuyv_class: str


def weight_vector(params: ModelParams) -> tuple[float, ...]:
    """Mass-control weight vector ``(y_max, 1+yu_1, 1+yv_1, ..., 1+yu_m, 1+yv_m)``
    with ``y_max = max_i max(yu_i, yv_i, 1)``."""
    y_max = max(1.0, *params.yu, *params.yv)
    return _by_component(y_max, [1.0 + y for y in params.yu], [1.0 + y for y in params.yv])


def _growth_constant(law: FlocRate, m: int, l: int) -> float:
    """The least h with ``law <= h * (sum_i (u_i+v_i)**l + 1)``.

    The law is nondecreasing in V <= T, and ``sum_i (u_i+v_i)**l`` is
    smallest, ``m**(1-l) * T**l``, at an equal split, so the least h is the
    sup over T >= 0 of ``p(T) / q(T)``, with p the law at V = T and ``q(T) =
    m**(1-l) * T**l + 1``.  It is taken over T = 0, T -> inf and the
    positive roots of ``p'q - pq'``.
    """
    p = np.zeros(l + 1)  # coefficients, highest power first
    for (j, k), c in law.terms.items():
        p[l - j - k] += c
    q = np.zeros(l + 1)
    q[0], q[-1] = m ** (1 - l), 1.0
    stationary = np.polysub(np.polymul(np.polyder(p), q), np.polymul(p, np.polyder(q)))
    # every candidate is a value of p/q or its limit, so none exceeds the sup
    # the limit T -> inf is p[0] / q[0] (a Python division, which overflows
    # to inf without a warning), inf where q[0] = m**(1-l) underflows to 0,
    # and 0 <= p[-1] where p[0] = 0
    top, bottom = float(p[0]), float(q[0])
    candidates = [p[-1]] + ([top / bottom if bottom else math.inf] if top else [])
    candidates += [np.polyval(p, T) / np.polyval(q, T) for T in np.roots(stationary).real if T > 0]
    return float(max(candidates))


def _balance_constant(law: FlocRate, m: int) -> float:
    """The least K with ``law * w_i <= K * (sum_j (u_j+v_j)**r + 1)``, r =
    degree + 1 <= 2, where w_i is the density the law multiplies.

    With c the law at T = V = 1: c for degree 0, approached as w_i -> inf;
    ``c * (1 + sqrt(m)) / 2`` for degree 1, approached as w_i -> inf with
    the other species holding ``(sqrt(m) - 1) * w_i`` in equal parts.
    """
    c = sum(law.terms.values())
    return c if law.degree == 0 else c * (1.0 + math.sqrt(m)) / 2.0


def check_structural_conditions(params: ModelParams, kin: KineticsSpec) -> ConditionReport:
    """Decide the structural conditions and collect them in one report."""
    if kin.m != params.m:
        raise ValueError(f"kinetics have m={kin.m} species but params have m={params.m}")
    m = params.m

    # --- weighted mass control ---------------------------------------------
    # The weighted sum is, over species, (1+yu_i-y_max) f_i u_i + (1+yv_i-
    # y_max) g_i v_i + kappa_u alpha_i u_i + kappa_v beta_i v_i, with kappa_u
    # = (yu_i yv_i - 1)/yu_i and kappa_v = (yu_i yv_i - 1)/yv_i.  Unless some
    # kappa > 0 meets a law of degree >= 1, each term is at most its
    # component times max(0, 1+y-y_max) sup(growth) + max(0, kappa) c0, c0
    # the law's constant term.
    weights = weight_vector(params)
    y_max = weights[0]
    products = params.yield_products
    if max(products) < 1.0:
        yuyv_class = "all_products_below_one"
    elif max(products) <= 1.0:
        yuyv_class = "all_products_at_most_one"
    else:
        yuyv_class = "some_product_exceeds_one"
    K1 = 0.0
    for i in range(m):
        for y, growth, law in ((params.yu[i], kin.f[i], kin.alpha[i]),
                               (params.yv[i], kin.g[i], kin.beta[i])):
            kappa = (products[i] - 1.0) / y
            K1 = max(K1, max(0.0, 1.0 + y - y_max) * growth.sup
                     + max(0.0, kappa) * law.terms.get((0, 0), 0.0))
    mass_rays = [(2 * i + 1, 2 * i + 2) for i in range(m)
                 if products[i] > 1.0 and max(kin.alpha[i].degree, kin.beta[i].degree) >= 1]

    # --- polynomial growth bound on the exchange rates ---------------------
    laws = kin.alpha + kin.beta
    l = max(1, max(law.degree for law in laws))
    h = max(_growth_constant(law, m, l) for law in laws)

    # --- one-sided balance: sub-cubic growth of one signed combination -----
    # the isolated combination -alpha_i u_i/yu_i + beta_i v_i is largest at
    # u_i = 0, the attached one alpha_i u_i - beta_i v_i/yv_i at v_i = 0
    branches: list[tuple[Optional[str], Optional[float], float]] = []
    for i in range(m):
        carried = (("isolated", kin.beta[i]), ("attached", kin.alpha[i]))
        eligible = [(label, _balance_constant(law, m), float(law.degree + 1))
                    for label, law in carried if law.degree + 1 < 3]
        # the first of the smallest K
        branches.append(min(eligible, key=lambda branch: branch[1]) if eligible
                        else (None, None, float(min(law.degree for _, law in carried) + 1)))

    # --- exchange floor -----------------------------------------------------
    # on the u_i axis only alpha_i u_i supplies, on the v_i axis beta_i v_i
    floor_rays = [ray for i in range(m) for ray, vanishes in (
        ((2 * i + 1,), kin.alpha[i].vanishes_without_attached),
        ((2 * i + 2,), kin.beta[i].vanishes_without_isolated)) if vanishes]
    if max(products) >= 1.0:
        exchange_verdict: CheckVerdict = "not_applicable"
        floor_rays = []
    else:
        exchange_verdict = "violated" if floor_rays else "satisfied"

    return ConditionReport(
        mass_control="violated" if mass_rays else "satisfied",
        mass_weights=weights,
        mass_K1=K1,
        mass_ray=mass_rays[0] if mass_rays else None,
        rate_growth_l=l,
        rate_growth_h=h,
        one_sided_balance="violated" if any(b is None for b, _, _ in branches) else "satisfied",
        balance_branches=tuple(branches),
        exchange_floor=exchange_verdict,
        exchange_ray=floor_rays[0] if floor_rays else None,
        yuyv_class=yuyv_class,
    )
