"""Tests for growth laws, exchange-rate laws, parameters, and the reaction field."""

import functools
import itertools
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import flocstat as fs
from conftest import floc_kinetics, standard_params
from flocstat.cli import _GROWTH_LAWS
from flocstat.operators import trapezoid
from oracles import rate_reference, reaction_reference, sample_box

GROWTH_LAWS = (fs.Monod(4.0, 1.0), fs.Haldane(3.0, 1.0, 1.0), fs.ZeroGrowth())
RATE_LAWS = (
    fs.ConstantRate(0.7),
    fs.LinearTotalRate(1.3),
    fs.AttachedTimesTotalRate(),
    fs.OnePlusAttachedTimesTotalRate(),
    fs.PowerTotalRate(0.5, 3),
)


class TestGrowthLaws:
    def test_monod_values(self):
        f = fs.Monod(4.0, 1.0)
        assert f(0.0) == 0.0
        assert f(1.0) == pytest.approx(2.0, abs=1e-15)
        assert f(3.0) == pytest.approx(3.0, abs=1e-15)
        assert f.sup == pytest.approx(4.0)

    def test_haldane_values(self):
        f = fs.Haldane(3.0, 1.0, 1.0)
        assert f(0.0) == 0.0
        # 3*S/(1 + S + S^2) peaks at S = 1 with value 1
        assert f(1.0) == pytest.approx(1.0, abs=1e-15)
        assert f(2.0) == pytest.approx(6.0 / 7.0, abs=1e-15)
        assert f.sup == pytest.approx(1.0)

    def test_zero_growth(self):
        f = fs.ZeroGrowth()
        assert f(0.7) == 0.0
        assert f.sup == 0.0

    def test_vectorized_evaluation(self):
        S = np.linspace(0.0, 2.0, 7)
        f = fs.Monod(4.0, 1.0)
        np.testing.assert_allclose(f(S), 4.0 * S / (1.0 + S), rtol=1e-15)

    @pytest.mark.parametrize("name", sorted(_GROWTH_LAWS))
    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=3, max_size=3))
    def test_every_config_law_vanishes_at_zero(self, name, coefficients):
        """Every growth law a config can name vanishes at S = 0 by its
        formula, which the washout state and quasipositivity rest on."""
        law_class = _GROWTH_LAWS[name]
        law = law_class(*coefficients[:len(fields(law_class))])
        assert law(0.0) == 0.0
        np.testing.assert_array_equal(law(np.zeros(3)), 0.0)

    @pytest.mark.parametrize("law", [fs.Monod(4.0, 1.0), fs.Haldane(3.0, 1.0, 1.0), fs.ZeroGrowth()])
    def test_rejects_negative_substrate(self, law):
        with pytest.raises(ValueError, match="nonnegative substrate"):
            law(np.array([0.5, -1e-3]))

    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_monod_bounded_by_sup(self, S):
        f = fs.Monod(4.0, 1.0)
        assert 0.0 <= f(S) <= f.sup

    @given(st.floats(min_value=0.0, max_value=1e3))
    def test_haldane_bounded_by_sup(self, S):
        f = fs.Haldane(3.0, 1.0, 1.0)
        assert 0.0 <= f(S) <= f.sup + 1e-12


class TestRateLaws:
    def test_constant(self):
        r = fs.ConstantRate(1.0)
        assert r(0.0, 0.0) == 1.0
        assert r.degree == 0
        assert not r.vanishes_without_attached
        assert not r.vanishes_without_isolated

    def test_linear_total(self):
        r = fs.LinearTotalRate(1.0)
        assert r(2.0, 3.0) == pytest.approx(5.0)
        assert r.degree == 1

    def test_attached_times_total(self):
        r = fs.AttachedTimesTotalRate()
        # (u + v) * v with u = 2, v = 3
        assert r(2.0, 3.0) == pytest.approx(15.0)
        assert r(2.0, 0.0) == 0.0
        assert r.vanishes_without_attached
        assert r.degree == 2

    def test_one_plus_attached_times_total(self):
        r = fs.OnePlusAttachedTimesTotalRate()
        # (1 + v) * (u + v) with u = 2, v = 3
        assert r(2.0, 3.0) == pytest.approx(20.0)
        assert r(0.0, 0.0) == 0.0
        assert not r.vanishes_without_isolated

    def test_power_total(self):
        r = fs.PowerTotalRate(2.0, 3)
        assert r(1.0, 1.0) == pytest.approx(16.0)
        assert r.degree == 3

    @pytest.mark.parametrize("law, terms", [
        (fs.ConstantRate(0.7), {(0, 0): 0.7}),
        (fs.LinearTotalRate(1.3), {(1, 0): 1.3}),
        (fs.AttachedTimesTotalRate(), {(1, 1): 1.0}),
        (fs.OnePlusAttachedTimesTotalRate(), {(1, 0): 1.0, (1, 1): 1.0}),
        (fs.PowerTotalRate(0.5, 3), {(3, 0): 0.5}),
        (fs.ConstantRate(0.0), {}),
        (fs.LinearTotalRate(0.0), {}),
        (fs.PowerTotalRate(0.0, 3), {}),
    ])
    def test_term_table_is_the_formula(self, law, terms):
        """The table {(j, k): c} of terms c*T**j*V**k evaluates to the law,
        and a zero law has no terms, degree 0 and vanishes on both faces."""
        assert law.terms == terms
        u, v = np.array([[0.0, 2.0, 0.5, 3.0]]), np.array([[0.0, 0.0, 1.5, 4.0]])
        T, V = u[0] + v[0], v[0]
        expected = sum(c * T**j * V**k for (j, k), c in terms.items()) + 0.0 * T
        np.testing.assert_allclose(law(u, v), expected, rtol=1e-15)
        if not terms:
            assert law.degree == 0
            assert law.vanishes_without_attached and law.vanishes_without_isolated

    def test_rate_laws_accept_profiles(self):
        u = np.array([[0.0, 1.0, 2.0]])
        v = np.array([[1.0, 1.0, 1.0]])
        r = fs.AttachedTimesTotalRate()
        np.testing.assert_allclose(r(u, v), [1.0, 2.0, 3.0])


class TestModelParams:
    def test_scalars_promote_to_tuples(self):
        p = standard_params()
        assert p.m == 1
        assert p.du == (1.0,)
        assert p.yv == (0.1,)
        assert p.gamma_u == (0.0,)
        # numpy scalars count as scalars, a numpy integer as the species count
        p = fs.ModelParams(m=np.int64(1), d0=1.0, du=np.float32(0.5), dv=np.int64(1),
                           yu=0.1, yv=0.1, gamma_s=1.0)
        assert p.m == 1 and type(p.m) is int
        assert p.du == (0.5,)
        assert p.dv == (1.0,)

    def test_yield_products(self):
        p = standard_params(yu=0.5, yv=0.4)
        assert p.yield_products == (0.2,)

    def test_rejects_nonpositive_yield(self):
        with pytest.raises(ValueError, match="positive"):
            standard_params(yu=-1.0)
        with pytest.raises(ValueError, match="positive"):
            standard_params(yu=0.0)

    def test_rejects_nonpositive_diffusivity(self):
        with pytest.raises(ValueError):
            standard_params(d0=0.0)

    def test_rejects_negative_feed(self):
        with pytest.raises(ValueError):
            standard_params(gamma_s=-0.5)

    @pytest.mark.parametrize("key", ["gamma_s", "gamma_u", "gamma_v"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_feed(self, key, value):
        with pytest.raises(ValueError, match=f"feed concentration {key}"):
            replace(standard_params(), **{key: value})

    def test_zero_d_array_is_a_scalar(self):
        p = replace(standard_params(), du=np.array(0.5), yv=np.array(2))
        assert p.du == (0.5,)
        assert p.yv == (2.0,)

    @pytest.mark.parametrize("value", ["5", "12", b"5"], ids=["str", "str-of-two", "bytes"])
    def test_rejects_strings(self, value):
        with pytest.raises(ValueError, match="du must be a number or a sequence of numbers"):
            replace(standard_params(), du=value)

    @pytest.mark.parametrize("key, value, message", [
        ("du", None, "du must be a real number, got None"),
        ("du", [None], "each entry of du must be a real number, got None"),
        ("yv", [object()], "each entry of yv must be a real number, got <object"),
        ("yu", np.complex128(1 + 1j), r"yu must be a real number, got np.complex128\(1\+1j\)"),
        ("gamma_u", ["5"], "each entry of gamma_u must be a real number, got '5'"),
        ("d0", None, "d0 must be a real number, got None"),
        ("d0", "5", "d0 must be a real number, got '5'"),
        ("d0", np.array([1.0]), r"d0 must be a real number, got array\(\[1.\]\)"),
        ("gamma_s", None, "gamma_s must be a real number, got None"),
        ("gamma_s", [1.0], r"gamma_s must be a real number, got \[1.0\]"),
    ], ids=["du-None", "du-[None]", "yv-[object]", "yu-complex", "gamma_u-[str]", "d0-None",
            "d0-str", "d0-array", "gamma_s-None", "gamma_s-list"])
    def test_rejects_values_that_are_not_real_numbers(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            replace(standard_params(), **{key: value})


class TestReactionField:
    def test_shapes_and_ordering(self):
        p, kin = standard_params(), floc_kinetics()
        n = 11
        S = np.full(n, 0.5)
        u = np.full((1, n), 2.0)
        v = np.full((1, n), 3.0)
        field = fs.reaction_field(p, kin, S, u, v)
        assert field.shape == (3, n)
        f_val = fs.Monod(4.0, 1.0)(0.5)
        g_val = fs.Monod(5.0, 1.0)(0.5)
        a_val = (2.0 + 3.0) * 3.0
        b_val = (1.0 + 3.0) * (2.0 + 3.0)
        np.testing.assert_allclose(field[0], -(f_val * 2.0 + g_val * 3.0))
        np.testing.assert_allclose(field[1], f_val * 2.0 - a_val * 2.0 / 0.1 + b_val * 3.0)
        np.testing.assert_allclose(field[2], g_val * 3.0 + a_val * 2.0 - b_val * 3.0 / 0.1)

    def test_single_point_state(self):
        p, kin = standard_params(), floc_kinetics()
        field = fs.reaction_field(
            p, kin, np.array([0.5]), np.array([[2.0]]), np.array([[3.0]])
        )
        assert field.shape == (3, 1)

    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_quasipositivity_on_boundary(self, S, u, v):
        """Each reaction component is nonnegative where its own density is zero:
        for the standard kinetics, and for every growth law and every rate law
        in each position, with one and with two species."""
        p, kin = standard_params(), floc_kinetics()
        S_arr = np.array([S])
        u_arr, v_arr = np.array([[u]]), np.array([[v]])
        # attached density zero: attached reaction must not pull negative
        fv = fs.reaction_field(p, kin, S_arr, u_arr, np.array([[0.0]]))
        assert fv[2, 0] >= -1e-12
        # isolated density zero
        fu = fs.reaction_field(p, kin, S_arr, np.array([[0.0]]), v_arr)
        assert fu[1, 0] >= -1e-12
        # substrate zero: growth vanishes so consumption vanishes
        fS = fs.reaction_field(p, kin, np.array([0.0]), u_arr, v_arr)
        assert fS[0, 0] >= -1e-12

        for m in (1, 2):
            p = fs.ModelParams(m=m, d0=1.0, du=1.0, dv=1.0, yu=(0.1, 0.7)[:m],
                               yv=(0.3, 1.9)[:m], gamma_s=1.0)
            u_arr, v_arr = np.array([[u], [v]])[:m], np.array([[v], [u]])[:m]
            for j, growth in enumerate(GROWTH_LAWS):
                for k, rate in enumerate(RATE_LAWS):
                    kin = fs.KineticsSpec(
                        f=(growth,) * m, g=(GROWTH_LAWS[(j + 1) % len(GROWTH_LAWS)],) * m,
                        alpha=(rate,) * m, beta=(RATE_LAWS[(k + 1) % len(RATE_LAWS)],) * m)
                    for i in range(m):
                        no_v = v_arr.copy()
                        no_v[i] = 0.0
                        assert fs.reaction_field(p, kin, S_arr, u_arr, no_v)[2 + 2 * i, 0] >= -1e-12
                        no_u = u_arr.copy()
                        no_u[i] = 0.0
                        assert fs.reaction_field(p, kin, S_arr, no_u, v_arr)[1 + 2 * i, 0] >= -1e-12
                    fS = fs.reaction_field(p, kin, np.array([0.0]), u_arr, v_arr)
                    assert fS[0, 0] >= -1e-12


    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("k", range(len(RATE_LAWS)),
                             ids=[type(law).__name__ for law in RATE_LAWS])
    def test_kernel_matches_reference_bit_for_bit(self, k, m):
        """Every rate law, as attachment and as detachment, on strided rows
        of a state stack as the stepper passes them."""
        alpha, beta = RATE_LAWS[k], RATE_LAWS[(k + 1) % len(RATE_LAWS)]
        params = fs.ModelParams(m=m, d0=1.0, du=1.0, dv=1.0, yu=(0.1, 0.7)[:m],
                                yv=(0.3, 1.9)[:m], gamma_s=1.0)
        kin = fs.KineticsSpec(f=(fs.Monod(4.0, 1.0), fs.Haldane(3.0, 1.0, 1.0))[:m],
                              g=(fs.Haldane(2.0, 0.5, 2.0), fs.ZeroGrowth())[:m],
                              alpha=(alpha,) * m, beta=(beta,) * m)
        W = np.random.default_rng(11 + m).uniform(0.0, 3.0, size=(2 * m + 1, 37))
        W[:, ::5] = 0.0
        S, u, v = W[0], W[1::2], W[2::2]
        expected = reaction_reference(params, kin, S, u, v)
        np.testing.assert_array_equal(fs.reaction_field(params, kin, S, u, v), expected)
        point = fs.reaction_field(params, kin, S[7], u[:, 7], v[:, 7])
        np.testing.assert_array_equal(point, expected[:, 7])

    @pytest.mark.parametrize("S, u, v", [
        (np.array([-0.1, 0.5]), np.ones((1, 2)), np.ones((1, 2))),
        (np.array([0.5, 0.5]), np.array([[1.0, -1e-3]]), np.ones((1, 2))),
        (np.array([0.5, 0.5]), np.ones((1, 2)), np.array([[-2.0, 1.0]])),
        (np.array([0.5, 0.5]), np.ones((1, 3)), np.ones((1, 3))),
        (np.array([0.5, 0.5]), np.ones((2, 2)), np.ones((2, 2))),
        (np.array([0.5, 0.5]), np.ones((1, 2)), np.ones((1, 3))),
    ])
    def test_rejects_negative_or_misshaped_input(self, S, u, v):
        p, kin = standard_params(), floc_kinetics()
        with pytest.raises(ValueError):
            fs.reaction_field(p, kin, S, u, v)


class TestWeightVectorAndConditions:
    def test_weight_vector_fixture(self):
        p = standard_params(yu=1.0, yv=1.0)
        assert fs.weight_vector(p) == (1.0, 2.0, 2.0)

    def test_weighted_reaction_sum_fixture(self):
        """Constant state S = u = v = 1 with unit yields gives weighted sum 5."""
        p = standard_params(yu=1.0, yv=1.0)
        kin = floc_kinetics()
        grid = fs.Grid(21)
        state = fs.StateField.constant(grid, S=1.0, u=1.0, v=1.0)
        integrals = trapezoid(state.stack(), grid.h)
        assert np.dot(fs.weight_vector(p), integrals) == pytest.approx(5.0, rel=1e-12)

    def test_structural_report_bounded_yields(self):
        p = standard_params(yu=0.5, yv=0.5)
        kin = floc_kinetics(alpha=fs.LinearTotalRate(1.0), beta=fs.LinearTotalRate(1.0))
        report = fs.check_structural_conditions(p, kin)
        assert report.mass_control == "satisfied"
        assert report.rate_growth_l == 1
        assert report.one_sided_balance == "satisfied"
        # linear rates keep the balance exponent strictly below the cubic cap
        assert all(r < 3 for _, _, r in report.balance_branches)
        assert report.exchange_floor == "satisfied"
        assert report.yuyv_class == "all_products_below_one"

    def test_one_sided_balance_decided_by_degree(self):
        """fig2a's exchange laws both have degree 2, so both signed
        combinations have exponent 3: the condition is violated by degree,
        with no constant and no ray.  On a 64^3 box over [0, 10]^3 the
        attached combination is at most 0."""
        config = fs.load_preset("fig2a")
        report = fs.check_structural_conditions(config.params, config.kin)
        assert report.one_sided_balance == "violated"
        assert report.balance_branches == ((None, None, 3.0),)
        pts = sample_box()
        u, v = pts[1:2], pts[2:3]
        kin, params = config.kin, config.params
        attached = kin.alpha[0](u, v) * u[0] - kin.beta[0](u, v) * v[0] / params.yv[0]
        assert attached.max() <= 0.0

    def test_structural_report_large_yields(self):
        p = standard_params(yu=2.0, yv=2.0)
        kin = floc_kinetics(alpha=fs.LinearTotalRate(1.0), beta=fs.LinearTotalRate(1.0))
        report = fs.check_structural_conditions(p, kin)
        assert report.yuyv_class == "some_product_exceeds_one"
        assert report.exchange_floor != "satisfied"

    def test_mass_K1_bounds_constant_rates_above_unit_yield_product(self):
        """fig2a with yu = yv = 2 and both rates constant 0.1: the exchange
        terms add 1.5 * 0.1 per unit of u or v to the weighted sum, so K1 =
        5 + 0.15.  At S = 40, u = 0, v = 1e4 the weighted sum is
        5 * (40/41) * 1e4 + 1500 = 50 280.49, above 5 * (S + u + v) = 50 200."""
        config = fs.load_preset("fig2a")
        params = replace(config.params, yu=(2.0,), yv=(2.0,))
        rate = fs.ConstantRate(0.1)
        kin = replace(config.kin, alpha=(rate,), beta=(rate,))
        report = fs.check_structural_conditions(params, kin)
        assert report.mass_control == "satisfied"
        assert report.mass_K1 == pytest.approx(5.15, rel=1e-12)
        weighted = np.dot(fs.weight_vector(params), fs.reaction_field(params, kin, 40.0, [0.0], [1e4]))
        assert weighted == pytest.approx(5.0 * 40.0 / 41.0 * 1e4 + 1500.0, rel=1e-12)
        assert 5.0 * (40.0 + 1e4) < weighted <= report.mass_K1 * (40.0 + 1e4)


# the five rate laws and a zero-coefficient variant, as attachment and as
# detachment
EXCHANGE_LAWS = {**{type(law).__name__: law for law in RATE_LAWS}, "zero": fs.LinearTotalRate(0.0)}
# (yu, yv) with yu * yv below, at and above 1
YIELDS = {"product<1": (0.5, 0.8), "product=1": (2.0, 0.5), "product>1": (2.0, 1.5)}
# T = sum_i (u_i + v_i) from 0 to 1e6, log-spaced
T_SAMPLE = np.concatenate(([0.0], np.logspace(-3.0, 6.0, 401)))


@functools.lru_cache(maxsize=None)
def orthant_sample(m):
    """States (u, v), each (m, N): every T of T_SAMPLE along directions of
    the orthant given by each species' share of T and its attached fraction."""
    if m == 1:
        shares, fractions = np.ones((1, 1)), np.linspace(0.0, 1.0, 9)
    else:
        a = np.linspace(0.0, 1.0, 33)
        shares, fractions = np.stack([a, 1.0 - a], axis=1), np.array([0.0, 0.5, 1.0])
    directions = [(share * (1.0 - b), share * b) for share in shares
                  for b in map(np.array, itertools.product(fractions, repeat=m))]
    u, v = (np.array(side).T[:, :, None] * T_SAMPLE for side in zip(*directions))
    return u.reshape(m, -1), v.reshape(m, -1)


def ray_state(m, ray, s):
    """The state (S, u_1, v_1, ...) with the components of ``ray`` at s and
    all others 0, as one-node rows."""
    W = np.zeros((2 * m + 1, 1))
    W[list(ray)] = s
    return W


def assert_least_bound(bound, ratios):
    """``bound`` is at least every sampled ratio and within 1e-3 relative of
    their maximum."""
    top = float(ratios.max())
    assert top <= bound * (1.0 + 1e-12)
    assert bound - top <= 1e-3 * top


class TestStructuralConditionsAgainstDenseSample:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("yields", YIELDS)
    @pytest.mark.parametrize("beta", EXCHANGE_LAWS)
    @pytest.mark.parametrize("alpha", EXCHANGE_LAWS)
    def test_law_pair(self, alpha, beta, yields, m):
        yu, yv = YIELDS[yields]
        params = fs.ModelParams(m=m, d0=1.0, du=1.0, dv=1.0, yu=yu, yv=yv, gamma_s=1.0)
        A, B = EXCHANGE_LAWS[alpha], EXCHANGE_LAWS[beta]
        kin = fs.KineticsSpec(f=(fs.Monod(4.0, 1.0),) * m, g=(fs.Haldane(3.0, 1.0, 1.0),) * m,
                              alpha=(A,) * m, beta=(B,) * m)
        report = fs.check_structural_conditions(params, kin)
        u, v = orthant_sample(m)
        per_species = u + v
        T, V = per_species.sum(axis=0), v.sum(axis=0)
        a, b = rate_reference(A, T, V), rate_reference(B, T, V)

        # h: the least constant with both rates at most h*(sum (u_i+v_i)^l + 1)
        l = report.rate_growth_l
        assert_least_bound(report.rate_growth_h,
                           np.maximum(a, b) / ((per_species**l).sum(axis=0) + 1.0))

        # K: the least constant of the chosen signed combination
        assert len(report.balance_branches) == m
        for i, (branch, K, r) in enumerate(report.balance_branches):
            if branch is None:
                assert report.one_sided_balance == "violated" and r >= 3.0
                continue
            combination = (-a * u[i] / yu + b * v[i] if branch == "isolated"
                           else a * u[i] - b * v[i] / yv)
            assert_least_bound(K, combination / ((per_species**r).sum(axis=0) + 1.0))

        weights = np.array(fs.weight_vector(params))
        K1 = report.mass_K1
        if report.mass_control == "satisfied":
            assert report.mass_ray is None
            # every fourth sampled state, at three substrate levels (the
            # Haldane g peaks at S = 1)
            u4, v4, T4 = u[:, ::4], v[:, ::4], T[::4]
            # the exchange terms cancel exactly at a unit yield product
            rounding = 1e-12 * (a[::4] * u4 + b[::4] * v4).sum(axis=0)
            for S in (0.0, 1.0, 1e3):
                weighted = weights @ reaction_reference(params, kin, np.full(T4.shape, S), u4, v4)
                assert np.all(weighted <= K1 * (S + T4) * (1.0 + 1e-12) + rounding)
        else:
            # along the ray the weighted sum outgrows every K1 * (S + sum)
            ratios, excess = [], []
            for s in (1e2, 1e4, 1e6):
                W = ray_state(m, report.mass_ray, s)
                weighted = float(weights @ reaction_reference(params, kin, W[0], W[1::2], W[2::2])[:, 0])
                ratios.append(weighted / (W.sum() + 1.0))
                excess.append(weighted - K1 * W.sum())
            assert 0.0 < excess[0] < excess[1] < excess[2]
            assert ratios[1] >= 10.0 * ratios[0] and ratios[2] >= 10.0 * ratios[1]

        if yields != "product<1":
            assert report.exchange_floor == "not_applicable" and report.exchange_ray is None
            return
        if report.exchange_floor == "satisfied":
            assert report.exchange_ray is None
            supplied = (a * u + b * v).sum(axis=0) + 1.0
            assert np.min(supplied[T >= 1.0] / T[T >= 1.0]) >= 1e-2
        else:
            # along the ray the supplied exchange stays 1 while the total grows
            floors = []
            for s in (1e2, 1e4, 1e6):
                W = ray_state(m, report.exchange_ray, s)
                rate_a, rate_b = (rate_reference(law, W[1:].sum(axis=0), W[2::2].sum(axis=0))
                                  for law in (A, B))
                supplied = float((rate_a * W[1::2] + rate_b * W[2::2]).sum()) + 1.0
                floors.append(supplied / W[1:].sum())
            assert floors[1] <= floors[0] / 10.0 and floors[2] <= floors[1] / 10.0
