"""Tests for growth laws, exchange-rate laws, parameters, and the reaction field."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import flocstat as fs
from conftest import floc_kinetics, standard_params
from flocstat.model import _sample_points
from flocstat.operators import trapezoid
from oracles import reaction_reference

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

    def test_kinetics_requires_zero_growth_at_zero(self):
        class BadLaw:
            sup = 1.0

            def __call__(self, S):
                return np.asarray(S) * 0.0 + 1.0

        with pytest.raises(ValueError):
            fs.KineticsSpec(
                f=(BadLaw(),),
                g=(fs.Monod(5.0, 1.0),),
                alpha=(fs.ConstantRate(1.0),),
                beta=(fs.ConstantRate(1.0),),
            )


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
        assert report.quasipositive == "satisfied"
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
        with no constant and no witness.  No sampled point could serve as
        one: the attached combination is at most 0 on the whole box."""
        config = fs.load_preset("fig2a")
        report = fs.check_structural_conditions(config.params, config.kin)
        assert report.one_sided_balance == "violated"
        assert report.balance_branches == ((None, None, 3.0),)
        pts = _sample_points(1)
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

    def test_single_species_helper(self):
        p = fs.single_species(d0=2.0, du=3.0, dv=4.0, yu=0.2, yv=0.3, gamma_s=1.5)
        assert (p.m, p.d0, p.du, p.dv) == (1, 2.0, (3.0,), (4.0,))
        assert (p.yu, p.yv, p.gamma_s) == ((0.2,), (0.3,), 1.5)
