"""Empirical and Gaussian VaR/ES, and the tail constants they share."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cocval.distributions import Normal, standard_normal_pdf
from cocval.risk_measures import (
    RiskMeasure,
    es_empirical,
    es_multiplier,
    var_empirical,
    var_multiplier,
)

from helpers import draw, generate_scenarios


samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=64
).map(np.array)


class TestVarEmpirical:
    def test_order_statistic_example(self):
        # losses sorted {-4, -2, 1, 3}; rank ceil(0.75 * 4) = 3 picks 1
        assert var_empirical(np.array([-3.0, -1.0, 2.0, 4.0]), 0.25) == 1.0

    def test_constant_sample(self):
        assert var_empirical(np.full(7, 3.25), 0.1) == -3.25

    def test_large_gaussian_sample(self):
        scen = generate_scenarios(10 ** 6, seed=11)
        y = draw(Normal(0.0, 1.0), scen.u_claim)
        assert var_empirical(y, 0.005) == pytest.approx(2.5758, abs=0.02)

    def test_does_not_mutate_input(self):
        y = np.array([3.0, 1.0, 2.0])
        var_empirical(y, 0.4)
        assert list(y) == [3.0, 1.0, 2.0]

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            var_empirical(np.array([]), 0.1)

    def test_rank_is_exact_at_rounding_hazards(self):
        # alpha n integral in intent must not slip a rank on binary rounding
        y = -np.arange(1.0, 11.0)  # losses 1..10
        assert var_empirical(y, 0.1) == 9.0
        assert var_empirical(y, 0.3) == 7.0


class TestEsEmpirical:
    def test_exact_tail_average(self):
        assert es_empirical(np.array([-4.0, -3.0, -2.0, -1.0]), 0.5) == 3.5

    def test_constant_sample(self):
        assert es_empirical(np.full(5, -1.5), 0.5) == 1.5

    def test_fractional_tail(self):
        # n = 4, alpha = 0.4: k = 1, weight 0.6 on the next loss
        y = -np.array([1.0, 2.0, 3.0, 4.0])
        expected = (4.0 + 0.6 * 3.0) / 1.6
        assert es_empirical(y, 0.4) == pytest.approx(expected, rel=1e-15)

    def test_large_gaussian_sample(self):
        scen = generate_scenarios(10 ** 6, seed=11)
        y = draw(Normal(0.0, 1.0), scen.u_claim)
        assert es_empirical(y, 0.01) == pytest.approx(2.6652, abs=0.02)

    def test_unresolved_tail(self):
        with pytest.raises(ValueError):
            es_empirical(np.array([1.0, 2.0, 3.0]), 0.1)

    def test_continuous_in_alpha(self):
        y = -np.arange(1.0, 101.0)
        alphas = np.linspace(0.02, 0.3, 281)
        vals = [es_empirical(y, float(a)) for a in alphas]
        jumps = np.abs(np.diff(vals))
        assert jumps.max() < 1.0  # no order-statistic sized jumps


class TestGaussianForms:
    def test_var_examples(self):
        assert var_multiplier(0.005) == pytest.approx(2.5758, abs=1e-4)
        assert RiskMeasure("var", 0.37).multiplier == var_multiplier(0.37) > 0.0

    def test_es_examples(self):
        assert RiskMeasure("es", 0.01).multiplier == pytest.approx(2.6652, abs=1e-4)
        assert RiskMeasure("es", 0.005).multiplier == pytest.approx(2.8919, abs=1e-3)

    def test_multiplier_examples(self):
        assert es_multiplier(0.01) == pytest.approx(2.6652, abs=1e-4)
        assert es_multiplier(0.005) == pytest.approx(2.8919, abs=1e-3)

    def test_es_dominates_var_constant(self):
        for alpha in np.linspace(0.001, 0.45, 40):
            assert es_multiplier(float(alpha)) > var_multiplier(float(alpha))

    def test_multiplier_is_tail_integral(self):
        # the ES constant averages the VaR constant over the tail levels
        from scipy.integrate import quad
        alpha = 0.05
        ref, _ = quad(lambda b: var_multiplier(b), 1e-9, alpha, limit=200)
        assert es_multiplier(alpha) == pytest.approx(ref / alpha, rel=1e-6)


class TestEmpiricalMatchesGaussian:
    def test_within_quantile_estimator_error(self):
        n = 10 ** 6
        scen = generate_scenarios(n, seed=5)
        y = draw(Normal(0.3, 1.7), scen.u_claim)
        for alpha in (0.005, 0.01, 0.05):
            q = var_multiplier(alpha)
            se = math.sqrt(alpha * (1 - alpha) / n) / standard_normal_pdf(q) * 1.7
            assert abs(var_empirical(y, alpha) - (-0.3 + 1.7 * q)) < 4 * se


class TestProperties:
    @given(samples, st.floats(min_value=0.05, max_value=0.45),
           st.floats(min_value=-1e5, max_value=1e5, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_var_translation_exact(self, y, alpha, c):
        assert var_empirical(y + c, alpha) == var_empirical(y, alpha) - c

    @given(samples, st.floats(min_value=0.05, max_value=0.45),
           st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=200, deadline=None)
    def test_var_homogeneity_exact(self, y, alpha, a):
        assert var_empirical(a * y, alpha) == a * var_empirical(y, alpha)

    @given(samples, st.floats(min_value=0.05, max_value=0.45),
           st.floats(min_value=-1e5, max_value=1e5, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_es_translation(self, y, alpha, c):
        assume(int(alpha * y.size + 1e-9) >= 1)
        shifted = es_empirical(y + c, alpha)
        base = es_empirical(y, alpha)
        assert shifted == pytest.approx(base - c, rel=1e-12, abs=1e-7)

    @given(samples, st.floats(min_value=0.05, max_value=0.45),
           st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=200, deadline=None)
    def test_es_homogeneity(self, y, alpha, a):
        assume(int(alpha * y.size + 1e-9) >= 1)
        assert es_empirical(a * y, alpha) == pytest.approx(
            a * es_empirical(y, alpha), rel=1e-12, abs=1e-12)

    @given(samples, st.floats(min_value=0.05, max_value=0.45))
    @settings(max_examples=200, deadline=None)
    def test_es_dominates_var(self, y, alpha):
        assume(int(alpha * y.size + 1e-9) >= 1)
        var = var_empirical(y, alpha)
        # a few ulps of slack at the sample's own magnitude
        assert es_empirical(y, alpha) >= var - 1e-11 * max(1.0, abs(var))


class TestRiskMeasureType:
    def test_alpha_gate(self):
        with pytest.raises(ValueError):
            RiskMeasure("var", 0.7)
        with pytest.raises(ValueError):
            RiskMeasure("var", 0.0)
        with pytest.raises(ValueError):
            RiskMeasure("cvar", 0.01)

    def test_dispatch(self):
        y = np.array([-4.0, -3.0, -2.0, -1.0])
        assert RiskMeasure("es", 0.49).empirical(y) == es_empirical(y, 0.49)
        assert RiskMeasure("var", 0.25).empirical(y) == var_empirical(y, 0.25)
        assert RiskMeasure("es", 0.01).multiplier == es_multiplier(0.01)

    def test_config_round_trip(self):
        assert RiskMeasure.from_config({"kind": "es", "alpha": 0.01}) == RiskMeasure("es", 0.01)
        with pytest.raises(ValueError):
            RiskMeasure.from_config({"kind": "var"})
