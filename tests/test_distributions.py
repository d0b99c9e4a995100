"""Distribution layer: closed forms, moment matching, inverse transforms."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cocval.distributions import (
    Degenerate,
    Lognormal,
    Normal,
    ParetoTypeI,
    distribution_from_config,
    lognormal_from_moments,
    pareto_from_mean_beta,
    pareto_from_moments,
    standard_normal_cdf,
    standard_normal_quantile,
)

from helpers import generate_scenarios


def bisect_normal_quantile(p: float, tol: float = 1e-13) -> float:
    """Independent oracle: bisection on the normal CDF.

    Levels above 1/2 are reflected so the CDF comparison happens where
    it has full absolute resolution (near 1 the CDF is flat at the ulp
    scale and bisection alone cannot place the root).
    """
    if p > 0.5:
        return -bisect_normal_quantile(1.0 - p, tol)
    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if standard_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStandardNormalQuantile:
    def test_against_bisection_oracle(self):
        # p = 0.995 must land on 2.5758 (4 decimals) per the bisection oracle
        oracle = bisect_normal_quantile(0.995)
        assert abs(oracle - 2.5758) < 1e-4
        assert abs(standard_normal_quantile(0.995) - oracle) < 1e-10

    def test_accuracy_across_range(self):
        ps = np.concatenate([np.geomspace(1e-8, 0.5, 60), 1 - np.geomspace(1e-8, 0.5, 60)])
        for p in ps:
            assert abs(standard_normal_quantile(float(p)) - bisect_normal_quantile(float(p))) < 1e-10

    def test_median_and_symmetry(self):
        assert standard_normal_quantile(0.5) == 0.0
        # antisymmetry up to the information lost when the caller
        # rounds 1 - p; a few ulps of the quantile value
        for p in (0.005, 0.01, 0.2, 0.4999):
            total = standard_normal_quantile(1.0 - p) + standard_normal_quantile(p)
            assert abs(total) < 1e-14

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain_error(self, p):
        with pytest.raises(ValueError):
            standard_normal_quantile(p)


def _erfc_reference(x: np.ndarray) -> np.ndarray:
    """erfc from scipy's erfcx, erfc(x) = erfcx(x) exp(-x^2) for x >= 0,
    with x^2 carried as an exact sum hi + lo (Dekker's split) so that
    rounding x^2 costs no accuracy; erfc(-x) = 2 - erfc(x)."""
    from scipy import special

    ax = np.abs(x)
    c = 134217729.0 * ax  # 2^27 + 1
    head = c - (c - ax)
    tail = ax - head
    hi = ax * ax
    lo = ((head * head - hi) + 2.0 * head * tail) + tail * tail
    upper = special.erfcx(ax) * np.exp(-hi) * (1.0 - lo)
    return np.where(x >= 0.0, upper, 2.0 - upper)


class TestScalarAgainstArray:
    """The normal CDF is ``math.erfc`` for scalars and arrays; the
    quantile is the standard library's for scalars and scipy's for
    arrays.  Each must give scipy's numbers to round-off."""

    TOL = 2e-15
    TINY = np.finfo(float).tiny  # erfc values below it are subnormal or 0

    def test_erfc_matches_scipy_where_x_squared_is_exact(self):
        from scipy import special

        x = np.arange(-38 * 1024, 38 * 1024 + 1) / 1024.0
        scalar = np.array([math.erfc(v) for v in x])
        array = special.erfc(x)
        keep = array >= self.TINY
        assert keep.sum() > 0.8 * x.size
        assert np.max(np.abs(scalar - array)[keep] / array[keep]) <= self.TOL

    def test_erfc_against_reference(self):
        # off the dyadic grid scipy's erfc rounds x^2 and drifts from the
        # reference by up to 5.7e-14 relative for x in (4, 26.6);
        # math.erfc must not
        x = np.linspace(-38.0, 38.0, 100_001)
        scalar = np.array([math.erfc(v) for v in x])
        ref = _erfc_reference(x)
        keep = ref >= self.TINY
        assert np.max(np.abs(scalar - ref)[keep] / ref[keep]) <= self.TOL

    def test_cdf_and_sf_scalar_paths_match_array_paths(self):
        # both paths are math.erfc, so they agree exactly, tails included
        x = np.linspace(-40.0, 40.0, 801)
        assert [standard_normal_cdf(float(v)) for v in x] == standard_normal_cdf(x).tolist()
        for dist in (Normal(1.0, 0.3), Lognormal(0.1, 0.4)):
            t = np.linspace(-0.5, 12.0, 251)
            scalar = [dist.sf(float(v)) for v in t]
            assert all(type(v) is float for v in scalar)
            assert scalar == dist.sf(t).tolist()

    def test_quantile_matches_ndtri_in_both_tails(self):
        from scipy import special

        lower = np.geomspace(1e-12, 0.5, 20_001)[:-1]
        p = np.concatenate([lower, 1.0 - lower])
        scalar = np.array([standard_normal_quantile(float(v)) for v in p])
        array = special.ndtri(p)
        assert np.max(np.abs(scalar - array) / np.abs(array)) <= self.TOL
        assert standard_normal_quantile(0.5) == special.ndtri(0.5) == 0.0

    def test_array_quantile_is_ndtri_bit_for_bit(self):
        # the Monte Carlo transforms keep scipy's values exactly
        from scipy import special

        u = (np.arange(1, 4097) - 0.5) / 4096.0
        assert np.array_equal(standard_normal_quantile(u), special.ndtri(u))
        assert np.array_equal(Normal(1.0, 0.3).sample(u), 1.0 + 0.3 * special.ndtri(u))


class TestCdfExamples:
    # the cdf is 1 - sf
    def test_normal_symmetry_point(self):
        assert Normal(0.0, 1.0).sf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_pareto_support_edge(self):
        assert ParetoTypeI(0.5, 2.0).sf(0.5) == 1.0

    def test_lognormal_median(self):
        assert Lognormal(0.0, 1.0).sf(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_cdf_monotone_and_bounded(self):
        xs = np.linspace(-5, 25, 400)
        for dist in (Normal(1.0, 0.3), Lognormal(0.0, 0.5), ParetoTypeI(0.5, 2.0), Degenerate(1.0)):
            vals = 1.0 - dist.sf(xs)
            assert np.all(np.diff(vals) >= 0)
            assert np.all((vals >= 0) & (vals <= 1))


class TestQuantileExamples:
    def test_normal_high_quantile(self):
        assert Normal(0.0, 1.0).quantile(0.995) == pytest.approx(2.5758, abs=1e-4)

    def test_pareto_high_quantile(self):
        # 0.5 * 0.005 ** (-1/2), about 7.07 times the scale
        assert ParetoTypeI(0.5, 2.0).quantile(0.995) == pytest.approx(7.0710678, abs=1e-6)

    def test_degenerate_any_level(self):
        d = Degenerate(1.0)
        for p in (0.01, 0.5, 0.99):
            assert d.quantile(p) == 1.0

    def test_domain_errors(self):
        for dist in (Normal(0, 1), Lognormal(0, 1), ParetoTypeI(1, 2), Degenerate(3)):
            with pytest.raises(ValueError):
                dist.quantile(0.0)
            with pytest.raises(ValueError):
                dist.quantile(1.0)

    @pytest.mark.parametrize("p", [math.nan, np.float64(math.nan), np.array(math.nan),
                                   [0.5, math.nan], np.array([math.nan, 0.5])],
                             ids=["float", "numpy-scalar", "0-d", "list", "array"])
    def test_nan_level_is_a_domain_error(self, p):
        # nan is neither inside (0, 1) nor outside by comparison, so the
        # check decides it explicitly, for scalars and arrays alike
        for dist in (Normal(0, 1), Normal(1, 0), Lognormal(0, 1), ParetoTypeI(1, 2),
                     Degenerate(3)):
            with pytest.raises(ValueError, match="strictly inside"):
                dist.quantile(p)
        with pytest.raises(ValueError, match="strictly inside"):
            standard_normal_quantile(p)

    def test_scalar_and_array_types(self):
        # a scalar level, numpy scalars and 0-d arrays included, gives a
        # float; a list or an array gives an array
        for dist in (Normal(0, 1), Normal(1, 0), Lognormal(0, 1), ParetoTypeI(1, 2),
                     Degenerate(3)):
            for p in (0.25, np.float64(0.25), np.array(0.25)):
                assert type(dist.quantile(p)) is float
                assert type(dist.sf(p)) is float
            assert dist.quantile([0.25, 0.5]).shape == (2,)
            assert dist.sf(np.array([[0.25], [2.0]])).shape == (2, 1)
            assert dist.quantile(np.empty(0)).shape == (0,)


class TestSampleExamples:
    def test_normal_median_draw(self):
        assert Normal(0.0, 1.0).sample(0.5) == 0.0

    def test_lognormal_tail_draw(self):
        assert Lognormal(0.0, 1.0).sample(0.995) == pytest.approx(13.143, abs=0.01)

    def test_pareto_tail_draw(self):
        assert ParetoTypeI(0.5, 2.0).sample(0.995) == pytest.approx(7.0711, abs=1e-4)

    def test_sample_is_quantile(self):
        u = np.linspace(0.01, 0.99, 23)
        for dist in (Normal(1, 0.3), Lognormal(0.1, 0.4), ParetoTypeI(0.8, 3.0), Degenerate(2.0)):
            assert np.array_equal(dist.sample(u), dist.quantile(u))


class TestMomentMatching:
    def test_lognormal_examples(self):
        d = lognormal_from_moments(1.05, 0.2)
        assert d.sd_log ** 2 == pytest.approx(0.035638, abs=1e-6)
        assert d.mu_log == pytest.approx(0.030971, abs=1e-6)
        d2 = lognormal_from_moments(1.0, 0.3)
        assert d2.sd_log ** 2 == pytest.approx(math.log(1.09), rel=1e-12)
        assert d2.mu_log == pytest.approx(-0.5 * math.log(1.09), rel=1e-12)

    def test_lognormal_round_trip(self):
        for mean, sd in [(1.05, 0.2), (1.0, 0.3), (2.5, 1.7), (0.3, 0.02)]:
            d = lognormal_from_moments(mean, sd)
            assert d.mean == pytest.approx(mean, rel=1e-12)
            assert math.sqrt(d.variance) == pytest.approx(sd, rel=1e-12)

    def test_lognormal_continuity_limit(self):
        d = lognormal_from_moments(1.0, 1e-6)
        assert abs(d.mu_log) < 1e-11
        assert d.sd_log == pytest.approx(1e-6, rel=1e-6)

    def test_lognormal_degenerate_input(self):
        with pytest.raises(ValueError):
            lognormal_from_moments(1.0, 0.0)

    def test_pareto_examples(self):
        d = pareto_from_moments(1.0, 0.3)
        assert d.beta == pytest.approx(4.4801, abs=1e-4)
        assert d.x_m == pytest.approx(0.77679, abs=1e-5)
        d2 = pareto_from_moments(1.0, 0.2)
        assert d2.beta == pytest.approx(1 + math.sqrt(26), rel=1e-12)
        assert d2.x_m == pytest.approx(0.83604, abs=1e-5)

    def test_pareto_round_trip(self):
        for mean, sd in [(1.0, 0.3), (1.0, 0.2), (2.0, 0.6), (5.0, 0.4)]:
            d = pareto_from_moments(mean, sd)
            assert d.beta > 2.0
            assert d.mean == pytest.approx(mean, rel=1e-12)
            assert math.sqrt(d.variance) == pytest.approx(sd, rel=1e-12)

    def test_pareto_scale_equivariance(self):
        a, b = pareto_from_moments(1.0, 0.3), pareto_from_moments(2.0, 0.6)
        assert b.beta == pytest.approx(a.beta, rel=1e-14)
        assert b.x_m == pytest.approx(2 * a.x_m, rel=1e-14)

    def test_pareto_from_mean_beta(self):
        assert pareto_from_mean_beta(1.0, 2.0).x_m == 0.5
        assert pareto_from_mean_beta(1.0, 1.1).x_m == pytest.approx(1 / 11, rel=1e-12)
        assert pareto_from_mean_beta(1.0, 1e9).x_m == pytest.approx(1.0, rel=1e-8)
        with pytest.raises(ValueError):
            pareto_from_mean_beta(1.0, 1.0)


class TestInvariants:
    @given(st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=200, deadline=None)
    def test_quantile_cdf_round_trip(self, p):
        for dist in (Normal(1.0, 0.3), Lognormal(0.2, 0.5), ParetoTypeI(0.5, 2.0)):
            x = dist.quantile(p)
            assert dist.quantile(1.0 - dist.sf(x)) == pytest.approx(x, abs=1e-9, rel=1e-9)

    @given(st.floats(min_value=0.01, max_value=100.0), st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=200, deadline=None)
    def test_scale_equivariance_of_quantiles(self, a, p):
        for dist in (Lognormal(0.1, 0.4), ParetoTypeI(0.7, 2.5)):
            scaled = dist.scaled(a)
            assert scaled.quantile(p) == pytest.approx(a * dist.quantile(p), rel=1e-12)

    def test_inverse_transform_law(self):
        scen = generate_scenarios(10 ** 6, seed=2024)
        u = scen.u_claim
        cases = [
            Normal(1.0, 0.3),
            lognormal_from_moments(1.0, 0.3),
            pareto_from_moments(1.0, 0.3),  # tail index above 2
        ]
        for dist in cases:
            draws = dist.sample(u)
            se = math.sqrt(dist.variance / u.size)
            assert abs(float(np.mean(draws)) - dist.mean) < 4 * se

    def test_cdf_of_quantile_at_least_p(self):
        ps = np.linspace(0.01, 0.99, 99)
        for dist in (Normal(0, 1), Lognormal(0, 1), ParetoTypeI(0.5, 2.0), Degenerate(1.0)):
            qs = dist.quantile(ps)
            assert np.all(1.0 - dist.sf(qs) >= ps - 1e-12)


class TestStopLoss:
    def test_matches_quadrature_of_survival(self):
        from scipy.integrate import quad
        cases = [(Normal(1.0, 0.3), -0.5), (Normal(1.0, 0.3), 1.2),
                 (Lognormal(0.0, 0.5), 0.8), (ParetoTypeI(0.5, 2.5), 1.5)]
        for dist, t in cases:
            ref, _ = quad(lambda s: float(dist.sf(s)), t, np.inf, limit=400)
            assert dist.stop_loss(t) == pytest.approx(ref, rel=1e-6, abs=1e-9)
        assert Degenerate(2.0).stop_loss(0.7) == pytest.approx(1.3, rel=1e-15)
        assert Degenerate(2.0).stop_loss(2.5) == 0.0


class TestConfig:
    def test_parse_native_and_moment_forms(self):
        assert distribution_from_config({"kind": "normal", "mean": 1, "sd": 0.3}) == Normal(1.0, 0.3)
        assert distribution_from_config(
            {"kind": "lognormal", "mean": 1.0, "sd": 0.3}) == lognormal_from_moments(1.0, 0.3)
        assert distribution_from_config(
            {"kind": "pareto", "mean": 1.0, "beta": 2.0}) == ParetoTypeI(0.5, 2.0)
        assert distribution_from_config({"kind": "degenerate", "value": 1}) == Degenerate(1.0)

    def test_round_trip(self):
        # the native form of every family is its fields
        dists = {"normal": Normal(1.0, 0.3), "lognormal": Lognormal(0.1, 0.4),
                 "pareto": ParetoTypeI(0.5, 2.0), "degenerate": Degenerate(1.0)}
        for kind, dist in dists.items():
            assert distribution_from_config({"kind": kind, **dataclasses.asdict(dist)}) == dist

    def test_rejects_bad_specs(self):
        for bad in [{"kind": "cauchy"}, {"kind": "normal", "mean": 1},
                    {"kind": "pareto", "x_m": 1.0}, {"mean": 1.0, "sd": 0.2}, "normal"]:
            with pytest.raises(ValueError):
                distribution_from_config(bad)

    def test_names_the_missing_key(self):
        with pytest.raises(ValueError) as err:
            distribution_from_config({"kind": "normal", "mean": 1})
        assert str(err.value) == ("normal parameters ['mean']: missing 'sd' for {mean, sd}; "
                                  "normal accepts {mean, sd}")

    def test_names_the_extra_key(self):
        with pytest.raises(ValueError) as err:
            distribution_from_config({"kind": "lognormal", "mean": 1, "sd": 0.3, "beta": 2})
        assert str(err.value) == (
            "lognormal parameters ['beta', 'mean', 'sd']: extra 'beta' for {mean, sd}; "
            "lognormal accepts {mu_log, sd_log} or {mean, sd}")


class TestValidation:
    def test_parameter_gates(self):
        with pytest.raises(ValueError):
            Normal(0.0, -1.0)
        with pytest.raises(ValueError):
            Lognormal(0.0, 0.0)
        with pytest.raises(ValueError):
            ParetoTypeI(0.0, 2.0)
        with pytest.raises(ValueError):
            ParetoTypeI(1.0, 1.0)

    def test_pareto_variance_finiteness(self):
        assert math.isinf(ParetoTypeI(0.5, 2.0).variance)
        assert math.isfinite(ParetoTypeI(0.5, 2.1).variance)

    def test_scaled_zero_collapses_to_point_mass(self):
        assert Lognormal(0.0, 1.0).scaled(0.0) == Degenerate(0.0)
        with pytest.raises(ValueError):
            ParetoTypeI(1.0, 2.0).scaled(-1.0)
