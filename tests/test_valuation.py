"""Valuation layer: closed forms, Monte Carlo, bounds."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special

from cocval import capital_solver, montecarlo, valuation
from cocval.analysis import sweep, w_grid
from cocval.distributions import (
    Degenerate,
    Lognormal,
    Normal,
    ParetoTypeI,
    lognormal_from_moments,
    pareto_from_mean_beta,
)
from cocval.market import MarketSpec, NoSolutionError, SolveReport
from cocval.risk_measures import RiskMeasure, es_multiplier, tail_count, var_multiplier
from cocval.valuation import (
    ValuationResult,
    gaussian_positive_part_factor,
    mc_valuation,
    mc_valuations,
    pareto_riskless_valuation,
    v0_bounds,
    value_gaussian_es,
    value_gaussian_var,
    value_lognormal_var,
    value_market,
    value_riskless_var,
)

from helpers import (generate_scenarios, mc_at, reference_row, reference_var_root, samples,
                     solve_at)

ETA = 0.06
ALPHA = 0.005
# a valid row, every field set
ROW = dict(r0=1.5, c0=0.4, v0=1.1, llo=0.02, v0_upper=1.12, v0_lower=0.9,
           r0_method="empirical_root", valuation_method="mc", residual=0.0, iterations=2,
           r0_se=0.01, c0_se=0.002, v0_se=0.002, llo_se=0.001)


class TestPositivePartFactor:
    def test_var_uplift_bound(self):
        # the relative option value sits strictly inside (0, alpha / m^2)
        for alpha in (0.005, 0.01, 0.05):
            m = var_multiplier(alpha)
            uplift = gaussian_positive_part_factor(m) - 1.0
            assert 0.0 < uplift < alpha / m ** 2

    def test_uplift_example(self):
        m = var_multiplier(0.005)
        assert gaussian_positive_part_factor(m) - 1.0 == pytest.approx(6.136e-4, abs=2e-6)
        assert 0.005 / m ** 2 == pytest.approx(7.54e-4, abs=1e-5)

    def test_es_factor_value(self):
        assert gaussian_positive_part_factor(es_multiplier(0.01)) == pytest.approx(
            1.000445, abs=2e-5)


class TestGaussianValuation:
    def test_riskless_benchmark_values(self):
        res = value_gaussian_var(1.0, 0.3, 1.0, 0.0, ALPHA, ETA)
        assert res.r0 == pytest.approx(1.7727487910646702, rel=1e-12)
        assert res.c0 == pytest.approx(0.7294556320919076, rel=1e-10)
        assert res.v0 == pytest.approx(1.0432931589727628, rel=1e-10)
        assert res.llo == pytest.approx(4.4734e-4, abs=1e-7)
        assert res.v0 == res.r0 - res.c0  # identity by construction
        assert res.llo == pytest.approx(res.v0_upper - res.v0, abs=1e-14)

    def test_mc_oracle_confirms_closed_form(self):
        n = 10 ** 6
        scen = generate_scenarios(n, seed=19)
        market = MarketSpec(claim=Normal(1.0, 0.3), asset=Normal(1.05, 0.2), w=0.0, eta=ETA)
        res = value_gaussian_var(1.0, 0.3, 1.0, 0.0, ALPHA, ETA)
        mc = mc_at(res.r0, market, scen)
        assert abs(mc.c0 - res.c0) < 4 * mc.c0_se
        assert abs(mc.v0 - res.v0) < 4 * mc.v0_se

    def test_premium_drops_from_r0_coefficient(self):
        # when mu (1 + uplift) = 1 + eta the premium no longer depends
        # on the requirement
        alpha = 0.01
        factor = gaussian_positive_part_factor(var_multiplier(alpha))
        mu = (1.0 + ETA) / factor
        res_a = value_gaussian_var(1.0, 0.3, mu, 0.05, alpha, ETA)
        res_b = value_gaussian_var(1.0, 0.3, mu, 0.15, alpha, ETA)
        expected = factor / (1.0 + ETA)
        assert res_a.v0 == pytest.approx(expected, rel=1e-12)
        assert res_b.v0 == pytest.approx(expected, rel=1e-12)

    def test_es_variant_against_mc(self):
        n = 10 ** 6
        scen = generate_scenarios(n, seed=23)
        market = MarketSpec(claim=Normal(1.0, 0.3), asset=Normal(1.05, 0.2), w=1.0, eta=ETA)
        res = value_gaussian_es(1.0, 0.3, 1.05, 0.2, 0.01, ETA)
        mc = mc_at(res.r0, market, scen)
        assert abs(mc.c0 - res.c0) < 4 * mc.c0_se
        assert res.v0_lower is None  # Cauchy-Schwarz bound needs VaR

    def test_llo_nonnegative_and_bounded(self):
        res = value_gaussian_var(1.0, 0.3, 1.05, 0.2, ALPHA, ETA)
        assert 0.0 <= res.llo <= 1.0 / (1.0 + ETA)
        assert res.v0 <= res.v0_upper + 1e-12
        assert res.v0_lower is not None and res.v0 >= res.v0_lower - 1e-12


def stop_loss_reference(claim, t):
    """E[(X - t)^+] for t > 0, lognormal terms from scipy's normal CDF."""
    if isinstance(claim, Lognormal):
        z = (math.log(t) - claim.mu_log) / claim.sd_log
        return claim.mean * special.ndtr(claim.sd_log - z) - t * special.ndtr(-z)
    if isinstance(claim, ParetoTypeI):
        if t <= claim.x_m:
            return claim.mean - t
        return claim.x_m ** claim.beta * t ** (1.0 - claim.beta) / (claim.beta - 1.0)
    return max(claim.value - t, 0.0)


def integral_reference(claim, r0, s_z=0.0):
    """(v0, llo) at capital r0 with gross return Z = exp(s_z G): E[(X - r0 Z)^+]
    is integrated against the standard normal G, and the capped
    expectation is E[X] minus that."""
    def integrand(g):
        return stop_loss_reference(claim, r0 * math.exp(s_z * g)) * math.exp(-0.5 * g * g)

    total, _ = integrate.quad(integrand, -40.0, 40.0, epsabs=0.0, epsrel=1e-13, limit=200)
    excess = total / math.sqrt(2.0 * math.pi)
    capped = claim.mean - excess
    z_mean = math.exp(0.5 * s_z * s_z)
    v0 = (capped + ETA * r0 + r0 * (1.0 - z_mean)) / (1.0 + ETA)
    return v0, excess / (1.0 + ETA)


class TestCappedExpectation:
    """The capped expectation E[min(r0 Z, X)] behind the two capped
    routes, seen through their premium."""

    @staticmethod
    def capped_of(res, z_mean):
        # inverts v0 = (E[min(r0 Z, X)] + eta r0 + r0 (1 - E[Z])) / (1 + eta)
        return (1.0 + ETA) * res.v0 - ETA * res.r0 - res.r0 * (1.0 - z_mean)

    def test_zero_capital(self):
        res = value_riskless_var(Degenerate(0.0), ALPHA, ETA)
        assert (res.r0, res.c0, res.v0, res.llo) == (0.0, 0.0, 0.0, 0.0)

    def test_lognormal_pair_against_mc(self):
        claim = lognormal_from_moments(1.0, 0.3)
        asset = lognormal_from_moments(1.05, 0.2)
        res = value_lognormal_var(claim.mu_log, claim.sd_log,
                                  asset.mu_log, asset.sd_log, ALPHA, ETA)
        scen = generate_scenarios(10 ** 6, seed=29)
        z = asset.sample(scen.u_asset)
        x = claim.sample(scen.u_claim)
        capped = np.minimum(res.r0 * z, x)
        se = float(capped.std(ddof=1)) / math.sqrt(scen.n)
        assert abs(self.capped_of(res, asset.mean) - float(capped.mean())) < 4 * se

    def test_degenerate_asset_is_partial_expectation(self):
        # a sure gross return c: E[min(r0 c, X)] = E[X] - E[(X - r0 c)^+]
        claim = lognormal_from_moments(1.0, 0.3)
        res = value_lognormal_var(claim.mu_log, claim.sd_log, math.log(1.4), 0.0, ALPHA, ETA)
        want = claim.mean - claim.stop_loss(1.4 * res.r0)
        assert self.capped_of(res, 1.4) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("s_z", [0.0, 1e-6, 1e-5, 1e-4, 0.2])
    def test_lognormal_pair_against_integral(self, s_z):
        # a narrow asset law is a near step in the capital's survival
        # function; the exchange-option form has no trouble there
        claim = lognormal_from_moments(1.0, 0.3)
        res = value_lognormal_var(claim.mu_log, claim.sd_log, 0.0, s_z, ALPHA, ETA)
        v0, llo = integral_reference(claim, res.r0, s_z)
        assert res.v0 == pytest.approx(v0, rel=1e-12, abs=0.0)
        assert res.llo == pytest.approx(llo, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("claim", [
        lognormal_from_moments(1.0, 0.3), lognormal_from_moments(1.0, 1.0),
        pareto_from_mean_beta(1.0, 1.1), pareto_from_mean_beta(1.0, 2.0),
        pareto_from_mean_beta(1.0, 4.5), Degenerate(1.3),
    ], ids=["lognormal0.3", "lognormal1", "pareto1.1", "pareto2", "pareto4.5", "degenerate"])
    def test_riskless_against_integral(self, claim):
        res = value_riskless_var(claim, ALPHA, ETA)
        v0, llo = integral_reference(claim, res.r0)
        assert res.v0 == pytest.approx(v0, rel=1e-12, abs=0.0)
        assert res.llo == pytest.approx(llo, rel=1e-12, abs=0.0)


class TestLognormalValuation:
    def test_degenerate_return_limit(self):
        claim = lognormal_from_moments(1.0, 0.3)
        near = value_lognormal_var(claim.mu_log, claim.sd_log, 0.0, 1e-6, ALPHA, ETA)
        exact = value_riskless_var(claim, ALPHA, ETA)
        assert near.v0 == pytest.approx(exact.v0, abs=1e-6)
        assert near.r0 == pytest.approx(exact.r0, rel=1e-5)

    def test_full_risky_weight_against_mc(self):
        claim = lognormal_from_moments(1.0, 0.3)
        asset = lognormal_from_moments(1.05, 0.2)
        res = value_lognormal_var(claim.mu_log, claim.sd_log,
                                  asset.mu_log, asset.sd_log, ALPHA, ETA)
        scen = generate_scenarios(10 ** 6, seed=17)
        market = MarketSpec(claim=claim, asset=asset, w=1.0, eta=ETA)
        mc = mc_at(res.r0, market, scen)
        assert abs(mc.v0 - res.v0) < 4 * mc.v0_se
        assert abs(mc.llo - res.llo) < 4 * mc.llo_se

    def test_claim_scaling(self):
        claim = lognormal_from_moments(1.0, 0.3)
        asset = lognormal_from_moments(1.05, 0.2)
        base = value_lognormal_var(claim.mu_log, claim.sd_log,
                                   asset.mu_log, asset.sd_log, ALPHA, ETA)
        for a in (0.5, 2.0):
            scaled = value_lognormal_var(claim.mu_log + math.log(a), claim.sd_log,
                                         asset.mu_log, asset.sd_log, ALPHA, ETA)
            assert scaled.v0 == pytest.approx(a * base.v0, rel=1e-8)
            assert scaled.r0 == pytest.approx(a * base.r0, rel=1e-12)

    def test_pure_bond_position_matches_generic_riskless_route(self):
        # s_z = 0, m_z = 0 is the bond itself; the lognormal route and
        # the generic risk-less route must coincide
        claim = lognormal_from_moments(1.0, 0.3)
        via_lognormal = value_lognormal_var(claim.mu_log, claim.sd_log,
                                            0.0, 0.0, ALPHA, ETA)
        via_riskless = value_riskless_var(claim, ALPHA, ETA)
        assert via_lognormal.r0 == pytest.approx(via_riskless.r0, rel=1e-14)
        assert via_lognormal.v0 == pytest.approx(via_riskless.v0, rel=1e-12)
        assert via_lognormal.llo == pytest.approx(via_riskless.llo, rel=1e-9)


class TestMcValuation:
    def test_trivial_bond_only(self):
        scen = generate_scenarios(100, seed=1)
        market = MarketSpec(claim=Degenerate(0.0), asset=Degenerate(1.0), w=0.0, eta=ETA)
        mc = mc_at(1.0, market, scen)
        assert mc.c0 == pytest.approx(1.0 / 1.06, rel=1e-15)
        assert mc.c0_se == 0.0

    def test_no_claim_premium(self):
        # without claims the premium only funds the capital drag
        scen = generate_scenarios(10 ** 5, seed=43)
        asset = lognormal_from_moments(1.05, 0.2)
        market = MarketSpec(claim=Degenerate(0.0), asset=asset, w=1.0, eta=ETA)
        r0 = 1.7
        v0 = mc_at(r0, market, scen).v0
        z = market.asset.sample(scen.u_asset)
        expected = r0 * (ETA + 1.0 - float(z.mean())) / (1.0 + ETA)
        assert v0 == pytest.approx(expected, rel=1e-12)

    def test_identity_per_scenario_set(self):
        scen = generate_scenarios(10 ** 5, seed=47)
        market = MarketSpec(claim=lognormal_from_moments(1.0, 0.3),
                            asset=lognormal_from_moments(1.05, 0.2), w=0.6, eta=ETA)
        r0 = 2.1
        mc = mc_at(r0, market, scen)
        assert mc.v0 + mc.c0 == pytest.approx(r0, rel=1e-12)

    def test_large_eta_kills_shareholder_value(self):
        scen = generate_scenarios(10 ** 4, seed=51)
        market = MarketSpec(claim=lognormal_from_moments(1.0, 0.3),
                            asset=lognormal_from_moments(1.05, 0.2), w=0.5, eta=1e6)
        assert mc_at(2.0, market, scen).c0 < 3e-6

    def test_llo_trivial_and_bounded(self):
        scen = generate_scenarios(10 ** 4, seed=53)
        market = MarketSpec(claim=Degenerate(0.0),
                            asset=lognormal_from_moments(1.05, 0.2), w=1.0, eta=ETA)
        assert mc_at(1.0, market, scen).llo == 0.0
        claim = lognormal_from_moments(1.0, 0.3)
        market = MarketSpec(claim=claim, asset=lognormal_from_moments(1.05, 0.2),
                            w=1.0, eta=ETA)
        llo = mc_at(2.0, market, scen).llo
        assert 0.0 <= llo <= claim.mean / (1.0 + ETA)

    def test_mc_valuation_row_consistency(self):
        scen = generate_scenarios(10 ** 5, seed=59)
        market = MarketSpec(claim=lognormal_from_moments(1.0, 0.3),
                            asset=lognormal_from_moments(1.05, 0.2), w=0.4, eta=ETA)
        rm = RiskMeasure("var", ALPHA)
        rep = solve_at(market, rm, scen)
        row = mc_valuation(rep, market, rm)
        assert row.v0 == row.r0 - row.c0
        assert row.llo >= 0.0
        assert row.v0_lower is not None
        assert row.v0_lower - 4 * (row.v0_se or 0.0) <= row.v0 <= row.v0_upper + 4 * (row.v0_se or 0.0)
        assert row.valuation_method == "mc"
        assert row.c0_se and row.v0_se and row.llo_se


class TestAgainstRebuildReference:
    """Rows solved on a candidate set and split from sample moments
    against rows that rebuild Z, the losses and every order statistic
    from the scenarios."""

    N = 200_000
    ASSET = lognormal_from_moments(1.05, 0.2)
    CLAIMS = (lognormal_from_moments(1.0, 0.3), pareto_from_mean_beta(1.0, 2.0),
              pareto_from_mean_beta(1.0, 1.1))

    def _rows(self, market, rm, seed=29):
        scen = generate_scenarios(self.N, seed)
        x, s = samples(market, scen)
        got = mc_valuation(solve_at(market, rm, claims=x, assets=s), market, rm)
        want = reference_row(got.r0, got.iterations, market, rm, scen, claims=x, assets=s)
        return got, want

    @staticmethod
    def assert_close(got, want, rel):
        for name, a in vars(got).items():
            b = getattr(want, name)
            if name == "residual":  # zero to round-off on both sides
                assert abs(a - b) <= rel * got.r0
            elif isinstance(a, float):
                assert a == pytest.approx(b, rel=rel, abs=0.0), name
            else:
                assert a == b, name

    @pytest.mark.parametrize("w", [0.3, 1.0])
    @pytest.mark.parametrize("claim", CLAIMS, ids=["lognormal", "pareto2", "pareto1.1"])
    def test_var_rows_bit_identical(self, claim, w):
        # the root, its residual and its ratio-window error bit for bit;
        # the split's sums run in another order
        market = MarketSpec(claim=claim, asset=self.ASSET, w=w, eta=ETA)
        got, want = self._rows(market, RiskMeasure("var", ALPHA))
        scen = generate_scenarios(self.N, 29)
        x, s = samples(market, scen)
        z = w * s + (1.0 - w)
        assert got.r0 == reference_var_root(x, z, tail_count(ALPHA, self.N))[0]
        assert (got.r0_se, got.residual) == (want.r0_se, want.residual)
        self.assert_close(got, want, 1e-12)

    @pytest.mark.parametrize("w", [0.3, 1.0])
    @pytest.mark.parametrize("claim", CLAIMS, ids=["lognormal", "pareto2", "pareto1.1"])
    def test_es_rows_agree(self, claim, w):
        market = MarketSpec(claim=claim, asset=self.ASSET, w=w, eta=ETA)
        got, want = self._rows(market, RiskMeasure("es", 0.01))
        self.assert_close(got, want, 1e-12)

    @pytest.mark.parametrize("kind", ["var", "es"])
    @pytest.mark.parametrize("asset, w", [(ASSET, 0.0), (Degenerate(1.02), 0.4)])
    @pytest.mark.parametrize("claim", CLAIMS[:2], ids=["lognormal", "pareto2"])
    def test_constant_return_rows_agree(self, claim, asset, w, kind):
        market = MarketSpec(claim=claim, asset=asset, w=w, eta=ETA)
        got, want = self._rows(market, RiskMeasure(kind, ALPHA if kind == "var" else 0.01))
        self.assert_close(got, want, 1e-12)

    def test_closed_form_report_is_rejected(self):
        market = MarketSpec(claim=Normal(1.0, 0.3), asset=Normal(1.05, 0.2), w=0.5, eta=ETA)
        rep = SolveReport(r0=2.0, method="closed_form", residual=0.0, iterations=0)
        with pytest.raises(ValueError, match="losses"):
            mc_valuation(rep, market, RiskMeasure("var", ALPHA))


class TestParetoWorkedExample:
    def test_tail_index_two(self):
        res = pareto_riskless_valuation(2.0, 1.0, ALPHA, ETA)
        assert res.r0 == pytest.approx(7.071, abs=0.005)
        assert res.llo == pytest.approx(0.0334, abs=0.0005)
        assert res.v0 == pytest.approx(1.310, abs=0.005)
        assert res.v0_upper == pytest.approx(1.344, abs=0.005)
        assert res.v0_lower is None  # infinite variance

    def test_tail_index_eleven_tenths(self):
        res = pareto_riskless_valuation(1.1, 1.0, ALPHA, ETA)
        assert res.r0 == pytest.approx(11.23, abs=0.01)
        assert res.llo == pytest.approx(0.53, abs=0.01)
        assert res.v0 == pytest.approx(1.05, abs=0.01)
        assert res.v0_upper == pytest.approx(1.58, abs=0.01)

    def test_matches_riskless_quadrature_route(self):
        closed = pareto_riskless_valuation(2.0, 1.0, ALPHA, ETA)
        quad = value_riskless_var(pareto_from_mean_beta(1.0, 2.0), ALPHA, ETA)
        assert quad.v0 == pytest.approx(closed.v0, rel=1e-9)
        assert quad.llo == pytest.approx(closed.llo, rel=1e-6)

    def test_mc_confirms_option_value(self):
        scen = generate_scenarios(10 ** 6, seed=67)
        market = MarketSpec(claim=pareto_from_mean_beta(1.0, 2.0),
                            asset=Degenerate(1.0), w=0.0, eta=ETA)
        closed = pareto_riskless_valuation(2.0, 1.0, ALPHA, ETA)
        mc = mc_at(closed.r0, market, scen)
        assert abs(mc.llo - closed.llo) < 4 * mc.llo_se

    def test_point_mass_claim_limit(self):
        res = pareto_riskless_valuation(1e8, 1.0, ALPHA, ETA)
        assert res.r0 == pytest.approx(1.0, rel=1e-6)
        assert res.llo < 1e-7

    def test_homogeneity_in_mean(self):
        a = pareto_riskless_valuation(2.0, 1.0, ALPHA, ETA)
        b = pareto_riskless_valuation(2.0, 2.0, ALPHA, ETA)
        for field in ("r0", "llo", "v0", "v0_upper"):
            assert getattr(b, field) == pytest.approx(2 * getattr(a, field), rel=1e-14)


class TestBounds:
    def test_riskless_upper_bound(self):
        upper, lower = v0_bounds(2.0, z_mean=1.0, z_var=0.0, x_mean=1.0,
                                 x_var=0.09, eta=ETA, alpha=ALPHA)
        assert upper == pytest.approx((ETA * 2.0 + 1.0) / (1.0 + ETA), rel=1e-14)
        assert lower is not None

    def test_infinite_variance_drops_lower(self):
        upper, lower = v0_bounds(7.07, z_mean=1.0, z_var=0.0, x_mean=1.0,
                                 x_var=math.inf, eta=ETA, alpha=ALPHA)
        assert lower is None
        assert upper == pytest.approx(1.3436, abs=1e-3)

    def test_es_criterion_drops_lower(self):
        _, lower = v0_bounds(2.0, z_mean=1.05, z_var=0.04, x_mean=1.0,
                             x_var=0.09, eta=ETA, alpha=None)
        assert lower is None

    def test_upper_bound_sharp_in_lognormal_model(self):
        # the premium gap to the bound is the small option value
        claim = lognormal_from_moments(1.0, 0.3)
        asset = lognormal_from_moments(1.05, 0.2)
        res = value_lognormal_var(claim.mu_log, claim.sd_log,
                                  asset.mu_log, asset.sd_log, ALPHA, ETA)
        gap = (res.v0_upper - res.v0) / res.v0
        assert 0.0 < gap < 0.02


def _first_non_finite(fields: dict) -> str | None:
    # the per-field loop of the row check, its reference: the first float
    # field that is not finite
    for name, value in fields.items():
        if isinstance(value, float) and not math.isfinite(value):
            return name
    return None


# nan, ±inf, None, finite floats whose sum overflows, a huge int, a float
# subclass and a label
FIELD_VALUES = (st.sampled_from([math.nan, math.inf, -math.inf, None, 1e308, -1e308,
                                 1.7976931348623157e308, 0.0, -0.0, 5e-324, 1, 10 ** 400,
                                 True, np.float64(math.nan), np.float64(1e308), "mc"])
                | st.floats())
ROW_FIELDS = {name: FIELD_VALUES for name in ValuationResult._fields}


class TestRowCheck:
    @pytest.mark.filterwarnings("error")  # nor a new warning
    @given(st.fixed_dictionaries(ROW_FIELDS))
    @example({**ROW, "r0": 1e308, "c0": 1e308})  # the sum overflows, every term is finite
    @example({**ROW, "v0_upper": 1e308, "residual": math.inf})
    @example({**ROW, "iterations": 10 ** 400, "llo_se": math.nan})
    @example({**ROW, "r0_method": math.nan})
    @example({**ROW, "r0": np.float64(1e308), "c0": np.float64(1e308)})  # and no numpy warning
    @settings(max_examples=500, deadline=None)
    def test_raises_as_the_field_loop(self, fields):
        fields = {name: fields[name] for name in ValuationResult._fields}
        name = _first_non_finite(fields)
        if name is None:
            row = ValuationResult(**fields)
            assert all(vars(row)[key] is value for key, value in fields.items())
            return
        with pytest.raises(ValueError) as raised:
            ValuationResult(**fields)
        assert str(raised.value) == (f"{name} is not finite ({fields[name]}); "
                                     "the inputs overflow")


class TestNoSolutionPropagates:
    def test_gaussian_var(self):
        with pytest.raises(NoSolutionError):
            value_gaussian_var(1.0, 0.3, 0.5, 0.2, ALPHA, ETA)


class TestValueMarket:
    LOGNORMAL_CLAIM = lognormal_from_moments(1.0, 0.3)
    LOGNORMAL_ASSET = lognormal_from_moments(1.05, 0.2)

    @pytest.mark.parametrize("claim, asset, w, kind, methods", [
        (Normal(1.0, 0.3), Normal(1.05, 0.2), 0.3, "es", ("closed_form", "closed_form")),
        (pareto_from_mean_beta(1.0, 1.1), LOGNORMAL_ASSET, 0.0, "var",
         ("closed_form", "closed_form")),
        (LOGNORMAL_CLAIM, Degenerate(1.0), 0.7, "var", ("closed_form", "closed_form")),
        (LOGNORMAL_CLAIM, LOGNORMAL_ASSET, 1.0, "var", ("closed_form", "closed_form")),
        (LOGNORMAL_CLAIM, LOGNORMAL_ASSET, 1.0, "es", ("empirical_root", "mc")),
        (Normal(1.0, 0.3), Degenerate(1.0), 0.0, "var", ("empirical_root", "mc")),
    ])
    def test_routes(self, claim, asset, w, kind, methods):
        market = MarketSpec(claim=claim, asset=asset, w=w, eta=ETA)
        res = value_market(market, RiskMeasure(kind, 0.01), mc_n=2000, seed=1)
        assert (res.r0_method, res.valuation_method) == methods

    @pytest.mark.parametrize("kind", ["var", "es"])
    def test_mc_route_equals_solve_then_value(self, kind):
        market = MarketSpec(claim=pareto_from_mean_beta(1.0, 2.0),
                            asset=self.LOGNORMAL_ASSET, w=0.5, eta=ETA)
        rm = RiskMeasure(kind, 0.01)
        got = value_market(market, rm, mc_n=20_000, seed=3)
        scen = generate_scenarios(20_000, seed=3)
        want = mc_valuation(solve_at(market, rm, scen), market, rm)
        assert got == want

    def test_mc_route_transforms_each_stream_once(self, monkeypatch):
        # the streams are transformed block by block, each draw once
        draws = {"Lognormal": [], "ParetoTypeI": []}  # appends are safe across threads
        for cls in (Lognormal, ParetoTypeI):
            def counted(self, u, _sample=cls.sample, _name=cls.__name__):
                draws[_name].append(u.size)
                return _sample(self, u)
            monkeypatch.setattr(cls, "sample", counted)
        market = MarketSpec(claim=pareto_from_mean_beta(1.0, 2.0),
                            asset=self.LOGNORMAL_ASSET, w=0.5, eta=ETA)
        res = value_market(market, RiskMeasure("var", ALPHA), mc_n=20_000, seed=3)
        assert res.valuation_method == "mc"
        assert {name: sum(sizes) for name, sizes in draws.items()} == {
            "Lognormal": 20_000, "ParetoTypeI": 20_000}


class TestDispatcher:
    """``valuations`` routes one weight as ``value_market`` does and never
    mixes a closed-form row into a Monte Carlo grid."""

    MARKET = MarketSpec(claim=lognormal_from_moments(1.0, 0.3),
                        asset=lognormal_from_moments(1.05, 0.2), w=0.0, eta=ETA)
    GRID = [0.0, 0.3, 0.6]

    def test_one_weight_closed_form_stays_out_of_a_grid(self):
        rm = RiskMeasure("var", ALPHA)
        single = value_market(self.MARKET, rm, mc_n=20_000, seed=3)
        assert single.valuation_method == "closed_form"
        res = sweep(self.MARKET, rm, self.GRID, mc_n=20_000, seed=3)
        assert [row.valuation_method for row in res.rows] == ["mc"] * 3
        # a one-weight grid gets its closed form in a sweep too
        assert sweep(self.MARKET, rm, [0.0], mc_n=20_000, seed=3).rows == (single,)

    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("asset", [lognormal_from_moments(1.05, 0.2), Normal(1.05, 0.2)],
                             ids=["lognormal", "normal"])
    @pytest.mark.parametrize("kind", ["var", "es"])
    def test_single_weight_equals_its_sweep_row(self, asset, kind, seed):
        market = self.MARKET.replace(asset=asset, w=0.3)
        rm = RiskMeasure(kind, 0.01)
        single = value_market(market, rm, mc_n=20_000, seed=seed)
        row = sweep(market, rm, self.GRID, mc_n=20_000, seed=seed).rows[1]
        assert single.valuation_method == row.valuation_method == "mc"
        if kind == "var":  # every field
            assert single == row
            return
        # An ES solve on the wider grid may take another number of
        # selections, and its root may differ within the solver's 4 ulp
        # (one ulp on the lognormal asset at seed 3); every field is equal
        # when the roots are, and else moves no more than the outputs' 1e-12.
        single = single.replace(iterations=row.iterations)
        assert math.isclose(single.r0, row.r0, rel_tol=4 * 2.0 ** -52)
        if single.r0 == row.r0:
            assert single == row
        for name, want in vars(row).items():
            got = getattr(single, name)
            if isinstance(want, float):
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12 * row.r0), name
            else:
                assert got == want, name


class TestMcValuations:
    CLAIM = pareto_from_mean_beta(1.0, 2.0)
    ASSET = lognormal_from_moments(1.05, 0.2)

    def test_var_grid_rows_equal_one_weight_valuations(self):
        # a VaR root and its split are bit-identical on any grid holding the weight
        market = MarketSpec(claim=self.CLAIM, asset=self.ASSET, w=0.0, eta=ETA)
        rm = RiskMeasure("var", ALPHA)
        rows = mc_valuations(market, rm, [0.0, 0.25, 0.5], mc_n=20_000, seed=3)
        assert rows[0].valuation_method == "mc"
        for w, row in zip((0.25, 0.5), rows[1:]):
            assert row == value_market(market.replace(w=w), rm, mc_n=20_000, seed=3)

    @pytest.mark.parametrize("kind", ["var", "es"])
    def test_weights_without_solution_are_returned(self, kind):
        # an asset so volatile that large weights admit no solution
        market = MarketSpec(claim=lognormal_from_moments(1.0, 0.3), asset=Normal(1.0, 3.0),
                            w=0.0, eta=ETA)
        rm, grid = RiskMeasure(kind, 0.01), w_grid(0.25)
        rows = mc_valuations(market, rm, grid, mc_n=50_000, seed=13)
        assert isinstance(rows[0], ValuationResult)
        failed = [float(w) for w, row in zip(grid, rows) if isinstance(row, NoSolutionError)]
        assert failed
        # no traceback, whose frames would keep the failed solves' arrays alive
        assert all(row.__traceback__ is None for row in rows if isinstance(row, Exception))
        with pytest.raises(NoSolutionError):  # a single valuation raises it
            value_market(market.replace(w=failed[-1]), rm, mc_n=50_000, seed=13)

    @pytest.mark.parametrize("kind", ["var", "es"])
    def test_live_peak_does_not_grow_with_the_grid(self, monkeypatch, kind):
        # a report keeps sums, not its positive losses (here up to 40 kB a
        # weight), so 201 weights peak no higher than 3 on the same scenarios.
        # One chunk: the sampler's block temporaries, up to 1.6 MB a chunk
        # here, then peak the same in both runs, not as its threads overlap
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
        market = MarketSpec(claim=lognormal_from_moments(1.0, 0.3), asset=self.ASSET,
                            w=0.0, eta=ETA)
        rm = RiskMeasure(kind, 0.05)

        def peak(step):
            tracemalloc.start()
            try:
                mc_valuations(market, rm, w_grid(step), mc_n=100_000, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(0.005) - peak(0.5) < 500_000

    @pytest.mark.parametrize("kind", ["var", "es"])
    @pytest.mark.parametrize("run", [
        lambda market, rm: value_market(market.replace(w=0.5), rm, mc_n=20_000, seed=3),
        lambda market, rm: sweep(market, rm, [0.0, 0.5, 1.0], mc_n=20_000, seed=3),
    ], ids=["value_market", "sweep"])
    def test_scenario_set_dies_before_the_solve(self, monkeypatch, run, kind):
        # only the transformed streams reach the solver: when it starts, the
        # claims and asset returns are all the live memory, no uniform stream
        seen, solve = [], capital_solver.solve_r0_numeric

        def solved(rm, claims, assets, grid):
            seen.append((tracemalloc.get_traced_memory()[0], claims.nbytes + assets.nbytes))
            return solve(rm, claims, assets, grid)

        monkeypatch.setattr(capital_solver, "solve_r0_numeric", solved)
        tracemalloc.start()
        try:
            run(MarketSpec(claim=self.CLAIM, asset=self.ASSET, w=0.0, eta=ETA),
                RiskMeasure(kind, 0.01))
        finally:
            tracemalloc.stop()
        [(live, streams)] = seen
        assert streams <= live < 1.25 * streams  # a uniform stream is half of them

    @pytest.mark.parametrize("grid", [[], [0.5, 0.2], [0.3, 0.3], [-0.1, 0.5], [0.5, 1.1],
                                      [[0.0, 0.5]]])
    def test_malformed_grid_draws_nothing(self, monkeypatch, grid):
        # the grid is checked before a single scenario is drawn
        calls = []
        monkeypatch.setattr(montecarlo, "sample_scenarios", lambda *args: calls.append(args))
        market = MarketSpec(claim=self.CLAIM, asset=self.ASSET, w=0.0, eta=ETA)
        with pytest.raises(ValueError, match="grid"):
            mc_valuations(market, RiskMeasure("var", ALPHA), grid, mc_n=10 ** 6, seed=1)
        assert calls == []
