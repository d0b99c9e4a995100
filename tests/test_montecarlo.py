"""Scenario generation, reproducibility, and the estimators on top."""

import math

import numpy as np
import pytest

from cocval import montecarlo
from cocval.capital_solver import MarketSpec, SolveReport
from cocval.distributions import Degenerate, Normal, lognormal_from_moments
from cocval.montecarlo import generate_scenarios
from cocval.risk_measures import RiskMeasure, var_empirical, var_multiplier
from cocval.valuation import gaussian_positive_part_factor, mc_valuation

from helpers import mc_at, summary_of


class TestGenerate:
    def test_deterministic_regeneration(self):
        a = generate_scenarios(8, seed=42)
        b = generate_scenarios(8, seed=42)
        assert np.array_equal(a.u_asset, b.u_asset)
        assert np.array_equal(a.u_claim, b.u_claim)

    def test_streams_differ_and_seeds_matter(self):
        scen = generate_scenarios(64, seed=1)
        other = generate_scenarios(64, seed=2)
        assert not np.array_equal(scen.u_asset, scen.u_claim)
        assert not np.array_equal(scen.u_asset, other.u_asset)

    def test_memory_guard(self, monkeypatch):
        # a machine with room for exactly 1000 scenarios
        monkeypatch.setattr(montecarlo, "_physical_memory",
                            lambda: 1000.0 * montecarlo.PEAK_BYTES_PER_SCENARIO)
        assert generate_scenarios(1000, seed=1).n == 1000
        with pytest.raises(ValueError, match="physical memory"):
            generate_scenarios(1001, seed=1)

    def test_uniform_mean(self):
        scen = generate_scenarios(10 ** 6, seed=1)
        band = 4 * (1 / math.sqrt(12)) / 1e3
        assert abs(float(scen.u_asset.mean()) - 0.5) < band
        assert abs(float(scen.u_claim.mean()) - 0.5) < band

    def test_streams_uncorrelated(self):
        scen = generate_scenarios(10 ** 6, seed=1)
        corr = float(np.corrcoef(scen.u_asset, scen.u_claim)[0, 1])
        assert abs(corr) < 4 / math.sqrt(10 ** 6)

    def test_open_interval(self):
        scen = generate_scenarios(10 ** 5, seed=3)
        for u in (scen.u_asset, scen.u_claim):
            assert float(u.min()) > 0.0
            assert float(u.max()) < 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            generate_scenarios(0, seed=1)

    def test_immutable(self):
        scen = generate_scenarios(4, seed=9)
        with pytest.raises(ValueError):
            scen.u_asset[0] = 0.5


class TestNetWorth:
    # The net worth r Z - X enters mc_valuation as c0 = E[(.)^+] / (1 + eta)
    # and llo = E[(.)^-] / (1 + eta), so c0 - llo is its discounted mean.
    def test_riskless_no_claim(self):
        scen = generate_scenarios(16, seed=0)
        market = MarketSpec(claim=Degenerate(0.0), asset=Normal(1.05, 0.2), w=0.0, eta=0.06)
        row = mc_at(1.0, market, scen)
        assert (row.c0, row.c0_se, row.llo) == (1.0 / 1.06, 0.0, 0.0)

    def test_zero_capital(self):
        scen = generate_scenarios(64, seed=0)
        market = MarketSpec(claim=lognormal_from_moments(1.0, 0.3),
                            asset=Normal(1.05, 0.2), w=0.5, eta=0.06)
        x = market.claim_sample(scen)
        row = mc_at(0.0, market, scen)
        assert row.c0 == 0.0
        assert row.llo == float(x.mean()) / 1.06

    def test_gaussian_mean(self):
        n = 10 ** 6
        scen = generate_scenarios(n, seed=7)
        market = MarketSpec(claim=Normal(1.0, 0.3), asset=Normal(1.05, 0.2), w=0.4, eta=0.06)
        r = 2.0
        row = mc_at(r, market, scen)
        mu_w = 0.4 * 1.05 + 0.6
        sd = math.sqrt(r * r * (0.4 * 0.2) ** 2 + 0.3 ** 2)
        mean = (row.c0 - row.llo) * 1.06
        assert abs(mean - (r * mu_w - 1.0)) < 4 * sd / math.sqrt(n)

    def test_crn_monotone_in_capital(self):
        # pathwise nonnegative mixed return makes the empirical VaR
        # non-increasing in the capital level, scenario-exact
        scen = generate_scenarios(20_000, seed=13)
        market = MarketSpec(claim=lognormal_from_moments(1.0, 0.3),
                            asset=lognormal_from_moments(1.05, 0.2), w=0.7, eta=0.06)
        z = 0.7 * market.asset_return_sample(scen) + 0.3
        x = market.claim_sample(scen)
        levels = [var_empirical(r * z - x, 0.01) for r in np.linspace(0.0, 4.0, 41)]
        assert all(b <= a + 1e-12 for a, b in zip(levels, levels[1:]))


class TestEstimators:
    def test_positive_part_all_negative(self):
        scen = generate_scenarios(3, seed=0)
        market = MarketSpec(claim=Degenerate(3.0), asset=Degenerate(1.0), w=0.0, eta=0.06)
        row = mc_at(1.0, market, scen)
        assert row.c0 == 0.0
        assert row.c0_se == 0.0

    def test_positive_part_all_ones(self):
        scen = generate_scenarios(8, seed=0)
        market = MarketSpec(claim=Degenerate(0.0), asset=Degenerate(1.0), w=0.0, eta=0.06)
        row = mc_at(1.0, market, scen)
        assert (row.c0, row.c0_se, row.llo_se) == (1.0 / 1.06, 0.0, 0.0)

    def test_mean_and_se(self):
        # losses 1 and 3: the option averages them, 2 with standard error 1
        rep = SolveReport(r0=1.0, method="closed_form", residual=0.0, iterations=0,
                          losses=summary_of([1.0, 3.0]))
        market = MarketSpec(claim=Degenerate(0.0), asset=Degenerate(1.0), w=0.0, eta=1.0)
        row = mc_valuation(rep, market, RiskMeasure("var", 0.25))
        assert (row.llo, row.c0) == (1.0, 0.0)
        assert row.llo_se == pytest.approx(0.5, rel=1e-15)

    def test_gaussian_positive_part_against_closed_form(self):
        # E[(e - f G)^+] = e * factor when the VaR of e + f G is zero:
        # capital e against a centred normal claim of sd f
        n = 10 ** 6
        scen = generate_scenarios(n, seed=21)
        alpha, e = 0.01, 0.8
        f = e / var_multiplier(alpha)
        market = MarketSpec(claim=Normal(0.0, f), asset=Degenerate(1.0), w=0.0, eta=0.06)
        row = mc_at(e, market, scen)
        expected = e * gaussian_positive_part_factor(var_multiplier(alpha)) / 1.06
        assert abs(row.c0 - expected) < 4 * row.c0_se
