"""Acceptance criteria, one test per criterion, each printing a
pass/fail line.  Tolerances are pinned here and nowhere else."""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from cocval.analysis import sweep, w_grid
from cocval.distributions import (
    Normal,
    lognormal_from_moments,
    pareto_from_mean_beta,
    standard_normal_quantile,
)
from cocval.market import MarketSpec
from cocval.risk_measures import (
    RiskMeasure,
    es_empirical,
    var_empirical,
    var_multiplier,
)
from cocval.valuation import (
    mc_valuation,
    pareto_riskless_valuation,
    value_gaussian_es,
    value_gaussian_var,
    value_lognormal_var,
)

from helpers import (gaussian_r0_se_es, gaussian_r0_se_var, generate_scenarios, mc_at, samples,
                     solve_at)

ETA = 0.06
ALPHA = 0.005
MC_N = 10 ** 6
SEED = 2026


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def scen():
    return generate_scenarios(MC_N, SEED)


@pytest.fixture(scope="module")
def normals(scen):
    # shared standard-normal transforms, one per stream: every Gaussian
    # and lognormal market below reuses them (common random numbers)
    return (standard_normal_quantile(scen.u_asset),
            standard_normal_quantile(scen.u_claim))


def test_pareto_worked_example():
    with criterion("pareto worked example"):
        start = time.perf_counter()
        heavy = pareto_riskless_valuation(2.0, 1.0, ALPHA, ETA)
        assert heavy.r0 == pytest.approx(7.071, abs=0.005)
        assert heavy.llo == pytest.approx(0.0334, abs=0.0005)
        assert heavy.v0 == pytest.approx(1.310, abs=0.005)
        assert heavy.v0_upper == pytest.approx(1.344, abs=0.005)
        heavier = pareto_riskless_valuation(1.1, 1.0, ALPHA, ETA)
        assert heavier.r0 == pytest.approx(11.23, abs=0.01)
        assert heavier.llo == pytest.approx(0.53, abs=0.01)
        assert heavier.v0 == pytest.approx(1.05, abs=0.01)
        assert heavier.v0_upper == pytest.approx(1.58, abs=0.01)
        assert time.perf_counter() - start < 0.5


def test_gaussian_capital_minimizing_weight():
    with criterion("gaussian capital-minimizing weight"):
        start = time.perf_counter()
        market = MarketSpec(claim=Normal(1.0, 0.3), asset=Normal(1.05, 0.2),
                            w=0.0, eta=ETA)
        res = sweep(market, RiskMeasure("var", ALPHA), w_grid(1e-3), mc_n=MC_N, seed=SEED)
        assert res.w_star == pytest.approx(0.083, abs=1e-3)
        assert time.perf_counter() - start < 1.0


def test_benefit_threshold_consistency():
    with criterion("benefit threshold consistency"):
        gamma, nu, mu, sigma = 1.0, 0.3, 1.05, 0.2
        m = var_multiplier(ALPHA)
        # the three closed-form preconditions
        assert nu > 0 and sigma > 0
        assert gamma > nu * m
        assert mu > max(1.0, sigma * m)
        market = MarketSpec(claim=Normal(gamma, nu), asset=Normal(mu, sigma), w=0.0, eta=ETA)
        closed = sweep(market, RiskMeasure("var", ALPHA), [0.0], mc_n=MC_N,
                       seed=SEED).w_hat_closed

        def requirement(w):
            return value_gaussian_var(gamma, nu, w * mu + 1 - w, w * sigma, ALPHA, ETA).r0

        crossing = brentq(lambda w: requirement(w) - requirement(0.0),
                          1e-6, 0.99, xtol=1e-12)
        assert abs(closed - crossing) <= 1e-4


def _random_parameter_sets(count, rng):
    sets = []
    while len(sets) < count:
        gamma = rng.uniform(0.8, 1.2)
        nu = rng.uniform(0.15, 0.4)
        mu = rng.uniform(1.02, 1.10)
        sigma = rng.uniform(0.05, 0.28)
        alpha = rng.choice([0.005, 0.01])
        sets.append((gamma, nu, mu, sigma, float(alpha)))
    return sets


def test_oracle_equivalence_var(scen, normals):
    with criterion("oracle equivalence (VaR solver and valuation)"):
        g_asset, g_claim = normals
        rng = np.random.default_rng(99)
        for gamma, nu, mu, sigma, alpha in _random_parameter_sets(20, rng):
            assert mu > sigma * var_multiplier(alpha)  # existence condition
            closed = value_gaussian_var(gamma, nu, mu, sigma, alpha, ETA)
            market = MarketSpec(claim=Normal(gamma, nu), asset=Normal(mu, sigma),
                                w=1.0, eta=ETA)
            rm = RiskMeasure("var", alpha)
            values = dict(assets=mu + sigma * g_asset, claims=gamma + nu * g_claim)
            mc = solve_at(market, rm, **values)
            se = gaussian_r0_se_var(closed.r0, gamma, nu, mu, sigma, alpha, MC_N)
            assert abs(mc.r0 - closed.r0) <= 3 * se

            at_closed = mc_at(closed.r0, market, scen, rm, **values)
            assert abs(at_closed.c0 - closed.c0) <= 4 * at_closed.c0_se
            assert abs(at_closed.v0 - closed.v0) <= 4 * at_closed.v0_se


def test_oracle_equivalence_es(scen, normals):
    with criterion("oracle equivalence (ES solver and valuation)"):
        g_asset, g_claim = normals
        rng = np.random.default_rng(7)
        for gamma, nu, mu, sigma, alpha in _random_parameter_sets(8, rng):
            closed = value_gaussian_es(gamma, nu, mu, sigma, alpha, ETA)
            market = MarketSpec(claim=Normal(gamma, nu), asset=Normal(mu, sigma),
                                w=1.0, eta=ETA)
            rm = RiskMeasure("es", alpha)
            values = dict(assets=mu + sigma * g_asset, claims=gamma + nu * g_claim)
            mc = solve_at(market, rm, **values)
            se = gaussian_r0_se_es(closed.r0, gamma, nu, mu, sigma, alpha, MC_N)
            assert abs(mc.r0 - closed.r0) <= 3 * se

            at_closed = mc_at(closed.r0, market, scen, rm, **values)
            assert abs(at_closed.c0 - closed.c0) <= 4 * at_closed.c0_se
            assert abs(at_closed.v0 - closed.v0) <= 4 * at_closed.v0_se


LOGNORMAL_GRID = [(mean_s, sd_s, sd_x)
                  for mean_s in (1.02, 1.05)
                  for sd_s in (0.1, 0.2, 0.3)
                  for sd_x in (0.2, 0.3, 0.4, 0.6)]


def test_lognormal_quadrature_matches_mc(scen, normals):
    with criterion("lognormal quadrature premium vs Monte Carlo"):
        g_asset, g_claim = normals
        for mean_s, sd_s, sd_x in LOGNORMAL_GRID:
            claim = lognormal_from_moments(1.0, sd_x)
            asset = lognormal_from_moments(mean_s, sd_s)
            res = value_lognormal_var(claim.mu_log, claim.sd_log,
                                      asset.mu_log, asset.sd_log, ALPHA, ETA)
            market = MarketSpec(claim=claim, asset=asset, w=1.0, eta=ETA)
            z = np.exp(asset.mu_log + asset.sd_log * g_asset)
            x = np.exp(claim.mu_log + claim.sd_log * g_claim)
            per = (np.minimum(res.r0 * z, x) + ETA * res.r0 + res.r0 * (1.0 - z)) / (1.0 + ETA)
            v0_mc = float(per.mean())
            v0_se = float(per.std(ddof=1)) / math.sqrt(MC_N)
            assert abs(v0_mc - res.v0) <= 4 * v0_se


def test_property_suite(scen):
    with criterion("identity, bounds, convexity, ordering, scaling"):
        market = MarketSpec(claim=Normal(1.0, 0.3), asset=Normal(1.05, 0.2),
                            w=0.0, eta=ETA)
        rm = RiskMeasure("var", ALPHA)
        closed = sweep(market, rm, w_grid(1e-3), mc_n=MC_N, seed=SEED)

        # premium identity: exact in subtraction form, one rounding in
        # the sum form
        for row in closed.rows:
            assert row.v0 == row.r0 - row.c0
            assert row.v0 + row.c0 == pytest.approx(row.r0, rel=1e-15)

        # bound containment on every closed-form row
        for row in closed.rows:
            assert row.v0 <= row.v0_upper + 1e-12
            assert row.v0_lower is not None and row.v0 >= row.v0_lower - 1e-12

        # strict convexity of the requirement curve, both measures
        r0s = np.array([row.r0 for row in closed.rows])
        assert np.all(np.diff(r0s, 2) > 0.0)
        es_rows = sweep(market, RiskMeasure("es", 0.01), w_grid(0.01), mc_n=MC_N,
                        seed=SEED).rows
        assert np.all(np.diff(np.array([row.r0 for row in es_rows]), 2) > 0.0)

        # shareholder value above the risk-less benchmark at every
        # positive weight; premium below it before the threshold
        base = closed.rows[0]
        w_hat = closed.w_hat_closed
        for w, row in zip(closed.grid, closed.rows):
            if w > 0:
                assert row.c0 > base.c0
            if 0 < w < w_hat:
                assert row.v0 <= base.v0

        # claim rescaling: closed forms at float identity precision
        valued = value_gaussian_var(1.0, 0.3, 1.05, 0.2, ALPHA, ETA)
        for a in (0.5, 2.0, 7.3):
            scaled = value_gaussian_var(a * 1.0, a * 0.3, 1.05, 0.2, ALPHA, ETA)
            for field in ("r0", "c0", "v0", "llo", "v0_upper"):
                assert getattr(scaled, field) == pytest.approx(
                    a * getattr(valued, field), rel=5e-14)

        # claim rescaling: numeric solver on shared scenarios,
        # bit-exact for binary scale factors
        claim = lognormal_from_moments(1.0, 0.3)
        asset = lognormal_from_moments(1.05, 0.2)
        mkt = MarketSpec(claim=claim, asset=asset, w=0.5, eta=ETA)
        x, s = samples(mkt, scen)
        ref = solve_at(mkt, rm, claims=x, assets=s)
        doubled = solve_at(MarketSpec(claim=claim.scaled(2.0), asset=asset, w=0.5, eta=ETA),
                           rm, claims=2.0 * x, assets=s)
        assert doubled.r0 == 2.0 * ref.r0

        # translation and positive homogeneity of the empirical
        # measures: elementwise-exact for VaR, float-sum for ES
        y = x[:50_000] - 1.2
        assert var_empirical(y + 0.37, ALPHA) == var_empirical(y, ALPHA) - 0.37
        assert var_empirical(3.0 * y, ALPHA) == 3.0 * var_empirical(y, ALPHA)
        assert es_empirical(y + 0.37, 0.01) == pytest.approx(
            es_empirical(y, 0.01) - 0.37, rel=1e-12)
        assert es_empirical(3.0 * y, 0.01) == pytest.approx(
            3.0 * es_empirical(y, 0.01), rel=1e-12)

        # Monte Carlo identity on one shared scenario set
        mkt_half = MarketSpec(claim=claim, asset=asset, w=0.5, eta=ETA)
        rep = solve_at(mkt_half, rm, claims=x, assets=s)
        row = mc_valuation(rep, mkt_half, rm)
        assert abs(row.v0 + row.c0 - rep.r0) <= 1e-12 * rep.r0


def test_lognormal_upper_bound_sharpness(scen, normals):
    with criterion("premium upper bound sharp on lognormal panels"):
        g_asset, g_claim = normals
        rm = RiskMeasure("var", ALPHA)
        claim = lognormal_from_moments(1.0, 0.3)
        x = np.exp(claim.mu_log + claim.sd_log * g_claim)
        for sd_s in (0.1, 0.2, 0.3):
            asset = lognormal_from_moments(1.05, sd_s)
            s = np.exp(asset.mu_log + asset.sd_log * g_asset)
            for w in (0.0, 0.25, 0.5, 0.75, 1.0):
                market = MarketSpec(claim=claim, asset=asset, w=w, eta=ETA)
                rep = solve_at(market, rm, claims=x, assets=s)
                row = mc_valuation(rep, market, rm)
                gap = (row.v0_upper - row.v0) / row.v0
                assert gap < 0.02 + 4 * row.v0_se / row.v0


def test_heavy_tail_full_investment(scen):
    with criterion("full risky investment acceptable for the heaviest tail"):
        rm = RiskMeasure("var", ALPHA)
        claim = pareto_from_mean_beta(1.0, 1.1)
        asset = lognormal_from_moments(1.05, 0.2)
        base = solve_at(MarketSpec(claim=claim, asset=asset, w=0.0, eta=ETA), rm, scen)
        full = solve_at(MarketSpec(claim=claim, asset=asset, w=1.0, eta=ETA), rm, scen)
        spread = 4 * math.hypot(base.std_error, full.std_error)
        assert full.r0 <= base.r0 + spread


def test_expected_shortfall_absorbed_by_shareholders(scen, normals):
    with criterion("ES capital increase lands on shareholders"):
        g_asset, g_claim = normals
        claim = lognormal_from_moments(1.0, 0.3)
        asset = lognormal_from_moments(1.05, 0.2)
        x = np.exp(claim.mu_log + claim.sd_log * g_claim)
        s = np.exp(asset.mu_log + asset.sd_log * g_asset)
        for w in (0.0, 0.3, 0.6, 1.0):
            market = MarketSpec(claim=claim, asset=asset, w=w, eta=ETA)
            rows = {}
            for rm in (RiskMeasure("var", 0.005), RiskMeasure("es", 0.01)):
                rep = solve_at(market, rm, claims=x, assets=s)
                rows[rm.kind] = mc_valuation(rep, market, rm)
            assert rows["es"].r0 > rows["var"].r0
            dv = abs(rows["es"].v0 - rows["var"].v0)
            slack = 4 * math.hypot(rows["es"].v0_se, rows["var"].v0_se)
            assert dv < 0.01 * rows["var"].v0 + slack
            dc = rows["es"].c0 - rows["var"].c0
            dr = rows["es"].r0 - rows["var"].r0
            assert dc == pytest.approx(dr, abs=0.01 * rows["var"].v0 + slack)
