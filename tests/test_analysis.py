"""Sweeps, decision weights, and the monotonicity structure behind them."""

import io
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

import cocval
from cocval import analysis, distributions
from cocval.analysis import sweep, w_grid
from cocval.distributions import Degenerate, Normal, lognormal_from_moments
from cocval.market import MarketSpec, NoSolutionError, SolveReport
from cocval.risk_measures import RiskMeasure, es_multiplier, var_multiplier
from cocval.valuation import mc_valuation, value_gaussian_var, value_market

from helpers import generate_scenarios, scaled, solve_at

GAMMA, NU, MU, SIGMA = 1.0, 0.3, 1.05, 0.2
ALPHA = 0.005
ETA = 0.06
FIG_MARKET = MarketSpec(claim=Normal(GAMMA, NU), asset=Normal(MU, SIGMA), w=0.0, eta=ETA)
VAR_005 = RiskMeasure("var", ALPHA)
LOGNORMAL_MARKET = MarketSpec(claim=lognormal_from_moments(1.0, 0.3),
                            asset=lognormal_from_moments(1.05, 0.2), w=0.0, eta=ETA)
# the scenario set of a sweep; the normal model's closed forms do not use it
MC = {"mc_n": 20_000, "seed": 1}


def closed_value(w: float, mu: float = MU, sigma: float = SIGMA):
    return value_gaussian_var(GAMMA, NU, w * mu + 1 - w, w * sigma, ALPHA, ETA)


def closed_r0(w: float, mu: float = MU, sigma: float = SIGMA) -> float:
    return closed_value(w, mu, sigma).r0


def closed_threshold(gamma, nu, mu, sigma, rm=VAR_005):
    """The normal model's closed-form benefit threshold, as a sweep reports
    it; None where its preconditions fail."""
    market = MarketSpec(claim=Normal(gamma, nu), asset=Normal(mu, sigma), w=0.0, eta=ETA)
    return sweep(market, rm, [0.0], **MC).w_hat_closed


class TestBenefitThreshold:
    def test_closed_form_value(self):
        got = closed_threshold(GAMMA, NU, MU, SIGMA)
        assert got == pytest.approx(0.165809, abs=1e-6)

    def test_matches_fine_crossing_of_requirement_curve(self):
        # independent check: locate where the requirement re-crosses its
        # risk-less level on the closed-form curve
        base = closed_r0(0.0)
        crossing = brentq(lambda w: closed_r0(w) - base, 1e-6, 0.9, xtol=1e-12)
        got = closed_threshold(GAMMA, NU, MU, SIGMA)
        assert abs(got - crossing) < 1e-9

    def test_full_range_branch(self):
        m = var_multiplier(ALPHA)
        mu = 1.0 + SIGMA * m + 0.01
        assert closed_threshold(GAMMA, NU, mu, SIGMA) == 1.0

    def test_increasing_in_claim_spread(self):
        # claim spreads up to the precondition gamma > nu * multiplier
        nus = np.linspace(0.2, 0.38, 15)
        vals = [closed_threshold(GAMMA, nu, MU, SIGMA) for nu in nus]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_preconditions_enforced(self):
        assert closed_threshold(GAMMA, NU, MU, 0.0) is None
        assert closed_threshold(0.5, 0.3, MU, SIGMA) is None  # gamma <= nu m
        assert closed_threshold(GAMMA, NU, 1.0, SIGMA) is None  # mu at 1

    def test_es_variant_coincides_at_matched_constant(self):
        # pick the ES level whose constant equals the VaR constant, the
        # two thresholds must then agree identically
        m = var_multiplier(0.005)
        alpha_es = brentq(lambda a: es_multiplier(a) - m, 1e-4, 0.4, xtol=1e-15)
        a = closed_threshold(GAMMA, NU, MU, SIGMA, RiskMeasure("var", 0.005))
        b = closed_threshold(GAMMA, NU, MU, SIGMA, RiskMeasure("es", alpha_es))
        assert a == pytest.approx(b, rel=1e-9)

    def test_es_branch_condition(self):
        m = es_multiplier(0.01)
        assert closed_threshold(GAMMA, NU, 1.0 + SIGMA * m + 0.01, SIGMA,
                                RiskMeasure("es", 0.01)) == 1.0

    @pytest.mark.parametrize("step", [0.1, 0.01])
    def test_numeric_none_when_no_weight_is_beneficial(self, step):
        # the requirement rises from the first step on: no threshold at
        # any step, not one grid step
        market = MarketSpec(claim=Normal(GAMMA, NU), asset=Normal(0.98, SIGMA), w=0.0, eta=ETA)
        res = sweep(market, VAR_005, w_grid(step), **MC)
        assert res.rows[1].r0 > res.rows[0].r0
        assert res.w_star == 0.0
        assert res.w_hat_numeric is None
        assert res.w_hat_closed is None

    def test_numeric_none_when_crossing_lies_inside_first_step(self):
        # the closed threshold lies inside (0, 0.5); a grid of step 0.5
        # has no weight before the crossing to interpolate from, so the
        # numeric threshold is empty while the closed form is set
        res = sweep(FIG_MARKET, VAR_005, w_grid(0.5), **MC)
        assert res.rows[1].r0 > res.rows[0].r0
        assert 0.0 < res.w_hat_closed < 0.5
        assert res.w_hat_numeric is None
        assert sweep(FIG_MARKET, VAR_005, w_grid(0.1), **MC).w_hat_numeric is not None


class TestMutualBenefit:
    """The paper's sufficient conditions for a mutually beneficial mix at
    weight w, against the risk-less weight 0: r0(w) mu_w >= r0(0) raises
    the shareholder value c0, and r0(w) <= r0(0) on top of it lowers the
    premium v0."""

    def test_riskless_weight_boundary(self):
        # at w = 0 the mixed return is the bond's, 1, and both conditions
        # hold with equality
        base = closed_value(0.0)
        assert base.r0 * (0.0 * MU + 1 - 0.0) == base.r0

    def test_small_weight_both_hold(self):
        w = 0.05
        base, mixed = closed_value(0.0), closed_value(w)
        assert mixed.r0 * (w * MU + 1 - w) >= base.r0
        assert base.r0 >= mixed.r0
        assert mixed.c0 >= base.c0
        assert mixed.v0 <= base.v0

    def test_full_weight_high_volatility_premium_fails(self):
        w, sigma = 1.0, 0.3
        base, mixed = closed_value(0.0, sigma=sigma), closed_value(w, sigma=sigma)
        assert mixed.r0 * MU >= base.r0
        assert mixed.c0 >= base.c0
        # only the premium condition fails: the requirement rises
        assert mixed.r0 > base.r0


class TestGrid:
    def test_default_grid(self):
        grid = w_grid(1e-3)
        assert len(grid) == 1001
        assert grid[0] == 0.0 and grid[-1] == 1.0

    @pytest.mark.parametrize("step", [1, 0.5, 0.25, 0.1, 0.05, 0.01, 0.001, 2e-4])
    def test_grid_is_linspace_bit_for_bit(self, step):
        grid = w_grid(step)
        assert type(grid) is tuple and all(type(w) is float for w in grid)
        assert grid == tuple(np.linspace(0.0, 1.0, round(1 / step) + 1).tolist())

    def test_rejects_non_divisor_step(self):
        with pytest.raises(ValueError):
            w_grid(0.3)

    def test_grid_beyond_memory_is_refused_before_it_exists(self, monkeypatch):
        # a machine with room for the rows of exactly 101 weights
        monkeypatch.setattr("cocval.market._physical_memory",
                            lambda: 101.0 * analysis.SWEEP_ROW_BYTES)
        assert len(w_grid(0.01)) == 101
        with pytest.raises(ValueError, match="grid step 0.005 gives 201 weights"):
            w_grid(0.005)
        # 10^9 + 1 weights would be 32 GB of floats alone
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"grid step 1e-09 .* physical memory"):
                w_grid(1e-9)
            assert tracemalloc.get_traced_memory()[1] < 100_000
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("market, rm", [
        (FIG_MARKET, VAR_005),
        (LOGNORMAL_MARKET, VAR_005),
        (LOGNORMAL_MARKET, RiskMeasure("es", 0.01)),
    ], ids=["normal-var", "lognormal-var", "lognormal-es"])
    def test_row_bytes_cover_a_sweep_and_its_csv(self, market, rm):
        # what a sweep and its CSV, kept in memory, add per weight of the
        # grid: the difference of two grids cancels the scenario set
        def peak(step):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                sweep(market, rm, w_grid(step), mc_n=1000, seed=1).write_csv(io.StringIO())
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        peak(0.1)  # first-use imports and caches
        assert 0 < (peak(5e-4) - peak(1e-3)) / 1000 <= analysis.SWEEP_ROW_BYTES

    def test_sweep_rejects_bad_grids(self):
        for bad in ([0.1, 0.2], [0.0, 0.2, 0.1], [0.0, 0.5, 1.2]):
            with pytest.raises(ValueError):
                sweep(FIG_MARKET, VAR_005, bad, **MC)


@pytest.fixture(scope="module")
def result():
    return sweep(FIG_MARKET, VAR_005, w_grid(1e-3), **MC)


class TestClosedFormSweep:
    def test_capital_minimizing_weight(self, result):
        assert result.w_star == pytest.approx(0.083, abs=1e-3)

    def test_threshold_agreement(self, result):
        assert result.w_hat_closed is not None
        assert abs(result.w_hat_numeric - result.w_hat_closed) <= 1e-4

    def test_requirement_curve_is_strictly_convex(self, result):
        r0s = np.array([row.r0 for row in result.rows])
        second = np.diff(r0s, 2)
        assert np.all(second > 0.0)

    def test_es_curve_is_strictly_convex(self):
        res = sweep(FIG_MARKET, RiskMeasure("es", 0.01), w_grid(0.01), **MC)
        r0s = np.array([row.r0 for row in res.rows])
        assert np.all(np.diff(r0s, 2) > 0.0)

    def test_ordering_below_threshold(self, result):
        # below the benefit threshold: smaller requirement, larger
        # shareholder value, smaller premium than risk-less
        base = result.rows[0]
        w_hat = result.w_hat_closed
        for w, row in zip(result.grid, result.rows):
            if 0.0 < w < w_hat:
                assert row.r0 < base.r0
                assert row.c0 > base.c0
                assert row.v0 < base.v0

    def test_shareholder_value_dominates_everywhere(self, result):
        base = result.rows[0]
        assert all(row.c0 > base.c0 for w, row in zip(result.grid, result.rows) if w > 0)

    def test_sufficient_conditions_imply_premium_ordering(self, result):
        base = result.rows[0]
        for w, row in zip(result.grid, result.rows):
            capital = row.r0 * (float(w) * MU + 1 - float(w)) >= base.r0
            if capital:
                assert row.c0 >= base.c0 - 1e-12
            if capital and base.r0 >= row.r0:
                assert row.v0 <= base.v0 + 1e-12

    def test_premium_monotone_in_claim_mean(self):
        # with the mean mixed return below 1 + eta, a larger claim mean
        # cannot cheapen the premium
        vals = []
        for gamma in (0.9, 1.0, 1.1, 1.2):
            res = sweep(MarketSpec(claim=Normal(gamma, NU), asset=Normal(MU, SIGMA),
                                   w=0.0, eta=ETA), VAR_005, [0.0, 0.5], **MC)
            vals.append(res.rows[1].v0)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_premium_drops_when_asset_improves(self):
        # pathwise-dominating asset, same scenarios, mean mixed return
        # still below 1 + eta: the premium cannot rise
        scen = generate_scenarios(200_000, seed=17)
        claim = lognormal_from_moments(1.0, 0.3)
        base_asset = lognormal_from_moments(1.02, 0.2)
        rows = []
        for asset in (base_asset, scaled(base_asset, 1.02)):
            market = MarketSpec(claim=claim, asset=asset, w=0.8, eta=ETA)
            assert market.z_mean <= 1.0 + ETA
            rep = solve_at(market, VAR_005, scen)
            rows.append(mc_valuation(rep, market, VAR_005))
        assert rows[1].v0 <= rows[0].v0


# Normal assets beside the figures' N(1.05, 0.2): one so volatile that the
# high weights have no root, one whose mixed mean return 1 - 1.5 w falls
# to zero and below (gap rows from w = 0.496 on under VaR 0.005).
VOLATILE_ASSET = Normal(1.3, 0.9)
SINKING_ASSET = Normal(-0.5, 0.2)
ES_001 = RiskMeasure("es", 0.01)


def _bits(res) -> dict:
    # every field, floats by their exact bits (hex tells -0.0 from 0.0)
    return {k: v.hex() if isinstance(v, float) else v for k, v in vars(res).items()}


class TestNormalModelPath:
    @pytest.mark.parametrize("rm", [VAR_005, ES_001], ids=["var", "es"])
    @pytest.mark.parametrize("asset", [Normal(MU, SIGMA), VOLATILE_ASSET, SINKING_ASSET],
                             ids=["figure", "volatile", "sinking"])
    def test_sweep_rows_are_value_market_bit_for_bit(self, asset, rm):
        market = FIG_MARKET.replace(asset=asset)
        grid = w_grid()
        res = sweep(market, rm, grid, **MC)
        gaps = []
        for w, row in zip(grid, res.rows):
            try:
                single = value_market(market.replace(w=float(w)), rm, **MC)
            except NoSolutionError:
                assert row is None, w
                gaps.append(float(w))
                continue
            assert row is not None, w
            assert _bits(row) == _bits(single), w
        # w = 0 is the sure return Z = 1 (sigma_w = 0)
        assert res.rows[0] is not None and res.rows[0].r0_method == "closed_form"
        if asset == Normal(MU, SIGMA):
            assert gaps == []
        else:
            # the gaps are a tail of the grid: the risk charge outgrows the mean
            assert gaps and gaps == [float(w) for w in grid[-len(gaps):]]
        if asset == SINKING_ASSET:
            assert any(w * asset.mean + 1.0 - w <= 0.0 for w in gaps)

    @pytest.mark.parametrize("rm", [VAR_005, ES_001], ids=["var", "es"])
    def test_gaussian_constants_once_per_grid(self, rm, monkeypatch):
        # the regression guard of the grid-wide closed form: the normal
        # quantile behind the measure's constant runs a fixed number of
        # times per sweep, however many weights the grid has
        real = distributions.standard_normal_quantile
        calls = []

        def counting(p):
            calls.append(p)
            return real(p)

        modules = [cocval, *(getattr(cocval, name) for name in
                             ("distributions", "risk_measures", "capital_solver",
                              "valuation", "analysis"))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
        counts = []
        for step in (0.1, 0.001):
            calls.clear()
            res = sweep(FIG_MARKET, rm, w_grid(step), **MC)
            assert all(row is not None for row in res.rows)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


    @pytest.mark.parametrize("rm", [VAR_005, ES_001], ids=["var", "es"])
    def test_no_solve_report_per_weight(self, rm, monkeypatch):
        # the cost guard of the normal model's rows: a weight builds its
        # ValuationResult and no SolveReport, however many weights the grid has
        real, made = SolveReport.__init__, []

        def counting(self, *args, **kwargs):
            made.append(args or kwargs)
            real(self, *args, **kwargs)

        monkeypatch.setattr(SolveReport, "__init__", counting)
        counts = []
        for step in (0.1, 0.001):
            made.clear()
            res = sweep(FIG_MARKET, rm, w_grid(step), **MC)
            assert len(res.rows) == round(1 / step) + 1
            assert all(row is not None for row in res.rows)
            counts.append(len(made))
        assert counts == [0, 0]
        SolveReport(r0=1.0, residual=0.0, iterations=0)
        assert len(made) == 1  # the count sees a report that is built


class TestMcSweep:
    def test_degenerate_asset_keeps_riskless_weight(self):
        market = MarketSpec(claim=lognormal_from_moments(1.0, 0.3),
                            asset=Degenerate(1.0), w=0.0, eta=ETA)
        res = sweep(market, VAR_005, w_grid(0.25), mc_n=20_000, seed=3)
        r0s = [row.r0 for row in res.rows]
        assert all(r == r0s[0] for r in r0s)
        assert res.w_star == 0.0  # ties resolve to the smallest weight

    def test_heavier_tails_shift_weights_up(self):
        # lognormal model with matched moments allows more risky
        # investment than the normal model
        market = MarketSpec(claim=lognormal_from_moments(1.0, 0.3),
                            asset=lognormal_from_moments(1.05, 0.2), w=0.0, eta=ETA)
        res = sweep(market, VAR_005, w_grid(0.02), mc_n=200_000, seed=2)
        gauss = sweep(FIG_MARKET, VAR_005, w_grid(0.02), **MC)
        assert res.w_star > gauss.w_star
        assert res.w_hat_numeric > gauss.w_hat_closed

    def test_mc_matches_closed_forms_on_gaussian_market(self):
        scen = generate_scenarios(200_000, seed=5)
        closed = sweep(FIG_MARKET, VAR_005, [0.0, 0.25, 0.5], **MC)
        for w, cf_row in zip(closed.grid, closed.rows):
            market = FIG_MARKET.replace(w=float(w))
            rep = solve_at(market, VAR_005, scen)
            mc_row = mc_valuation(rep, market, VAR_005)
            assert mc_row.r0_se is not None
            assert abs(mc_row.r0 - cf_row.r0) < 4 * mc_row.r0_se
            # the valuation inherits the root's noise on top of its own
            c0_band = 4 * (mc_row.c0_se + mc_row.r0_se)
            assert abs(mc_row.c0 - cf_row.c0) < c0_band

    def test_reproducible_and_seed_stable(self):
        market = MarketSpec(claim=lognormal_from_moments(1.0, 0.3),
                            asset=lognormal_from_moments(1.05, 0.2), w=0.0, eta=ETA)
        grid = [0.0, 0.5, 1.0]
        a = sweep(market, VAR_005, grid, mc_n=100_000, seed=9)
        b = sweep(market, VAR_005, grid, mc_n=100_000, seed=9)
        c = sweep(market, VAR_005, grid, mc_n=100_000, seed=10)
        for ra, rb, rc in zip(a.rows, b.rows, c.rows):
            assert ra.r0 == rb.r0 and ra.c0 == rb.c0  # bit-stable rerun
            assert abs(ra.r0 - rc.r0) < 4 * math.hypot(ra.r0_se, rc.r0_se)
            assert abs(ra.c0 - rc.c0) < 4 * math.hypot(ra.c0_se, rc.c0_se)

    def test_infeasible_rows_flagged(self):
        # an asset so volatile that large weights admit no solution
        market = MarketSpec(claim=lognormal_from_moments(1.0, 0.3),
                            asset=Normal(1.0, 3.0), w=0.0, eta=ETA)
        res = sweep(market, VAR_005, w_grid(0.25), mc_n=50_000, seed=13)
        assert res.rows[0] is not None
        assert any(row is None for row in res.rows)
        feasible = [row for row in res.rows if row is not None]
        assert 0 < len(feasible) < len(res.rows)


class TestCsv:
    def test_schema_and_summary(self):
        res = sweep(FIG_MARKET, VAR_005, w_grid(0.5), **MC)
        buf = io.StringIO()
        res.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "w,r0,c0,v0,v0_upper,v0_lower,llo,r0_se,c0_se,v0_se"
        assert len(lines) == 1 + 3 + 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(1.7727487910646702, rel=1e-12)
        assert first[7] == ""  # closed forms carry no standard errors
        assert lines[-3].startswith("# w_star,")
        assert lines[-2].startswith("# w_hat_numeric,")
        assert lines[-1].startswith("# w_hat_closed,")

    def test_fifteen_digit_round_trip(self):
        res = sweep(FIG_MARKET, VAR_005, [0.0, 0.5, 1.0], **MC)
        buf = io.StringIO()
        res.write_csv(buf)
        body = [ln for ln in buf.getvalue().splitlines() if ln and not ln.startswith(("w,", "#"))]
        for line, row in zip(body, res.rows):
            assert float(line.split(",")[1]) == pytest.approx(row.r0, rel=1e-14)


def _old_cell(v) -> str:
    # the cell rule through ``format(float(v), ".15g")``, the reference of
    # ``_csv_line``, which formats numbers with ``"%.15g" % v``
    return "" if v is None else format(float(v), ".15g") if isinstance(v, (int, float)) else str(v)


# ±0, ±inf, nan, subnormals and the extremes, bools, ints, numpy scalars
# (np.float64 is a float subclass, the others are not) and labels
SPECIAL_CELLS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.225073858507201e-308,
                 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e15, 1e16, 123456789.0,
                 True, False, 0, -7, 2 ** 62, np.float64(0.1), np.float64(-0.0),
                 np.float32(0.1), np.int64(3), np.bool_(True), None, "# w_star", "closed_form"]


class TestCellRule:
    @pytest.mark.parametrize("value", SPECIAL_CELLS, ids=repr)
    def test_special_values(self, value):
        assert analysis._csv_line([value, value]) == f"{_old_cell(value)},{_old_cell(value)}"

    @given(st.lists(st.floats() | st.integers(-2 ** 63, 2 ** 63) | st.booleans() | st.none()
                    | st.integers(0, 2 ** 64 - 1).map(
                        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
                    max_size=12))
    @settings(max_examples=500, deadline=None)
    def test_random_values(self, values):
        assert analysis._csv_line(values) == ",".join(map(_old_cell, values))
