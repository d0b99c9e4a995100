"""Capital requirement solvers: closed forms against exact empirical roots."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cocval import capital_solver, montecarlo
from cocval.analysis import w_grid
from cocval.capital_solver import LossSummary, solve_r0_numeric
from cocval.distributions import (
    Degenerate,
    Lognormal,
    Normal,
    lognormal_from_moments,
    pareto_from_mean_beta,
)
from cocval.market import (
    MarketSpec,
    NoSolutionError,
    SolveReport,
    _solve_r0_gaussian,
    gaussian_hedged_risk,
    solve_r0_lognormal_var,
)
from cocval.risk_measures import (RiskMeasure, es_multiplier, tail_count, var_empirical,
                                  var_multiplier)
from cocval.valuation import value_gaussian_var

from helpers import (gaussian_r0_se_var, generate_scenarios, reference_prune,
                     reference_ratio_std_error, reference_root_std_error, reference_var_root,
                     samples, scaled, solve_at)

FIG_GAMMA, FIG_NU, FIG_MU, FIG_SIGMA = 1.0, 0.3, 1.05, 0.2
ALPHA = 0.005


@pytest.fixture(scope="class")
def positives_kept():
    """Have each ``LossSummary.of`` also keep a copy of the positive
    losses it sums, as ``.positive``, for tests that check them exactly."""
    of = LossSummary.of.__func__

    def keep(cls, n, mean, var, positive):
        summary = of(cls, n, mean, var, positive)
        object.__setattr__(summary, "positive", positive.copy())
        return summary

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LossSummary, "of", classmethod(keep))
        yield


def gaussian_root(kind, gamma, nu, mu, sigma, alpha):
    """The normal model's closed-form capital requirement under VaR or ES,
    as ``.r0`` and its ``.residual``."""
    r0, residual = _solve_r0_gaussian(gamma, nu, mu, sigma, RiskMeasure(kind, alpha).multiplier)
    return SimpleNamespace(r0=r0, residual=residual)


def rational_r0_var(gamma, nu, mu, sigma, alpha):
    # The Gaussian VaR root in its equivalent rational form, an oracle
    # for the solver's quadratic-formula form; valid for gamma > nu * m.
    m = var_multiplier(alpha)
    disc = gamma ** 2 * sigma ** 2 + nu ** 2 * (mu ** 2 - sigma ** 2 * m ** 2)
    return (gamma ** 2 - nu ** 2 * m ** 2) / (mu * gamma - m * math.sqrt(disc))


class TestGaussianVar:
    def test_riskless_reduction(self):
        rep = gaussian_root("var", 1.0, 0.3, 1.0, 0.0, ALPHA)
        assert value_gaussian_var(1.0, 0.3, 1.0, 0.0, ALPHA, 0.06).r0_method == "closed_form"
        assert rep.r0 == pytest.approx(1.0 + 0.3 * var_multiplier(ALPHA), rel=1e-14)
        assert rep.r0 == pytest.approx(1.77274879, abs=1e-7)
        assert abs(rep.residual) < 1e-12

    def test_degenerate_branch_matches_formula_limit(self):
        # sigma -> 0 in the closed form tends to (gamma + nu m) / mu
        rep0 = gaussian_root("var", 1.0, 0.3, 1.05, 0.0, ALPHA)
        rep_eps = gaussian_root("var", 1.0, 0.3, 1.05, 1e-9, ALPHA)
        assert rep0.r0 == pytest.approx(rep_eps.r0, rel=1e-9)

    def test_fig_parameters_value(self):
        rep = gaussian_root("var", FIG_GAMMA, FIG_NU, FIG_MU, FIG_SIGMA, ALPHA)
        assert rep.r0 == pytest.approx(2.2994, abs=1e-3)
        assert abs(rep.residual) < 1e-10 * rep.r0

    def test_against_mc_bisection_oracle(self):
        # the large-sample empirical root lies within 3 SE of the closed form
        n = 10 ** 7
        scen = generate_scenarios(n, seed=101)
        market = MarketSpec(claim=Normal(FIG_GAMMA, FIG_NU),
                            asset=Normal(FIG_MU, FIG_SIGMA), w=1.0, eta=0.06)
        rm = RiskMeasure("var", ALPHA)
        mc = solve_at(market, rm, scen)
        closed = gaussian_root("var", FIG_GAMMA, FIG_NU, FIG_MU, FIG_SIGMA, ALPHA)
        se = gaussian_r0_se_var(closed.r0, FIG_GAMMA, FIG_NU, FIG_MU, FIG_SIGMA, ALPHA, n)
        assert abs(mc.r0 - closed.r0) < 3 * se

    def test_no_solution_branch(self):
        # mu below its risk charge (0.2 * 2.5758 = 0.515)
        with pytest.raises(NoSolutionError):
            gaussian_root("var", 1.0, 0.3, 0.5, 0.2, ALPHA)

    @pytest.mark.parametrize("mu, sigma", [(0.0, 0.0), (-0.5, 0.0), (0.0, 0.2), (-0.2, 0.16)])
    @pytest.mark.parametrize("kind", ["var", "es"],
                             ids=["solve_r0_gaussian_var", "solve_r0_gaussian_es"])
    def test_nonpositive_mean_return_has_no_solution(self, kind, mu, sigma):
        # a sure or risky return with mean <= 0 is a market with no
        # acceptable capital level, not bad input
        with pytest.raises(NoSolutionError):
            gaussian_root(kind, 1.0, 0.3, mu, sigma, ALPHA)

    @pytest.mark.parametrize("gamma, nu, sigma", [(0.0, 0.3, 0.2), (-1.0, 0.3, 0.2),
                                                  (1.0, 0.0, 0.2), (1.0, 0.3, -0.1)])
    def test_bad_parameters_are_value_errors(self, gamma, nu, sigma):
        with pytest.raises(ValueError):
            gaussian_root("var", gamma, nu, 1.05, sigma, ALPHA)

    def test_equivalent_form_agreement(self):
        for mu, sigma in [(1.05, 0.2), (1.02, 0.1), (1.3, 0.35)]:
            direct = gaussian_root("var", 1.0, 0.3, mu, sigma, ALPHA).r0
            stable = rational_r0_var(1.0, 0.3, mu, sigma, ALPHA)
            assert stable == pytest.approx(direct, rel=1e-10)

    def test_residual_is_hedged_risk(self):
        rep = gaussian_root("var", FIG_GAMMA, FIG_NU, FIG_MU, FIG_SIGMA, ALPHA)
        direct = gaussian_hedged_risk(rep.r0, FIG_GAMMA, FIG_NU, FIG_MU, FIG_SIGMA,
                                      var_multiplier(ALPHA))
        assert rep.residual == direct

    def test_hedged_risk_is_var_of_net_worth_parameters(self):
        # r Z - X is normal with mean r mu - gamma and the combined sd,
        # so the normal VaR -mean + sd m must reproduce the hedged-risk form
        r = 2.1
        mean = r * FIG_MU - FIG_GAMMA
        sd = math.hypot(r * FIG_SIGMA, FIG_NU)
        assert -mean + sd * var_multiplier(ALPHA) == pytest.approx(
            gaussian_hedged_risk(r, FIG_GAMMA, FIG_NU, FIG_MU, FIG_SIGMA,
                                 var_multiplier(ALPHA)), rel=1e-14)

    def test_scaling_equivariance_exact_to_float(self):
        base = gaussian_root("var", 1.0, 0.3, 1.05, 0.2, ALPHA).r0
        for a in (0.5, 2.0, 7.3):
            scaled = gaussian_root("var", a * 1.0, a * 0.3, 1.05, 0.2, ALPHA).r0
            assert scaled == pytest.approx(a * base, rel=5e-14)

    def test_monotone_in_parameters(self):
        base = gaussian_root("var", 1.0, 0.3, 1.05, 0.2, ALPHA).r0
        eps = 1e-6
        assert gaussian_root("var", 1.0 + eps, 0.3, 1.05, 0.2, ALPHA).r0 > base
        assert gaussian_root("var", 1.0, 0.3 + eps, 1.05, 0.2, ALPHA).r0 > base
        assert gaussian_root("var", 1.0, 0.3, 1.05 + eps, 0.2, ALPHA).r0 < base
        assert gaussian_root("var", 1.0, 0.3, 1.05, 0.2 + eps, ALPHA).r0 > base


class TestGaussianVarRandomized:
    @given(gamma=st.floats(0.5, 3.0), nu=st.floats(0.05, 0.8),
           mu=st.floats(1.0, 1.5), sigma=st.floats(0.0, 0.3),
           alpha=st.floats(0.001, 0.25))
    @settings(max_examples=300, deadline=None)
    def test_root_and_structure(self, gamma, nu, mu, sigma, alpha):
        m = var_multiplier(alpha)
        if mu <= sigma * m:
            with pytest.raises(NoSolutionError):
                gaussian_root("var", gamma, nu, mu, sigma, alpha)
            return
        rep = gaussian_root("var", gamma, nu, mu, sigma, alpha)
        assert rep.r0 > 0
        # the returned level really zeroes the hedged risk
        assert abs(rep.residual) <= 1e-10 * max(1.0, rep.r0)
        # and matches the equivalent rational form on its domain
        if gamma > nu * m * (1 + 1e-9):
            assert rational_r0_var(gamma, nu, mu, sigma, alpha) == pytest.approx(
                rep.r0, rel=1e-9)

    @given(gamma=st.floats(0.5, 3.0), nu=st.floats(0.05, 0.8),
           mu=st.floats(1.0, 1.5), sigma=st.floats(0.01, 0.3),
           alpha=st.floats(0.001, 0.25))
    @settings(max_examples=200, deadline=None)
    def test_es_requires_more_capital(self, gamma, nu, mu, sigma, alpha):
        if mu <= sigma * es_multiplier(alpha):
            return
        var_rep = gaussian_root("var", gamma, nu, mu, sigma, alpha)
        es_rep = gaussian_root("es", gamma, nu, mu, sigma, alpha)
        assert es_rep.r0 > var_rep.r0


class TestGaussianEs:
    def test_riskless_reduction(self):
        rep = gaussian_root("es", 1.0, 0.3, 1.0, 0.0, 0.01)
        assert rep.r0 == pytest.approx(1.0 + 0.3 * es_multiplier(0.01), rel=1e-14)

    def test_dominates_var_at_equal_alpha(self):
        var_rep = gaussian_root("var", 1.0, 0.3, 1.05, 0.2, 0.01)
        es_rep = gaussian_root("es", 1.0, 0.3, 1.05, 0.2, 0.01)
        assert es_rep.r0 > var_rep.r0

    def test_no_solution_branch(self):
        # risk charge 0.2 * es_multiplier(0.01) is about 0.533
        with pytest.raises(NoSolutionError):
            gaussian_root("es", 1.0, 0.3, 0.5, 0.2, 0.01)

    def test_against_mc_bisection(self):
        n = 10 ** 6
        scen = generate_scenarios(n, seed=77)
        market = MarketSpec(claim=Normal(1.0, 0.3), asset=Normal(1.05, 0.2), w=1.0, eta=0.06)
        rm = RiskMeasure("es", 0.01)
        mc = solve_at(market, rm, scen)
        closed = gaussian_root("es", 1.0, 0.3, 1.05, 0.2, 0.01)
        from helpers import gaussian_r0_se_es
        se = gaussian_r0_se_es(closed.r0, 1.0, 0.3, 1.05, 0.2, 0.01, n)
        assert abs(mc.r0 - closed.r0) < 3 * se


class TestLognormalVar:
    def test_riskless_is_claim_quantile(self):
        claim = lognormal_from_moments(1.0, 0.3)
        rep = solve_r0_lognormal_var(claim.mu_log, claim.sd_log, 0.0, 0.0, ALPHA)
        assert rep.r0 == pytest.approx(float(claim.quantile(1 - ALPHA)), rel=1e-12)

    def test_matched_parameters_against_mc(self):
        claim = lognormal_from_moments(1.0, 0.3)
        asset = lognormal_from_moments(1.05, 0.2)
        assert claim.mu_log == pytest.approx(-0.043089, abs=1e-6)
        assert claim.sd_log == pytest.approx(0.29356, abs=1e-5)
        rep = solve_r0_lognormal_var(claim.mu_log, claim.sd_log,
                                     asset.mu_log, asset.sd_log, ALPHA)
        scen = generate_scenarios(10 ** 6, seed=31)
        market = MarketSpec(claim=claim, asset=asset, w=1.0, eta=0.06)
        mc = solve_at(market, RiskMeasure("var", ALPHA), scen)
        assert mc.std_error is not None
        assert abs(mc.r0 - rep.r0) < 3 * mc.std_error

    def test_claim_scaling(self):
        claim = lognormal_from_moments(1.0, 0.3)
        base = solve_r0_lognormal_var(claim.mu_log, claim.sd_log, 0.01, 0.18, ALPHA).r0
        for a in (0.5, 3.0):
            scaled = solve_r0_lognormal_var(claim.mu_log + math.log(a), claim.sd_log,
                                            0.01, 0.18, ALPHA).r0
            assert scaled == pytest.approx(a * base, rel=1e-12)


class TestNumericSolver:
    def test_riskless_bond_returns_empirical_requirement(self):
        scen = generate_scenarios(50_000, seed=3)
        claim = lognormal_from_moments(1.0, 0.3)
        market = MarketSpec(claim=claim, asset=Degenerate(1.0), w=1.0, eta=0.06)
        rm = RiskMeasure("var", ALPHA)
        rep = solve_at(market, rm, scen)
        x = market.claim.sample(scen.u_claim)
        assert rep.r0 == var_empirical(-x, ALPHA)
        assert rep.residual == 0.0

    def test_w_zero_equals_degenerate_asset(self):
        scen = generate_scenarios(50_000, seed=3)
        claim = lognormal_from_moments(1.0, 0.3)
        rm = RiskMeasure("var", ALPHA)
        via_w = solve_at(MarketSpec(claim=claim, asset=Normal(1.05, 0.2), w=0.0, eta=0.06),
                         rm, scen)
        via_asset = solve_at(MarketSpec(claim=claim, asset=Degenerate(1.0), w=0.7, eta=0.06),
                             rm, scen)
        assert via_w.r0 == via_asset.r0

    def test_gaussian_mixture_against_closed_form(self):
        n = 10 ** 6
        scen = generate_scenarios(n, seed=41)
        market = MarketSpec(claim=Normal(FIG_GAMMA, FIG_NU),
                            asset=Normal(FIG_MU, FIG_SIGMA), w=0.5, eta=0.06)
        rm = RiskMeasure("var", ALPHA)
        mc = solve_at(market, rm, scen)
        mu_w, sigma_w = 0.5 * FIG_MU + 0.5, 0.5 * FIG_SIGMA
        closed = gaussian_root("var", FIG_GAMMA, FIG_NU, mu_w, sigma_w, ALPHA)
        se = gaussian_r0_se_var(closed.r0, FIG_GAMMA, FIG_NU, mu_w, sigma_w, ALPHA, n)
        assert abs(mc.r0 - closed.r0) < 3 * se
        assert mc.method == "empirical_root"
        assert mc.iterations == 1

    def test_pareto_riskless_quantile(self):
        # heavy-tail benchmark near 7.07 times the expected claim
        n = 10 ** 6
        scen = generate_scenarios(n, seed=53)
        claim = pareto_from_mean_beta(1.0, 2.0)
        market = MarketSpec(claim=claim, asset=Degenerate(1.0), w=0.0, eta=0.06)
        rep = solve_at(market, RiskMeasure("var", ALPHA), scen)
        assert rep.std_error is not None
        assert abs(rep.r0 - 7.0710678) < 4 * rep.std_error
        assert rep.std_error < 0.1

    def test_residual_at_round_off(self):
        # the residual is the measure itself at the root, and zero to round-off
        scen = generate_scenarios(200_000, seed=61)
        claim = lognormal_from_moments(1.0, 0.3)
        asset = lognormal_from_moments(1.05, 0.2)
        market = MarketSpec(claim=claim, asset=asset, w=0.6, eta=0.06)
        x, s = samples(market, scen)
        z = 0.6 * s + 0.4
        for rm, selections in ((RiskMeasure("var", ALPHA), (1, 1)),
                               (RiskMeasure("es", 0.01), (2, 8))):
            rep = solve_at(market, rm, scen)
            assert rep.residual == rm.empirical(rep.r0 * z - x)
            assert abs(rep.residual) <= 1e-13 * rep.r0
            assert selections[0] <= rep.iterations <= selections[1]

    def test_scaling_equivariance_shared_scenarios(self):
        scen = generate_scenarios(100_000, seed=71)
        claim = lognormal_from_moments(1.0, 0.3)
        asset = lognormal_from_moments(1.05, 0.2)
        market = MarketSpec(claim=claim, asset=asset, w=0.5, eta=0.06)
        x, s = samples(market, scen)
        for rm in (RiskMeasure("var", ALPHA), RiskMeasure("es", 0.01)):
            base = solve_at(market, rm, claims=x, assets=s)
            # exactly scaled claim data reproduces the solve path bit for
            # bit whenever the scale is a power of two
            for a in (0.25, 2.0, 8.0):
                rep = solve_at(MarketSpec(claim=scaled(claim, a), asset=asset, w=0.5, eta=0.06),
                               rm, claims=a * x, assets=s)
                assert rep.r0 == a * base.r0
                assert rep.residual == a * base.residual
            rep = solve_at(MarketSpec(claim=scaled(claim, 3.7), asset=asset, w=0.5, eta=0.06),
                           rm, claims=3.7 * x, assets=s)
            assert rep.r0 == pytest.approx(3.7 * base.r0, rel=1e-12)

    def test_claim_shift_monotonicity_shared_scenarios(self):
        # first-order dominance at fixed scenarios: bigger claims, more capital
        scen = generate_scenarios(100_000, seed=73)
        rm = RiskMeasure("var", 0.01)
        asset = lognormal_from_moments(1.05, 0.2)
        claim = Normal(1.0, 0.3)
        base = solve_at(MarketSpec(claim=claim, asset=asset, w=0.4, eta=0.06), rm, scen)
        shifted = solve_at(MarketSpec(claim=Normal(1.2, 0.3), asset=asset, w=0.4, eta=0.06),
                           rm, scen)
        assert shifted.r0 > base.r0

    def test_asset_shift_monotonicity_shared_scenarios(self):
        scen = generate_scenarios(100_000, seed=73)
        rm = RiskMeasure("var", 0.01)
        claim = Normal(1.0, 0.3)
        base = solve_at(MarketSpec(claim=claim, asset=Lognormal(0.02, 0.18), w=0.8, eta=0.06),
                        rm, scen)
        richer = solve_at(MarketSpec(claim=claim, asset=Lognormal(0.08, 0.18), w=0.8, eta=0.06),
                          rm, scen)
        assert richer.r0 < base.r0

    def test_es_path(self):
        scen = generate_scenarios(200_000, seed=83)
        claim = lognormal_from_moments(1.0, 0.3)
        asset = lognormal_from_moments(1.05, 0.2)
        market = MarketSpec(claim=claim, asset=asset, w=0.5, eta=0.06)
        var_rep = solve_at(market, RiskMeasure("var", 0.01), scen)
        es_rep = solve_at(market, RiskMeasure("es", 0.01), scen)
        assert es_rep.r0 > var_rep.r0

    def test_no_solution_when_claim_acceptable(self):
        scen = generate_scenarios(10_000, seed=5)
        market = MarketSpec(claim=Normal(-2.0, 0.1), asset=Lognormal(0.05, 0.2),
                            w=0.5, eta=0.06)
        with pytest.raises(NoSolutionError):
            solve_at(market, RiskMeasure("var", 0.01), scen)

    def test_market_spec_validation(self):
        claim = Normal(1.0, 0.3)
        with pytest.raises(ValueError):
            MarketSpec(claim=claim, asset=Normal(1.05, 0.2), w=1.5, eta=0.06)
        with pytest.raises(ValueError):
            MarketSpec(claim=claim, asset=Normal(1.05, 0.2), w=0.5, eta=0.0)


@st.composite
def tiny_samples(draw):
    """Claims X, returns Z and a tail level alpha with k = floor(alpha n) >= 1.

    Quarter-integer claims and eighth-integer returns: distinct ratios X/Z
    then differ far above round-off, so a brute-force scan can tell the
    root from its neighbours.  About one return in twenty is <= 0, and
    claims are nonnegative there, which keeps the VaR criterion monotone.
    """
    n = draw(st.integers(3, 64))
    k = draw(st.integers(1, (n - 1) // 2))
    alpha = (k + draw(st.sampled_from([0.0, 0.5]))) / n
    assume(alpha < 0.5)
    z = np.array(draw(st.lists(st.integers(-1, 40), min_size=n, max_size=n))) / 8.0
    x = np.array(draw(st.lists(st.integers(-16, 64), min_size=n, max_size=n))) / 4.0
    return np.where(z <= 0.0, np.abs(x), x), z, alpha


def solve_on(x, z, rm):
    # w = 1 with a non-degenerate asset makes Z the given returns exactly
    market = MarketSpec(claim=Normal(1.0, 0.3), asset=Normal(1.0, 0.3), w=1.0, eta=0.06)
    return solve_at(market, rm, claims=x, assets=z)


class TestExactRootsBruteForce:
    @given(sample=tiny_samples())
    @settings(max_examples=300, deadline=None)
    def test_var_root_is_smallest_acceptable_ratio(self, sample):
        x, z, alpha = sample
        rm = RiskMeasure("var", alpha)
        tol = 1e-12 * max(1.0, float(np.abs(x).max()))

        def acceptable(r):
            return rm.empirical(r * z - x) <= tol

        candidates = np.unique(x[z > 0] / z[z > 0])
        positive = candidates[candidates > 0]
        try:
            rep = solve_on(x, z, rm)
        except NoSolutionError:
            # either zero capital suffices or no capital level does
            probe = [float(positive.min()) / 2 if positive.size else 1.0,
                     *positive, 2.0 * float(np.abs(candidates).max(initial=1.0))]
            flags = [acceptable(r) for r in probe]
            assert all(flags) or not any(flags)
            return
        assert rep.r0 in positive
        assert acceptable(rep.r0)
        assert not any(acceptable(c) for c in positive[positive < rep.r0])
        assert rep.iterations == 1

    @given(sample=tiny_samples())
    @settings(max_examples=300, deadline=None)
    def test_es_root_zeroes_the_shortfall(self, sample):
        x, z, alpha = sample
        rm = RiskMeasure("es", alpha)
        scale = max(1.0, float(np.abs(x).max()))

        def es(r):
            return rm.empirical(r * z - x)

        try:
            rep = solve_on(x, z, rm)
        except NoSolutionError:
            # ES is convex and linear between the levels where two losses
            # cross; without a positive root it is positive at every such
            # level and does not fall beyond the last one
            if es(0.0) <= 0.0:
                return
            dz = z[:, None] - z[None, :]
            with np.errstate(divide="ignore", invalid="ignore"):
                kinks = (x[:, None] - x[None, :]) / dz
            kinks = np.unique(kinks[(dz != 0) & (kinks > 0)])
            far = 2.0 * float(kinks.max(initial=1.0))
            assert all(es(r) > 0.0 for r in kinks)
            assert 0.0 < es(far) <= es(2.0 * far) + 1e-12 * scale * far
            return
        assert rep.r0 > 0.0
        assert abs(es(rep.r0)) <= 1e-12 * scale
        assert rep.residual == es(rep.r0)
        assert es(rep.r0 * (1.0 - 1e-9)) > 0.0

    @pytest.mark.parametrize("kind", ["var", "es"])
    def test_unresolved_tail_rejected(self, kind):
        # alpha n = 0.5: no scenario lies in the tail
        x = np.linspace(1.0, 2.0, 100)
        with pytest.raises(ValueError, match="alpha"):
            solve_on(x, np.full(100, 1.05), RiskMeasure(kind, 0.005))

    @pytest.mark.parametrize("kind", ["var", "es"])
    def test_negative_claim_with_nonpositive_return(self, kind):
        # the loss x - r z of such a scenario grows with r, so the
        # criterion is not monotone; only zero capital can be decided
        x = np.linspace(1.0, 2.0, 100)
        z = np.full(100, 1.05)
        x[3], z[3] = -0.5, -0.1
        with pytest.raises(ValueError, match="negative claim"):
            solve_on(x, z, RiskMeasure(kind, 0.05))
        with pytest.raises(NoSolutionError, match="zero capital"):
            solve_on(x - 3.0, z, RiskMeasure(kind, 0.05))


@pytest.mark.usefixtures("positives_kept")
class TestStandardErrorSelection:
    @given(sample=tiny_samples(), kind=st.sampled_from(["var", "es"]), constant=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_std_error_matches_rebuild_reference(self, sample, kind, constant):
        x, z, alpha = sample
        rm = RiskMeasure(kind, alpha)
        try:
            if constant:  # a sure asset: Z = 1.25 whatever the asset samples
                z = np.full(x.size, 1.25)
                market = MarketSpec(claim=Normal(1.0, 0.3), asset=Degenerate(1.25), w=1.0,
                                    eta=0.06)
                rep = solve_at(market, rm, claims=x, assets=z)
            else:
                rep = solve_on(x, z, rm)
        except NoSolutionError:
            return
        want, var_at_root = reference_root_std_error(rm, z, x, rep.r0)
        losses = x - rep.r0 * z
        summary = rep.losses
        assert np.array_equal(np.sort(summary.positive), np.sort(losses[losses > 0.0]))
        assert summary == LossSummary.of(x.size, summary.mean, summary.var, summary.positive)
        assert summary.n == x.size
        scale = float(np.abs(losses).max()) + 1.0
        assert abs(summary.mean - losses.mean()) <= 1e-12 * scale
        assert abs(summary.var - losses.var(ddof=1)) <= 1e-12 * scale * scale
        if kind == "var":
            assert rep.residual == var_at_root
            assert rep.std_error == reference_ratio_std_error(rm, z, x)
        elif want is None:
            assert rep.std_error is None
        else:
            assert rep.std_error == pytest.approx(want, rel=1e-12)


@st.composite
def grid_markets(draw, kind="var"):
    """A market, a weight grid and a sample with k + 1 + m well below n,
    so the candidate set prunes.  Claims may tie (rounded to quarters),
    a normal asset has S <= 0 in a few percent of scenarios, a point-mass
    asset makes Z constant, and a grid may be w = 0 alone.  Under ES a
    grid may also have 3 weights, only a one-weight grid may be w = 0
    alone, and a volatile normal asset leaves the weights near 1 with no
    root."""
    n = draw(st.integers(300, 4000))
    alpha = draw(st.sampled_from([0.005, 0.01, 0.05]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    claim = draw(st.sampled_from(["lognormal", "pareto", "ties"]))
    x = {"lognormal": lambda: rng.lognormal(0.0, 0.3, n),
         "pareto": lambda: 0.5 * rng.pareto(draw(st.sampled_from([1.1, 2.0, 4.0])), n) + 0.5,
         "ties": lambda: np.round(4.0 * rng.lognormal(0.0, 0.3, n)) / 4.0}[claim]()
    assets = ["lognormal", "normal", "degenerate"] + (["volatile"] if kind == "es" else [])
    asset = draw(st.sampled_from(assets))
    s = {"lognormal": lambda: rng.lognormal(0.03, 0.2, n),
         "normal": lambda: rng.normal(1.05, 0.6, n),
         "degenerate": lambda: np.full(n, draw(st.sampled_from([0.5, 1.0, 1.02, 1.7]))),
         "volatile": lambda: rng.normal(1.0, 3.0, n)}[asset]()
    size = draw(st.sampled_from([1, 2, 11] if kind == "var" else [1, 2, 3, 11]))
    if (kind == "var" or size == 1) and draw(st.booleans()):
        grid = np.array([0.0])
    else:
        w_lo = draw(st.floats(0.0, 1.0 if kind == "var" else 0.9))
        gap = 0.0 if kind == "var" else 0.1  # ES ranges of some width, with interior weights
        w_hi = draw(st.floats(w_lo + gap, 1.0)) if size > 1 else w_lo
        grid = np.unique(np.linspace(w_lo, w_hi, size))
    return x, s, grid, RiskMeasure(kind, alpha)


class TestCandidateSet:
    """VaR roots selected on a sweep-wide candidate set against the
    full-sample selection of the parent solver."""

    @staticmethod
    def check_grid(x, s, grid, rm):
        reports = solve_r0_numeric(rm, x, s, grid)
        assert len(reports) == len(grid)
        k = tail_count(rm.alpha, x.size)
        for w, rep in zip(grid, reports):
            z = np.multiply(s, w) + (1.0 - w)
            try:
                want, _ = reference_var_root(x, z, k)
            except NoSolutionError:
                want = None
            if want is None or want <= 0.0:
                assert isinstance(rep, NoSolutionError), w
                continue
            assert rep.r0 == want, w
            assert rep.std_error == reference_ratio_std_error(rm, z, x), w
            assert rep.residual == rm.empirical(rep.r0 * z - x), w
        return capital_solver._candidate_set(rm, x, s, float(grid[0]), float(grid[-1]))

    @given(case=grid_markets())
    @settings(max_examples=150, deadline=None)
    def test_roots_bit_identical_to_full_selection(self, case):
        x, s, grid, rm = case
        cands = self.check_grid(x, s, grid, rm)
        assert cands.x.size <= x.size

    def test_default_grid_sweep(self):
        # fig3b's market on all 1001 weights of the default grid
        scen = generate_scenarios(20_000, seed=5)
        claim, asset = lognormal_from_moments(1.0, 0.3), lognormal_from_moments(1.05, 0.2)
        x, s = claim.sample(scen.u_claim), asset.sample(scen.u_asset)
        cands = self.check_grid(x, s, w_grid(), RiskMeasure("var", ALPHA))
        assert cands.x.size < x.size // 4

    def test_moments(self):
        scen = generate_scenarios(10_000, seed=9)
        x = pareto_from_mean_beta(1.0, 2.0).sample(scen.u_claim)
        s = lognormal_from_moments(1.05, 0.2).sample(scen.u_asset)
        cands = capital_solver._candidate_set(RiskMeasure("var", ALPHA), x, s, 0.0, 1.0)
        cov = np.cov(x, s)
        assert (cands.x_mean, cands.s_mean) == (x.mean(), s.mean())
        assert [cands.x_var, cands.s_var, cands.xs_cov] == pytest.approx(
            [cov[0, 0], cov[1, 1], cov[0, 1]], rel=1e-12)
        for r, w in ((2.0, 0.0), (2.5, 0.4), (3.0, 1.0)):
            losses = x - r * (np.multiply(s, w) + (1.0 - w))
            mean, var = cands.loss_moments(r, w)
            assert mean == pytest.approx(losses.mean(), rel=1e-12)
            assert var == pytest.approx(losses.var(ddof=1), rel=1e-12)

    def test_rejects_missing_asset_returns(self):
        scen = generate_scenarios(5_000, seed=3)
        market = MarketSpec(claim=lognormal_from_moments(1.0, 0.3),
                            asset=lognormal_from_moments(1.05, 0.2), w=0.8, eta=0.06)
        x, _ = samples(market, scen)
        for kind in ("var", "es"):
            with pytest.raises(ValueError, match="asset returns"):
                solve_r0_numeric(RiskMeasure(kind, ALPHA), x, None, [0.0, 0.5])

    @pytest.mark.parametrize("grid", [[], [0.5, 0.2], [0.2, 0.2], [-0.1, 0.5], [0.0, 1.5],
                                      [math.nan]])
    def test_rejects_bad_grids(self, grid):
        x = np.linspace(1.0, 2.0, 1000)
        with pytest.raises(ValueError, match="grid"):
            solve_r0_numeric(RiskMeasure("var", ALPHA), x, np.full(x.size, 1.05), grid)

    @pytest.mark.parametrize("kind", ["var", "es"])
    def test_w_zero_without_asset(self, kind):
        # with no asset sample, S = 1 stands in without being built
        x = pareto_from_mean_beta(1.0, 2.0).sample(generate_scenarios(20_000, seed=7).u_claim)
        rm = RiskMeasure(kind, 0.01)
        got = capital_solver._candidate_set(rm, x, None, 0.0, 0.0)
        want = capital_solver._candidate_set(rm, x, np.ones(x.size), 0.0, 0.0)
        for name, b in vars(want).items():
            a = getattr(got, name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            else:
                assert a == b, name
        assert got.x.size < x.size
        # and the w = 0 report
        [rep_a], [rep_b] = (solve_r0_numeric(rm, x, s, [0.0]) for s in (None, np.ones(x.size)))
        assert rep_a == rep_b
        assert rep_a.losses == rep_b.losses


ULP4 = 4.0 * np.finfo(float).eps


def assert_es_agrees(got, want, x, s, w, rm):
    # Within 4 ulp of the loss scale: the two roots in ES units (their gap
    # times the tail mean of Z, so a root where the ES is flat may move
    # more), and the residual against the full-sample ES at the root.  The
    # positive losses are those of the full sample at the root, exactly.
    # The root's error agrees to 4 ulp when the roots are equal; moving the
    # root moves every tail excess, and there the outputs' 1e-12 applies.
    z = np.multiply(s, w) + (1.0 - w)
    losses = x - got.r0 * z
    scale = float(np.abs(x).max() + got.r0 * np.abs(z).max())
    k = tail_count(rm.alpha, x.size)
    z_tail = float(z[np.argsort(x - want.r0 * z)[-k:]].mean())
    assert abs(got.r0 - want.r0) * z_tail <= ULP4 * scale, w
    assert abs(got.residual - rm.empirical(-losses)) <= ULP4 * scale, w
    assert np.array_equal(np.sort(got.losses.positive), np.sort(losses[losses > 0.0])), w
    if want.std_error is None:
        assert got.std_error is None, w
    else:
        rel = ULP4 if got.r0 == want.r0 else 1e-12
        assert abs(got.std_error - want.std_error) <= rel * want.std_error, w


def full_length_report(rm, x, s, w):
    """The ES report at weight w solved on all n scenarios, by the
    solver's rerun path from the VaR root; its ``NoSolutionError`` is
    raised."""
    c = capital_solver._candidate_set(rm, x, s, w, w)
    return capital_solver._es_report(c, w, x, s, capital_solver._var_root(c, w))[0]


def assert_same_report(got, want, w):
    # field by field, the positive losses too, apart from the selections a
    # different start takes
    assert got.replace(iterations=want.iterations) == want, w
    assert got.losses == want.losses, w
    assert np.array_equal(got.losses.positive, want.losses.positive), w


def polygons_of(rm, x, s, grid):
    """The grid solve, every kept set ``_polygon`` built for it, and the
    sizes of the scenario sets its Newton solves ran on."""
    built, sizes = [], []
    real_polygon, real_root = capital_solver._polygon, capital_solver._es_root

    def polygon(*args):
        built.append(real_polygon(*args))
        return built[-1]

    def root(x, *args):
        sizes.append(x.size)
        return real_root(x, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(capital_solver, "_polygon", polygon)
        patch.setattr(capital_solver, "_es_root", root)
        reports = solve_r0_numeric(rm, x, s, grid)
    return reports, built, sizes


def fig8b_sample(n, seed=5):
    scen = generate_scenarios(n, seed=seed)
    claim, asset = lognormal_from_moments(1.0, 0.3), lognormal_from_moments(1.05, 0.2)
    return claim.sample(scen.u_claim), asset.sample(scen.u_asset)


def solve_recording(rm, x, s, grid):
    """The grid solve, and the sizes of the scenario sets each weight's
    ``_es_report`` calls ran on, in call order."""
    sizes, report = {}, capital_solver._es_report

    def recorded(c, w, x, *args, **kwargs):
        sizes.setdefault(w, []).append(x.size)
        return report(c, w, x, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(capital_solver, "_es_report", recorded)
        return solve_r0_numeric(rm, x, s, grid), sizes


@pytest.mark.usefixtures("positives_kept")
class TestEsTriangle:
    """Every ES root of a grid, the end weights too, selected on the kept
    scenarios of the polygon between the ends' lower lines and upper
    levels, and the interior ones on those of the triangle between the
    end roots' tangents and chord, pruned from them, against the
    full-length Newton path of the solver's rerun."""

    @staticmethod
    def check_grid(x, s, grid, rm):
        reports, built, _ = polygons_of(rm, x, s, grid)
        for w, got in zip(grid, reports):
            try:
                want = full_length_report(rm, x, s, float(w))
            except NoSolutionError:
                assert isinstance(got, NoSolutionError), w
                continue
            assert_es_agrees(got, want, x, s, w, rm)
            if got.r0 == want.r0:  # the report is a function of the root's losses
                assert_same_report(got, want, w)
        # the grid's kept set, then at most the interior weights' out of it
        assert len(built) <= 1 + (len(grid) > 2)
        sizes = [x.size] + [kept_x.size for kept_x, _ in built]
        assert sizes == sorted(sizes, reverse=True)
        return built[-1] if built else None

    @given(case=grid_markets("es"))
    @settings(max_examples=150, deadline=None)
    def test_roots_agree_with_full_path(self, case):
        x, s, grid, rm = case
        self.check_grid(x, s, grid, rm)

    def test_default_grid_sweep(self):
        # fig8b's market on all 1001 weights of the default grid
        x, s = fig8b_sample(20_000)
        kept_x, _ = self.check_grid(x, s, w_grid(), RiskMeasure("es", 0.01))
        assert kept_x.size < x.size // 4

    def test_one_kept_set_for_every_grid(self):
        # fig8b's market: a grid of any length, the ends included, solves
        # on one kept set, its interior weights on a part of it, and no
        # Newton step runs on all scenarios
        x, s = fig8b_sample(20_000)
        rm = RiskMeasure("es", 0.01)
        for grid in ([0.0], [0.4], [1.0], [0.0, 1.0], [0.0, 0.5, 1.0]):
            reports, built, sizes = polygons_of(rm, x, s, grid)
            assert len(built) == 1 + (len(grid) > 2), grid
            first, last = built[0][0].size, built[-1][0].size
            assert first < x.size // 4 and last <= first, grid
            assert sizes == [first] * min(len(grid), 2) + [last] * (len(grid) - 2), grid
            assert all(isinstance(rep, SolveReport) for rep in reports), grid

    def test_no_solve_on_all_scenarios(self):
        # fig8b's market at n = 200 000 on the grid of step 0.1
        x, s = fig8b_sample(200_000)
        reports, built, sizes = polygons_of(RiskMeasure("es", 0.01), x, s, w_grid(0.1))
        assert all(isinstance(rep, SolveReport) for rep in reports)
        assert len(sizes) == 11 and max(sizes) < x.size // 10

    def test_dropped_scenarios_count_below_the_quantile(self):
        # 100 claims of 3 and an atom of 150 claims of 1, all with S = 1:
        # up to w = 1/16 the root is 2, the quantile lies in the atom, and
        # the atom fills the density window above it but not below, so
        # the root has an error only while the dropped scenarios count
        # below the quantile.  50 claims of 0.9 with S = 0.2 join the tail
        # beyond w = 1/16, which gives the two ends distinct lower lines.
        rng = np.random.default_rng(3)
        x = np.concatenate([np.full(100, 3.0), np.full(150, 1.0), np.full(50, 0.9),
                            0.5 + 0.005 * rng.standard_normal(3700)])
        s = np.concatenate([np.ones(250), np.full(50, 0.2), rng.lognormal(0.05, 0.1, 3700)])
        kept_x, _ = self.check_grid(x, s, w_grid(0.01), RiskMeasure("es", 0.05))
        assert kept_x.size < x.size // 4

    def test_root_above_the_upper_level_reruns_on_all_scenarios(self, monkeypatch):
        # each end's upper level shrunk below its root by more than the
        # margin: the end solves rerun, after a kept solve that climbs past
        # it where the lower line leaves room, and with no end root in the
        # polygon every interior weight reruns as well
        x, s = fig8b_sample(20_000)
        rm, grid = RiskMeasure("es", 0.01), w_grid(0.1)
        want = {float(w): full_length_report(rm, x, s, float(w)) for w in grid}
        real = capital_solver._end_bounds

        def shrunk(c, w, r_var, low_mean):
            line, upper = real(c, w, r_var, low_mean)
            assert want[w].r0 <= upper
            return line, want[w].r0 * (1.0 - 2.0 ** -38)

        monkeypatch.setattr(capital_solver, "_end_bounds", shrunk)
        got, sizes = solve_recording(rm, x, s, grid)
        assert sizes[grid[-1]][0] < x.size  # the kept solve at w = 1
        for w, rep in zip(grid, got):
            assert len(sizes[w]) <= 2 and sizes[w][-1] == x.size, w
            assert rep == want[w], w
            assert_same_report(rep, want[w], w)

    def test_leaving_the_chord_reruns_on_all_scenarios(self, monkeypatch):
        # the chord shrunk just below every interior root: each interior
        # solve climbs past it on the kept set and reruns on all scenarios
        x, s = fig8b_sample(20_000)
        rm, grid = RiskMeasure("es", 0.01), w_grid(0.1)
        want = {float(w): full_length_report(rm, x, s, float(w)) for w in grid}
        monkeypatch.setattr(capital_solver, "_chord",
                            lambda w, ends: want[w].r0 * (1.0 - 2.0 ** -41))
        got, sizes = solve_recording(rm, x, s, grid)
        for w, rep in zip(grid[1:-1], got[1:-1]):
            assert len(sizes[w]) == 2 and sizes[w][0] < x.size == sizes[w][1], w
            assert rep == want[w], w
            assert_same_report(rep, want[w], w)
        assert all(sizes[w] == [sizes[w][0]] and sizes[w][0] < x.size
                   for w in (grid[0], grid[-1]))


class TestRatioWindowStdError:
    """The ratio-window standard error of a VaR root against the parent's
    loss-window delta method, on fig3b's and fig15b's markets."""

    @pytest.mark.parametrize("claim", [lognormal_from_moments(1.0, 0.3),
                                       pareto_from_mean_beta(1.0, 1.1)],
                             ids=["fig3b", "fig15b"])
    def test_close_to_loss_window(self, claim):
        scen = generate_scenarios(10 ** 6, seed=1)
        asset = lognormal_from_moments(1.05, 0.2)
        x, s = claim.sample(scen.u_claim), asset.sample(scen.u_asset)
        rm = RiskMeasure("var", ALPHA)
        for w in (0.1, 0.5, 1.0):
            market = MarketSpec(claim=claim, asset=asset, w=w, eta=0.06)
            rep = solve_at(market, rm, claims=x, assets=s)
            loss_window, _ = reference_root_std_error(rm, w * s + (1.0 - w), x, rep.r0)
            assert rep.std_error == pytest.approx(loss_window, rel=0.02), w


@pytest.mark.usefixtures("positives_kept")
class TestBlockwisePasses:
    """The full-length passes of the candidate build and of the solves on
    all scenarios run in blocks in the calling thread, never on the
    sampler's thread pool; every report is the same, bit for bit, however
    many CPUs are usable."""

    @staticmethod
    def normal_asset_sample():
        # n = 300 000, above two chunks of ``montecarlo.MIN_CHUNK``; a normal
        # asset puts S <= 0 in some 70 scenarios
        scen = generate_scenarios(300_000, seed=4)
        claim, asset = lognormal_from_moments(1.0, 0.3), Normal(1.05, 0.3)
        x, s = claim.sample(scen.u_claim), asset.sample(scen.u_asset)
        assert np.any(s <= 0.0) and x.size > 2 * montecarlo.MIN_CHUNK
        return x, s

    @pytest.mark.parametrize("kind", ["var", "es"])
    def test_solver_never_touches_the_pool(self, monkeypatch, kind):
        # with two CPUs any hand-off to the pool raises; the chord at 0
        # sends every interior ES weight to a rerun on all scenarios
        x, s = self.normal_asset_sample()

        def no_pool():
            raise AssertionError("the solver used the thread pool")

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(montecarlo, "_executor", no_pool)
        monkeypatch.setattr(capital_solver, "_chord", lambda w, ends: 0.0)
        rm, grid = RiskMeasure(kind, 0.01), w_grid(0.1)
        got, sizes = solve_recording(rm, x, s, grid)
        assert all(isinstance(rep, SolveReport) for rep in got)
        if kind == "es":
            assert all(sizes[w] == [x.size] for w in grid[1:-1])

    @pytest.mark.parametrize("kind", ["var", "es"])
    def test_any_number_of_cpus(self, monkeypatch, kind):
        x, s = self.normal_asset_sample()
        rm, grid = RiskMeasure(kind, 0.01), w_grid(0.1)
        monkeypatch.setattr(montecarlo, "_pool", None)
        runs = []
        try:
            for cpus in (1, 2, 3):
                monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
                runs.append(solve_r0_numeric(rm, x, s, grid))
        finally:
            if montecarlo._pool is not None:
                montecarlo._pool.shutdown()
        want = runs[0]
        assert all(isinstance(rep, SolveReport) for rep in want)
        for got in runs[1:]:
            assert got == want
            for g, r in zip(got, want):
                assert g.losses == r.losses
                assert np.array_equal(g.losses.positive, r.losses.positive)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_moments_add_block_sums_in_order(self, monkeypatch, cpus):
        # the serial reference: pairwise sums within blocks of 2^16, added in order
        scen = generate_scenarios(300_000, seed=6)
        x = lognormal_from_moments(1.0, 0.3).sample(scen.u_claim)
        s = lognormal_from_moments(1.05, 0.2).sample(scen.u_asset)
        x_mean, s_mean = float(x.mean()), float(s.mean())
        sums = np.zeros(3)
        for i in range(0, x.size, 1 << 16):
            xc, sc = x[i:i + (1 << 16)] - x_mean, s[i:i + (1 << 16)] - s_mean
            sums += (np.square(xc).sum(), np.square(sc).sum(), (xc * sc).sum())
        monkeypatch.setattr(montecarlo, "_pool", None)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        try:
            c = capital_solver._candidate_set(RiskMeasure("var", ALPHA), x, s, 0.0, 1.0)
        finally:
            if montecarlo._pool is not None:
                montecarlo._pool.shutdown()
        assert [c.x_var, c.s_var, c.xs_cov] == (sums / (x.size - 1)).tolist()


@st.composite
def selection_cases(draw):
    """Values with ties (small integers), -inf and NaN entries, or all
    equal; a rank j up to n - 1; and a block length that may exceed n or
    not divide it."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["ties", "spread", "equal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "equal":
        values = np.full(n, draw(st.sampled_from([-np.inf, -1.5, 0.0, 2.0])))
    else:
        values = rng.integers(-5, 6, n).astype(float) if kind == "ties" else rng.normal(0.0, 1.0, n)
        for special in (-np.inf, np.nan):
            if draw(st.booleans()):
                values[rng.random(n) < draw(st.sampled_from([0.05, 0.5, 1.0]))] = special
    j = draw(st.one_of(st.just(n - 1), st.just(0), st.integers(0, n - 1)))
    block = draw(st.sampled_from([1, 2, 3, 7, 16, 64, 1 << 14]))
    return values, j, block


class TestStreamedSelection:
    """The (j+1)-th largest value selected as the blocks stream by, with a
    pool of about 4 (j + 1) values, against ``np.partition`` on all n,
    and the prune masks it decides against the full-length prune."""

    @given(case=selection_cases())
    @settings(max_examples=400, deadline=None)
    def test_equals_partition(self, case):
        values, j, block = case
        n = values.size
        blocks = []

        def make(i, e):
            blocks.append((i, e))
            return values[i:e].copy()

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(capital_solver, "BLOCK", block)
            pool = capital_solver._largest(make, n, j)
        assert blocks == [(i, min(i + block, n)) for i in range(0, n, block)]
        got, want = pool[pool.size - 1 - j], np.partition(values, n - 1 - j)[n - 1 - j]
        assert got == want or (np.isnan(got) and np.isnan(want))
        # the j after it are the j largest, every value above it is pooled,
        # and the pool ends with at most 4 (j + 1) values
        top = np.sort(values)[n - j:] if j else values[:0]
        assert np.array_equal(np.sort(pool[pool.size - j:]), top, equal_nan=True)
        if not np.isnan(got):
            assert np.count_nonzero(pool > got) == np.count_nonzero(values > got)
        assert pool.size <= min(n, 4 * (j + 1))

    def test_pool_stays_small(self):
        # 2^20 ascending values in blocks of 2^14: every block passes the
        # bound, so the pool fills and is partitioned down again and again
        values = np.sort(np.random.default_rng(3).normal(size=1 << 20))
        j = 6000
        pool = capital_solver._largest(lambda i, e: values[i:e].copy(), values.size, j)
        assert pool[pool.size - 1 - j] == values[values.size - 1 - j]
        assert pool.size <= 4 * (j + 1)

    @staticmethod
    def check_masks(rm, x, s, grid, block=None):
        # every prune of a grid solve against the full-length prune
        real, calls = capital_solver._prune, []

        def both(*args):
            got, want = real(*args), reference_prune(*args)
            calls.append(args[2])
            assert (got is None) == (want is None)
            assert got is None or np.array_equal(got, want)
            return got

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(capital_solver, "_prune", both)
            if block is not None:
                patch.setattr(capital_solver, "BLOCK", block)
            reports = solve_r0_numeric(rm, x, s, grid)
        return reports, calls

    @given(case=st.one_of(grid_markets(), grid_markets("es")),
           block=st.sampled_from([7, 64, 500, 1 << 14]))
    @settings(max_examples=100, deadline=None)
    def test_masks_equal_the_full_length_prune(self, case, block):
        x, s, grid, rm = case
        _, calls = self.check_masks(rm, x, s, grid, block)
        assert calls[0] is capital_solver._end_ratio

    @pytest.mark.parametrize("kind", ["var", "es"])
    def test_masks_on_a_default_block(self, kind):
        x, s = fig8b_sample(100_000)
        rm = RiskMeasure(kind, 0.01)
        reports, calls = self.check_masks(rm, x, s, w_grid(0.1))
        assert all(isinstance(rep, SolveReport) for rep in reports)
        measures = [capital_solver._end_ratio] + [capital_solver._corner_losses] * 2
        assert calls == (measures if kind == "es" else measures[:1])


class TestSolveMemory:
    """A solve keeps no n-long float array unless a weight reruns on all
    scenarios.  At 2^20 scenarios the peak of its traced allocations
    above entry stays below 2 bytes per scenario on a two-end VaR
    grid, where the bool keep mask and one block's moment buffers are
    the largest arrays, and below 4 on an 11-weight ES grid at alpha
    0.01, which also holds the polygon's kept set, about 5% of the
    scenarios here, with Newton's losses and their selection on it.  One
    n-long float array would add 8."""

    @pytest.mark.parametrize("kind, alpha, grid, bound", [("var", 0.005, [0.0, 1.0], 2),
                                                          ("es", 0.01, w_grid(0.1), 4)],
                             ids=["var-ends", "es-11"])
    def test_peak_bytes_per_scenario(self, kind, alpha, grid, bound):
        n = 1 << 20
        x, s = montecarlo.sample_scenarios(lognormal_from_moments(1.0, 0.3),
                                           lognormal_from_moments(1.05, 0.2), n, seed=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reports = solve_r0_numeric(RiskMeasure(kind, alpha), x, s, grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert all(isinstance(rep, SolveReport) for rep in reports)
        assert peak < bound * n
