"""Decomposition of the capital requirement into shareholder value,
policyholder premium and the limited-liability option.

With capital r solved from the solvency criterion, the shareholder
contribution is the discounted expected positive part of the terminal
net worth, c0 = E[(r Z - X)^+] / (1 + eta), and the theoretical premium
is the remainder v0 = r - c0.  The limited-liability option value
E[(r Z - X)^-] / (1 + eta) measures what shareholders gain from not
covering deficits; it always equals the gap between the moment-based
premium upper bound and the premium itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .capital_solver import (
    MarketSpec,
    NoSolutionError,
    SolveReport,
    solve_r0_gaussian_es,
    solve_r0_gaussian_var,
    solve_r0_lognormal_var,
    solve_r0_numeric,
)
from .distributions import (
    Degenerate,
    Distribution,
    Lognormal,
    Normal,
    ParetoTypeI,
    standard_normal_cdf,
    standard_normal_pdf,
)
from .montecarlo import generate_scenarios
from .risk_measures import RiskMeasure, es_multiplier, var_multiplier

__all__ = [
    "ValuationResult",
    "gaussian_positive_part_factor",
    "v0_bounds",
    "capped_expectation_quadrature",
    "value_gaussian_var",
    "value_gaussian_es",
    "value_lognormal_var",
    "value_riskless_var",
    "pareto_riskless_valuation",
    "mc_valuation",
    "mc_valuations",
    "normal_model",
    "value_market",
]

# Absolute quadrature target as a fraction of the expected claim.
QUAD_TOL_FRACTION = 1e-9
# The integration window ends at this claim survival level.
QUAD_TAIL_LEVEL = 1e-12


@dataclass(frozen=True)
class ValuationResult:
    """Capital decomposition at a solved requirement.

    The premium identity v0 = r0 - c0 holds exactly by construction.
    Bounds come from first and second moments only; ``v0_lower`` is
    None when a variance is infinite or the criterion is not VaR.
    Standard errors are set on sampled fields and None on closed-form
    or quadrature fields.  Every float field is finite.
    """

    r0: float
    c0: float
    v0: float
    llo: float
    v0_upper: float
    v0_lower: float | None
    r0_method: str
    valuation_method: str
    residual: float
    iterations: int = 0
    r0_se: float | None = None
    c0_se: float | None = None
    v0_se: float | None = None
    llo_se: float | None = None

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} is not finite ({value}); the inputs overflow")

    def to_record(self, **extra) -> dict:
        """Flat record with per-field provenance, ready for CSV or JSON."""
        rec = dict(extra)
        rec.update(
            r0=self.r0, c0=self.c0, v0=self.v0, llo=self.llo,
            v0_upper=self.v0_upper, v0_lower=self.v0_lower,
            r0_se=self.r0_se, c0_se=self.c0_se, v0_se=self.v0_se,
            llo_se=self.llo_se, r0_method=self.r0_method,
            valuation_method=self.valuation_method,
            residual=self.residual, iterations=self.iterations,
        )
        return rec


def gaussian_positive_part_factor(multiplier: float) -> float:
    """E[(e + f G)^+] / e for standard normal G when the risk measure of
    e + f G is zero and the measure's Gaussian constant is ``multiplier``.

    Exceeds 1 by the relative value of the limited-liability option.
    """
    if multiplier <= 0:
        raise ValueError("multiplier must be positive")
    return standard_normal_cdf(multiplier) + standard_normal_pdf(multiplier) / multiplier


def v0_bounds(r0: float, *, z_mean: float, z_var: float, x_mean: float,
              x_var: float, eta: float, alpha: float | None = None,
              ) -> tuple[float, float | None]:
    """Model-independent premium bounds from moments alone.

    The upper bound drops the limited liability of the shareholders and
    needs first moments only.  The lower bound is a Cauchy-Schwarz
    estimate that additionally needs finite variances and a VaR
    criterion; pass ``alpha=None`` otherwise and it is reported absent.
    """
    upper = ((1.0 + eta - z_mean) * r0 + x_mean) / (1.0 + eta)
    lower = None
    if alpha is not None and math.isfinite(z_var) and math.isfinite(x_var):
        spread = math.sqrt(r0 * r0 * z_var + x_var + (r0 * z_mean - x_mean) ** 2)
        lower = r0 - math.sqrt(1.0 - alpha) / (1.0 + eta) * spread
    return upper, lower


def _tail_bound(asset_scaled: Distribution, claim: Distribution, t: float) -> float:
    # Remainder of the survival-product integral beyond t.  Each factor
    # is bounded by its value at t while the other integrates to a
    # stop-loss expectation.
    sl_a, sl_x = asset_scaled.stop_loss(t), claim.stop_loss(t)
    return min(sl_x, sl_a,
               float(claim.sf(t)) * sl_a,
               float(asset_scaled.sf(t)) * sl_x)


def capped_expectation_quadrature(asset_scaled: Distribution,
                                  claim: Distribution) -> float:
    """E[min(A, X)] for independent nonnegative A and X.

    Integrates the product of the survival functions over [0, T] by
    adaptive Gauss-Kronrod quadrature.  T starts at the smaller of the
    two survival-level-1e-12 quantiles (the product vanishes once
    either factor does) and is extended until the closed-form tail
    bound falls below the absolute target of 1e-9 E[X].

    Raises:
        ValueError: either input can take negative values.
    """
    if not asset_scaled.nonnegative or not claim.nonnegative:
        raise ValueError("survival-product form needs nonnegative inputs")
    x_mean = claim.mean
    if x_mean == 0.0 or asset_scaled.mean == 0.0:
        return 0.0
    tol = QUAD_TOL_FRACTION * x_mean

    upper = min(float(claim.quantile(1.0 - QUAD_TAIL_LEVEL)),
                float(asset_scaled.quantile(1.0 - QUAD_TAIL_LEVEL)))
    for _ in range(200):
        if _tail_bound(asset_scaled, claim, upper) <= tol:
            break
        upper *= 2.0
    else:
        raise ValueError("tail bound does not reach the quadrature tolerance")

    breakpoints = sorted(
        p for p in _quadrature_breakpoints(asset_scaled) + _quadrature_breakpoints(claim)
        if 0.0 < p < upper
    )
    from scipy import integrate  # only quadrature routes pay for this import

    value, _ = integrate.quad(
        lambda t: float(asset_scaled.sf(t)) * float(claim.sf(t)),
        0.0, upper, epsabs=tol, epsrel=1e-10, limit=200,
        points=breakpoints or None,
    )
    return float(value)


def _quadrature_breakpoints(dist: Distribution) -> list[float]:
    # Atoms and support edges where the survival function jumps or kinks.
    if isinstance(dist, Degenerate):
        return [dist.value]
    if hasattr(dist, "x_m"):
        return [dist.x_m]
    return []


def _gaussian_valuation(rep: SolveReport, gamma: float, mu: float,
                        multiplier: float, eta: float,
                        z_var: float, x_var: float,
                        alpha_for_lower: float | None) -> ValuationResult:
    factor = gaussian_positive_part_factor(multiplier)
    margin = rep.r0 * mu - gamma  # expected net worth at the solved capital
    c0 = margin * factor / (1.0 + eta)
    llo = (factor - 1.0) * margin / (1.0 + eta)
    upper, lower = v0_bounds(rep.r0, z_mean=mu, z_var=z_var, x_mean=gamma,
                             x_var=x_var, eta=eta, alpha=alpha_for_lower)
    return ValuationResult(
        r0=rep.r0, c0=c0, v0=rep.r0 - c0, llo=llo,
        v0_upper=upper, v0_lower=lower,
        r0_method=rep.method, valuation_method="closed_form",
        residual=rep.residual, iterations=rep.iterations,
    )


def value_gaussian_var(gamma: float, nu: float, mu: float, sigma: float,
                       alpha: float, eta: float) -> ValuationResult:
    """Closed-form valuation for normal claim and return under VaR.

    Raises:
        NoSolutionError: propagated from the capital solve.
    """
    rep = solve_r0_gaussian_var(gamma, nu, mu, sigma, alpha)
    return _gaussian_valuation(rep, gamma, mu, var_multiplier(alpha), eta,
                               sigma ** 2, nu ** 2, alpha)


def value_gaussian_es(gamma: float, nu: float, mu: float, sigma: float,
                      alpha: float, eta: float) -> ValuationResult:
    """Closed-form valuation for normal claim and return under ES.

    The Cauchy-Schwarz premium lower bound needs a VaR criterion and is
    reported absent here.
    """
    rep = solve_r0_gaussian_es(gamma, nu, mu, sigma, alpha)
    return _gaussian_valuation(rep, gamma, mu, es_multiplier(alpha), eta,
                               sigma ** 2, nu ** 2, None)


def _capped_valuation(rep: SolveReport, gross_return: Distribution,
                      claim: Distribution, alpha: float | None,
                      eta: float) -> ValuationResult:
    # Premium from the capped expectation; shareholder value and the
    # limited-liability option follow from exact identities.
    r0 = rep.r0
    capped = capped_expectation_quadrature(gross_return.scaled(r0), claim)
    z_mean = gross_return.mean
    v0 = (capped + eta * r0 + r0 * (1.0 - z_mean)) / (1.0 + eta)
    upper, lower = v0_bounds(r0, z_mean=z_mean, z_var=gross_return.variance,
                             x_mean=claim.mean, x_var=claim.variance,
                             eta=eta, alpha=alpha)
    return ValuationResult(
        r0=r0, c0=r0 - v0, v0=v0, llo=upper - v0,
        v0_upper=upper, v0_lower=lower,
        r0_method=rep.method, valuation_method="quadrature",
        residual=rep.residual, iterations=rep.iterations,
    )


def value_lognormal_var(m_x: float, s_x: float, m_z: float, s_z: float,
                        alpha: float, eta: float) -> ValuationResult:
    """Valuation for lognormal claim and lognormal gross return under VaR.

    The capital is closed form; the premium needs one numerical
    integral of the survival product.  ``s_z = 0`` degrades to a sure
    gross return exp(m_z).
    """
    rep = solve_r0_lognormal_var(m_x, s_x, m_z, s_z, alpha)
    gross = Lognormal(m_z, s_z) if s_z > 0 else Degenerate(math.exp(m_z))
    return _capped_valuation(rep, gross, Lognormal(m_x, s_x), alpha, eta)


def value_riskless_var(claim: Distribution, alpha: float, eta: float) -> ValuationResult:
    """Valuation under VaR with the whole buffer in the risk-less bond.

    The requirement is the claim quantile at 1 - alpha; the premium
    integral runs over the claim survival function alone.  Needs a
    nonnegative claim.
    """
    if not claim.nonnegative:
        raise ValueError("risk-less closed form needs a nonnegative claim")
    r0 = float(claim.quantile(1.0 - alpha))
    rep = SolveReport(r0=r0, method="closed_form", residual=0.0, iterations=0)
    return _capped_valuation(rep, Degenerate(1.0), claim, alpha, eta)


def pareto_riskless_valuation(beta: float, mean: float, alpha: float,
                              eta: float) -> ValuationResult:
    """Fully closed-form risk-less valuation for a Pareto claim.

    All four headline quantities are elementary in (beta, mean, alpha,
    eta); the premium lower bound exists only for beta > 2.
    """
    if beta <= 1:
        raise ValueError("beta must exceed 1, otherwise the mean is infinite")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    tail_pow = alpha ** (-1.0 / beta)
    r0 = (beta - 1.0) / beta * tail_pow * mean
    llo = (alpha * tail_pow / beta) * mean / (1.0 + eta)
    upper = (mean / (1.0 + eta)) * (1.0 + (tail_pow / beta) * eta * (beta - 1.0))
    v0 = upper - llo
    lower = None
    if beta > 2.0:
        x_m = mean * (beta - 1.0) / beta
        x_var = x_m ** 2 * beta / ((beta - 1.0) ** 2 * (beta - 2.0))
        _, lower = v0_bounds(r0, z_mean=1.0, z_var=0.0, x_mean=mean,
                             x_var=x_var, eta=eta, alpha=alpha)
    return ValuationResult(
        r0=r0, c0=r0 - v0, v0=v0, llo=llo, v0_upper=upper, v0_lower=lower,
        r0_method="closed_form", valuation_method="closed_form",
        residual=0.0, iterations=0,
    )


def mc_valuation(rep: SolveReport, market: MarketSpec, rm: RiskMeasure) -> ValuationResult:
    """Monte Carlo decomposition of the losses L = X - r0 Z that an
    empirical root summarized on ``rep`` (ValueError for a report without).

    The option value averages P = L^+ = (r0 Z - X)^- and the shareholder
    value P - L = (r0 Z - X)^+, so c0 needs the mean of L, which comes
    from sample moments, and the mean of P, which only the positive
    losses carry.  The sample variances (ddof 1) of P and of P - L come
    the same way: sum (P - mean P)(L - mean L) = sum over the positive
    losses of p (p - mean L).  The solve leaves these sums on the
    report's ``LossSummary``.  The premium is r0 - c0 by identity, with
    the same standard error as c0.  Bounds use exact model moments, not
    sample moments.

    ``c0_se``, ``v0_se`` and ``llo_se`` hold r0 fixed: they leave out
    the noise of the solved capital level, and they mean nothing when
    the claim variance is infinite (Pareto beta <= 2).
    """
    losses = rep.losses
    if losses is None:
        raise ValueError("a Monte Carlo decomposition needs the losses of an empirical root")
    n, p_mean, ss_p = losses.n, losses.p_mean, losses.p_ss
    ss_n = max((n - 1) * losses.var - 2.0 * losses.pl_sum + ss_p, 0.0)
    scale = 1.0 + market.eta
    c0 = (p_mean - losses.mean) / scale
    c0_se = math.sqrt(ss_n / (n - 1) / n) / scale
    upper, lower = v0_bounds(
        rep.r0, z_mean=market.z_mean, z_var=market.z_variance,
        x_mean=market.claim.mean, x_var=market.claim.variance,
        eta=market.eta, alpha=rm.alpha if rm.kind == "var" else None,
    )
    return ValuationResult(
        r0=rep.r0, c0=c0, v0=rep.r0 - c0, llo=p_mean / scale,
        v0_upper=upper, v0_lower=lower,
        r0_method=rep.method, valuation_method="mc",
        residual=rep.residual, iterations=rep.iterations,
        r0_se=rep.std_error, c0_se=c0_se, v0_se=c0_se,
        llo_se=math.sqrt(ss_p / (n - 1) / n) / scale,
    )


def mc_valuations(market: MarketSpec, rm: RiskMeasure, grid, *, mc_n: int,
                  seed: int) -> list[ValuationResult | NoSolutionError]:
    """Monte Carlo valuations at every weight of a strictly increasing
    grid in [0, 1] (``market.w`` is ignored), all on one scenario set of
    ``mc_n`` draws from ``seed``: the exact empirical roots of
    ``solve_r0_numeric``, each split by ``mc_valuation``.  A weight where
    no capital level is acceptable gets its ``NoSolutionError``.

    Raises:
        ValueError: from the scenario generation or the solve.
    """
    scen = generate_scenarios(mc_n, seed)
    claims = market.claim.sample(scen.u_claim)
    # Z = 1 on a grid that is w = 0 alone: no asset returns needed
    assets = market.asset.sample(scen.u_asset) if any(w > 0.0 for w in grid) else None
    del scen  # the solve needs the transformed streams only, not the uniforms
    reports = solve_r0_numeric(rm, claims, assets, grid)
    return [mc_valuation(rep, replace(market, w=float(w)), rm) if isinstance(rep, SolveReport)
            else rep for w, rep in zip(grid, reports)]


def normal_model(market: MarketSpec) -> tuple[float, float, float, float] | None:
    """Parameters (gamma, nu, mu_w, sigma_w) of the normal model.

    Claim mean and sd, then the mean and sd of the mixed return at
    ``market.w``; None unless both the claim and the asset are normal.
    """
    claim, asset, w = market.claim, market.asset, market.w
    if not (isinstance(claim, Normal) and isinstance(asset, Normal)):
        return None
    return claim.mean, claim.sd, w * asset.mean + (1.0 - w), w * asset.sd


def value_market(market: MarketSpec, rm: RiskMeasure, *, mc_n: int,
                 seed: int) -> ValuationResult:
    """Value one market by closed form where one exists, else Monte Carlo.

    Routes, first match wins: the normal model under either criterion;
    VaR with the buffer in the bond (``w = 0`` or a unit point-mass
    asset) for a Pareto claim or any other nonnegative claim; VaR for a
    lognormal claim fully invested in a lognormal asset.  Everything
    else is a one-weight ``mc_valuations`` on ``mc_n`` draws from
    ``seed``.

    Raises:
        NoSolutionError: no capital level is acceptable.
    """
    params = normal_model(market)
    if params is not None:
        value = value_gaussian_var if rm.kind == "var" else value_gaussian_es
        return value(*params, rm.alpha, market.eta)
    claim, asset, w = market.claim, market.asset, market.w
    riskless = w == 0.0 or (isinstance(asset, Degenerate) and asset.value == 1.0)
    if rm.kind == "var" and riskless:
        if isinstance(claim, ParetoTypeI):
            return pareto_riskless_valuation(claim.beta, claim.mean, rm.alpha, market.eta)
        if claim.nonnegative:
            return value_riskless_var(claim, rm.alpha, market.eta)
    if (rm.kind == "var" and w == 1.0
            and isinstance(claim, Lognormal) and isinstance(asset, Lognormal)):
        return value_lognormal_var(claim.mu_log, claim.sd_log,
                                   asset.mu_log, asset.sd_log, rm.alpha, market.eta)
    [result] = mc_valuations(market, rm, [w], mc_n=mc_n, seed=seed)
    if isinstance(result, NoSolutionError):
        raise result
    return result
