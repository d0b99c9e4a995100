"""Shared oracle helpers: analytic standard errors of empirical-rooted
capital levels in the normal model, via the delta method; the Monte
Carlo decomposition at a given capital level; and reference versions of
the standard error and the decomposition that rebuild every array from
the scenario set."""

import math

import numpy as np

from cocval.capital_solver import SolveReport
from cocval.distributions import standard_normal_cdf, standard_normal_pdf
from cocval.montecarlo import estimate_mean
from cocval.risk_measures import RiskMeasure, es_multiplier, tail_count, var_multiplier
from cocval.valuation import ValuationResult, mc_valuation, v0_bounds


def mixed_return(market, scen, asset_values=None):
    """Z = w S + 1 - w as the solver builds it (a scalar 1 at w = 0)."""
    if market.w == 0.0:
        return 1.0
    s = market.asset_return_sample(scen) if asset_values is None else asset_values
    return market.w * s + (1.0 - market.w)


def mc_at(r0, market, scen, rm=RiskMeasure("var", 0.005), *, asset_values=None,
          claim_values=None):
    """``mc_valuation`` at capital ``r0``, as if a solver had returned it
    with its loss array X - r0 Z.

    ``asset_values``/``claim_values`` pass pre-transformed samples.
    """
    x = market.claim_sample(scen) if claim_values is None else claim_values
    losses = x - r0 * mixed_return(market, scen, asset_values)
    rep = SolveReport(r0=r0, method="closed_form", residual=0.0, iterations=0,
                      losses=losses)
    return mc_valuation(rep, market, rm)


def reference_root_std_error(rm, z, x, r0):
    """Delta-method standard error of the root and the empirical VaR at
    it, from x - r0 z rebuilt and one three-way partition."""
    losses = x - r0 * z
    n = losses.size
    alpha = rm.alpha
    rank = n - tail_count(alpha, n)
    m = max(1, int(round(math.sqrt(n))))
    i_lo, i_hi = max(rank - m, 1), min(rank + m, n)
    part = np.partition(losses, [i_lo - 1, rank - 1, i_hi - 1])
    lo_v, q_v, hi_v = float(part[i_lo - 1]), float(part[rank - 1]), float(part[i_hi - 1])
    if hi_v <= lo_v:
        return None, q_v
    if rm.kind == "var":
        density = ((i_hi - i_lo) / n) / (hi_v - lo_v)
        se_stat = math.sqrt(alpha * (1.0 - alpha) / n) / density
        window = (losses >= lo_v) & (losses <= hi_v)
        slope = float(z[window].mean()) if window.any() else float(z.mean())
    else:
        influence = q_v + np.maximum(losses - q_v, 0.0) / alpha
        se_stat = float(influence.std(ddof=1)) / math.sqrt(n)
        tail_mask = losses >= q_v
        slope = float(z[tail_mask].mean()) if tail_mask.any() else float(z.mean())
    if not slope > 0.0:
        return None, q_v
    return se_stat / slope, q_v


def reference_row(r0, iterations, market, rm, scen, *, asset_values=None,
                  claim_values=None):
    """The Monte Carlo row at a solved root ``r0``, every array rebuilt
    from the scenario set: the residual and standard error of
    ``reference_root_std_error`` and the decomposition of r0 Z - X."""
    x = market.claim_sample(scen) if claim_values is None else claim_values
    z = mixed_return(market, scen, asset_values)
    z_arr = np.broadcast_to(z, x.shape)
    se, var_at_root = reference_root_std_error(rm, z_arr, x, r0)
    residual = var_at_root if rm.kind == "var" else rm.empirical(r0 * z - x)
    y = r0 * z - x
    pos = np.maximum(y, 0.0)
    scale = 1.0 + market.eta
    c0_est = estimate_mean(pos)
    llo_est = estimate_mean(pos - y)
    c0 = c0_est.value / scale
    upper, lower = v0_bounds(
        r0, z_mean=market.z_mean, z_var=market.z_variance,
        x_mean=market.claim.mean, x_var=market.claim.variance,
        eta=market.eta, alpha=rm.alpha if rm.kind == "var" else None,
    )
    return ValuationResult(
        r0=r0, c0=c0, v0=r0 - c0, llo=llo_est.value / scale,
        v0_upper=upper, v0_lower=lower,
        r0_method="empirical_root", valuation_method="mc",
        residual=residual, iterations=iterations, r0_se=se,
        c0_se=c0_est.std_error / scale, v0_se=c0_est.std_error / scale,
        llo_se=llo_est.std_error / scale,
    )


def gaussian_r0_se_var(r0: float, gamma: float, nu: float, mu: float,
                       sigma: float, alpha: float, n: int) -> float:
    """SE of the bisection root under VaR: quantile noise over the slope."""
    m = var_multiplier(alpha)
    s_l = math.hypot(r0 * sigma, nu)
    se_q = math.sqrt(alpha * (1 - alpha) / n) * s_l / standard_normal_pdf(m)
    slope = -mu + m * r0 * sigma ** 2 / s_l
    return se_q / abs(slope)


def gaussian_r0_se_es(r0: float, gamma: float, nu: float, mu: float,
                      sigma: float, alpha: float, n: int) -> float:
    """SE of the bisection root under ES, from the tail-excess variance."""
    m = es_multiplier(alpha)
    z = var_multiplier(alpha)
    s_l = math.hypot(r0 * sigma, nu)
    # moments of the standardized excess (G - z)^+
    mean_exc = standard_normal_pdf(z) - alpha * z
    mom2_exc = (1 + z * z) * (1 - standard_normal_cdf(z)) - z * standard_normal_pdf(z)
    var_exc = mom2_exc - mean_exc ** 2
    se_es = s_l * math.sqrt(var_exc) / (alpha * math.sqrt(n))
    slope = -mu + m * r0 * sigma ** 2 / s_l
    return se_es / abs(slope)
