"""Shared oracle helpers: analytic standard errors of empirical-rooted
capital levels in the normal model, via the delta method, and the Monte
Carlo decomposition at a given capital level."""

import math

from cocval.capital_solver import SolveReport
from cocval.distributions import standard_normal_cdf, standard_normal_pdf
from cocval.risk_measures import RiskMeasure, es_multiplier, var_multiplier
from cocval.valuation import mc_valuation


def mc_at(r0, market, scen, rm=RiskMeasure("var", 0.005), **values):
    """``mc_valuation`` at capital ``r0``, as if a solver had returned it.

    ``values`` passes pre-transformed ``asset_values``/``claim_values``.
    """
    rep = SolveReport(r0=r0, method="closed_form", residual=0.0, iterations=0)
    return mc_valuation(rep, market, rm, scen, **values)


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
