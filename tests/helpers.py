"""Shared oracle helpers: the serial scenario generator that
``montecarlo.sample_scenarios`` must reproduce; a one-weight capital solve; analytic standard
errors of empirical-rooted capital levels in the normal model, via the
delta method; the Monte Carlo decomposition at a given capital level;
and full-sample reference versions of the VaR root, the standard errors
and the decomposition that rebuild every array from the scenario set,
and the solver's prune with its selection on n-long arrays."""

import math
from dataclasses import dataclass

import numpy as np

from cocval.capital_solver import LossSummary, solve_r0_numeric
from cocval.distributions import (Degenerate, Lognormal, Normal, ParetoTypeI,
                                  standard_normal_cdf, standard_normal_pdf)
from cocval.market import NoSolutionError, SolveReport
from cocval.risk_measures import RiskMeasure, es_multiplier, tail_count, var_multiplier
from cocval.valuation import ValuationResult, mc_valuation, v0_bounds


@dataclass(frozen=True)
class ScenarioSet:
    """Frozen pair of independent uniform streams of common length."""

    n: int
    seed: int
    u_asset: np.ndarray
    u_claim: np.ndarray

    def __post_init__(self) -> None:
        self.u_asset.flags.writeable = False
        self.u_claim.flags.writeable = False


def open_uniform(gen, n):
    """(k + 0.5) 2^-53 for the next n 53-bit integers k of ``gen``, capped
    at 1 - 2^-53, where the top k's midpoint rounds to 1.0."""
    u = (gen.integers(0, 1 << 53, size=n, dtype=np.int64) + 0.5) * 2.0 ** -53
    return np.minimum(u, 1.0 - 2.0 ** -53)


def generate_scenarios(n, seed):
    """The scenario set of n draws from ``seed``, each stream drawn whole
    and in order: the serial reference of ``montecarlo.sample_scenarios``,
    whose claims and asset returns are the streams' inverse transforms."""
    if n < 1:
        raise ValueError("need at least one scenario")
    child_asset, child_claim = np.random.SeedSequence(seed).spawn(2)
    u_asset = open_uniform(np.random.Generator(np.random.Philox(child_asset)), n)
    u_claim = open_uniform(np.random.Generator(np.random.Philox(child_claim)), n)
    return ScenarioSet(n=int(n), seed=int(seed), u_asset=u_asset, u_claim=u_claim)


def draw(dist, u):
    """The draws of the uniforms u: ``dist.sample`` on a float copy of u,
    in fresh scratch, so u is left alone."""
    v = np.array(u, dtype=float)
    return dist.sample(v, np.empty((2, *v.shape)))


def samples(market, scen):
    """The claims X and asset returns S of a scenario set."""
    return draw(market.claim, scen.u_claim), draw(market.asset, scen.u_asset)


def solve_at(market, rm, scen=None, *, claims=None, assets=None):
    """``solve_r0_numeric`` on the one-weight grid ``[market.w]``,
    re-raising its ``NoSolutionError``: on the claims and asset returns
    given, else on the scenario set's, with no asset returns at w = 0 as
    ``valuation.mc_valuations`` does."""
    if claims is None:
        claims, assets = samples(market, scen)
        assets = assets if market.w > 0.0 else None
    [rep] = solve_r0_numeric(rm, claims, assets, [market.w])
    if isinstance(rep, NoSolutionError):
        raise rep
    return rep


def mixed_return(market, scen, assets=None):
    """Z = w S + 1 - w as the solver builds it (a scalar 1 at w = 0)."""
    if market.w == 0.0:
        return 1.0
    s = draw(market.asset, scen.u_asset) if assets is None else assets
    return market.w * s + (1.0 - market.w)


def summary_of(losses):
    """The ``LossSummary`` of a full loss array."""
    losses = np.asarray(losses, dtype=float)
    return LossSummary.of(losses.size, float(losses.mean()), float(losses.var(ddof=1)),
                          losses[losses > 0.0])


def mc_at(r0, market, scen, rm=RiskMeasure("var", 0.005), *, claims=None, assets=None):
    """``mc_valuation`` at capital ``r0``, as if a solver had returned it
    with the summary of its losses X - r0 Z.

    ``claims``/``assets`` pass pre-transformed samples.
    """
    x = draw(market.claim, scen.u_claim) if claims is None else claims
    losses = x - r0 * mixed_return(market, scen, assets)
    rep = SolveReport(r0=r0, residual=0.0, iterations=0, losses=summary_of(losses))
    return mc_valuation(rep, market, rm)


def scaled(dist, a):
    """The law of a X for X ~ ``dist`` and a >= 0: the same family, or a
    point mass at 0 when a = 0."""
    if a < 0:
        raise ValueError("scale factor must be nonnegative")
    if a == 0:
        return Degenerate(0.0)
    if isinstance(dist, Normal):
        return Normal(a * dist.mean, a * dist.sd)
    if isinstance(dist, Lognormal):
        return Lognormal(dist.mu_log + math.log(a), dist.sd_log)
    if isinstance(dist, ParetoTypeI):
        return ParetoTypeI(a * dist.x_m, dist.beta)
    return Degenerate(a * dist.value)


def reference_var_root(x, z, k):
    """The (k+1)-th largest ratio X/Z over the full sample, selected by
    value in place; x >= 0 >= z loses at every r > 0 (ratio +inf) unless
    x = z = 0 (never, -inf).  The ratio array goes back too."""
    nonpos = z <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = x / z
    ratio[nonpos] = np.where(x[nonpos] > z[nonpos], np.inf, -np.inf)
    i = ratio.size - 1 - k
    ratio.partition(i)
    if ratio[i] == np.inf:
        raise NoSolutionError(f"more than {k} scenarios with Z <= 0 always lose")
    return float(ratio[i]), ratio


def reference_prune(x, s, measure, lows, highs, j, bar):
    """``capital_solver._prune`` built the full-length way: the smallest
    measure over ``lows`` on all n scenarios at once (-inf where S <= 0),
    t its (j+1)-th largest by one partition, and the mask of the
    scenarios whose largest over ``highs`` reaches ``bar(t)``, with every
    S <= 0; None for j >= n or a None bar."""
    n = x.size
    if j >= n:
        return None
    lo = np.minimum.reduce([measure(x, s, point) for point in lows])
    if s is not None:
        lo[s <= 0.0] = -np.inf
    lo.partition(n - 1 - j)
    level = bar(float(lo[n - 1 - j]))
    if level is None:
        return None
    keep = np.logical_or.reduce([measure(x, s, point) >= level for point in highs])
    return keep if s is None else keep | (s <= 0.0)


def reference_ratio_std_error(rm, z, x):
    """Ratio-window standard error of a VaR root over the full sample:
    sqrt(alpha (1 - alpha) / n) / f_R, with f_R from the (k+1 -/+ m)-th
    largest ratios X/Z, the top end clipped to the finite ones."""
    n = x.size
    k = tail_count(rm.alpha, n)
    m = max(1, int(round(math.sqrt(n))))
    nonpos = z <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = x / z
    ratio[nonpos] = np.where(x[nonpos] > z[nonpos], np.inf, -np.inf)
    ordered = np.sort(ratio)[::-1]  # ordered[j - 1] is the j-th largest
    top = max(k + 1 - m, int(np.count_nonzero(ratio == np.inf)) + 1)
    bottom = min(k + 1 + m, n)
    width = float(ordered[top - 1] - ordered[bottom - 1])
    if not 0.0 < width < math.inf:
        return None
    return math.sqrt(rm.alpha * (1.0 - rm.alpha) / n) / (((bottom - top) / n) / width)


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


def reference_row(r0, iterations, market, rm, scen, *, claims=None, assets=None):
    """The Monte Carlo row at a solved root ``r0``, every array rebuilt
    from the scenario set: the residual over all losses, the ratio-window
    standard error (VaR) or that of ``reference_root_std_error`` (ES),
    and sample means and standard deviations of (r0 Z - X)^+ and
    (r0 Z - X)^-."""
    x = draw(market.claim, scen.u_claim) if claims is None else claims
    z = mixed_return(market, scen, assets)
    z_arr = np.broadcast_to(z, x.shape)
    se, var_at_root = reference_root_std_error(rm, z_arr, x, r0)
    if rm.kind == "var":
        se, residual = reference_ratio_std_error(rm, z_arr, x), var_at_root
    else:
        residual = rm.empirical(r0 * z - x)
    y = r0 * z - x
    pos, neg = np.maximum(y, 0.0), np.maximum(-y, 0.0)
    scale = 1.0 + market.eta
    n = x.size
    c0 = float(pos.mean()) / scale
    upper, lower = v0_bounds(
        r0, z_mean=market.z_mean, z_var=market.z_variance,
        x_mean=market.claim.mean, x_var=market.claim.variance,
        eta=market.eta, alpha=rm.alpha if rm.kind == "var" else None,
    )
    c0_se = float(pos.std(ddof=1)) / math.sqrt(n) / scale
    return ValuationResult(
        r0=r0, c0=c0, v0=r0 - c0, llo=float(neg.mean()) / scale,
        v0_upper=upper, v0_lower=lower,
        r0_method="empirical_root", valuation_method="mc",
        residual=residual, iterations=iterations, r0_se=se,
        c0_se=c0_se, v0_se=c0_se, llo_se=float(neg.std(ddof=1)) / math.sqrt(n) / scale,
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
