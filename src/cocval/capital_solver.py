"""Solvers for the total capital requirement.

The requirement is the capital level r at which the chosen risk measure
of the terminal net worth r Z - X vanishes, where Z = w S + 1 - w is
the mixed gross return and X the aggregate claim.  Closed forms cover
the normal model (both measures) and the lognormal model under VaR;
everything else is the exact root of the empirical criterion on a
shared Monte Carlo scenario set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Degenerate, Distribution
from .montecarlo import ScenarioSet
from .risk_measures import (RiskMeasure, es_multiplier, tail_average, tail_count,
                            var_multiplier)

__all__ = [
    "MarketSpec",
    "SolveReport",
    "NoSolutionError",
    "gaussian_hedged_risk",
    "solve_r0_gaussian_var",
    "solve_r0_gaussian_es",
    "solve_r0_lognormal_var",
    "solve_r0_numeric",
]


class NoSolutionError(Exception):
    """No positive capital level makes the net worth acceptable."""


@dataclass(frozen=True)
class MarketSpec:
    """Run-off market: claim X, risky gross return S, mix weight w,
    cost-of-capital rate eta.

    The buffer earns Z = w S + 1 - w, a fraction w in the risky asset
    and the rest in the risk-less bond.
    """

    claim: Distribution
    asset: Distribution
    w: float
    eta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("w must lie in [0, 1]")
        if not 0.0 < self.eta < math.inf:
            raise ValueError("eta must be positive and finite")

    @property
    def z_mean(self) -> float:
        return self.w * self.asset.mean + 1.0 - self.w

    @property
    def z_variance(self) -> float:
        return self.w ** 2 * self.asset.variance

    def asset_return_sample(self, scen: ScenarioSet) -> np.ndarray:
        return self.asset.sample(scen.u_asset)

    def claim_sample(self, scen: ScenarioSet) -> np.ndarray:
        return self.claim.sample(scen.u_claim)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a capital solve.

    ``residual`` is the risk measure re-evaluated at the returned
    level: in capital units for the Gaussian forms and the empirical
    root (zero to round-off), in log units for the lognormal closed
    form.  ``iterations`` counts the selections of the scenario set the
    empirical root made; closed forms report zero.
    """

    r0: float
    method: str  # "closed_form" | "empirical_root"
    residual: float
    iterations: int
    std_error: float | None = None


def gaussian_hedged_risk(r: float, gamma: float, nu: float, mu: float,
                         sigma: float, multiplier: float) -> float:
    """Risk of r Z - X for normal X ~ (gamma, nu^2), Z ~ (mu, sigma^2).

    ``multiplier`` is the Gaussian tail constant of the measure, so the
    same expression serves VaR and ES.
    """
    return gamma - r * mu + multiplier * math.hypot(r * sigma, nu)


def _solve_r0_gaussian(gamma: float, nu: float, mu: float, sigma: float,
                       multiplier: float) -> SolveReport:
    if gamma <= 0 or nu <= 0 or mu <= 0:
        raise ValueError("gamma, nu and mu must be positive")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        # Degenerate return Z = mu: the requirement is the claim risk
        # deflated by the sure return.
        r0 = (gamma + nu * multiplier) / mu
    else:
        if mu <= sigma * multiplier:
            raise NoSolutionError(
                "mean return does not exceed its risk charge "
                f"(mu = {mu:g} <= {sigma * multiplier:g})"
            )
        disc = gamma ** 2 * sigma ** 2 + nu ** 2 * (mu ** 2 - sigma ** 2 * multiplier ** 2)
        r0 = (mu * gamma + multiplier * math.sqrt(disc)) / (mu ** 2 - sigma ** 2 * multiplier ** 2)
    residual = gaussian_hedged_risk(r0, gamma, nu, mu, sigma, multiplier)
    return SolveReport(r0=r0, method="closed_form", residual=residual, iterations=0)


def solve_r0_gaussian_var(gamma: float, nu: float, mu: float, sigma: float,
                          alpha: float) -> SolveReport:
    """Capital requirement under VaR for normal claim and normal return.

    Raises:
        NoSolutionError: mu <= sigma * var_multiplier(alpha); no
            positive capital level is acceptable then.
    """
    return _solve_r0_gaussian(gamma, nu, mu, sigma, var_multiplier(alpha))


def solve_r0_gaussian_es(gamma: float, nu: float, mu: float, sigma: float,
                         alpha: float) -> SolveReport:
    """Capital requirement under ES for normal claim and normal return."""
    return _solve_r0_gaussian(gamma, nu, mu, sigma, es_multiplier(alpha))


def solve_r0_lognormal_var(m_x: float, s_x: float, m_z: float, s_z: float,
                           alpha: float) -> SolveReport:
    """Capital requirement under VaR for lognormal claim and lognormal return.

    Valid only when the gross return itself is lognormal (pure risky or
    pure bond positions); a mixed return w S + 1 - w is not lognormal
    and must go through the numeric solver.
    """
    if s_x <= 0:
        raise ValueError("s_x must be positive")
    if s_z < 0:
        raise ValueError("s_z must be nonnegative")
    log_r0 = m_x - m_z + var_multiplier(alpha) * math.hypot(s_z, s_x)
    r0 = math.exp(log_r0)
    return SolveReport(r0=r0, method="closed_form",
                       residual=log_r0 - math.log(r0), iterations=0)


def _constant_mixed_return(market: MarketSpec) -> float | None:
    if market.w == 0.0:
        return 1.0
    if isinstance(market.asset, Degenerate):
        return market.w * market.asset.value + 1.0 - market.w
    return None


def solve_r0_numeric(market: MarketSpec, rm: RiskMeasure, scen: ScenarioSet, *,
                     asset_values: np.ndarray | None = None,
                     claim_values: np.ndarray | None = None) -> SolveReport:
    """Exact capital level with zero empirical risk on a scenario set.

    With k = floor(alpha n), the empirical VaR of r Z - X is at most
    zero exactly when at most k losses x - r z are positive, so the VaR
    root is the (k+1)-th largest ratio X/Z; a scenario with Z <= 0 and a
    nonnegative claim loses at every r > 0.  The empirical ES of r Z - X
    is convex and piecewise linear in r, so Newton steps from the VaR
    root reach its root in finitely many steps.  Each costs one selection.

    ``asset_values`` / ``claim_values`` accept pre-transformed samples
    for the given scenario set, so a sweep can transform once and solve
    many times.

    Raises:
        ValueError: alpha n < 1, or a scenario with Z <= 0 has a
            negative claim, which makes the criterion non-monotone, and
            zero capital is not acceptable.
        NoSolutionError: no capital level is acceptable, or the claim
            is acceptable with zero capital already.
    """
    x = market.claim_sample(scen) if claim_values is None else claim_values
    k = tail_count(rm.alpha, x.size)
    if k < 1:
        raise ValueError("alpha * n < 1: tail not resolved at this sample size")

    zc = _constant_mixed_return(market)
    if zc is not None:
        base = rm.empirical(-x)
        if zc <= 0.0:
            raise NoSolutionError(f"mixed return is the nonpositive constant {zc:g}")
        if base < 0.0:
            raise NoSolutionError("claim is acceptable with zero capital")
        r0 = base / zc
        residual = rm.empirical(r0 * zc - x)
        se, _ = _root_std_error(rm, np.full(x.shape, zc), x, r0)
        return SolveReport(r0=r0, method="empirical_root", residual=residual,
                           iterations=2, std_error=se)

    s = market.asset_return_sample(scen) if asset_values is None else asset_values
    z = market.w * s + (1.0 - market.w)
    if np.any(x[z <= 0.0] < 0.0):
        # such a scenario turns into a loss as r grows: only r = 0 is decidable
        if rm.empirical(-x) <= 0.0:
            raise NoSolutionError("claim is acceptable with zero capital")
        raise ValueError("a scenario with Z <= 0 has a negative claim; "
                         "the criterion is not monotone in capital")
    r0, residual, selections = _var_root(x, z, k), None, 1
    if rm.kind == "es":
        r0, residual, selections = _es_root(x, z, k, rm.alpha * x.size, max(r0, 0.0))
    if r0 <= 0.0:
        raise NoSolutionError("claim is acceptable with zero capital")
    se, var_at_root = _root_std_error(rm, z, x, r0)
    return SolveReport(r0=r0, method="empirical_root",
                       residual=var_at_root if residual is None else residual,
                       iterations=selections, std_error=se)


def _var_root(x: np.ndarray, z: np.ndarray, k: int) -> float:
    # The (k+1)-th largest ratio X/Z, selected by value in place; x >= 0 >= z
    # loses at every r > 0 (ratio +inf) unless x = z = 0 (never, -inf).
    nonpos = z <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = x / z
    ratio[nonpos] = np.where(x[nonpos] > z[nonpos], np.inf, -np.inf)
    i = ratio.size - 1 - k
    ratio.partition(i)
    if ratio[i] == np.inf:
        raise NoSolutionError(f"more than {k} scenarios with Z <= 0 always lose")
    return float(ratio[i])


def _es_root(x: np.ndarray, z: np.ndarray, k: int, tail: float,
             r: float) -> tuple[float, float, int]:
    # Newton's method on the empirical ES from r at or below the root; the
    # slope is minus the tail-weighted mean of Z, ties at the threshold
    # sharing the edge weight equally.  Selections count the VaR one.
    frac = max(tail - k, 0.0)
    losses = np.empty_like(x)
    selections = 1
    while True:
        np.subtract(x, np.multiply(z, r, out=losses), out=losses)
        es, q = tail_average(losses, k, tail)
        selections += 1
        if es <= 0.0:
            return r, es, selections
        above, tied = losses > q, losses == q
        edge = k - int(np.count_nonzero(above)) + frac
        z_bar = (float(z[above].sum()) + edge * float(z[tied].mean())) / tail
        if not z_bar > 0.0:  # convex ES stays positive beyond this point
            raise NoSolutionError(f"expected shortfall does not fall at r = {r:g}")
        r_next = r + es / z_bar
        if not r_next > r:  # the step is below round-off
            return r, es, selections
        r = r_next


def _root_std_error(rm: RiskMeasure, z: np.ndarray, x: np.ndarray,
                    r0: float) -> tuple[float | None, float]:
    """Delta-method standard error of the root, and the empirical VaR there.

    Quantile noise over the local slope of the objective.  The loss
    density at the quantile is estimated from the spacing of order
    statistics sqrt(n) ranks apart; the slope is the average mixed
    return over the scenarios at (VaR) or beyond (ES) the boundary.
    """
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
