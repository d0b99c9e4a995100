"""Solvers for the total capital requirement.

The requirement is the capital level r at which the chosen risk measure
of the terminal net worth r Z - X vanishes, where Z = w S + 1 - w is
the mixed gross return and X the aggregate claim.  Closed forms cover
the normal model (both measures) and the lognormal model under VaR;
everything else runs through Monte Carlo bisection on a shared
scenario set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Degenerate, Distribution
from .montecarlo import ScenarioSet
from .risk_measures import RiskMeasure, es_multiplier, tail_count, var_multiplier

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

# Default relative bracket width for the bisection solver.
BISECTION_TOL = 1e-4


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
    level: in capital units for the Gaussian forms and the bisection
    path, in log units for the lognormal closed form (where the
    defining equation lives on the log scale).  ``iterations`` counts
    empirical measure evaluations; closed forms report zero.
    """

    r0: float
    method: str  # "closed_form" | "bisection"
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


def solve_r0_numeric(market: MarketSpec, rm: RiskMeasure, scen: ScenarioSet,
                     tol: float = BISECTION_TOL, *,
                     asset_values: np.ndarray | None = None,
                     claim_values: np.ndarray | None = None) -> SolveReport:
    """Bisection for the capital level with zero empirical risk.

    The objective g(r) = rm.empirical(r Z - X) over the scenario set is
    continuous and piecewise linear in r, and strictly decreasing when
    the mixed return is positive in every scenario.  The bracket starts
    at the risk-less requirement rm.empirical(-X) and doubles until the
    sign changes (60 doublings cap).  Iteration stops once |g| <= tol
    or the bracket width drops below tol * max(1, r), both measured in
    units of the risk-less requirement; anchoring the thresholds to the
    claim scale makes the solve covariant under claim rescaling.  The
    reported root is the final bracket midpoint, never a locally
    refined point, so the result is a pure function of
    (market, rm, scen, tol).

    ``asset_values`` / ``claim_values`` accept pre-transformed samples
    for the given scenario set, so a sweep can transform once and solve
    many times.

    Raises:
        NoSolutionError: the objective never changes sign, or the claim
            is acceptable with zero capital already.
    """
    x = market.claim_sample(scen) if claim_values is None else claim_values
    base = rm.empirical(-x)
    evals = 1

    zc = _constant_mixed_return(market)
    if zc is not None:
        if zc <= 0.0:
            raise NoSolutionError(f"mixed return is the nonpositive constant {zc:g}")
        if base < 0.0:
            raise NoSolutionError("claim is acceptable with zero capital")
        r0 = base / zc
        residual = rm.empirical(r0 * zc - x)
        evals += 1
        se = _root_std_error(rm, np.full(x.shape, zc), x, r0)
        return SolveReport(r0=r0, method="bisection", residual=residual,
                           iterations=evals, std_error=se)

    if base <= 0.0:
        raise NoSolutionError("claim is acceptable with zero capital")
    s = market.asset_return_sample(scen) if asset_values is None else asset_values
    z = market.w * s + (1.0 - market.w)

    def g(r: float) -> float:
        return rm.empirical(r * z - x)

    g_tol = tol * base  # measure threshold in claim-scale units
    lo, hi, g_hi = 0.0, base, g(base)
    evals += 1
    doublings = 0
    while g_hi > g_tol:
        if doublings >= 60:
            raise NoSolutionError(
                "no sign change within 2^60 of the risk-less requirement")
        lo, hi = hi, 2.0 * hi
        g_hi = g(hi)
        evals += 1
        doublings += 1

    if abs(g_hi) <= g_tol:
        r0, residual = hi, g_hi
    else:
        while hi - lo > tol * max(base, 0.5 * (lo + hi)):
            mid = 0.5 * (lo + hi)
            g_mid = g(mid)
            evals += 1
            if abs(g_mid) <= g_tol:
                lo = hi = mid
                break
            if g_mid > 0.0:
                lo = mid
            else:
                hi = mid
        r0 = 0.5 * (lo + hi)
        residual = g(r0)
        evals += 1

    se = _root_std_error(rm, z, x, r0)
    return SolveReport(r0=r0, method="bisection", residual=residual,
                       iterations=evals, std_error=se)


def _root_std_error(rm: RiskMeasure, z: np.ndarray, x: np.ndarray,
                    r0: float) -> float | None:
    """Delta-method standard error of the bisection root.

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
    if i_hi <= i_lo:
        return None
    part = np.partition(losses, [i_lo - 1, rank - 1, i_hi - 1])
    lo_v, q_v, hi_v = float(part[i_lo - 1]), float(part[rank - 1]), float(part[i_hi - 1])
    if hi_v <= lo_v:
        return None
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
        return None
    return se_stat / slope
