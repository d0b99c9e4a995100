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
from dataclasses import dataclass, field

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
    empirical root made; closed forms report zero.  ``losses`` is the
    read-only loss array X - r0 Z of an empirical root in scenario
    order, which ``valuation.mc_valuation`` decomposes; closed forms
    leave it None.
    """

    r0: float
    method: str  # "closed_form" | "empirical_root"
    residual: float
    iterations: int
    std_error: float | None = None
    losses: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.losses is not None:
            self.losses.flags.writeable = False


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
    n, tail = x.size, rm.alpha * x.size
    k = tail_count(rm.alpha, n)
    if k < 1:
        raise ValueError("alpha * n < 1: tail not resolved at this sample size")
    # 1-based ranks i_lo <= rank <= i_hi of the quantile and its density window
    rank, m = n - k, max(1, int(round(math.sqrt(n))))
    i_lo, i_hi = max(rank - m, 1), min(rank + m, n)
    zc = _constant_mixed_return(market)
    if zc is not None:
        # The losses fl(x - c) keep the order of x, so one selection of a
        # copy of x gives the root, the residual and the order statistics.
        if zc <= 0.0:
            raise NoSolutionError(f"mixed return is the nonpositive constant {zc:g}")
        sel, selections, slope = x.copy(), 1, zc
        if rm.kind == "var":
            lo_v, base, hi_v = _order_stats(sel, i_lo, rank, i_hi)
        else:
            base, _ = tail_average(sel, k, tail)
        if base < 0.0:
            raise NoSolutionError("claim is acceptable with zero capital")
        r0 = base / zc
        c = r0 * zc
        losses = x - c
        if rm.kind == "var":
            residual, lo_v, hi_v = base - c, lo_v - c, hi_v - c
        else:
            upper = sel[rank - 1:] - c  # L_(rank), then the k largest losses
            residual, q = tail_average(upper, k, tail)
    else:
        s = market.asset_return_sample(scen) if asset_values is None else asset_values
        z = np.multiply(s, market.w)
        z += 1.0 - market.w
        if np.any(x[z <= 0.0] < 0.0):
            # such a scenario turns into a loss as r grows: only r = 0 is decidable
            if rm.empirical(-x) <= 0.0:
                raise NoSolutionError("claim is acceptable with zero capital")
            raise ValueError("a scenario with Z <= 0 has a negative claim; "
                             "the criterion is not monotone in capital")
        r0, losses = _var_root(x, z, k)
        sel, selections = np.empty_like(x), 1
        if rm.kind == "es":
            r0, residual, selections = _es_root(x, z, k, tail, max(r0, 0.0), losses, sel)
        if r0 <= 0.0:
            raise NoSolutionError("claim is acceptable with zero capital")
        if rm.kind == "var":
            np.subtract(x, np.multiply(z, r0, out=losses), out=losses)
            np.copyto(sel, losses)
            lo_v, residual, hi_v = _order_stats(sel, i_lo, rank, i_hi)
            slope = float(z[(losses >= lo_v) & (losses <= hi_v)].mean())
        else:
            upper, q = sel[rank - 1:], float(sel[rank - 1])
            slope = float(z[losses >= q].mean())

    # Delta-method standard error: the noise of the empirical measure over
    # the slope, the mean mixed return at (VaR) or beyond (ES) the
    # boundary; none when an atom spans the density window.
    se = None
    if slope > 0.0 and rm.kind == "var" and hi_v > lo_v:
        density = ((i_hi - i_lo) / n) / (hi_v - lo_v)
        se = math.sqrt(rm.alpha * (1.0 - rm.alpha) / n) / density / slope
    elif slope > 0.0 and rm.kind == "es" and not (  # an atom: L_(i_lo) = q = L_(i_hi)
            n - k + np.count_nonzero(upper[1:] == q) >= i_hi
            and np.count_nonzero(losses < q) < i_lo):
        # the influence q + (L - q)^+ / alpha equals q off the k largest losses
        excess = (upper[1:] - q) / rm.alpha
        mean = float(excess.sum()) / n
        var = (float(np.square(excess - mean).sum()) + (n - k) * mean * mean) / (n - 1)
        se = math.sqrt(var / n) / slope
    return SolveReport(r0=r0, method="empirical_root", residual=residual,
                       iterations=selections, std_error=se, losses=losses)


def _var_root(x: np.ndarray, z: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    # The (k+1)-th largest ratio X/Z, selected by value in place; x >= 0 >= z
    # loses at every r > 0 (ratio +inf) unless x = z = 0 (never, -inf).
    # The ratio array goes back too, as a buffer for the losses.
    nonpos = z <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = x / z
    ratio[nonpos] = np.where(x[nonpos] > z[nonpos], np.inf, -np.inf)
    i = ratio.size - 1 - k
    ratio.partition(i)
    if ratio[i] == np.inf:
        raise NoSolutionError(f"more than {k} scenarios with Z <= 0 always lose")
    return float(ratio[i]), ratio


def _es_root(x: np.ndarray, z: np.ndarray, k: int, tail: float, r: float,
             losses: np.ndarray, sel: np.ndarray) -> tuple[float, float, int]:
    # Newton's method on the empirical ES from r at or below the root; the
    # slope is minus the tail-weighted mean of Z, ties at the threshold
    # sharing the edge weight equally.  Selections count the VaR one.  It
    # leaves the losses at the returned r in ``losses``, selected in ``sel``.
    frac = max(tail - k, 0.0)
    selections = 1
    while True:
        np.subtract(x, np.multiply(z, r, out=losses), out=losses)
        np.copyto(sel, losses)
        es, q = tail_average(sel, k, tail)
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


def _order_stats(sel: np.ndarray, i_lo: int, rank: int,
                 i_hi: int) -> tuple[float, float, float]:
    # The i_lo-th, rank-th and i_hi-th smallest of sel, which is reordered:
    # one selection over all of it, then one over the part above i_lo.
    sel.partition(i_lo - 1)
    upper = sel[i_lo - 1:]
    lo_v = float(upper[0])
    upper.partition([rank - i_lo, i_hi - i_lo])
    return lo_v, float(upper[rank - i_lo]), float(upper[i_hi - i_lo])

