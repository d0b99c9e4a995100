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

from .distributions import Distribution
from .montecarlo import ScenarioSet
from .risk_measures import (RiskMeasure, es_multiplier, tail_average, tail_count,
                            var_multiplier)

__all__ = [
    "MarketSpec",
    "Candidates",
    "LossSummary",
    "SolveReport",
    "NoSolutionError",
    "gaussian_hedged_risk",
    "solve_r0_gaussian_var",
    "solve_r0_gaussian_es",
    "solve_r0_lognormal_var",
    "candidate_set",
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
class LossSummary:
    """What the Monte Carlo split needs of the losses L = X - r0 Z: the
    sample size, the sample mean and variance (ddof 1) of L, and its
    positive values in no particular order, at most a tail's worth."""

    n: int
    mean: float
    var: float
    positive: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        self.positive.flags.writeable = False


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a capital solve.

    ``residual`` is the risk measure re-evaluated at the returned
    level: in capital units for the Gaussian forms and the empirical
    root (zero to round-off), in log units for the lognormal closed
    form.  ``iterations`` counts the selections the empirical root made
    on its weight; closed forms report zero.  ``losses`` summarizes the
    losses X - r0 Z of an empirical root for ``valuation.mc_valuation``;
    closed forms leave it None.
    """

    r0: float
    method: str  # "closed_form" | "empirical_root"
    residual: float
    iterations: int
    std_error: float | None = None
    losses: LossSummary | None = field(default=None, repr=False, compare=False)


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


# Relative slack on the candidate threshold t; the bound behind it is at
# ``candidate_set``.
_SLACK = 2.0 ** -48
# Pruning needs |t| clear of underflow and overflow (or t = 0).
_PRUNE_RANGE = (2.0 ** -900, 2.0 ** 900)


@dataclass(frozen=True)
class Candidates:
    """The scenarios that decide the empirical VaR root at every weight
    in [w_lo, w_hi], and the sample moments of the whole scenario set.

    ``x`` and ``s`` are the kept claims and asset returns in scenario
    order.  At every weight of the range they hold the k + 1 + m largest
    ratios X/Z (k = floor(alpha n), m = round(sqrt(n)) the density
    window), every positive loss at the root and every scenario with
    S <= 0, the only ones that can have Z <= 0.  ``zero_risk`` is the
    empirical measure of -X, kept only when such a scenario has a
    negative claim.
    """

    n: int
    k: int
    m: int
    w_lo: float
    w_hi: float
    x: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    x_mean: float
    s_mean: float
    x_var: float
    s_var: float
    xs_cov: float
    zero_risk: float | None = None

    def loss_moments(self, r: float, w: float) -> tuple[float, float]:
        """Sample mean and variance (ddof 1) of L = X - r Z at weight w."""
        rw = r * w
        mean = self.x_mean - r * (w * self.s_mean + 1.0 - w)
        var = self.x_var - 2.0 * rw * self.xs_cov + rw * rw * self.s_var
        return mean, max(var, 0.0)


def _mixed_return(s: np.ndarray, w: float) -> np.ndarray:
    # Z = w S + 1 - w, rounded the same way for the candidate bounds and
    # every solve; at w = 0 it is 1 exactly.
    z = np.multiply(s, w)
    z += 1.0 - w
    return z


def _ratios(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    # X/Z; a scenario with x >= 0 >= z loses at every r > 0 (ratio +inf)
    # unless x = z = 0, which never loses (-inf).
    nonpos = z <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = x / z
    ratio[nonpos] = np.where(x[nonpos] > z[nonpos], np.inf, -np.inf)
    return ratio


def candidate_set(rm: RiskMeasure, claim_values: np.ndarray,
                  asset_values: np.ndarray | None, w_lo: float,
                  w_hi: float) -> Candidates:
    """Prune a scenario set to the candidates for the empirical VaR root
    on the weight range [w_lo, w_hi]; a single valuation is the range
    [w, w].  ``asset_values`` may be None when w_hi = 0, where Z = 1.

    A scenario with S > 0 has Z > 0 at every weight, and its exact ratio
    X/Z is monotone in w, so it lies between the ratios at the two ends;
    t is the (k+1+m)-th largest of their minima over these scenarios.
    Z sums two nonnegative terms, each rounded once, and is rounded once
    more, and the division rounds once: a computed ratio is within
    3.01 u of the exact one (u = 2^-53), so the ratio at any weight of
    the range lies within 7 u, relative and sign-aware, of the ends'
    minimum and maximum.  The k+1+m scenarios with minimum >= t
    therefore have ratio >= t - 7u|t| at every weight, and so do the
    k+1+m largest ratios and every positive loss at the root (its ratio
    is at least r0 (1 - 2u)); a scenario whose maximum is below
    t - 17u|t| is none of them.  The kept set uses t - 2^-48 |t| (32 u),
    so every root, density window and positive loss selected on it is
    the full sample's, bit for bit.  Scenarios with S <= 0, where
    w S + 1 - w can cancel or vanish, are always kept.

    Raises:
        ValueError: alpha n < 1, or asset returns missing for w_hi > 0.
    """
    x = claim_values
    n = x.size
    k = tail_count(rm.alpha, n)
    if k < 1:
        raise ValueError("alpha * n < 1: tail not resolved at this sample size")
    if asset_values is None and w_hi > 0.0:
        raise ValueError("a weight range beyond w = 0 needs the asset returns")
    s = np.ones(n) if asset_values is None else asset_values  # any S > 0 gives Z = 1 at w = 0
    m = max(1, int(round(math.sqrt(n))))
    irregular = s <= 0.0
    zero_risk = rm.empirical(-x) if np.any(x[irregular] < 0.0) else None
    keep = _keep_mask(x, s, (w_lo, w_hi), k + m, irregular)
    x_mean, s_mean = float(x.mean()), float(s.mean())
    x_var, s_var, xs_cov = _centred_moments(x, x_mean, s, s_mean)
    return Candidates(n=n, k=k, m=m, w_lo=w_lo, w_hi=w_hi, x=x[keep], s=s[keep],
                      x_mean=x_mean, s_mean=s_mean, x_var=x_var, s_var=s_var,
                      xs_cov=xs_cov, zero_risk=zero_risk)


def _keep_mask(x: np.ndarray, s: np.ndarray, ends: tuple[float, float], j: int,
               irregular: np.ndarray) -> np.ndarray:
    # t is the (j+1)-th largest minimum of the end ratios outside
    # ``irregular``.  The end ratios are computed twice, so that no more
    # than two n-long float arrays are alive at once.
    n, ends = x.size, tuple(dict.fromkeys(ends))
    if j >= n:
        return np.ones(n, dtype=bool)
    lo = _end_ratio(x, s, ends[0])
    if len(ends) == 2:
        np.minimum(lo, _end_ratio(x, s, ends[1]), out=lo)
    lo[irregular] = -np.inf
    lo.partition(n - 1 - j)
    t = float(lo[n - 1 - j])
    del lo
    if not (t == 0.0 or _PRUNE_RANGE[0] < abs(t) < _PRUNE_RANGE[1]):
        return np.ones(n, dtype=bool)
    keep = irregular.copy()
    for w in ends:  # the maximum of the end ratios reaches the threshold
        keep |= _end_ratio(x, s, w) >= t - _SLACK * abs(t)
    return keep


def _end_ratio(x: np.ndarray, s: np.ndarray, w: float) -> np.ndarray:
    # X/Z at weight w, not finite where Z <= 0
    z = _mixed_return(s, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(x, z, out=z)


# Block length of the moment sums, which keeps their temporaries small.
_MOMENT_BLOCK = 1 << 16


def _centred_moments(x: np.ndarray, x_mean: float, s: np.ndarray,
                     s_mean: float) -> tuple[float, float, float]:
    # Var X, Var S and Cov(X, S), ddof 1: pairwise sums of centred
    # products within blocks, added up in block order.
    sums = np.zeros(3)
    for i in range(0, x.size, _MOMENT_BLOCK):
        xc, sc = x[i:i + _MOMENT_BLOCK] - x_mean, s[i:i + _MOMENT_BLOCK] - s_mean
        sums += (np.square(xc).sum(), np.square(sc).sum(), (xc * sc).sum())
    x_var, s_var, xs_cov = (sums / (x.size - 1)).tolist()
    return x_var, s_var, xs_cov


def solve_r0_numeric(market: MarketSpec, rm: RiskMeasure, scen: ScenarioSet, *,
                     asset_values: np.ndarray | None = None,
                     claim_values: np.ndarray | None = None,
                     candidates: Candidates | None = None) -> SolveReport:
    """Exact capital level with zero empirical risk on a scenario set.

    With k = floor(alpha n), the empirical VaR of r Z - X is at most
    zero exactly when at most k losses x - r z are positive, so the VaR
    root is the (k+1)-th largest ratio X/Z; a scenario with Z <= 0 and a
    nonnegative claim loses at every r > 0.  The selection runs on the
    ``candidates`` of a weight range holding ``market.w`` (built for
    [w, w] when None), which hold that ratio and its density window.
    The empirical ES of r Z - X is convex and piecewise linear in r, so
    Newton steps from the VaR root reach its root in finitely many
    steps, each one selection of all n losses.

    The standard error of a VaR root is the ratio window's,
    sqrt(alpha (1 - alpha) / n) / f_R(r0), with the density f_R of X/Z
    read from the (k+1 -/+ m)-th largest ratios, clipped to the finite
    ones; none when they coincide.  ES keeps the delta method on the
    tail influence.  A VaR residual is the (k+1)-th largest loss
    X - r0 Z among the candidates.  The report's ``losses`` carries the
    sample moments of L and its positive values, all the split needs.

    ``asset_values`` / ``claim_values`` accept pre-transformed samples
    for the given scenario set, so a sweep can transform once and solve
    many times; a VaR solve on given candidates reads neither.

    Raises:
        ValueError: alpha n < 1; candidates for another tail count or
            weight range; or a scenario with Z <= 0 has a negative claim,
            which makes the criterion non-monotone, and zero capital is
            not acceptable.
        NoSolutionError: no capital level is acceptable, or the claim
            is acceptable with zero capital already.
    """
    w = market.w
    if candidates is None or rm.kind == "es":
        x = market.claim_sample(scen) if claim_values is None else claim_values
        s = asset_values
        if s is None and w > 0.0:  # Z = 1 at w = 0 needs no asset sample
            s = market.asset_return_sample(scen)
    if candidates is None:
        candidates = candidate_set(rm, x, s, w, w)
    c = candidates
    if c.k != tail_count(rm.alpha, c.n) or not c.w_lo <= w <= c.w_hi:
        raise ValueError("the candidate set was built for another tail count or weight range")
    z = _mixed_return(c.s, w)
    if np.any(c.x[z <= 0.0] < 0.0):
        # such a scenario turns into a loss as r grows: only r = 0 is decidable
        if c.zero_risk <= 0.0:
            raise NoSolutionError("claim is acceptable with zero capital")
        raise ValueError("a scenario with Z <= 0 has a negative claim; "
                         "the criterion is not monotone in capital")
    ratio = _ratios(c.x, z)
    always = int(np.count_nonzero(ratio == np.inf))
    if always > c.k:
        raise NoSolutionError(f"more than {c.k} scenarios with Z <= 0 always lose")
    if rm.kind == "var":
        return _var_report(c, rm.alpha, w, z, ratio, always)
    i = ratio.size - 1 - c.k
    ratio.partition(i)
    return _es_report(c, rm.alpha, w, x, s, float(ratio[i]))


def _var_report(c: Candidates, alpha: float, w: float, z: np.ndarray,
                ratio: np.ndarray, always: int) -> SolveReport:
    # Ranks from the top: the root k + 1 and its density window, clipped
    # to the sample and to the finite ratios.
    size, n, k = ratio.size, c.n, c.k
    top, bottom = max(k + 1 - c.m, always + 1), min(k + 1 + c.m, n)
    ratio.partition([size - bottom, size - 1 - k, size - top])
    r0 = float(ratio[size - 1 - k])
    if r0 <= 0.0:
        raise NoSolutionError("claim is acceptable with zero capital")
    width = float(ratio[size - top] - ratio[size - bottom])
    se = None
    if 0.0 < width < math.inf:
        density = ((bottom - top) / n) / width
        se = math.sqrt(alpha * (1.0 - alpha) / n) / density
    losses = np.subtract(c.x, np.multiply(z, r0, out=z), out=ratio)
    positive = losses[losses > 0.0]
    losses.partition(size - 1 - k)
    mean, var = c.loss_moments(r0, w)
    return SolveReport(r0=r0, method="empirical_root", residual=float(losses[size - 1 - k]),
                       iterations=1, std_error=se,
                       losses=LossSummary(n=n, mean=mean, var=var, positive=positive))


def _es_report(c: Candidates, alpha: float, w: float, x: np.ndarray,
               s: np.ndarray | None, r_var: float) -> SolveReport:
    n, k, tail = c.n, c.k, alpha * c.n
    z = np.ones(n) if s is None else _mixed_return(s, w)
    losses, sel = np.empty_like(x), np.empty_like(x)
    r0, residual, selections = _es_root(x, z, k, tail, max(r_var, 0.0), losses, sel)
    if r0 <= 0.0:
        raise NoSolutionError("claim is acceptable with zero capital")
    # 1-based ranks i_lo <= rank <= i_hi of the quantile and its density window
    rank = n - k
    i_lo, i_hi = max(rank - c.m, 1), min(rank + c.m, n)
    upper, q = sel[rank - 1:], float(sel[rank - 1])  # L_(rank), then the k largest
    slope = float(z[losses >= q].mean())
    # Delta-method standard error: the noise of the empirical ES over the
    # mean mixed return beyond the boundary; none when an atom spans the
    # density window.
    se = None
    if slope > 0.0 and not (n - k + np.count_nonzero(upper[1:] == q) >= i_hi
                            and np.count_nonzero(losses < q) < i_lo):
        # the influence q + (L - q)^+ / alpha equals q off the k largest losses
        excess = (upper[1:] - q) / alpha
        mean = float(excess.sum()) / n
        var = (float(np.square(excess - mean).sum()) + (n - k) * mean * mean) / (n - 1)
        se = math.sqrt(var / n) / slope
    # every loss below L_(rank) is at most q
    pool = upper if q <= 0.0 else losses
    positive = pool[pool > 0.0]
    mean, var = c.loss_moments(r0, w)
    return SolveReport(r0=r0, method="empirical_root", residual=residual,
                       iterations=selections, std_error=se,
                       losses=LossSummary(n=n, mean=mean, var=var, positive=positive))


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
