"""Decomposition of the capital requirement into shareholder value,
policyholder premium and the limited-liability option.

With capital r solved from the solvency criterion, the shareholder
contribution is the discounted expected positive part of the terminal
net worth, c0 = E[(r Z - X)^+] / (1 + eta), and the theoretical premium
is the remainder v0 = r - c0.  The limited-liability option value
E[(r Z - X)^-] / (1 + eta) measures what shareholders gain from not
covering deficits; it always equals the gap between the moment-based
premium upper bound and the premium itself.

Every closed form lives here, its capital requirement next to the split
that uses it.  None builds a ``SolveReport``: that is the report of
``capital_solver``'s empirical root, which ``mc_valuation`` splits.
"""

from __future__ import annotations

import math

from ._record import Record
from .distributions import (
    Degenerate,
    Distribution,
    Lognormal,
    Normal,
    ParetoTypeI,
    pareto_from_mean_beta,
    standard_normal_cdf,
    standard_normal_pdf,
)
from .market import MarketSpec, NoSolutionError, SolveReport, check_grid
from .risk_measures import RiskMeasure, var_multiplier

__all__ = [
    "ValuationResult",
    "gaussian_positive_part_factor",
    "v0_bounds",
    "value_gaussian_var",
    "value_gaussian_es",
    "value_lognormal_var",
    "value_riskless_var",
    "pareto_riskless_valuation",
    "mc_valuation",
    "mc_valuations",
    "valuations",
    "value_market",
]


class ValuationResult(Record):
    """Capital decomposition at a solved requirement.

    The premium identity v0 = r0 - c0 holds exactly by construction.
    Bounds come from first and second moments only; ``v0_lower`` is None when
    a variance is infinite or the criterion is not VaR.  Standard errors are
    set on sampled fields and None on closed-form fields.  Every float field
    is finite, checked once per row: a ValueError names the first that is not.
    """

    def __init__(self, r0: float, c0: float, v0: float, llo: float, v0_upper: float,
                 v0_lower: float | None, r0_method: str, valuation_method: str,
                 residual: float, iterations: int = 0, r0_se: float | None = None,
                 c0_se: float | None = None, v0_se: float | None = None,
                 llo_se: float | None = None) -> None:
        # Stored through the instance dict, which the loop below reads: for the
        # rows a sweep makes in bulk, faster than ``_store`` and no larger.
        fields = vars(self)
        fields.update(zip(self._fields, (r0, c0, v0, llo, v0_upper, v0_lower, r0_method,
                                         valuation_method, residual, iterations, r0_se,
                                         c0_se, v0_se, llo_se)))
        # A finite fsum (of C doubles: no numpy warning) proves every field finite.
        # Else the loop names the field, or accepts finite terms whose sum overflows.
        try:
            if type(r0_method) is type(valuation_method) is str and math.isfinite(math.fsum((
                    r0, c0, v0, llo, v0_upper, v0_lower or 0.0, residual, iterations,
                    r0_se or 0.0, c0_se or 0.0, v0_se or 0.0, llo_se or 0.0))):
                return
        except (TypeError, ValueError, OverflowError):
            pass
        for name, value in fields.items():
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


def _gaussian_hedged_risk(r: float, gamma: float, nu: float, mu: float,
                          sigma: float, multiplier: float) -> float:
    """Risk of r Z - X for normal X ~ (gamma, nu^2), Z ~ (mu, sigma^2).

    ``multiplier`` is the Gaussian tail constant of the measure, so the
    same expression serves VaR and ES.
    """
    return gamma - r * mu + multiplier * math.hypot(r * sigma, nu)


def _solve_r0_gaussian(gamma: float, nu: float, mu: float, sigma: float,
                       multiplier: float) -> tuple[float, float]:
    """Capital requirement of the normal model under the measure whose
    Gaussian constant is ``multiplier``: the root r0 in r of
    ``_gaussian_hedged_risk``, returned with the residual, that risk at
    r0 (zero to round-off).

    Raises:
        NoSolutionError: mu <= sigma * multiplier, which includes a sure
            return mu <= 0.
        ValueError: gamma or nu not positive, or sigma negative.
    """
    if gamma <= 0 or nu <= 0:
        raise ValueError("gamma and nu must be positive")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if mu <= sigma * multiplier:
        # at sigma = 0 a sure return mu <= 0, which no capital level
        # makes acceptable
        raise NoSolutionError(
            "mean return does not exceed its risk charge "
            f"(mu = {mu:g} <= {sigma * multiplier:g})"
        )
    if sigma == 0.0:
        # Degenerate return Z = mu: the requirement is the claim risk
        # deflated by the sure return.
        r0 = (gamma + nu * multiplier) / mu
    else:
        disc = gamma ** 2 * sigma ** 2 + nu ** 2 * (mu ** 2 - sigma ** 2 * multiplier ** 2)
        r0 = (mu * gamma + multiplier * math.sqrt(disc)) / (mu ** 2 - sigma ** 2 * multiplier ** 2)
    return r0, _gaussian_hedged_risk(r0, gamma, nu, mu, sigma, multiplier)


def _gaussian_valuations(gamma: float, nu: float, mu_w, sigma_w, rm: RiskMeasure,
                         eta: float) -> list[ValuationResult | NoSolutionError]:
    """Closed-form valuations of the normal model, claim X ~ N(gamma, nu^2),
    at every mixed return Z ~ N(mu_w, sigma_w^2) of a grid: the sequences
    ``mu_w`` and ``sigma_w`` align.  The measure's Gaussian constant and
    the positive-part factor depend on alpha alone, so each is worked out
    once per call, not once per weight.  A weight whose mean return does
    not exceed its risk charge (mu_w <= sigma_w times the constant, which
    includes a sure return mu_w <= 0) gets its ``NoSolutionError``.

    Raises:
        ValueError: gamma or nu not positive, or a negative sigma_w.
    """
    multiplier = rm.multiplier
    factor = gaussian_positive_part_factor(multiplier)
    alpha_for_lower = rm.alpha if rm.kind == "var" else None
    results: list[ValuationResult | NoSolutionError] = []
    # Python floats: each weight runs the scalar arithmetic of a one-weight call
    for mu, sigma in zip(map(float, mu_w), map(float, sigma_w)):
        try:
            r0, residual = _solve_r0_gaussian(gamma, nu, mu, sigma, multiplier)
        except NoSolutionError as exc:
            # kept without its traceback, whose frames would hold ``results``
            results.append(exc.with_traceback(None))
            continue
        margin = r0 * mu - gamma  # expected net worth at the solved capital
        c0 = margin * factor / (1.0 + eta)
        llo = (factor - 1.0) * margin / (1.0 + eta)
        upper, lower = v0_bounds(r0, z_mean=mu, z_var=sigma ** 2, x_mean=gamma,
                                 x_var=nu ** 2, eta=eta, alpha=alpha_for_lower)
        results.append(ValuationResult(
            r0=r0, c0=c0, v0=r0 - c0, llo=llo, v0_upper=upper, v0_lower=lower,
            r0_method="closed_form", valuation_method="closed_form", residual=residual))
    return results


def _single(results: list[ValuationResult | NoSolutionError]) -> ValuationResult:
    # The one result of a one-weight grid, its NoSolutionError raised.
    [result] = results
    if isinstance(result, NoSolutionError):
        raise result
    return result


def value_gaussian_var(gamma: float, nu: float, mu: float, sigma: float,
                       alpha: float, eta: float) -> ValuationResult:
    """Closed-form valuation for normal claim and return under VaR: a
    one-weight grid of the normal model's path, which sweeps share.

    Raises:
        NoSolutionError: mu <= sigma * var_multiplier(alpha), which
            includes a sure return mu <= 0.
        ValueError: gamma or nu not positive, sigma negative, or alpha
            outside (0, 1/2).
    """
    return _single(_gaussian_valuations(gamma, nu, [mu], [sigma],
                                        RiskMeasure("var", alpha), eta))


def value_gaussian_es(gamma: float, nu: float, mu: float, sigma: float,
                      alpha: float, eta: float) -> ValuationResult:
    """Closed-form valuation for normal claim and return under ES, on the
    same one-weight path as ``value_gaussian_var``.

    The Cauchy-Schwarz premium lower bound needs a VaR criterion and is
    reported absent here.

    Raises:
        NoSolutionError: mu <= sigma * es_multiplier(alpha).
        ValueError: as ``value_gaussian_var``.
    """
    return _single(_gaussian_valuations(gamma, nu, [mu], [sigma],
                                        RiskMeasure("es", alpha), eta))


def _capped_valuation(r0: float, residual: float, gross_return: Distribution,
                      claim: Distribution, capped: float, alpha: float | None,
                      eta: float) -> ValuationResult:
    # Premium from the capped expectation E[min(r0 Z, X)]; shareholder
    # value and the limited-liability option follow from exact identities.
    z_mean = gross_return.mean
    c0 = r0 - (capped + eta * r0 + r0 * (1.0 - z_mean)) / (1.0 + eta)
    v0 = r0 - c0  # the premium identity, exact in floating point
    upper, lower = v0_bounds(r0, z_mean=z_mean, z_var=gross_return.variance,
                             x_mean=claim.mean, x_var=claim.variance,
                             eta=eta, alpha=alpha)
    return ValuationResult(
        r0=r0, c0=c0, v0=v0, llo=upper - v0,
        v0_upper=upper, v0_lower=lower,
        r0_method="closed_form", valuation_method="closed_form",
        residual=residual, iterations=0,
    )


def value_lognormal_var(m_x: float, s_x: float, m_z: float, s_z: float,
                        alpha: float, eta: float) -> ValuationResult:
    """Closed-form valuation for lognormal claim X and lognormal gross
    return Z under VaR.  ``s_z = 0`` degrades to a sure gross return
    exp(m_z).

    The capped expectation is Margrabe's exchange option: with A = r0 Z,
    E[min(A, X)] = E[X] Phi(-d1) + E[A] Phi(d1 - s), where
    s^2 = s_x^2 + s_z^2 and d1 = (ln(E[X] / E[A]) + s^2 / 2) / s.
    s_x > 0 keeps s positive for every s_z >= 0.
    The requirement is ln r0 = m_x - m_z + m s, m the VaR multiplier;
    its residual, ln r0 - ln(exp(ln r0)), is in log units.

    Raises:
        ValueError: s_x not positive, s_z negative, or alpha outside (0, 1).
    """
    if s_x <= 0:
        raise ValueError("s_x must be positive")
    if s_z < 0:
        raise ValueError("s_z must be nonnegative")
    log_r0 = m_x - m_z + var_multiplier(alpha) * math.hypot(s_z, s_x)
    r0 = math.exp(log_r0)
    gross = Lognormal(m_z, s_z) if s_z > 0 else Degenerate(math.exp(m_z))
    claim = Lognormal(m_x, s_x)
    capital_mean = r0 * gross.mean
    s = math.hypot(s_x, s_z)
    d1 = (math.log(claim.mean / capital_mean) + 0.5 * s * s) / s
    capped = (claim.mean * standard_normal_cdf(-d1)
              + capital_mean * standard_normal_cdf(d1 - s))
    return _capped_valuation(r0, log_r0 - math.log(r0), gross, claim, capped, alpha, eta)


def value_riskless_var(claim: Distribution, alpha: float, eta: float) -> ValuationResult:
    """Closed-form valuation under VaR with the whole buffer in the
    risk-less bond.

    The requirement is the claim quantile at 1 - alpha, and the capped
    expectation is E[min(X, r0)] = E[X] - E[(X - r0)^+], from the
    claim's stop-loss transform.  Needs a nonnegative claim.
    """
    if not claim.nonnegative:
        raise ValueError("risk-less closed form needs a nonnegative claim")
    r0 = float(claim.quantile(1.0 - alpha))
    return _capped_valuation(r0, 0.0, Degenerate(1.0), claim,
                             claim.mean - claim.stop_loss(r0), alpha, eta)


def pareto_riskless_valuation(beta: float, mean: float, alpha: float,
                              eta: float) -> ValuationResult:
    """Fully closed-form risk-less valuation for a Pareto claim.

    All four headline quantities are elementary in (beta, mean, alpha,
    eta); the premium lower bound exists only for beta > 2.
    """
    if beta <= 1:
        raise ValueError("beta must exceed 1, otherwise the mean is infinite")
    if not (mean > 0 and math.isfinite(mean)):
        raise ValueError("mean must be positive and finite")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    if not 0.0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    claim = pareto_from_mean_beta(mean, beta)
    tail_pow = alpha ** (-1.0 / beta)
    r0 = (beta - 1.0) / beta * tail_pow * mean
    llo = (alpha * tail_pow / beta) * mean / (1.0 + eta)
    upper = (mean / (1.0 + eta)) * (1.0 + (tail_pow / beta) * eta * (beta - 1.0))
    c0 = r0 - (upper - llo)
    v0 = r0 - c0  # the premium identity, exact in floating point
    # the claim variance is inf for beta <= 2, where the lower bound is absent
    _, lower = v0_bounds(r0, z_mean=1.0, z_var=0.0, x_mean=mean,
                         x_var=claim.variance, eta=eta, alpha=alpha)
    return ValuationResult(
        r0=r0, c0=c0, v0=v0, llo=llo, v0_upper=upper, v0_lower=lower,
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
        r0_method="empirical_root", valuation_method="mc",
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
    ``valuations`` sends here every grid without a closed form.

    Under VaR a weight's row is the same bit for bit on any grid that
    holds the weight, a one-weight grid included.  Under ES r0 can
    differ by up to 4 ulp between grids, and the split and
    ``iterations`` with it: the kept scenario set and the Newton start
    depend on the grid.

    The sampler and the solver, and numpy with them, are imported here,
    on the first Monte Carlo run.

    Raises:
        ValueError: the grid is not strictly increasing inside [0, 1],
            checked before any scenario is drawn; or from the sampling or
            the solve.
        OverflowError: a model moment of the premium bounds overflows,
            also checked before any scenario is drawn.
    """
    from .capital_solver import solve_r0_numeric
    from .montecarlo import sample_scenarios

    ws = check_grid(grid)
    # the model moments of the premium bounds, which raise OverflowError
    # on parameters too large for a float: before anything is drawn
    market.claim.mean, market.claim.variance, market.z_mean, market.z_variance
    # Z = 1 on a grid that is w = 0 alone: no asset returns needed
    claims, assets = sample_scenarios(market.claim, market.asset if ws[-1] > 0.0 else None,
                                      mc_n, seed)
    reports = solve_r0_numeric(rm, claims, assets, ws)
    return [mc_valuation(rep, market.replace(w=float(w)), rm) if isinstance(rep, SolveReport)
            else rep for w, rep in zip(ws, reports)]


def valuations(market: MarketSpec, rm: RiskMeasure, grid, *, mc_n: int,
               seed: int) -> list[ValuationResult | NoSolutionError]:
    """Valuations at every weight of a strictly increasing grid in
    [0, 1] (``market.w`` is ignored), each weight without an acceptable
    capital level as its ``NoSolutionError``: the one place that picks
    a method.  First match wins: the normal model's closed forms at
    every weight; for a one-weight VaR grid, the buffer in the bond
    (``w = 0`` or a unit point-mass asset) with a Pareto or other
    nonnegative claim, or a lognormal claim fully in a lognormal asset;
    else ``mc_valuations``.  So a grid of several weights outside the
    normal model is Monte Carlo at each one, and its rows compare on
    common random numbers.

    Raises:
        ValueError: the grid is not strictly increasing inside [0, 1];
            or from a closed form, the sampling or the solve.
    """
    ws = check_grid(grid)
    claim, asset, eta = market.claim, market.asset, market.eta
    if isinstance(claim, Normal) and isinstance(asset, Normal):
        return _gaussian_valuations(claim.mean, claim.sd,
                                    [w * asset.mean + (1.0 - w) for w in ws],
                                    [w * asset.sd for w in ws], rm, eta)
    if rm.kind == "var" and len(ws) == 1:
        [w] = ws
        riskless = w == 0.0 or (isinstance(asset, Degenerate) and asset.value == 1.0)
        if riskless and isinstance(claim, ParetoTypeI):
            return [pareto_riskless_valuation(claim.beta, claim.mean, rm.alpha, eta)]
        if riskless and claim.nonnegative:
            return [value_riskless_var(claim, rm.alpha, eta)]
        if w == 1.0 and isinstance(claim, Lognormal) and isinstance(asset, Lognormal):
            return [value_lognormal_var(claim.mu_log, claim.sd_log,
                                        asset.mu_log, asset.sd_log, rm.alpha, eta)]
    return mc_valuations(market, rm, ws, mc_n=mc_n, seed=seed)


def value_market(market: MarketSpec, rm: RiskMeasure, *, mc_n: int,
                 seed: int) -> ValuationResult:
    """Value one market at ``market.w`` as the one-weight grid of
    ``valuations``: by closed form where one exists, else Monte Carlo.

    Raises:
        NoSolutionError: no capital level is acceptable.
    """
    return _single(valuations(market, rm, [market.w], mc_n=mc_n, seed=seed))
