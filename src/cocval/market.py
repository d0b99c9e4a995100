"""The market, the outcome of a capital solve and the closed-form
requirements, on the standard library alone.

Every route needs these pieces: the market a command describes, the
report and the error a solve ends with, the check of a grid of mix
weights, the physical-memory guard, and the closed-form capital
requirements of the normal model (both measures) and of the lognormal
model under VaR.  The empirical root on a Monte Carlo scenario set
lives in ``capital_solver``, which imports numpy; nothing here does, so
a closed-form command never loads it.
"""

from __future__ import annotations

import math
import os

from ._record import Record
from .distributions import Distribution
from .risk_measures import var_multiplier

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .capital_solver import LossSummary

__all__ = [
    "MarketSpec",
    "SolveReport",
    "NoSolutionError",
    "gaussian_hedged_risk",
    "solve_r0_lognormal_var",
    "check_grid",
    "check_memory",
]


class NoSolutionError(Exception):
    """No positive capital level makes the net worth acceptable."""


class MarketSpec(Record):
    """Run-off market: claim X, risky gross return S, mix weight w,
    cost-of-capital rate eta.

    The buffer earns Z = w S + 1 - w, a fraction w in the risky asset
    and the rest in the risk-less bond.
    """

    def __init__(self, claim: Distribution, asset: Distribution, w: float,
                 eta: float) -> None:
        if not 0.0 <= w <= 1.0:
            raise ValueError("w must lie in [0, 1]")
        if not 0.0 < eta < math.inf:
            raise ValueError("eta must be positive and finite")
        self._store(claim, asset, w, eta)

    @property
    def z_mean(self) -> float:
        return self.w * self.asset.mean + 1.0 - self.w

    @property
    def z_variance(self) -> float:
        return self.w ** 2 * self.asset.variance


class SolveReport(Record, hidden=("losses",)):
    """Outcome of a capital solve by ``method``, "closed_form" or
    "empirical_root".

    ``residual`` is the risk measure re-evaluated at the returned
    level: in capital units for the Gaussian forms and the empirical
    root (zero to round-off), in log units for the lognormal closed
    form.  ``iterations`` counts the selections the empirical root made
    on its weight: the VaR one, then under ES the Newton steps, which
    start from the bounds of the grid's polygon
    (``capital_solver._polygon``); closed forms report zero.  A weight
    rerun on all scenarios reports the rerun's count.
    ``losses`` summarizes the losses X - r0 Z of an empirical root for
    ``valuation.mc_valuation``; closed forms leave it None.  It takes no
    part in equality, hash or repr.
    """

    def __init__(self, r0: float, method: str, residual: float, iterations: int,
                 std_error: float | None = None, losses: LossSummary | None = None) -> None:
        self._store(r0, method, residual, iterations, std_error, losses)


def gaussian_hedged_risk(r: float, gamma: float, nu: float, mu: float,
                         sigma: float, multiplier: float) -> float:
    """Risk of r Z - X for normal X ~ (gamma, nu^2), Z ~ (mu, sigma^2).

    ``multiplier`` is the Gaussian tail constant of the measure, so the
    same expression serves VaR and ES.
    """
    return gamma - r * mu + multiplier * math.hypot(r * sigma, nu)


def _solve_r0_gaussian(gamma: float, nu: float, mu: float, sigma: float,
                       multiplier: float) -> SolveReport:
    """Capital requirement of the normal model under the measure whose
    Gaussian constant is ``multiplier``: the root in r of
    ``gaussian_hedged_risk``.

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
    residual = gaussian_hedged_risk(r0, gamma, nu, mu, sigma, multiplier)
    return SolveReport(r0=r0, method="closed_form", residual=residual, iterations=0)


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


def check_grid(grid) -> tuple[float, ...]:
    """A grid of mix weights as a tuple of floats, checked to be
    nonempty, one-dimensional, strictly increasing and inside [0, 1].

    Raises:
        ValueError: it is not; a nan weight is neither increasing nor
            inside.
    """
    try:
        ws = tuple(map(float, grid)) if getattr(grid, "ndim", 1) == 1 else ()
    except TypeError:  # a scalar, or a collection of collections
        ws = ()
    if not ws:
        raise ValueError("grid must be a nonempty 1-d collection")
    if not all(a < b for a, b in zip(ws, ws[1:])):
        raise ValueError("grid must be strictly increasing")
    if not (0.0 <= ws[0] and ws[-1] <= 1.0):
        raise ValueError("grid must stay inside [0, 1]")
    return ws


def check_memory(need: float, what: str) -> None:
    """Refuse a run that would need ``need`` bytes at peak, more than
    the physical memory; ``what`` is the plural subject of the message,
    such as "1000 scenarios".

    Raises:
        ValueError: it would, with a message that begins with ``what``.
    """
    have = _physical_memory()
    if need > have:
        raise ValueError(f"{what} need about {need / 2 ** 30:.3g} GiB at peak, "
                         f"more than the {have / 2 ** 30:.3g} GiB of physical memory")


def _physical_memory() -> float:
    # bytes, or inf where the system does not tell
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf
    return float(have) if have > 0 else math.inf
