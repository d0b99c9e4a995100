"""Cost-of-capital valuation of an insurance run-off whose solvency
buffer is split between a risky asset and a risk-less bond."""

from .distributions import (
    Degenerate,
    Distribution,
    Lognormal,
    Normal,
    ParetoTypeI,
    lognormal_from_moments,
)
from .risk_measures import RiskMeasure
from .capital_solver import MarketSpec, NoSolutionError, SolveReport
from .valuation import ValuationResult, value_market
from .analysis import MutualBenefit, SweepResult, sweep, w_grid

__version__ = "0.1.0"

__all__ = [
    "Degenerate",
    "Distribution",
    "Lognormal",
    "MarketSpec",
    "MutualBenefit",
    "Normal",
    "NoSolutionError",
    "ParetoTypeI",
    "RiskMeasure",
    "SolveReport",
    "SweepResult",
    "ValuationResult",
    "lognormal_from_moments",
    "sweep",
    "value_market",
    "w_grid",
]
