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
from .market import MarketSpec, NoSolutionError, SolveReport
from .valuation import ValuationResult, value_market
from .analysis import SweepResult, sweep, w_grid

__version__ = "0.1.0"

__all__ = [
    "Degenerate",
    "Distribution",
    "Lognormal",
    "MarketSpec",
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
