"""Asset-mix sweeps and the derived decision weights.

A sweep values the run-off on a grid of mix weights, by closed forms in
the normal model and otherwise on one shared scenario set, then reads
off the capital-minimizing weight and the mutual-benefit threshold, the
largest weight below which the total requirement stays under the
risk-less benchmark.  The threshold has a
closed form in the normal model and is located numerically otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, TextIO

import numpy as np

from .capital_solver import MarketSpec, NoSolutionError, check_grid
from .risk_measures import RiskMeasure
from .valuation import ValuationResult, _gaussian_valuations, mc_valuations, normal_model

__all__ = [
    "SweepResult",
    "MutualBenefit",
    "sweep",
    "w_grid",
    "negative_loading_threshold",
    "check_mutual_benefit",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ("w", "r0", "c0", "v0", "v0_upper", "v0_lower", "llo",
               "r0_se", "c0_se", "v0_se")

DEFAULT_GRID_STEP = 1e-3


def _cell(value) -> str:
    # locale-independent '.' decimals, 15 significant digits
    return "" if value is None else format(float(value), ".15g")


class MutualBenefit(NamedTuple):
    """Checkable sufficient conditions for a mutually beneficial mix.

    ``capital_condition``: the requirement times the mean mixed return
    reaches the risk-less requirement, which forces the shareholder
    contribution up.  ``premium_condition``: additionally the
    requirement itself does not exceed the risk-less one, which forces
    the premium down.
    """

    capital_condition: bool
    premium_condition: bool


def check_mutual_benefit(r0_w: float, mu_w: float, r0_0: float) -> MutualBenefit:
    """Evaluate both sufficient conditions at one mix weight."""
    capital = r0_w * mu_w >= r0_0
    return MutualBenefit(capital, capital and r0_0 >= r0_w)


def negative_loading_threshold(r0_w: float, mean_claim: float,
                               mean_asset: float, eta: float) -> float:
    """Weight beyond which the premium loading turns negative in any model.

    Derived from the moment-based premium upper bound; compare the
    actual weight against the returned value.
    """
    if mean_asset <= 1.0:
        raise ValueError("risky asset must out-return the bond on average")
    return (eta / (mean_asset - 1.0)) * (r0_w - mean_claim) / r0_w


def _benefit_threshold(gamma: float, nu: float, mu: float, sigma: float,
                       multiplier: float) -> float:
    if nu <= 0 or sigma <= 0:
        raise ValueError("nu and sigma must be positive")
    if gamma <= nu * multiplier:
        raise ValueError("claim mean must exceed the claim risk charge")
    if mu <= max(1.0, sigma * multiplier):
        raise ValueError("mean return must exceed 1 and its risk charge")
    if mu >= 1.0 + sigma * multiplier:
        return 1.0
    value = (2.0 * (mu - 1.0) * nu * multiplier
             / ((1.0 + sigma * multiplier - mu)
                * (mu - 1.0 + sigma * multiplier)
                * (gamma + nu * multiplier)))
    return min(value, 1.0)


def w_grid(step: float = DEFAULT_GRID_STEP) -> np.ndarray:
    """Uniform mix grid {0, step, ..., 1}; 1/step must be integral."""
    if not 0 < step <= 1:
        raise ValueError("step must lie in (0, 1]")
    count = round(1.0 / step)
    if abs(count * step - 1.0) > 1e-9:
        raise ValueError("1/step must be an integer")
    return np.linspace(0.0, 1.0, count + 1)


@dataclass(frozen=True)
class SweepResult:
    """Per-weight valuations plus the derived decision weights.

    ``rows`` aligns with ``grid``; a None row marks a weight where no
    capital level was acceptable, and the summary weights are derived
    from the feasible prefix of the grid.
    """

    grid: np.ndarray
    rows: tuple[ValuationResult | None, ...]
    w_star: float | None
    w_hat_numeric: float | None
    w_hat_closed: float | None

    def write_csv(self, target: str | TextIO) -> None:
        """Sweep rows plus a trailing summary block.

        Locale-independent '.' decimals, 15 significant digits, empty
        fields for absent values, '#'-prefixed summary lines.
        """
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as handle:
                self.write_csv(handle)
            return
        target.write(",".join(CSV_COLUMNS) + "\n")
        for w, row in zip(self.grid, self.rows):
            if row is None:
                cells = [_cell(w)] + [""] * (len(CSV_COLUMNS) - 1)
            else:
                rec = row.to_record(w=float(w))
                cells = [_cell(rec[c]) for c in CSV_COLUMNS]
            target.write(",".join(cells) + "\n")
        for key in ("w_star", "w_hat_numeric", "w_hat_closed"):
            target.write(f"# {key},{_cell(getattr(self, key))}\n")


def _closed_threshold(market: MarketSpec, rm: RiskMeasure) -> float | None:
    try:
        return _benefit_threshold(market.claim.mean, market.claim.sd,
                                  market.asset.mean, market.asset.sd,
                                  rm.multiplier)
    except ValueError:
        return None


def _derive_weights(grid: np.ndarray, rows: list[ValuationResult | None],
                    ) -> tuple[float | None, float | None]:
    limit = next((i for i, row in enumerate(rows) if row is None), len(rows))
    if limit == 0:
        return None, None
    r0s = [rows[i].r0 for i in range(limit)]
    w_star = float(grid[int(np.argmin(r0s))])  # argmin takes the first minimum

    base = r0s[0]
    w_hat = None
    for i in range(1, limit):
        gap = r0s[i] - base
        if gap >= 0.0:
            prev_gap = r0s[i - 1] - base
            if prev_gap < 0.0:
                w_prev, w_cur = float(grid[i - 1]), float(grid[i])
                w_hat = w_prev - prev_gap * (w_cur - w_prev) / (gap - prev_gap)
            # else the requirement rose at the first step: no crossing to
            # interpolate on this grid
            break
    else:
        if limit == len(rows) and grid[-1] == 1.0 and r0s[-1] < base:
            # No up-crossing on a grid reaching full investment: the
            # whole range is beneficial.
            w_hat = 1.0
    return w_star, w_hat


def sweep(market: MarketSpec, rm: RiskMeasure, grid, *, mc_n: int,
          seed: int) -> SweepResult:
    """Value the run-off across an asset-mix grid.

    ``market.w`` is ignored; the grid supplies every weight.  The
    normal model uses its closed forms over the whole grid in one call,
    which works out the Gaussian constants of the measure once per grid
    (the path ``value_gaussian_var``/``_es`` take as a one-weight grid);
    everything else uses ``valuation.mc_valuations`` on one scenario set
    of ``mc_n`` draws from ``seed``.  Weights where no capital level is
    acceptable become gap rows, among them every normal-model weight
    whose mean return mu_w does not exceed its risk charge (mu_w <= 0
    included), and the summary weights come from the feasible prefix.

    Returns:
        SweepResult with per-weight valuations, the capital-minimizing
        weight, the numeric benefit threshold (linear interpolation of
        the first up-crossing of the risk-less requirement; None when
        the requirement does not fall below the risk-less level at the
        first grid step, so no crossing can be interpolated on that
        grid) and, in the normal model, its closed form.
    """
    arr = check_grid(grid)
    if arr[0] != 0.0:
        raise ValueError("grid must include w = 0 as its first point")
    params = normal_model(market, arr)
    if params is not None:
        results = _gaussian_valuations(*params, rm, market.eta)
        w_hat_closed = _closed_threshold(market, rm)
    else:
        results = mc_valuations(market, rm, arr, mc_n=mc_n, seed=seed)
        w_hat_closed = None
    rows = [None if isinstance(row, NoSolutionError) else row for row in results]

    w_star, w_hat_numeric = _derive_weights(arr, rows)
    return SweepResult(grid=arr, rows=tuple(rows), w_star=w_star,
                       w_hat_numeric=w_hat_numeric, w_hat_closed=w_hat_closed)
