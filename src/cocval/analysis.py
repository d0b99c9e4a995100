"""Asset-mix sweeps and the derived decision weights.

A sweep values the run-off on a grid of mix weights, by closed forms in
the normal model and otherwise on one shared scenario set, then reads
off the capital-minimizing weight and the mutual-benefit threshold, the
largest weight below which the total requirement stays under the
risk-less benchmark.  The threshold has a
closed form in the normal model and is located numerically otherwise.
"""

from __future__ import annotations

import operator

from ._record import Record
from .distributions import Normal
from .market import MarketSpec, NoSolutionError, check_grid, check_memory
from .risk_measures import RiskMeasure
from .valuation import ValuationResult, valuations

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import TextIO

__all__ = [
    "SweepResult",
    "sweep",
    "w_grid",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ("w", "r0", "c0", "v0", "v0_upper", "v0_lower", "llo",
               "r0_se", "c0_se", "v0_se")

DEFAULT_GRID_STEP = 1e-3

# Bytes a sweep keeps per weight of its grid: the grid's float, the row
# objects (a ValuationResult and its floats, and for a Monte Carlo row
# the solve report and its loss summary) and the CSV line.  The peak
# traced memory of a sweep and its CSV, less the scenario arrays, was
# 530-650 bytes per weight in the normal model and 920-965 on Monte
# Carlo sweeps (VaR and ES, lognormal and Pareto claims, 1e3 scenarios,
# grid steps 1e-3 to 1e-5, the CSV written to a file or kept in
# memory; Python 3.11, Linux x86-64).
SWEEP_ROW_BYTES = 1024


def _csv_line(values) -> str:
    """The cells of one line of every CSV cocval writes, comma-joined:
    numbers with locale-independent '.' decimals and 15 significant
    digits, None empty, anything else its ``str``."""
    return ",".join(["%.15g" % v if isinstance(v, (int, float)) else "" if v is None
                     else str(v) for v in values])


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


def w_grid(step: float = DEFAULT_GRID_STEP) -> tuple[float, ...]:
    """Uniform mix grid {0, step, ..., 1} as a tuple of floats; 1/step
    must be integral.  With count = 1/step, point i is i * (1 / count)
    and the last is 1.0, the values of ``numpy.linspace(0, 1, count + 1)``
    bit for bit.

    Raises:
        ValueError: step outside (0, 1], 1/step not an integer, or a
            sweep on the grid would keep more than the physical memory
            at ``SWEEP_ROW_BYTES`` per weight; checked before the grid
            is built.
    """
    if not 0 < step <= 1:
        raise ValueError("step must lie in (0, 1]")
    count = round(1.0 / step)
    if abs(count * step - 1.0) > 1e-9:
        raise ValueError("1/step must be an integer")
    check_memory((count + 1) * SWEEP_ROW_BYTES,
                 f"grid step {step:g} gives {count + 1} weights, whose sweep rows")
    width = 1.0 / count
    return (*(i * width for i in range(count)), 1.0)


class SweepResult(Record):
    """Per-weight valuations plus the derived decision weights.

    ``grid`` holds the weights as a tuple of floats, and ``rows`` aligns
    with it; a None row marks a weight where no capital level was
    acceptable, and the summary weights are derived from the feasible
    prefix of the grid.
    """

    def __init__(self, grid: tuple[float, ...], rows: tuple[ValuationResult | None, ...],
                 w_star: float | None, w_hat_numeric: float | None,
                 w_hat_closed: float | None) -> None:
        self._store(grid, rows, w_star, w_hat_numeric, w_hat_closed)

    def write_csv(self, target: str | TextIO) -> None:
        """Sweep rows plus a trailing summary block.

        Locale-independent '.' decimals, 15 significant digits, empty
        fields for absent values, '#'-prefixed summary lines.
        """
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as handle:
                self.write_csv(handle)
            return
        cells = operator.attrgetter(*CSV_COLUMNS[1:])  # a row's fields after w
        gap = (None,) * (len(CSV_COLUMNS) - 1)
        target.write(_csv_line(CSV_COLUMNS) + "\n")
        for w, row in zip(self.grid, self.rows):
            target.write(_csv_line((w, *(gap if row is None else cells(row)))) + "\n")
        for key in ("w_star", "w_hat_numeric", "w_hat_closed"):
            target.write(_csv_line([f"# {key}", getattr(self, key)]) + "\n")


def _closed_threshold(market: MarketSpec, rm: RiskMeasure) -> float | None:
    # the benefit threshold has a closed form in the normal model alone
    if not (isinstance(market.claim, Normal) and isinstance(market.asset, Normal)):
        return None
    try:
        return _benefit_threshold(market.claim.mean, market.claim.sd,
                                  market.asset.mean, market.asset.sd,
                                  rm.multiplier)
    except ValueError:
        return None


def _derive_weights(grid: tuple[float, ...], rows: list[ValuationResult | None],
                    ) -> tuple[float | None, float | None]:
    limit = next((i for i, row in enumerate(rows) if row is None), len(rows))
    if limit == 0:
        return None, None
    r0s = [rows[i].r0 for i in range(limit)]
    w_star = grid[r0s.index(min(r0s))]  # the first minimum

    base = r0s[0]
    w_hat = None
    for i in range(1, limit):
        gap = r0s[i] - base
        if gap >= 0.0:
            prev_gap = r0s[i - 1] - base
            if prev_gap < 0.0:
                w_prev, w_cur = grid[i - 1], grid[i]
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

    ``market.w`` is ignored; the grid supplies every weight, and
    ``valuation.valuations`` picks the method, Monte Carlo on one
    scenario set of ``mc_n`` draws from ``seed`` wherever no closed form
    applies.  Weights where no capital level is acceptable become gap
    rows, among them every normal-model weight whose mean return mu_w
    does not exceed its risk charge (mu_w <= 0 included), and the
    summary weights come from the feasible prefix.

    Returns:
        SweepResult with per-weight valuations, the capital-minimizing
        weight, the numeric benefit threshold (linear interpolation of
        the first up-crossing of the risk-less requirement; None when
        the requirement does not fall below the risk-less level at the
        first grid step, so no crossing can be interpolated on that
        grid) and, in the normal model, its closed form.
    """
    ws = check_grid(grid)
    if ws[0] != 0.0:
        raise ValueError("grid must include w = 0 as its first point")
    rows = [None if isinstance(row, NoSolutionError) else row
            for row in valuations(market, rm, ws, mc_n=mc_n, seed=seed)]
    w_star, w_hat_numeric = _derive_weights(ws, rows)
    return SweepResult(grid=ws, rows=tuple(rows), w_star=w_star, w_hat_numeric=w_hat_numeric,
                       w_hat_closed=_closed_threshold(market, rm))
