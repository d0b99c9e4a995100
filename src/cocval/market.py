"""What every route shares, on the standard library alone: the market
a command describes, the report of an empirical root and the error a
solve without an acceptable capital level ends with, the check of a
grid of mix weights, and the physical-memory guard.

The empirical root on a Monte Carlo scenario set lives in
``capital_solver``, which imports numpy; nothing here does, so a
closed-form command never loads it.  The closed-form requirements sit
next to the valuations that use them, in ``valuation``.
"""

from __future__ import annotations

import math
import os

from ._record import Record
from .distributions import Distribution

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .capital_solver import LossSummary

__all__ = [
    "MarketSpec",
    "SolveReport",
    "NoSolutionError",
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
    """Outcome of the empirical root at one weight of a grid.

    ``residual`` is the risk measure re-evaluated at the returned level,
    in capital units (zero to round-off).  ``iterations`` counts the
    selections the root made on its weight: the VaR one, then under ES
    the Newton steps, which start from the bounds of the grid's polygon
    (``capital_solver._polygon``).  A weight rerun on all scenarios
    reports the rerun's count.  ``losses`` summarizes the losses
    X - r0 Z for ``valuation.mc_valuation``; it takes no part in
    equality, hash or repr.
    """

    def __init__(self, r0: float, residual: float, iterations: int,
                 std_error: float | None = None, losses: LossSummary | None = None) -> None:
        self._store(r0, residual, iterations, std_error, losses)


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
