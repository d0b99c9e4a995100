"""Value-at-Risk and Expected Shortfall on the net-worth sign convention.

A sample entry is a terminal net worth; the loss is its negation.
``var_empirical`` returns the ceil((1 - alpha) n)-th smallest loss, the
left-continuous empirical quantile with no interpolation, so the value
is always an element of the loss sample and translation and scaling
identities hold to the last bit.  ``es_empirical`` averages the
empirical loss quantile over the worst tail with a fractional edge
term, which makes the estimator continuous in alpha.

Neither function mutates caller data; partial selection happens on a
private copy.  Both take an array and import numpy on first use; the
Gaussian constants and the parsing of a measure run on the standard
library alone.
"""

from __future__ import annotations

import math

from ._record import Record
from .distributions import standard_normal_pdf, standard_normal_quantile

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RiskMeasure",
    "var_empirical",
    "es_empirical",
    "var_multiplier",
    "es_multiplier",
]


def _losses(values) -> np.ndarray:
    import numpy as np

    arr = -np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty sample")
    return arr


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")


def tail_count(alpha: float, n: int) -> int:
    """floor(alpha n) with a one-in-1e9 grace.

    Alpha values meant as integral multiples of 1/n must not fall on
    the wrong side of binary rounding (0.3 * 10 is slightly below 3).
    """
    return min(int(math.floor(alpha * n + 1e-9)), n - 1)


def var_empirical(values, alpha: float) -> float:
    """Empirical value-at-risk of a net-worth sample.

    With losses sorted ascending the estimate is the ceil((1 - alpha) n)-th
    smallest, the left-continuous generalized inverse of the loss
    distribution at level 1 - alpha.
    """
    losses = _losses(values)
    _check_alpha(alpha)
    n = losses.size
    rank = n - tail_count(alpha, n)  # 1-based rank of the quantile element
    losses.partition(rank - 1)  # _losses made a private copy
    return float(losses[rank - 1])


def es_empirical(values, alpha: float) -> float:
    """Empirical expected shortfall, the average loss on the worst tail.

    With sorted losses l_1 <= ... <= l_n and k = floor(alpha n) the
    estimate is (sum of the k largest + (alpha n - k) l_{n-k}) / (alpha n),
    the exact tail average of the left-continuous empirical quantile,
    summed as ``shortfall`` sums it.

    Raises:
        ValueError: alpha n < 1, the tail is not resolved at this
            sample size.
    """
    losses = _losses(values)
    _check_alpha(alpha)
    n = losses.size
    k = tail_count(alpha, n)
    if k < 1:
        raise ValueError("alpha * n < 1: tail not resolved at this sample size")
    tail = losses.copy()
    tail.partition(n - k - 1)
    q = float(tail[n - k - 1])
    return shortfall(losses[losses > q], q, alpha * n)


def shortfall(above: np.ndarray, q: float, tail: float) -> float:
    """The empirical ES (tail = alpha n) from the (k+1)-th largest loss q
    and the losses above it, in sample order: (sum above + (tail - a) q)
    / tail for the a losses above q, since the k largest are these and
    k - a ties at q.  The sum runs in sample order, not in the order a
    selection leaves, so the value is that of the sample."""
    return (float(above.sum()) + (tail - above.size) * q) / tail


def tail_average(losses: np.ndarray, k: int, tail: float) -> tuple[float, float]:
    """``es_empirical`` of losses (k = tail_count, tail = alpha n) and the
    (k+1)-th largest, selecting in place; the tail is summed in the order
    the selection leaves it, so the last bits depend on that order."""
    n = losses.size
    losses.partition(n - k - 1)
    q = float(losses[n - k - 1])
    return (float(losses[n - k:].sum()) + max(tail - k, 0.0) * q) / tail, q


def var_multiplier(alpha: float) -> float:
    """Standard-normal VaR constant, the (1 - alpha) quantile."""
    _check_alpha(alpha)
    return standard_normal_quantile(1.0 - alpha)


def es_multiplier(alpha: float) -> float:
    """Standard-normal ES constant: pdf at the (1 - alpha) quantile over alpha."""
    return standard_normal_pdf(var_multiplier(alpha)) / alpha


class RiskMeasure(Record):
    """Solvency criterion: VaR or ES at a tail level alpha in (0, 1/2).

    The upper bound 1/2 keeps the Gaussian multiplier positive, which
    every closed form in the package relies on.
    """

    def __init__(self, kind: str, alpha: float) -> None:
        if kind not in ("var", "es"):
            raise ValueError("kind must be 'var' or 'es'")
        if not 0.0 < alpha < 0.5:
            raise ValueError("alpha must lie strictly inside (0, 1/2)")
        self._store(kind, alpha)

    @property
    def multiplier(self) -> float:
        """Gaussian tail constant of the measure."""
        if self.kind == "var":
            return var_multiplier(self.alpha)
        return es_multiplier(self.alpha)

    def empirical(self, values) -> float:
        if self.kind == "var":
            return var_empirical(values, self.alpha)
        return es_empirical(values, self.alpha)

    @classmethod
    def from_config(cls, spec: dict) -> "RiskMeasure":
        """Parse ``{"kind": "var" | "es", "alpha": ...}``."""
        if not isinstance(spec, dict) or set(spec) != {"kind", "alpha"}:
            raise ValueError("risk measure spec needs exactly the keys 'kind' and 'alpha'")
        return cls(kind=spec["kind"], alpha=float(spec["alpha"]))
