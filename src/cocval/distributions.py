"""Analytic scalar distributions for claims and asset returns.

Every model in the engine is built from four families: normal,
lognormal, Pareto type I, and a degenerate point mass standing in for
the risk-less bond.  Each one exposes a closed-form quantile, exact
first and second moments, and stop-loss expectations.

``sample`` is strict inverse-transform sampling from caller-supplied
uniforms.  No distribution owns an RNG: the scenario module hands the
same uniforms to every distribution, which is what makes common random
numbers work across model families and parameter values.

The quantile is the one function that takes an array: the Monte Carlo
transforms call it on every block of uniforms.  A scalar level (a
number, or a numpy scalar or 0-d array) runs on ``math`` and
``statistics`` and returns a float; a list, tuple or array of one or
more dimensions returns a numpy array, and numpy is imported on that
first use.  The normal quantile is the standard library's
``NormalDist.inv_cdf`` for a scalar and scipy's ``ndtri`` for an array,
imported on first use.  Everything else, the normal CDF and density
included, is scalar, so a closed-form run loads neither numpy nor
scipy.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Normal",
    "Lognormal",
    "ParetoTypeI",
    "Degenerate",
    "Distribution",
    "lognormal_from_moments",
    "pareto_from_moments",
    "pareto_from_mean_beta",
    "distribution_from_config",
    "standard_normal_cdf",
    "standard_normal_pdf",
    "standard_normal_quantile",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_STANDARD_NORMAL = statistics.NormalDist()


def _full(shape, value: float) -> np.ndarray:
    import numpy as np

    return np.full(shape, value)


def _probabilities(p) -> float | np.ndarray:
    """p as a float, or as a float array when it is one, each checked to
    lie strictly inside (0, 1).

    Raises:
        ValueError: a p outside the open interval, nan included.
    """
    # a list, a tuple or an array of one or more dimensions; anything
    # else, numpy scalars and 0-d arrays included, is a scalar
    if isinstance(p, (list, tuple)) or getattr(p, "ndim", 0) > 0:
        import numpy as np

        arr = np.asarray(p, dtype=float)
        # min and max propagate nan, which fails both comparisons
        if arr.size and not (0.0 < arr.min() and arr.max() < 1.0):
            raise ValueError("probability level must lie strictly inside (0, 1)")
        return arr
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("probability level must lie strictly inside (0, 1)")
    return p


def standard_normal_cdf(x: float) -> float:
    """P(G <= x) for standard normal G, accurate in both tails: erfc of
    -x / sqrt(2), halved, from ``math.erfc``."""
    return 0.5 * math.erfc(-x / _SQRT2)


def standard_normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_TWO_PI


def standard_normal_quantile(p) -> float | np.ndarray:
    """Inverse standard normal CDF.

    A scalar p takes the standard library's ``NormalDist.inv_cdf``
    (Wichura's AS241) and returns a float; an array takes scipy's
    ``ndtri``, imported on first use, so Monte Carlo transforms keep
    scipy's values bit for bit.  The two agree within 2e-15 relative
    for p in [1e-12, 1 - 1e-12].

    Raises:
        ValueError: any p outside the open interval (0, 1), nan included.
    """
    p = _probabilities(p)
    if isinstance(p, float):
        return _STANDARD_NORMAL.inv_cdf(p)
    from scipy import special

    return special.ndtri(p)


@dataclass(frozen=True)
class Normal:
    """Normal claim or return model.

    ``sd == 0`` is tolerated as a point-mass marker so that mixed
    returns with zero weight degrade gracefully; solvers route that
    case to their degenerate branches.
    """

    mean: float
    sd: float

    def __post_init__(self) -> None:
        if self.sd < 0:
            raise ValueError("sd must be nonnegative")

    @property
    def variance(self) -> float:
        return self.sd * self.sd

    @property
    def nonnegative(self) -> bool:
        return self.sd == 0.0 and self.mean >= 0.0

    def quantile(self, p) -> float | np.ndarray:
        p = _probabilities(p)
        if self.sd == 0.0:
            return float(self.mean) if isinstance(p, float) else _full(p.shape, self.mean)
        return self.mean + self.sd * standard_normal_quantile(p)

    def sample(self, u) -> float | np.ndarray:
        """Inverse-transform sample; equals ``quantile(u)`` by contract."""
        return self.quantile(u)

    def stop_loss(self, t: float) -> float:
        """E[(X - t)^+]."""
        if self.sd == 0.0:
            return max(self.mean - t, 0.0)
        z = (t - self.mean) / self.sd
        return (self.mean - t) * standard_normal_cdf(-z) + self.sd * standard_normal_pdf(z)


@dataclass(frozen=True)
class Lognormal:
    """Lognormal model parameterised on the log scale.

    ``exp(G)`` with ``G ~ N(mu_log, sd_log^2)``; the strictly positive
    ``sd_log`` keeps every closed form well defined (use ``Degenerate``
    for a point mass).
    """

    mu_log: float
    sd_log: float

    def __post_init__(self) -> None:
        if self.sd_log <= 0:
            raise ValueError("sd_log must be positive; use Degenerate for a point mass")

    @property
    def mean(self) -> float:
        return math.exp(self.mu_log + 0.5 * self.sd_log ** 2)

    @property
    def variance(self) -> float:
        s2 = self.sd_log ** 2
        return math.expm1(s2) * math.exp(2.0 * self.mu_log + s2)

    @property
    def nonnegative(self) -> bool:
        return True

    def quantile(self, p) -> float | np.ndarray:
        p = _probabilities(p)
        log_q = self.mu_log + self.sd_log * standard_normal_quantile(p)
        if isinstance(p, float):
            return math.exp(log_q)
        import numpy as np

        return np.exp(log_q)

    def sample(self, u) -> float | np.ndarray:
        """Inverse-transform sample; equals ``quantile(u)`` by contract."""
        return self.quantile(u)

    def stop_loss(self, t: float) -> float:
        """E[(X - t)^+], closed form via the partial expectation."""
        if t <= 0.0:
            return self.mean - t
        z = (math.log(t) - self.mu_log) / self.sd_log
        return self.mean * standard_normal_cdf(self.sd_log - z) - t * standard_normal_cdf(-z)


@dataclass(frozen=True)
class ParetoTypeI:
    """Pareto type I with survival (x / x_m)^(-beta) beyond x_m.

    ``beta > 1`` guarantees a finite mean; the variance exists only for
    ``beta > 2`` and is reported as ``inf`` otherwise.
    """

    x_m: float
    beta: float

    def __post_init__(self) -> None:
        if self.x_m <= 0:
            raise ValueError("x_m must be positive")
        if self.beta <= 1:
            raise ValueError("beta must exceed 1 for a finite mean")

    @property
    def mean(self) -> float:
        return self.x_m * self.beta / (self.beta - 1.0)

    @property
    def variance(self) -> float:
        if self.beta <= 2.0:
            return math.inf
        return self.x_m ** 2 * self.beta / ((self.beta - 1.0) ** 2 * (self.beta - 2.0))

    @property
    def nonnegative(self) -> bool:
        return True

    def quantile(self, p) -> float | np.ndarray:
        p = _probabilities(p)
        return self.x_m * (1.0 - p) ** (-1.0 / self.beta)

    def sample(self, u) -> float | np.ndarray:
        """Inverse-transform sample; equals ``quantile(u)`` by contract."""
        return self.quantile(u)

    def stop_loss(self, t: float) -> float:
        """E[(X - t)^+]."""
        if t <= self.x_m:
            return self.mean - t
        return self.x_m * (t / self.x_m) ** (1.0 - self.beta) / (self.beta - 1.0)


@dataclass(frozen=True)
class Degenerate:
    """Point mass, e.g. the gross return of the risk-less bond."""

    value: float

    @property
    def mean(self) -> float:
        return self.value

    @property
    def variance(self) -> float:
        return 0.0

    @property
    def nonnegative(self) -> bool:
        return self.value >= 0.0

    def quantile(self, p) -> float | np.ndarray:
        p = _probabilities(p)
        return float(self.value) if isinstance(p, float) else _full(p.shape, self.value)

    def sample(self, u) -> float | np.ndarray:
        return self.quantile(u)

    def stop_loss(self, t: float) -> float:
        return max(self.value - t, 0.0)


Distribution = Normal | Lognormal | ParetoTypeI | Degenerate


def lognormal_from_moments(mean: float, sd: float) -> Lognormal:
    """Lognormal whose first two moments match ``mean`` and ``sd`` exactly.

    Examples:
        >>> d = lognormal_from_moments(1.0, 0.3)
        >>> round(d.sd_log ** 2, 6)
        0.086178
    """
    if mean <= 0:
        raise ValueError("mean must be positive")
    if sd <= 0:
        raise ValueError("sd must be positive; use Degenerate for a point mass")
    s2 = math.log1p((sd / mean) ** 2)
    return Lognormal(mu_log=math.log(mean) - 0.5 * s2, sd_log=math.sqrt(s2))


def pareto_from_moments(mean: float, sd: float) -> ParetoTypeI:
    """Pareto type I with the given first two moments.

    The matched tail index is ``1 + sqrt(1 + mean^2 / sd^2)``, always
    above 2, so the variance of the result is finite and equals
    ``sd^2``.
    """
    if mean <= 0 or sd <= 0:
        raise ValueError("mean and sd must be positive")
    cv = sd / mean
    # a cv below about 1e-154 squares to a subnormal or 0: the index is inf
    beta = 1.0 + math.sqrt(1.0 + 1.0 / (cv * cv)) if cv * cv > 0.0 else math.inf
    if beta == math.inf:
        raise ValueError("sd is too small against the mean: the matched tail index "
                         "is not finite")
    return ParetoTypeI(x_m=mean * (beta - 1.0) / beta, beta=beta)


def pareto_from_mean_beta(mean: float, beta: float) -> ParetoTypeI:
    """Pareto type I with the given mean and tail index."""
    if beta <= 1:
        raise ValueError("beta must exceed 1, otherwise the mean is infinite")
    if mean <= 0:
        raise ValueError("mean must be positive")
    return ParetoTypeI(x_m=mean * (beta - 1.0) / beta, beta=beta)


# Each family's accepted parameter sets, in the order its builder takes them.
_FORMS = {
    "normal": {("mean", "sd"): Normal},
    "lognormal": {("mu_log", "sd_log"): Lognormal, ("mean", "sd"): lognormal_from_moments},
    "pareto": {("x_m", "beta"): ParetoTypeI, ("mean", "sd"): pareto_from_moments,
               ("mean", "beta"): pareto_from_mean_beta},
    "degenerate": {("value",): Degenerate},
}


def distribution_from_config(spec: dict) -> Distribution:
    """Build a distribution from its JSON-style description.

    The ``kind`` key selects the family; remaining keys are either the
    native parameters or the ``{"mean": ..., "sd": ...}`` moment form
    (Pareto also accepts ``{"mean": ..., "beta": ...}``).

    Raises:
        ValueError: an unknown kind, a parameter that is not a finite
            number, or keys that match none of the family's parameter
            sets; the message names the keys missing from, or extra to,
            the closest set and lists every set the family accepts.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("distribution spec must be a mapping with a 'kind' key")
    kind = spec["kind"]
    forms = _FORMS.get(kind) if isinstance(kind, str) else None
    if forms is None:
        raise ValueError(f"unknown distribution kind {kind!r}; known: {', '.join(_FORMS)}")
    params = {k: float(v) for k, v in spec.items() if k != "kind"}
    if not all(math.isfinite(v) for v in params.values()):
        raise ValueError(f"distribution parameters must be finite: {params}")
    keys = set(params)
    for names, build in forms.items():
        if keys == set(names):
            return build(*(params[k] for k in names))

    def mismatch(names):
        return sorted(set(names) - keys), sorted(keys - set(names))

    closest = min(forms, key=lambda names: sum(map(len, mismatch(names))))
    missing, extra = mismatch(closest)
    found = "; ".join(f"{label} {', '.join(map(repr, ks))}"
                      for label, ks in (("missing", missing), ("extra", extra)) if ks)
    accepted = " or ".join("{" + ", ".join(names) + "}" for names in forms)
    raise ValueError(f"{kind} parameters {sorted(keys)}: {found} for "
                     f"{{{', '.join(closest)}}}; {kind} accepts {accepted}")
