"""Analytic scalar distributions for claims and asset returns.

Every model in the engine is built from four families: normal,
lognormal, Pareto type I, and a degenerate point mass standing in for
the risk-less bond.  Each one exposes a closed-form quantile, exact
first and second moments, and stop-loss expectations.

``sample`` is strict inverse-transform sampling from caller-supplied
uniforms.  No distribution owns an RNG: the scenario module hands the
same uniforms to every distribution, which is what makes common random
numbers work across model families and parameter values.  It is the one
function that takes an array: ``sample(u, work)``, which the Monte Carlo
sampler calls on every block, writes its draws over the uniforms u,
which it does not check, in ``work``, two arrays of u's shape that the
caller owns.  Everything else is scalar: ``quantile(p)`` takes one level
and returns a float, so a closed-form run does not load numpy.  The
normal quantile is Wichura's AS241 with the coefficients of CPython's
``statistics``: in Python floats for a level, in the operation order of
``NormalDist.inv_cdf`` and so equal to it bit for bit, and in numpy for
a block.  No path imports scipy or ``statistics``.
"""

from __future__ import annotations

import math

from ._record import Record

TYPE_CHECKING = False
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


def _probability(p: float) -> float:
    # p as a float strictly inside (0, 1), nan refused; a list or an array
    # is a TypeError, which numpy 1.x's float() of one entry would not give
    if getattr(p, "ndim", 0):
        raise TypeError("probability level must be a scalar")
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


# Wichura's AS241 (Applied Statistics 37(3), 1988), as CPython's
# ``statistics`` writes it: the numerator and denominator coefficients of
# each region's rational, highest power first.  The central one is in
# r = 0.180625 - q^2 for q = p - 0.5, |q| <= 0.425; the tail ones in
# r - 1.6 for r = sqrt(-log min(p, 1 - p)) <= 5, and in r - 5 beyond.
_CENTRAL = ((2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4,
             6.72657_70927_00870_0853e+4, 4.59219_53931_54987_1457e+4,
             1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
             1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
            (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4,
             3.93078_95800_09271_0610e+4, 2.12137_94301_58659_5867e+4,
             5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
             4.23133_30701_60091_1252e+1, 1.0))
_NEAR_TAIL = ((7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2,
               2.41780_72517_74506_11770e-1, 1.27045_82524_52368_38258e+0,
               3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
               4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
              (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4,
               1.51986_66563_61645_71966e-2, 1.48103_97642_74800_74590e-1,
               6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
               2.05319_16266_37758_82187e+0, 1.0))
_FAR_TAIL = ((2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5,
              1.24266_09473_88078_43860e-3, 2.65321_89526_57612_30930e-2,
              2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
              5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
             (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7,
              1.84631_83175_10054_68180e-5, 7.86869_13114_56132_59100e-4,
              1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
              5.99832_20655_58879_37690e-1, 1.0))


def _horner(coeffs: tuple[float, ...], r, out: np.ndarray | None = None):
    # ((c0 r + c1) r + ...) + c7 in the standard library's order: a float
    # for a float r; for an array, in out or a fresh array, never in r,
    # which every step reads
    if out is None:
        acc = coeffs[0] * r
    else:
        import numpy as np

        acc = np.multiply(coeffs[0], r, out=out)
    for c in coeffs[1:-1]:
        acc += c
        acc *= r
    acc += coeffs[-1]
    return acc


def _rational(coeffs, r):
    # numerator over denominator of a tail pair above, on a float or an array
    x = _horner(coeffs[0], r)
    x /= _horner(coeffs[1], r)
    return x


def _as241(p: np.ndarray, work: np.ndarray) -> np.ndarray:
    # The standard normal quantile of every entry of p, each strictly
    # inside (0, 1), written over p; work is two arrays of p's shape.  The
    # tail rationals run only on the entries beyond |q| = 0.425, about 15%
    # of uniform draws, in arrays of their own; the central one runs on all
    # entries (its denominator stays above 0.002 for every |q| < 0.5) and
    # the tail values are put over it.
    import numpy as np

    q, r = work
    np.subtract(p, 0.5, out=q)
    tail = np.flatnonzero(np.abs(q, out=r) > 0.425)
    t = np.take(p, tail)
    np.minimum(t, 1.0 - t, out=t)
    np.log(t, out=t)
    np.negative(t, out=t)
    np.sqrt(t, out=t)
    y = _rational(_NEAR_TAIL, t - 1.6)
    far = np.flatnonzero(t > 5.0)
    if far.size:
        np.put(y, far, _rational(_FAR_TAIL, np.take(t, far) - 5.0))
    np.copysign(y, np.take(q, tail), out=y)

    np.multiply(q, q, out=r)
    np.subtract(0.180625, r, out=r)
    x = _horner(_CENTRAL[0], r, out=p)
    x *= q
    x /= _horner(_CENTRAL[1], r, out=q)  # q is spent: its buffer takes the denominator
    np.put(x, tail, y)
    return x


def _as241_float(p: float) -> float:
    # The standard normal quantile of p strictly inside (0, 1), as the
    # standard library's ``_normal_dist_inv_cdf`` computes it at mu = 0,
    # sigma = 1: the same operations in the same order, so the same float.
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return _horner(_CENTRAL[0], r) * q / _horner(_CENTRAL[1], r)
    r = math.sqrt(-math.log(p if q <= 0.0 else 1.0 - p))
    x = _rational(_NEAR_TAIL, r - 1.6) if r <= 5.0 else _rational(_FAR_TAIL, r - 5.0)
    return -x if q < 0.0 else x


def standard_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF, by AS241 in Python floats: equal bit
    for bit to the standard library's ``NormalDist().inv_cdf(p)``.  The
    numpy AS241 of ``Normal.sample`` differs from it only where numpy's
    ``log`` rounds differently from ``math.log``, by at most 1e-15
    relative; both are within 2e-15 relative of scipy's ``ndtri`` for p
    from 1e-300 to 1 - 2^-53.

    Raises:
        TypeError: p is a list or an array.
        ValueError: p outside the open interval (0, 1), nan included.
    """
    return _as241_float(_probability(p))


class Normal(Record):
    """Normal claim or return model.

    ``sd == 0`` is a point mass at ``mean``, which a config may give; the
    methods branch on it.
    """

    def __init__(self, mean: float, sd: float) -> None:
        if not math.isfinite(mean):
            raise ValueError("mean must be finite")
        if not 0.0 <= sd < math.inf:
            raise ValueError("sd must be nonnegative and finite")
        self._store(mean, sd)

    @property
    def variance(self) -> float:
        return self.sd * self.sd

    @property
    def nonnegative(self) -> bool:
        return self.sd == 0.0 and self.mean >= 0.0

    def quantile(self, p: float) -> float:
        p = _probability(p)
        return float(self.mean) if self.sd == 0.0 else self.mean + self.sd * _as241_float(p)

    def sample(self, u: np.ndarray, work: np.ndarray) -> np.ndarray:
        """The draws of the uniforms u, written over u; ``work`` is scratch."""
        if self.sd == 0.0:
            return Degenerate(self.mean).sample(u, work)
        u = _as241(u, work)
        u *= self.sd
        u += self.mean
        return u

    def stop_loss(self, t: float) -> float:
        """E[(X - t)^+]."""
        if self.sd == 0.0:
            return max(self.mean - t, 0.0)
        z = (t - self.mean) / self.sd
        return (self.mean - t) * standard_normal_cdf(-z) + self.sd * standard_normal_pdf(z)


class Lognormal(Record):
    """Lognormal model parameterised on the log scale.

    ``exp(G)`` with ``G ~ N(mu_log, sd_log^2)``; the strictly positive
    ``sd_log`` keeps every closed form well defined (use ``Degenerate``
    for a point mass).
    """

    def __init__(self, mu_log: float, sd_log: float) -> None:
        if not math.isfinite(mu_log):
            raise ValueError("mu_log must be finite")
        if not 0.0 < sd_log < math.inf:
            raise ValueError("sd_log must be positive and finite; use Degenerate for a point mass")
        self._store(mu_log, sd_log)

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

    def quantile(self, p: float) -> float:
        return math.exp(self.mu_log + self.sd_log * _as241_float(_probability(p)))

    def sample(self, u: np.ndarray, work: np.ndarray) -> np.ndarray:
        """The draws of the uniforms u, written over u; ``work`` is scratch."""
        import numpy as np

        return np.exp(Normal(self.mu_log, self.sd_log).sample(u, work), out=u)

    def stop_loss(self, t: float) -> float:
        """E[(X - t)^+], closed form via the partial expectation."""
        if t <= 0.0:
            return self.mean - t
        z = (math.log(t) - self.mu_log) / self.sd_log
        return self.mean * standard_normal_cdf(self.sd_log - z) - t * standard_normal_cdf(-z)


class ParetoTypeI(Record):
    """Pareto type I with survival (x / x_m)^(-beta) beyond x_m.

    ``beta > 1`` guarantees a finite mean; the variance exists only for
    ``beta > 2`` and is reported as ``inf`` otherwise.
    """

    def __init__(self, x_m: float, beta: float) -> None:
        if not 0.0 < x_m < math.inf:
            raise ValueError("x_m must be positive and finite")
        if not 1.0 < beta < math.inf:
            raise ValueError("beta must exceed 1 for a finite mean, and be finite")
        self._store(x_m, beta)

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

    def quantile(self, p: float) -> float:
        return self.x_m * (1.0 - _probability(p)) ** (-1.0 / self.beta)

    def sample(self, u: np.ndarray, work: np.ndarray) -> np.ndarray:
        """The draws of the uniforms u, written over u; ``work`` is scratch."""
        import numpy as np

        np.subtract(1.0, u, out=u)
        u **= -1.0 / self.beta
        u *= self.x_m
        return u

    def stop_loss(self, t: float) -> float:
        """E[(X - t)^+]."""
        if t <= self.x_m:
            return self.mean - t
        return self.x_m * (t / self.x_m) ** (1.0 - self.beta) / (self.beta - 1.0)


class Degenerate(Record):
    """Point mass, e.g. the gross return of the risk-less bond."""

    def __init__(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError("value must be finite")
        self._store(value)

    @property
    def mean(self) -> float:
        return self.value

    @property
    def variance(self) -> float:
        return 0.0

    @property
    def nonnegative(self) -> bool:
        return self.value >= 0.0

    def quantile(self, p: float) -> float:
        _probability(p)
        return float(self.value)

    def sample(self, u: np.ndarray, work: np.ndarray) -> np.ndarray:
        """The draws of the uniforms u, written over u; ``work`` is scratch."""
        u.fill(self.value)
        return u

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

    The matched tail index is ``1 + sqrt(1 + mean^2 / sd^2)``, refused
    unless finite and above 2, and the result unless its variance is
    within 1e-6 relative of ``sd^2``, which refuses sd from about 1e6
    times the mean, where the index's rounding moves the variance.
    """
    if mean <= 0 or sd <= 0:
        raise ValueError("mean and sd must be positive")
    cv = sd / mean
    # a cv below about 1e-154 squares to a subnormal or 0: the index is inf
    beta = 1.0 + math.sqrt(1.0 + 1.0 / (cv * cv)) if cv * cv > 0.0 else math.inf
    if beta == math.inf:
        raise ValueError("sd is too small against the mean: the matched tail index "
                         "is not finite")
    if beta <= 2.0:  # 1 / cv^2 is lost against 1: the variance is infinite
        raise ValueError(f"sd {sd!r} is too large against the mean: the matched tail "
                         "index is not above 2")
    law = pareto_from_mean_beta(mean, beta)
    # the variance of X / sd, on sd's scale so that it cannot overflow
    if not abs(ParetoTypeI(law.x_m / sd, beta).variance - 1.0) <= 1e-6:
        raise ValueError(f"sd {sd!r} is too large against the mean: the matched law's "
                         "variance misses sd^2 by more than 1e-6 relative")
    return law


def pareto_from_mean_beta(mean: float, beta: float) -> ParetoTypeI:
    """Pareto type I with the given mean and tail index, whose scale must not underflow."""
    if beta <= 1:
        raise ValueError("beta must exceed 1, otherwise the mean is infinite")
    if mean <= 0:
        raise ValueError("mean must be positive")
    x_m = mean * (beta - 1.0) / beta
    if x_m == 0.0:
        raise ValueError(f"mean {mean!r} is too small: its scale x_m underflows to 0")
    return ParetoTypeI(x_m=x_m, beta=beta)


# Each family's accepted parameter sets, in the order its builder takes them.
_FORMS = {
    "normal": {("mean", "sd"): Normal},
    "lognormal": {("mu_log", "sd_log"): Lognormal, ("mean", "sd"): lognormal_from_moments},
    "pareto": {("x_m", "beta"): ParetoTypeI, ("mean", "sd"): pareto_from_moments,
               ("mean", "beta"): pareto_from_mean_beta},
    "degenerate": {("value",): Degenerate},
}


def _parameter(kind: str, key: str, value) -> float:
    try:
        if isinstance(value, bool):  # JSON true and false are no numbers
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{kind} parameter {key!r} must be a number, got {value!r}") from None


def distribution_from_config(spec: dict) -> Distribution:
    """Build a distribution from its JSON-style description.

    The ``kind`` key selects the family; remaining keys are either the
    native parameters or the ``{"mean": ..., "sd": ...}`` moment form
    (Pareto also accepts ``{"mean": ..., "beta": ...}``).

    Raises:
        ValueError: an unknown kind, a parameter that is not a finite
            number (a JSON boolean is none, a numeric string is one), or
            keys that match none of the family's parameter sets; the
            message names the keys missing from, or extra to, the closest
            set and lists every set the family accepts.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("distribution spec must be a mapping with a 'kind' key")
    kind = spec["kind"]
    forms = _FORMS.get(kind) if isinstance(kind, str) else None
    if forms is None:
        raise ValueError(f"unknown distribution kind {kind!r}; known: {', '.join(_FORMS)}")
    params = {k: _parameter(kind, k, v) for k, v in spec.items() if k != "kind"}
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
