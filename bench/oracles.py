"""Independent reference values for the benchmark's output checks.

Nothing here imports cocval.  Every reference comes from scipy
(``stats``, ``special``, ``integrate``, ``optimize``), built from the same
JSON distribution specs the command line receives, so a fault in the
program's own distributions, quantiles, solvers or quadrature cannot hide
in both the output and its check.

Notation: claim X, risky gross return S, mixed return Z = w S + 1 - w,
capital r, tail level alpha, cost-of-capital rate eta.  The solvency
criterion is VaR_alpha(r Z - X) = 0 or ES_alpha(r Z - X) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from scipy import integrate, optimize, special, stats

# The asset integral runs over the standard normal g behind S on
# [-G_SPAN, G_SPAN]; the neglected mass is below 1e-22.
G_SPAN = 10.0
# Survival level that ends the finite part of the premium integral.
TAIL_LEVEL = 1e-13
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Law:
    """One of the four families, with fast scalar sf and stop-loss.

    Parameters on the native scale: normal (mean, sd), lognormal
    (mu_log, sd_log), Pareto type I (x_m, beta), degenerate (value, 0).
    ``frozen`` is the matching scipy.stats distribution; the scalar
    methods use scipy.special directly because quadrature calls them
    hundreds of thousands of times.
    """

    kind: str
    a: float
    b: float

    @cached_property
    def frozen(self):
        if self.kind == "normal":
            return stats.norm(loc=self.a, scale=self.b)
        if self.kind == "lognormal":
            return stats.lognorm(s=self.b, scale=math.exp(self.a))
        if self.kind == "pareto":
            return stats.pareto(b=self.b, scale=self.a)
        raise ValueError("a point mass has no scipy.stats form")

    @cached_property
    def mean(self) -> float:
        return self.a if self.kind == "degenerate" else float(self.frozen.mean())

    @property
    def nonnegative(self) -> bool:
        return self.kind in ("lognormal", "pareto") or (
            self.kind == "degenerate" and self.a >= 0.0)

    def isf(self, p: float) -> float:
        return self.a if self.kind == "degenerate" else float(self.frozen.isf(p))

    def sf(self, t: float) -> float:
        kind, a, b = self.kind, self.a, self.b
        if kind == "normal":
            return float(special.ndtr((a - t) / b))
        if kind == "lognormal":
            return 1.0 if t <= 0.0 else float(special.ndtr((a - math.log(t)) / b))
        if kind == "pareto":
            return 1.0 if t <= a else (t / a) ** -b
        return 1.0 if t < a else 0.0

    def stop_loss(self, k: float) -> float:
        """E[(X - k)^+]."""
        kind, a, b = self.kind, self.a, self.b
        if kind == "normal":
            d = (a - k) / b
            return (a - k) * float(special.ndtr(d)) + b * math.exp(-0.5 * d * d) / _SQRT_TWO_PI
        if kind == "lognormal":
            if k <= 0.0:
                return self.mean - k
            d2 = (a - math.log(k)) / b
            return self.mean * float(special.ndtr(d2 + b)) - k * float(special.ndtr(d2))
        if kind == "pareto":
            if k <= a:
                return self.mean - k
            return a * (k / a) ** (1.0 - b) / (b - 1.0)
        return max(a - k, 0.0)

    def kinks(self) -> list[float]:
        return [self.a] if self.kind in ("pareto", "degenerate") else []


def law_from_spec(spec: dict) -> Law:
    """Parse the command line's distribution JSON without using cocval."""
    kind = spec["kind"]
    keys = set(spec) - {"kind"}
    if kind == "normal" and keys == {"mean", "sd"}:
        return Law("normal", float(spec["mean"]), float(spec["sd"]))
    if kind == "lognormal":
        if keys == {"mu_log", "sd_log"}:
            return Law("lognormal", float(spec["mu_log"]), float(spec["sd_log"]))
        if keys == {"mean", "sd"}:
            s2 = math.log1p((spec["sd"] / spec["mean"]) ** 2)
            return Law("lognormal", math.log(spec["mean"]) - 0.5 * s2, math.sqrt(s2))
    if kind == "pareto":
        if keys == {"x_m", "beta"}:
            return Law("pareto", float(spec["x_m"]), float(spec["beta"]))
        if keys == {"mean", "beta"}:
            beta = float(spec["beta"])
            return Law("pareto", spec["mean"] * (beta - 1.0) / beta, beta)
        if keys == {"mean", "sd"}:
            # Var / mean^2 = 1 / (beta (beta - 2)) solved for beta.
            beta = 1.0 + math.sqrt(1.0 + (spec["mean"] / spec["sd"]) ** 2)
            return Law("pareto", spec["mean"] * (beta - 1.0) / beta, beta)
    if kind == "degenerate" and keys == {"value"}:
        return Law("degenerate", float(spec["value"]), 0.0)
    raise ValueError(f"unsupported distribution spec {spec!r}")


@dataclass(frozen=True)
class Market:
    claim: Law
    asset: Law
    w: float

    @property
    def z_const(self) -> float | None:
        """The mixed return when it is a sure number, else None."""
        if self.w == 0.0:
            return 1.0
        if self.asset.kind == "degenerate":
            return self.w * self.asset.a + 1.0 - self.w
        return None

    @property
    def z_mean(self) -> float:
        return self.w * self.asset.mean + 1.0 - self.w

    def _s_of_g(self, g: float) -> float:
        a, b = self.asset.a, self.asset.b
        return math.exp(a + b * g) if self.asset.kind == "lognormal" else a + b * g

    def _g_of_z(self, z: float) -> float | None:
        s = (z - 1.0 + self.w) / self.w
        if self.asset.kind == "lognormal":
            return None if s <= 0.0 else (math.log(s) - self.asset.a) / self.asset.b
        return (s - self.asset.a) / self.asset.b

    def expect_z(self, f, z_kinks=()) -> float:
        """E[f(Z)] by adaptive quadrature over the standard normal g behind S.

        ``z_kinks`` are values of Z where f is not smooth; they become
        quadrature breakpoints.
        """
        zc = self.z_const
        if zc is not None:
            return f(zc)
        s_of_g, w = self._s_of_g, self.w
        points = []
        for z in z_kinks:
            g = self._g_of_z(z)
            if g is not None and -G_SPAN < g < G_SPAN:
                points.append(g)
        value, _ = integrate.quad(
            lambda g: math.exp(-0.5 * g * g) / _SQRT_TWO_PI * f(w * s_of_g(g) + 1.0 - w),
            -G_SPAN, G_SPAN, points=sorted(points) or None,
            epsabs=1e-14, epsrel=1e-12, limit=400)
        return value

    def loss_sf(self, r: float, t: float) -> float:
        """P(X - r Z > t)."""
        return self.expect_z(lambda z: self.claim.sf(r * z + t),
                             [(k - t) / r for k in self.claim.kinks()])

    def loss_stop_loss(self, r: float, t: float) -> float:
        """E[(X - r Z - t)^+]."""
        return self.expect_z(lambda z: self.claim.stop_loss(r * z + t),
                             [(k - t) / r for k in self.claim.kinks()])

    def _capital_sf(self, r: float, t: float) -> float:
        """P(r Z > t)."""
        zc = self.z_const
        if zc is not None:
            return 1.0 if r * zc > t else 0.0
        return self.asset.sf((t / r - 1.0 + self.w) / self.w)

    def expected_min(self, r: float) -> float:
        """E[min(r Z, X)] from the survival-function form.

        E[min(A, X)] = int_0^inf P(A > t) P(X > t) dt
                       - int_-inf^0 (1 - P(A > t) P(X > t)) dt
        for independent A = r Z and X.
        """
        claim = self.claim
        zc = self.z_const

        def product(t: float) -> float:
            return self._capital_sf(r, t) * claim.sf(t)

        if zc is not None:
            top = r * zc
        else:
            s_top = self.asset.isf(TAIL_LEVEL)
            top = min(r * (self.w * s_top + 1.0 - self.w), claim.isf(TAIL_LEVEL))
        top = max(top, 0.0)
        points = sorted(p for p in claim.kinks() if 0.0 < p < top)
        value = 0.0
        if top > 0.0:
            value, _ = integrate.quad(product, 0.0, top, points=points or None,
                                      epsabs=1e-14, epsrel=1e-12, limit=400)
        if zc is None:
            tail, _ = integrate.quad(product, top, math.inf, epsabs=1e-14, limit=400)
            value += tail
        a_nonneg = zc >= 0.0 if zc is not None else self.asset.nonnegative
        if not (claim.nonnegative and a_nonneg):
            neg, _ = integrate.quad(lambda t: 1.0 - product(t), -math.inf, 0.0,
                                    epsabs=1e-14, limit=400)
            value -= neg
        return value


def _bracket_root(f, guess: float, rtol: float = 4.0 * 2.0 ** -52) -> float:
    """Root of a function that is positive below and negative above it."""
    lo, hi = 0.5 * guess, 2.0 * guess
    for _ in range(200):
        if f(lo) > 0.0:
            break
        lo *= 0.5
    for _ in range(200):
        if f(hi) < 0.0:
            break
        hi *= 2.0
    return optimize.brentq(f, lo, hi, xtol=1e-300, rtol=rtol, maxiter=500)


def var_root(m: Market, alpha: float) -> float:
    """The r with P(X > r Z) = alpha, i.e. VaR_alpha(r Z - X) = 0."""
    guess = m.claim.isf(alpha) / max(m.z_mean, 1e-3)
    return _bracket_root(lambda r: m.loss_sf(r, 0.0) - alpha, guess)


def _loss_var(m: Market, r: float, alpha: float) -> float:
    """VaR_alpha of X - r Z: the t with P(X - r Z > t) = alpha."""
    f = lambda t: m.loss_sf(r, t) - alpha  # noqa: E731
    lo, hi = -r, m.claim.isf(alpha)
    for _ in range(200):
        if f(lo) > 0.0:
            break
        lo = 2.0 * lo - 1.0
    for _ in range(200):
        if f(hi) < 0.0:
            break
        hi = 2.0 * hi + 1.0
    return optimize.brentq(f, lo, hi, xtol=1e-13, rtol=1e-13, maxiter=500)


def expected_shortfall(m: Market, r: float, alpha: float) -> float:
    """ES_alpha(X - r Z) = t* + E[(X - r Z - t*)^+] / alpha at t* = VaR."""
    t = _loss_var(m, r, alpha)
    return t + m.loss_stop_loss(r, t) / alpha


def es_root(m: Market, alpha: float) -> float:
    """The r with ES_alpha(r Z - X) = 0.

    With a sure return the root is ES_alpha(X) / Z, and for a lognormal
    claim ES_alpha(X) is analytic: E[X] Phi(sd_log - z_(1-alpha)) / alpha.
    Otherwise the loss ES is evaluated by quadrature at each trial r.
    """
    zc = m.z_const
    if zc is not None:
        claim = m.claim
        if claim.kind == "lognormal":
            z = stats.norm.isf(alpha)
            es = claim.mean * stats.norm.cdf(claim.b - z) / alpha
        else:
            q = claim.isf(alpha)
            es = q + claim.stop_loss(q) / alpha
        return es / zc
    # The nested solve carries ~1e-13 noise, so the outer root stops at 1e-11.
    guess = m.claim.isf(alpha) / m.z_mean
    return _bracket_root(lambda r: expected_shortfall(m, r, alpha), guess, rtol=1e-11)


def premium(m: Market, r: float, eta: float) -> float:
    """v0 = (E[min(r Z, X)] + eta r + r (1 - E Z)) / (1 + eta) at capital r."""
    return (m.expected_min(r) + eta * r + r * (1.0 - m.z_mean)) / (1.0 + eta)


# --- the normal model, from its defining equations -----------------------

def gaussian_multiplier(kind: str, alpha: float) -> float:
    z = float(stats.norm.isf(alpha))
    return z if kind == "var" else float(stats.norm.pdf(z)) / alpha


def gaussian_r0(gamma: float, nu: float, mu: float, sigma: float,
                multiplier: float) -> float | None:
    """Root of gamma - r mu + multiplier * sqrt(r^2 sigma^2 + nu^2) = 0.

    None when mu <= sigma * multiplier (no positive root).
    """
    if mu <= sigma * multiplier:
        return None
    f = lambda r: gamma - r * mu + multiplier * math.hypot(r * sigma, nu)  # noqa: E731
    return _bracket_root(f, (gamma + multiplier * nu) / mu)


def gaussian_row(gamma: float, nu: float, mu_s: float, sigma_s: float, w: float,
                 kind: str, alpha: float, eta: float) -> dict | None:
    """Reference CSV row of the normal model at weight w.

    The net worth N = r Z - X is normal with mean r mu - gamma and sd
    sqrt(r^2 sigma^2 + nu^2); c0 and llo are its discounted positive and
    negative partial expectations, taken from scipy.stats.norm.
    """
    mu = w * mu_s + 1.0 - w
    sigma = w * sigma_s
    mult = gaussian_multiplier(kind, alpha)
    r0 = gaussian_r0(gamma, nu, mu, sigma, mult)
    if r0 is None:
        return None
    mean_n = r0 * mu - gamma
    sd_n = math.hypot(r0 * sigma, nu)
    d = mean_n / sd_n
    pdf = float(stats.norm.pdf(d))
    pos = mean_n * float(stats.norm.cdf(d)) + sd_n * pdf
    neg = sd_n * pdf - mean_n * float(stats.norm.sf(d))
    c0 = pos / (1.0 + eta)
    upper = ((1.0 + eta - mu) * r0 + gamma) / (1.0 + eta)
    lower = None
    if kind == "var":
        spread = math.sqrt(r0 * r0 * sigma * sigma + nu * nu + mean_n * mean_n)
        lower = r0 - math.sqrt(1.0 - alpha) / (1.0 + eta) * spread
    return {"w": w, "r0": r0, "c0": c0, "v0": r0 - c0, "v0_upper": upper,
            "v0_lower": lower, "llo": neg / (1.0 + eta)}


def gaussian_decision_weights(gamma: float, nu: float, mu_s: float, sigma_s: float,
                              kind: str, alpha: float) -> tuple[float, float]:
    """(capital-minimizing weight, benefit threshold) in the normal model.

    The minimizer comes from minimize_scalar; the threshold is the brentq
    crossing of r0(w) = r0(0) beyond it, or 1 when r0(1) < r0(0).
    """
    mult = gaussian_multiplier(kind, alpha)

    def r0(w: float) -> float:
        return gaussian_r0(gamma, nu, w * mu_s + 1.0 - w, w * sigma_s, mult)

    w_min = optimize.minimize_scalar(r0, bounds=(0.0, 1.0), method="bounded",
                                     options={"xatol": 1e-12}).x
    base = r0(0.0)
    if r0(1.0) < base:
        return float(w_min), 1.0
    w_hat = optimize.brentq(lambda w: r0(w) - base, w_min, 1.0, xtol=1e-15)
    return float(w_min), float(w_hat)
