"""The empirical capital requirement on a Monte Carlo scenario set.

The requirement is the capital level r at which the chosen risk measure
of the terminal net worth r Z - X vanishes, where Z = w S + 1 - w is
the mixed gross return and X the aggregate claim.  Here it is the exact
root of the empirical criterion on a shared scenario set, at every
weight of a grid; the closed forms of the normal and lognormal models
are in ``market``.  Only Monte Carlo runs import this module, and with
it numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .market import NoSolutionError, SolveReport, check_grid
from .montecarlo import BLOCK, in_chunks
from .risk_measures import RiskMeasure, tail_average, tail_count

__all__ = [
    "LossSummary",
    "solve_r0_numeric",
]


@dataclass(frozen=True)
class LossSummary:
    """What the Monte Carlo split needs of the losses L = X - r0 Z and
    their positive parts P = L^+: the sample size, the sample mean and
    variance (ddof 1) of L, the mean of P, the sum of squared deviations
    of P and the sum of P (L - mean L).  Only the positive losses, at
    most a tail's worth, enter the sums over P, and no array is kept."""

    n: int
    mean: float
    var: float
    p_mean: float
    p_ss: float
    pl_sum: float

    @classmethod
    def of(cls, n: int, mean: float, var: float, positive: np.ndarray) -> LossSummary:
        """Summarize from the positive losses, the only nonzero P."""
        p_mean = float(positive.sum()) / n
        p_ss = float(np.square(positive - p_mean).sum()) + (n - positive.size) * p_mean * p_mean
        pl_sum = float((positive * (positive - mean)).sum())
        return cls(n=n, mean=mean, var=var, p_mean=p_mean, p_ss=p_ss, pl_sum=pl_sum)


# Relative slack on the candidate threshold t; the bound behind it is at
# ``_candidate_set``.
_SLACK = 2.0 ** -48
# Pruning needs |t| clear of underflow and overflow (or t = 0).
_PRUNE_RANGE = (2.0 ** -900, 2.0 ** 900)
# Relative margin of an interior ES start below the tangents; the bound
# behind it and the kept set's slack are at ``_triangle``.
_ES_MARGIN = 2.0 ** -40


@dataclass(frozen=True)
class _Triangle:
    """The scenarios that decide the empirical ES root at every weight
    strictly inside a weight range, and the triangle they were kept on.

    With the position P = r (w, 1 - w) in the asset and the bond, the
    vertices are the end roots P_lo and P_hi and the meeting point T of
    their tangents; ``w`` and ``r`` hold their weights and capital
    levels in the order P_lo, T, P_hi.  ``x`` and ``s`` are the kept
    claims and asset returns in scenario order.
    """

    w: tuple[float, float, float]
    r: tuple[float, float, float]
    x: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)

    def bounds(self, w: float) -> tuple[float, float]:
        """The capital levels where the ray of an interior weight w meets
        the tangents and the chord: the triangle's bottom and top."""
        # 1/r is affine in w along a line, and every weight below is >= 0
        (w0, wt, w1), (u0, ut, u1) = self.w, [1.0 / r for r in self.r]
        if w < wt:
            tangent = ((wt - w) * u0 + (w - w0) * ut) / (wt - w0)
        else:
            tangent = ((w1 - w) * ut + (w - wt) * u1) / (w1 - wt)
        chord = ((w1 - w) * u0 + (w - w0) * u1) / (w1 - w0)
        return 1.0 / tangent, 1.0 / chord


@dataclass(frozen=True)
class _Candidates:
    """The scenarios that decide the empirical VaR root at every weight
    between a grid's ends, and the sample moments of the whole scenario
    set.

    ``x`` and ``s`` are the kept claims and asset returns in scenario
    order.  At every weight of the range they hold the k + 1 + m largest
    ratios X/Z (k = floor(alpha n), m = round(sqrt(n)) the density
    window), every positive loss at the root and every scenario with
    S <= 0, the only ones that can have Z <= 0.  ``zero_risk`` is the
    empirical measure of -X, kept only when such a scenario has a
    negative claim.
    """

    n: int
    alpha: float
    k: int
    m: int
    x: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    x_mean: float
    s_mean: float
    x_var: float
    s_var: float
    xs_cov: float
    zero_risk: float | None = None

    def loss_moments(self, r: float, w: float) -> tuple[float, float]:
        """Sample mean and variance (ddof 1) of L = X - r Z at weight w."""
        rw = r * w
        mean = self.x_mean - r * (w * self.s_mean + 1.0 - w)
        var = self.x_var - 2.0 * rw * self.xs_cov + rw * rw * self.s_var
        return mean, max(var, 0.0)


def _mixed_return(s: np.ndarray, w: float) -> np.ndarray:
    # Z = w S + 1 - w, rounded the same way for the candidate bounds and
    # every solve; at w = 0 it is 1 exactly.
    z = np.multiply(s, w)
    z += 1.0 - w
    return z


def _ratios(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    # X/Z; a scenario with x >= 0 >= z loses at every r > 0 (ratio +inf)
    # unless x = z = 0, which never loses (-inf).
    nonpos = z <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = x / z
    ratio[nonpos] = np.where(x[nonpos] > z[nonpos], np.inf, -np.inf)
    return ratio


def _candidate_set(rm: RiskMeasure, x: np.ndarray, s: np.ndarray | None, w_lo: float,
                   w_hi: float) -> _Candidates:
    """Prune a scenario set, its claims x and asset returns s, to the
    candidates for the empirical VaR root on the weight range
    [w_lo, w_hi]; a single weight is the range [w, w].  ``s`` may be None
    when w_hi = 0, where Z = 1.

    A scenario with S > 0 has Z > 0 at every weight, and its exact ratio
    X/Z is monotone in w, so it lies between the ratios at the two ends;
    t is the (k+1+m)-th largest of their minima over these scenarios.
    Z sums two nonnegative terms, each rounded once, and is rounded once
    more, and the division rounds once: a computed ratio is within
    3.01 u of the exact one (u = 2^-53), so the ratio at any weight of
    the range lies within 7 u, relative and sign-aware, of the ends'
    minimum and maximum.  The k+1+m scenarios with minimum >= t
    therefore have ratio >= t - 7u|t| at every weight, and so do the
    k+1+m largest ratios and every positive loss at the root (its ratio
    is at least r0 (1 - 2u)); a scenario whose maximum is below
    t - 17u|t| is none of them.  The kept set uses t - 2^-48 |t| (32 u),
    so every root, density window and positive loss selected on it is
    the full sample's, bit for bit.  Scenarios with S <= 0, where
    w S + 1 - w can cancel or vanish, are always kept.

    Raises:
        ValueError: alpha n < 1, or asset returns missing for w_hi > 0.
    """
    n = x.size
    k = tail_count(rm.alpha, n)
    if k < 1:
        raise ValueError("alpha * n < 1: tail not resolved at this sample size")
    if s is None and w_hi > 0.0:
        raise ValueError("a weight range beyond w = 0 needs the asset returns")
    m = max(1, int(round(math.sqrt(n))))
    x_mean = float(x.mean())
    if s is None:  # w = 0 alone, where Z = 1 exactly: S = 1 in every sum
        zero_risk, s_mean = None, 1.0
    else:
        # does a scenario with S <= 0 have a negative claim?
        negative = in_chunks(lambda a, b: bool(np.any(x[a:b][s[a:b] <= 0.0] < 0.0)), n, 1)
        zero_risk = rm.empirical(-x) if any(negative) else None
        s_mean = float(s.mean())
    keep = _keep_mask(x, s, (w_lo, w_hi), k + m)
    kept_s = np.ones(np.count_nonzero(keep)) if s is None else s[keep]
    x_var, s_var, xs_cov = _centred_moments(x, x_mean, s, s_mean)
    return _Candidates(n=n, alpha=rm.alpha, k=k, m=m, x=x[keep], s=kept_s, x_mean=x_mean,
                       s_mean=s_mean, x_var=x_var, s_var=s_var, xs_cov=xs_cov,
                       zero_risk=zero_risk)


def _keep_mask(x: np.ndarray, s: np.ndarray | None, ends: tuple[float, float],
               j: int) -> np.ndarray:
    # t is the (j+1)-th largest minimum of the end ratios over the
    # scenarios with S > 0.  The end ratios are computed twice, block by
    # block, so that the minima are the only n-long float array.
    n, ends = x.size, tuple(dict.fromkeys(ends))
    if j >= n:
        return np.ones(n, dtype=bool)
    lo = np.empty(n)

    def minima(i: int, k: int) -> None:
        out, xb, sb = lo[i:k], x[i:k], _part(s, i, k)
        np.copyto(out, _end_ratio(xb, sb, ends[0]))
        if len(ends) == 2:
            np.minimum(out, _end_ratio(xb, sb, ends[1]), out=out)
        if sb is not None:
            out[sb <= 0.0] = -np.inf

    _blockwise(minima, n)
    lo.partition(n - 1 - j)
    t = float(lo[n - 1 - j])
    del lo
    if not (t == 0.0 or _PRUNE_RANGE[0] < abs(t) < _PRUNE_RANGE[1]):
        return np.ones(n, dtype=bool)
    bar = t - _SLACK * abs(t)
    keep = np.empty(n, dtype=bool)

    def reach(i: int, k: int) -> None:
        # the maximum of the end ratios reaches the threshold
        out, xb, sb = keep[i:k], x[i:k], _part(s, i, k)
        np.greater_equal(_end_ratio(xb, sb, ends[0]), bar, out=out)
        for w in ends[1:]:
            out |= _end_ratio(xb, sb, w) >= bar
        if sb is not None:  # scenarios with S <= 0 are always kept
            out |= sb <= 0.0

    _blockwise(reach, n)
    return keep


def _end_ratio(x: np.ndarray, s: np.ndarray | None, w: float) -> np.ndarray:
    # X/Z at weight w, not finite where Z <= 0; X itself when Z = 1 (s None)
    if s is None:
        return x.copy()
    z = _mixed_return(s, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(x, z, out=z)


def _blockwise(fn, n: int, size: int = BLOCK) -> list:
    # fn(i, k) on the blocks [i, k) of ``size`` that cover range(n), the
    # chunks of blocks on the pool of ``montecarlo.in_chunks``; the
    # results in block order.  fn writes only into its block's slices.
    def chunk(a: int, b: int) -> list:
        return [fn(i, min(i + size, b)) for i in range(a, b, size)]

    return [r for part in in_chunks(chunk, n, size) for r in part]


# Block length of the moment sums, which keeps their temporaries small.
_MOMENT_BLOCK = 1 << 16


def _centred_moments(x: np.ndarray, x_mean: float, s: np.ndarray | None,
                     s_mean: float) -> tuple[float, float, float]:
    # Var X, Var S and Cov(X, S), ddof 1: pairwise sums of centred
    # products within blocks, added up in block order.  S = 1 when s is
    # None, with no variance and no covariance.
    def block(i: int, k: int) -> tuple[float, float, float]:
        xc = x[i:k] - x_mean
        if s is None:
            return np.square(xc).sum(), 0.0, 0.0
        sc = s[i:k] - s_mean
        return np.square(xc).sum(), np.square(sc).sum(), (xc * sc).sum()

    sums = np.zeros(3)
    for part in _blockwise(block, x.size, _MOMENT_BLOCK):
        sums += part
    x_var, s_var, xs_cov = (sums / (x.size - 1)).tolist()
    return x_var, s_var, xs_cov


def _triangle(x: np.ndarray, s: np.ndarray, k: int,
              tangents: list[tuple[float, float, float]], lo: np.ndarray) -> _Triangle | None:
    """Prune to the scenarios of the interior ES roots, given each end's
    weight, root and tail-weighted mean s_bar of S at the root; ``lo`` is
    an n-long float array it selects in.

    Write the position as P = (a, b) = r (w, 1 - w).  Every loss
    X - a S - b is linear in (a, b), and the empirical ES f(a, b), the
    largest tail-weighted mean of the losses, is convex, so its
    acceptance set {f <= 0} is convex: the chord P_lo P_hi lies in it,
    and r_es(w) is at most the chord's r on the ray of weight w.  The
    tail weights at an end root give the supporting line
    s_bar a + b = s_bar a_end + b_end, below which f is positive: r_es(w)
    is at least the r where the ray meets it.  The two lines meet at T,
    and 1/r is affine in w along each line, so ``_Triangle.bounds`` reads
    both bounds off the vertices.  There is no triangle when the
    tangents are parallel, or T is not finite, not ahead of the origin,
    or outside the end rays.

    An interior solve starts Newton at the larger of the VaR root and
    the tangent bound less a margin mu = 2^-40 of it, and its iterates
    climb to the root; it is accepted only when the root is at most the
    chord bound.  Both bounds are computed within 8u (u = 2^-53) of the
    triangle's, so every iterate (w, r) lies within (mu + 8u) R of the
    triangle along its ray (R the largest vertex r), which moves a loss
    by at most (mu + 8u) R (|S| + 1).  A computed loss X - r Z, at an
    iterate or a vertex, is within 4u (|X| + R (|S| + 1)) of the exact
    one.  So with L = max|X| + R (max|S| + 1), the computed loss of a
    scenario at any iterate lies within e = (mu + 16u) L of the range of
    its computed vertex losses, the extremes over the triangle.  Take t,
    the (k+1)-th largest of the vertex minima: at every iterate the
    (k+1)-th largest loss q is at least t - e, and a scenario whose
    vertex maximum is below t - 4 mu L > t - 2e loses less than q.  The
    kept set therefore holds the k+1 largest losses at every iterate,
    every loss tied at q, and every positive loss at a root with q <= 0;
    a solve with q > 0 is not accepted either.  Every dropped scenario
    counts as below q.
    """
    (w0, r0, s0), (w1, r1, s1) = tangents
    # in (w, u = 1/r) a tangent is u = (1 + (s_bar - 1) w) / c with
    # c = r_end (1 + (s_bar - 1) w_end), the tail mean of Z times r_end
    c0, c1 = r0 * (1.0 + (s0 - 1.0) * w0), r1 * (1.0 + (s1 - 1.0) * w1)
    if not (0.0 < c0 < math.inf and 0.0 < c1 < math.inf):
        return None
    b0, b1 = (s0 - 1.0) / c0, (s1 - 1.0) / c1
    if not b0 != b1:
        return None
    wt = (1.0 / c1 - 1.0 / c0) / (b0 - b1)
    ut = 1.0 / c0 + b0 * wt
    if not (w0 <= wt <= w1 and 0.0 < ut < math.inf):
        return None
    vertices = ((w0, r0), (wt, 1.0 / ut), (w1, r1))
    n = x.size

    def minima(i: int, e: int) -> tuple[float, float]:
        # the vertex minima into lo, and the block's largest |X| and |S|
        out, xb, sb = lo[i:e], x[i:e], s[i:e]
        np.minimum(_vertex_losses(xb, sb, *vertices[0]), _vertex_losses(xb, sb, *vertices[1]),
                   out=out)
        np.minimum(out, _vertex_losses(xb, sb, *vertices[2]), out=out)
        return max(xb.max(), -xb.min()), max(sb.max(), -sb.min())

    x_abs, s_abs = np.max(_blockwise(minima, n), axis=0).tolist()
    lo.partition(n - 1 - k)
    t = float(lo[n - 1 - k])
    scale = x_abs + max(r for _, r in vertices) * (s_abs + 1.0)
    bar = t - 4.0 * _ES_MARGIN * scale
    if not math.isfinite(bar):
        return None
    keep = np.empty(n, dtype=bool)

    def reach(i: int, e: int) -> None:
        out, xb, sb = keep[i:e], x[i:e], s[i:e]
        np.greater_equal(_vertex_losses(xb, sb, *vertices[0]), bar, out=out)
        for v in vertices[1:]:
            out |= _vertex_losses(xb, sb, *v) >= bar

    _blockwise(reach, n)
    return _Triangle(w=tuple(w for w, _ in vertices), r=tuple(r for _, r in vertices),
                     x=x[keep], s=s[keep])


def _vertex_losses(x: np.ndarray, s: np.ndarray, w: float, r: float) -> np.ndarray:
    # X - r Z, computed as a Newton step computes it
    losses = _mixed_return(s, w)
    return np.subtract(x, np.multiply(losses, r, out=losses), out=losses)


def solve_r0_numeric(rm: RiskMeasure, claims: np.ndarray, assets: np.ndarray | None,
                     grid) -> list[SolveReport | NoSolutionError]:
    """Exact capital level with zero empirical risk at every weight of a
    grid, on one scenario set given as its claims X and asset returns S.

    The grid is strictly increasing inside [0, 1]; ``assets`` may be
    None when it is w = 0 alone, where Z = 1.  Each weight gets its
    report, or the ``NoSolutionError`` that says why it has none: no
    capital level is acceptable, or zero capital is already.

    With k = floor(alpha n), the empirical VaR of r Z - X is at most
    zero exactly when at most k losses x - r z are positive, so the VaR
    root is the (k+1)-th largest ratio X/Z; a scenario with Z <= 0 and a
    nonnegative claim loses at every r > 0.  Every weight selects it
    among the candidates built once for the grid's ends
    (``_candidate_set``), which hold that ratio and its density window.
    The empirical ES of r Z - X is convex and piecewise linear in r, so
    Newton steps from below reach its root in finitely many steps, each
    one selection of the losses.  The end weights solve from the VaR
    root on all n losses.  When the grid has interior weights and both
    ends a root, the end roots' chord and tangents bound the interior
    roots (``_triangle``): an interior weight starts from the larger of
    the VaR root and the tangent bound, and selects among the
    triangle's kept scenarios only; it reruns from the VaR root on all
    n losses when there is no triangle or the solve leaves it.

    The standard error of a VaR root is the ratio window's,
    sqrt(alpha (1 - alpha) / n) / f_R(r0), with the density f_R of X/Z
    read from the (k+1 -/+ m)-th largest ratios, clipped to the finite
    ones; none when they coincide.  ES keeps the delta method on the
    tail influence.  A VaR residual is the (k+1)-th largest loss
    X - r0 Z among the candidates.  The report's ``losses`` carries the
    sample moments of L and the sums over its positive values, all the
    split needs.

    The full-length passes (the end-ratio and vertex-loss bounds, the
    moment sums, and the losses, tail masks and positive losses of the
    solves on all n scenarios) run in blocks on the thread pool of
    ``montecarlo.in_chunks``, each block writing its own slice, and only
    the selections run whole; every result is the serial pass's, bit for
    bit.  An ES grid keeps two n-long arrays, the losses and their
    selection, for all its solves on all scenarios.

    Raises:
        ValueError: the grid is not strictly increasing inside [0, 1];
            alpha n < 1; the asset returns are missing for a weight
            beyond w = 0; or a scenario with Z <= 0 has a negative
            claim, which makes the criterion non-monotone, and zero
            capital is not acceptable.
    """
    ws = check_grid(grid)
    c = _candidate_set(rm, claims, assets, ws[0], ws[-1])
    if rm.kind == "var":
        return [_outcome(_var_report, c, w) for w in ws]
    # the losses and their selection of every solve on all scenarios; the
    # triangle selects in the first array after the ends
    work = (np.empty(claims.size), np.empty(claims.size))
    ends: dict[float, SolveReport | NoSolutionError] = {}
    tangents = []
    for w in dict.fromkeys((ws[0], ws[-1])):
        try:
            report, losses, q = _es_report(c, w, claims, assets, _var_root(c, w), work=work)
        except NoSolutionError as exc:
            ends[w] = exc.with_traceback(None)  # as in _outcome
            continue
        ends[w] = report
        if len(ws) > 2:  # interior weights start from the tangents
            # s_bar is the tail mean of Z at w = 1, which is S
            tangents.append((w, report.r0,
                             _tail_mean(assets, 1.0, losses, q, c.k, c.alpha * c.n)))
    tri = _triangle(claims, assets, c.k, tangents, work[0]) if len(tangents) == 2 else None
    return [ends[w] if w in ends else _outcome(_es_interior, c, w, tri, claims, assets, work)
            for w in ws]


def _outcome(solve, *args) -> SolveReport | NoSolutionError:
    # A returned error keeps no traceback, whose frames would hold the
    # failed solve's arrays for as long as the error lives.
    try:
        return solve(*args)
    except NoSolutionError as exc:
        return exc.with_traceback(None)


def _checked_ratios(c: _Candidates, w: float) -> tuple[np.ndarray, np.ndarray, int]:
    # Z and the ratios X/Z of the candidates, and the count of those that
    # always lose, once the criterion is known to be monotone with a root.
    z = _mixed_return(c.s, w)
    if np.any(c.x[z <= 0.0] < 0.0):
        # such a scenario turns into a loss as r grows: only r = 0 is decidable
        if c.zero_risk <= 0.0:
            raise NoSolutionError("claim is acceptable with zero capital")
        raise ValueError("a scenario with Z <= 0 has a negative claim; "
                         "the criterion is not monotone in capital")
    ratio = _ratios(c.x, z)
    always = int(np.count_nonzero(ratio == np.inf))
    if always > c.k:
        raise NoSolutionError(f"more than {c.k} scenarios with Z <= 0 always lose")
    return z, ratio, always


def _var_root(c: _Candidates, w: float) -> float:
    # the VaR root, or 0 when it is not positive: an ES Newton start
    _, ratio, _ = _checked_ratios(c, w)
    i = ratio.size - 1 - c.k
    ratio.partition(i)
    return max(float(ratio[i]), 0.0)


def _var_report(c: _Candidates, w: float) -> SolveReport:
    # Ranks from the top: the root k + 1 and its density window, clipped
    # to the sample and to the finite ratios.
    z, ratio, always = _checked_ratios(c, w)
    size, n, k = ratio.size, c.n, c.k
    top, bottom = max(k + 1 - c.m, always + 1), min(k + 1 + c.m, n)
    ratio.partition([size - bottom, size - 1 - k, size - top])
    r0 = float(ratio[size - 1 - k])
    if r0 <= 0.0:
        raise NoSolutionError("claim is acceptable with zero capital")
    width = float(ratio[size - top] - ratio[size - bottom])
    se = None
    if 0.0 < width < math.inf:
        density = ((bottom - top) / n) / width
        se = math.sqrt(c.alpha * (1.0 - c.alpha) / n) / density
    losses = np.subtract(c.x, np.multiply(z, r0, out=z), out=ratio)
    positive = losses[losses > 0.0]
    losses.partition(size - 1 - k)
    mean, var = c.loss_moments(r0, w)
    return SolveReport(r0=r0, method="empirical_root", residual=float(losses[size - 1 - k]),
                       iterations=1, std_error=se,
                       losses=LossSummary.of(n, mean, var, positive))


def _es_interior(c: _Candidates, w: float, tri: _Triangle | None, x: np.ndarray,
                 s: np.ndarray, work: tuple[np.ndarray, np.ndarray]) -> SolveReport:
    # Newton on the triangle's kept scenarios from its tangent bound, or
    # from the VaR root on all scenarios when there is no triangle or the
    # solve leaves it.
    r_var = _var_root(c, w)
    if tri is not None:
        tangent, chord = tri.bounds(w)
        start = max(r_var, tangent * (1.0 - _ES_MARGIN))
        found = _es_report(c, w, tri.x, tri.s, start, r_max=chord) if start <= chord else None
        if found is not None:
            return found[0]
    return _es_report(c, w, x, s, r_var, work=work)[0]


def _es_report(c: _Candidates, w: float, x: np.ndarray, s: np.ndarray | None, r: float,
               r_max: float = math.inf, work: tuple[np.ndarray, np.ndarray] | None = None,
               ) -> tuple[SolveReport, np.ndarray, float] | None:
    # The ES root from r at or below it on the claims x and asset returns s
    # (Z = 1 when s is None), with the losses at the root and their
    # (k+1)-th largest q.  The scenarios are all n, or a kept set
    # whose dropped ones lose less than q at every iterate up to r_max; on
    # a kept set it is None when Newton stalls, passes r_max, or ends
    # with q > 0, where a positive loss may have been dropped.
    n, k, alpha, size = c.n, c.k, c.alpha, x.size
    tail = alpha * n
    dropped = n - size
    losses, sel = (np.empty(size), np.empty(size)) if work is None else work
    try:
        r0, residual, selections = _es_root(x, s, w, k, tail, r, losses, sel)
    except NoSolutionError:
        if dropped:
            return None
        raise
    upper, q = sel[size - k - 1:], float(sel[size - k - 1])  # L_(n-k), then the k largest
    if dropped and not (r0 <= r_max and q <= 0.0):
        return None
    if r0 <= 0.0:
        raise NoSolutionError("claim is acceptable with zero capital")
    # 1-based ranks i_lo <= n - k <= i_hi of the quantile's density window
    i_lo, i_hi = max(n - k - c.m, 1), min(n - k + c.m, n)
    slope = float(_gather(lambda i, e: _z_at(_part(s, i, e), w, losses[i:e] >= q), size).mean())
    # Delta-method standard error: the noise of the empirical ES over the
    # mean mixed return beyond the boundary; none when an atom spans the
    # density window.
    se = None
    if slope > 0.0 and not (n - k + np.count_nonzero(upper[1:] == q) >= i_hi
                            and np.count_nonzero(losses < q) + dropped < i_lo):
        # the influence q + (L - q)^+ / alpha equals q off the k largest losses
        excess = (upper[1:] - q) / alpha
        mean = float(excess.sum()) / n
        var = (float(np.square(excess - mean).sum()) + (n - k) * mean * mean) / (n - 1)
        se = math.sqrt(var / n) / slope
    # every loss below L_(n-k) is at most q
    positive = (upper[upper > 0.0] if q <= 0.0 else
                _gather(lambda i, e: losses[i:e][losses[i:e] > 0.0], size))
    mean, var = c.loss_moments(r0, w)
    report = SolveReport(r0=r0, method="empirical_root", residual=residual,
                         iterations=selections, std_error=se,
                         losses=LossSummary.of(n, mean, var, positive))
    return report, losses, q


def _part(s: np.ndarray | None, i: int, e: int) -> np.ndarray | None:
    return None if s is None else s[i:e]


def _z_at(s: np.ndarray | None, w: float, mask: np.ndarray) -> np.ndarray:
    # Z = w S + 1 - w on the scenarios of a mask, as ``_mixed_return``
    # rounds it; 1 when s is None
    return np.ones(np.count_nonzero(mask)) if s is None else _mixed_return(s[mask], w)


def _gather(fn, n: int) -> np.ndarray:
    # the arrays fn(i, e) of the blocks, in scenario order
    return np.concatenate(_blockwise(fn, n))


def _tail_mean(s: np.ndarray | None, w: float, losses: np.ndarray, q: float, k: int,
               tail: float) -> float:
    # The mean of Z = w S + 1 - w under the ES tail weights of the losses:
    # 1/tail on each loss above the (k+1)-th largest q, the rest shared
    # equally by the ties at q.
    def block(i: int, e: int) -> tuple[np.ndarray, np.ndarray]:
        lb, sb = losses[i:e], _part(s, i, e)
        return _z_at(sb, w, lb > q), _z_at(sb, w, lb == q)

    above, tied = (np.concatenate(z) for z in zip(*_blockwise(block, losses.size)))
    edge = k - above.size + max(tail - k, 0.0)
    return (float(above.sum()) + edge * float(tied.mean())) / tail


def _es_root(x: np.ndarray, s: np.ndarray | None, w: float, k: int, tail: float, r: float,
             losses: np.ndarray, sel: np.ndarray) -> tuple[float, float, int]:
    # Newton's method on the empirical ES from r at or below the root; the
    # slope is minus the tail-weighted mean of Z = w S + 1 - w (1 when s is
    # None).  Selections count the VaR one.  It leaves the losses at the
    # returned r in ``losses``, selected in ``sel``.
    def fill(i: int, e: int) -> None:
        # X - r Z and its copy for the selection, block by block on the pool
        z = np.ones(e - i) if s is None else _mixed_return(s[i:e], w)
        out = np.subtract(x[i:e], np.multiply(z, r, out=z), out=losses[i:e])
        sel[i:e] = out

    selections = 1
    while True:
        _blockwise(fill, x.size)
        es, q = tail_average(sel, k, tail)
        selections += 1
        if es <= 0.0:
            return r, es, selections
        z_bar = _tail_mean(s, w, losses, q, k, tail)
        if not z_bar > 0.0:  # convex ES stays positive beyond this point
            raise NoSolutionError(f"expected shortfall does not fall at r = {r:g}")
        r_next = r + es / z_bar
        if not r_next > r:  # the step is below round-off
            return r, es, selections
        r = r_next
