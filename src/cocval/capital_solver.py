"""The empirical capital requirement on a Monte Carlo scenario set.

The requirement is the capital level r at which the chosen risk measure
of the terminal net worth r Z - X vanishes, where Z = w S + 1 - w is
the mixed gross return and X the aggregate claim.  Here it is the exact
root of the empirical criterion on a shared scenario set, at every
weight of a grid; the closed forms of the normal and lognormal models
are in ``valuation``.  Only Monte Carlo runs import this module, and with
it numpy.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .market import NoSolutionError, SolveReport, check_grid
from .risk_measures import RiskMeasure, shortfall, tail_average, tail_count

__all__ = [
    "LossSummary",
    "solve_r0_numeric",
]


class LossSummary(Record):
    """What the Monte Carlo split needs of the losses L = X - r0 Z and
    their positive parts P = L^+: the sample size, the sample mean and
    variance (ddof 1) of L, the mean of P, the sum of squared deviations
    of P and the sum of P (L - mean L).  Only the positive losses, at
    most a tail's worth, enter the sums over P, and no array is kept."""

    def __init__(self, n: int, mean: float, var: float, p_mean: float, p_ss: float,
                 pl_sum: float) -> None:
        self._store(n, mean, var, p_mean, p_ss, pl_sum)

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
# Relative margin of an ES start below its lower bound and of an end
# root above its upper bound; the kept set's slack behind it is at
# ``_polygon``.
_ES_MARGIN = 2.0 ** -40
# Length of the blocks of a streamed pass over the scenarios: its
# temporaries stay small.
BLOCK = 1 << 14


class _Candidates(Record, hidden=("x", "s")):
    """The scenarios that decide the empirical VaR root at every weight
    between a grid's ends, and the sample moments of the whole scenario
    set.

    ``x`` and ``s`` are the kept claims and asset returns in scenario
    order.  At every weight of the range they hold the k + 1 + m largest
    ratios X/Z (k = floor(alpha n), m = round(sqrt(n)) the density
    window), every positive loss at the root and every scenario with
    S <= 0, the only ones that can have Z <= 0.  ``zero_risk`` is the
    empirical measure of -X, kept only when such a scenario has a
    negative claim.  The arrays take no part in equality, hash or repr.
    """

    def __init__(self, n: int, alpha: float, k: int, m: int, x: np.ndarray, s: np.ndarray,
                 x_mean: float, s_mean: float, x_var: float, s_var: float, xs_cov: float,
                 zero_risk: float | None = None) -> None:
        self._store(n, alpha, k, m, x, s, x_mean, s_mean, x_var, s_var, xs_cov,
                    zero_risk)

    def loss_moments(self, r: float, w: float) -> tuple[float, float]:
        """Sample mean and variance (ddof 1) of L = X - r Z at weight w."""
        rw = r * w
        mean = self.x_mean - r * (w * self.s_mean + 1.0 - w)
        var = self.x_var - 2.0 * rw * self.xs_cov + rw * rw * self.s_var
        return mean, max(var, 0.0)


def _mixed_return(s: np.ndarray, w: float, out: np.ndarray | None = None) -> np.ndarray:
    # Z = w S + 1 - w, rounded the same way for the candidate bounds and
    # every solve; at w = 0 it is 1 exactly.
    z = np.multiply(s, w, out=out)
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
        zero_risk = rm.empirical(-x) if np.any(x[s <= 0.0] < 0.0) else None
        s_mean = float(s.mean())
    x_var, s_var, xs_cov = _centred_moments(x, x_mean, s, s_mean)
    keep = _keep_mask(x, s, (w_lo, w_hi), k + m)
    kept_s = np.ones(np.count_nonzero(keep)) if s is None else s[keep]
    return _Candidates(n=n, alpha=rm.alpha, k=k, m=m, x=x[keep], s=kept_s, x_mean=x_mean,
                       s_mean=s_mean, x_var=x_var, s_var=s_var, xs_cov=xs_cov,
                       zero_risk=zero_risk)


def _keep_mask(x: np.ndarray, s: np.ndarray | None, ends: tuple[float, float],
               j: int) -> np.ndarray:
    # t is the (j+1)-th largest minimum of the end ratios over the
    # scenarios with S > 0; all are kept when t is too near underflow or
    # overflow for the slack to hold.
    def bar(t: float) -> float | None:
        in_range = t == 0.0 or _PRUNE_RANGE[0] < abs(t) < _PRUNE_RANGE[1]
        return t - _SLACK * abs(t) if in_range else None

    ends = tuple(dict.fromkeys(ends))
    keep = _prune(x, s, _end_ratio, ends, ends, j, bar)
    return np.ones(x.size, dtype=bool) if keep is None else keep


def _prune(x: np.ndarray, s: np.ndarray | None, measure, lows: tuple | list,
           highs: tuple | list, j: int, bar) -> np.ndarray | None:
    """The mask of the VaR candidates or an ES kept set: every scenario
    with S <= 0, and those whose largest ``measure(x, s, point)`` over
    ``highs`` reaches ``bar(t)``, with t the (j+1)-th largest of the
    smallest over ``lows`` (-inf where S <= 0).  The measure is computed
    twice, block by block, and t is selected as the blocks stream by
    (``_largest``), so the mask is the only n-long array.  None for
    fewer than j + 1 scenarios or a None bar.
    """
    n = x.size
    if j >= n:
        return None

    def smallest(i: int, e: int) -> np.ndarray:
        xb, sb = x[i:e], _part(s, i, e)
        out = measure(xb, sb, lows[0])
        for point in lows[1:]:
            np.minimum(out, measure(xb, sb, point), out=out)
        if sb is not None:
            out[sb <= 0.0] = -np.inf
        return out

    pool = _largest(smallest, n, j)
    level = bar(float(pool[pool.size - 1 - j]))
    if level is None:
        return None
    keep = np.empty(n, dtype=bool)

    def reach(i: int, e: int) -> None:
        out, xb, sb = keep[i:e], x[i:e], _part(s, i, e)
        np.greater_equal(measure(xb, sb, highs[0]), level, out=out)
        for point in highs[1:]:
            out |= measure(xb, sb, point) >= level
        if sb is not None:  # scenarios with S <= 0 are always kept
            out |= sb <= 0.0

    _blockwise(reach, n)
    return keep


def _largest(block, n: int, j: int) -> np.ndarray:
    """A pool of the n values that ``block(i, e)`` makes, a fresh array
    for each block [i, e) of ``BLOCK`` that covers range(n) in order,
    partitioned so that its element at size - 1 - j is the (j+1)-th
    largest of all n values as ``np.partition`` ranks them (NaN largest)
    and the j after it are the j largest; j < n.

    Each time the pool grows past 4 (j + 1) values it is partitioned
    down to its j + 1 largest, and the smallest of these becomes the
    bound: a lower bound on the true (j+1)-th largest, which only rises.
    A later value at or below the bound is left out, since it is not
    above the true one and the j + 1 pooled values at or above the bound
    still decide it.  So the pool keeps every value above the true
    (j+1)-th largest and at least j + 1 at or above it.
    """
    need = j + 1
    pieces, size, bound = [], 0, None
    for i in range(0, n, BLOCK):
        values = block(i, min(i + BLOCK, n))
        if bound is not None:
            values = values[~(values <= bound)]
        pieces.append(values)
        size += values.size
        if size > 4 * need:
            pool = np.concatenate(pieces)
            pool.partition(size - need)
            bound = pool[size - need]
            pieces, size = [pool[size - need:].copy()], need
    pool = np.concatenate(pieces)
    pool.partition(size - need)
    return pool


def _end_ratio(x: np.ndarray, s: np.ndarray | None, w: float) -> np.ndarray:
    # X/Z at weight w, not finite where Z <= 0; X itself when Z = 1 (s None)
    if s is None:
        return x.copy()
    z = _mixed_return(s, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(x, z, out=z)


def _blockwise(fn, n: int, size: int = BLOCK) -> list:
    # fn(i, k) on the blocks [i, k) of ``size`` that cover range(n), in
    # order; blocks keep the temporaries of an n-long pass small.
    return [fn(i, min(i + size, n)) for i in range(0, n, size)]


# Block length of the moment sums, which keeps their temporaries small.
_MOMENT_BLOCK = 1 << 16


def _centred_moments(x: np.ndarray, x_mean: float, s: np.ndarray | None,
                     s_mean: float) -> tuple[float, float, float]:
    # Var X, Var S and Cov(X, S), ddof 1: pairwise sums of centred
    # products within blocks, added up in block order.  S = 1 when s is
    # None, with no variance and no covariance.  Each block's centred
    # values and their products reuse the same block-long buffers.
    size = min(_MOMENT_BLOCK, x.size)
    xc = np.empty(size)
    sc, prod = (None, None) if s is None else (np.empty(size), np.empty(size))

    def block(i: int, k: int) -> tuple[float, float, float]:
        xb = np.subtract(x[i:k], x_mean, out=xc[:k - i])
        if s is None:
            return np.square(xb, out=xb).sum(), 0.0, 0.0
        sb = np.subtract(s[i:k], s_mean, out=sc[:k - i])
        xs = np.multiply(xb, sb, out=prod[:k - i]).sum()
        return np.square(xb, out=xb).sum(), np.square(sb, out=sb).sum(), xs

    sums = np.zeros(3)
    for part in _blockwise(block, x.size, _MOMENT_BLOCK):
        sums += part
    x_var, s_var, xs_cov = (sums / (x.size - 1)).tolist()
    return x_var, s_var, xs_cov


def _line_root(line: tuple[float, float], w: float) -> float:
    # Where the ray of weight w meets the line s_bar a + b = x_bar of the
    # positions P = (a, b) = r (w, 1 - w), x_bar / (w s_bar + 1 - w); 0
    # when it does not meet it ahead of the origin.
    x_bar, s_bar = line
    z_bar = w * s_bar + (1.0 - w)
    return x_bar / z_bar if x_bar > 0.0 and z_bar > 0.0 else 0.0


def _end_bounds(c: _Candidates, w: float, r_var: float,
                low_mean: float) -> tuple[tuple[float, float], float | None]:
    """Bound the ES root at an end weight w from below by a line and from
    above by a level, both read off the candidates' losses at the VaR
    root r_v; ``low_mean`` is LTM(Z), the mean of the alpha n lowest Z.

    Lower line.  The empirical ES f(P) is the largest mean of the losses
    under tail weights p (each in [0, 1/(alpha n)], summing to 1), so
    with any such p it is at least x_bar - s_bar a - b, the p-weighted
    means of X and S: every acceptable position has s_bar a + b >= x_bar.
    Here p is the ES tail of the candidates' losses at r_v, whose mean is
    es_c, so x_bar = es_c + r_v z_bar.

    Upper level.  Empirical ES is subadditive and positively homogeneous,
    so at r >= r_v it is at most ES(r_v) - (r - r_v) LTM(Z): every r at or
    beyond r_U = r_v + ES(r_v) / LTM(Z) is acceptable when LTM(Z) > 0.
    The k largest losses at r_v are the positive ones and ties at the
    root, all candidates, so es_c is ES(r_v) up to rounding.

    The level is None when LTM(Z) <= 0 or the line does not meet the
    ray ahead of the origin.
    """
    z = _mixed_return(c.s, w)
    losses = np.subtract(c.x, np.multiply(z, r_var, out=z), out=z)
    tail = c.alpha * c.n
    es, q = tail_average(losses.copy(), c.k, tail)
    s_bar = _tail_mean(c.s, 1.0, losses, q, c.k, tail)
    line = (es + r_var * (w * s_bar + (1.0 - w)), s_bar)
    if not (low_mean > 0.0 and 0.0 < _line_root(line, w) < math.inf):
        return line, None
    return line, r_var + max(es, 0.0) / low_mean


def _corners(bounds: dict[float, tuple[tuple[float, float], float]],
             ) -> tuple[list[tuple[float, float]], list[tuple[float, float]]] | None:
    """The bottom and top corners (w, r) of the polygon of ES roots between
    a grid's end weights, given each end's lower line and upper level;
    None when a corner is not finite and ahead of the origin.

    Every acceptable position lies above both lower lines, so on the ray
    of w the root is at least the larger of their r; and the acceptance
    set is convex, so between the ends the roots lie below the chord of
    the end roots, itself below the chord of the upper levels.  Along a
    line 1/r is affine in w, so the bottom is the lower lines' r at the
    end weights, joined through the point where the lines cross inside
    the range, and the top is the chord of the upper levels.  A single
    end weight gives the segment between its two bounds.
    """
    lines = [line for line, _ in bounds.values()]
    bottom, top = [], []
    for w, (_, upper) in bounds.items():
        lows = [_line_root(line, w) for line in lines]
        if not min(lows) > 0.0:
            return None
        bottom.append((w, max(lows)))
        top.append((w, upper))
    if len(lines) == 2:
        # in (w, u = 1/r) a line is u = (1 + (s_bar - 1) w) / x_bar
        (w0, w1), ((x0, s0), (x1, s1)) = bounds, lines
        b0, b1 = (s0 - 1.0) / x0, (s1 - 1.0) / x1
        if b0 != b1:
            wt = (1.0 / x1 - 1.0 / x0) / (b0 - b1)
            if w0 < wt < w1:
                bottom.insert(1, (wt, 1.0 / (1.0 / x0 + b0 * wt)))
    if not all(0.0 < r < math.inf for _, r in bottom + top):
        return None
    return bottom, top


def _polygon(x: np.ndarray, s: np.ndarray | None, k: int,
             bottom: list[tuple[float, float]], top: list[tuple[float, float]],
             ) -> tuple[np.ndarray, np.ndarray | None] | None:
    """Prune to the scenarios of the ES roots at every weight of a grid,
    given the bottom and top corners (w, r) of their polygon
    (``_corners``); ``s`` may be None where the grid is w = 0 alone.

    Write the position as P = (a, b) = r (w, 1 - w).  On the ray of a
    weight of the range, a solve starts Newton at or above the polygon's
    bottom less a margin mu = 2^-40 of it, and its iterates climb to the
    root; it is accepted only at or below a top no more than mu above the
    polygon's.  A scenario with S > 0 has Z > 0 at every weight, so its
    loss X - a S - b falls as r grows: over the polygon it is largest on
    the bottom and smallest on the top.  Both are chains of segments in
    P, along which the loss is linear, so these extremes are its largest
    bottom-corner loss and its smallest top-corner loss.  The bounds are
    computed within 8u (u = 2^-53) of the polygon's, so every iterate
    (w, r) lies within (mu + 8u) R of the polygon along its ray (R the
    largest corner r), which moves a loss by at most (mu + 8u) R
    (|S| + 1).  A computed loss X - r Z, at an iterate or a corner, is
    within 4u (|X| + R (|S| + 1)) of the exact one.  So with
    L = max|X| + R (max|S| + 1), the computed loss of a scenario with
    S > 0 at any iterate lies within e = (mu + 16u) L of the range from
    its smallest computed top-corner loss to its largest computed
    bottom-corner loss.  Take t, the (k+1)-th largest of those smallest
    top-corner losses over the scenarios with S > 0: at every iterate the
    (k+1)-th largest loss q is at least t - e, and such a scenario whose
    largest bottom-corner loss is below t - 4 mu L > t - 2e loses less
    than q.  The kept set, those that reach t - 4 mu L and every scenario
    with S <= 0, therefore holds the k+1 largest losses at every iterate,
    every loss tied at q, and every positive loss at a root with q <= 0;
    a solve with q > 0 is not accepted either.  Every dropped scenario
    counts as below q.  The argument holds for a part of the scenarios
    that already holds all of these at every iterate, such as the kept
    set of a larger polygon: then t is taken over that part.  Returns
    the kept x and s in scenario order, or None when the slack is not
    finite.
    """
    x_abs = max(float(x.max()), -float(x.min()))
    s_abs = 1.0 if s is None else max(float(s.max()), -float(s.min()))
    scale = x_abs + max(r for _, r in bottom + top) * (s_abs + 1.0)

    def bar(t: float) -> float | None:
        level = t - 4.0 * _ES_MARGIN * scale
        return level if math.isfinite(level) else None

    keep = _prune(x, s, _corner_losses, top, bottom, k, bar)
    return None if keep is None else (x[keep], None if s is None else s[keep])


def _corner_losses(x: np.ndarray, s: np.ndarray | None,
                   corner: tuple[float, float]) -> np.ndarray:
    # X - r Z at the corner (w, r), computed as a Newton step computes it
    # (Z = 1 when s is None)
    w, r = corner
    if s is None:
        return np.subtract(x, r)
    z = _mixed_return(s, w)
    return np.subtract(x, np.multiply(z, r, out=z), out=z)


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
    one selection of the losses.  Before any of them, each end weight's
    root is bounded from the candidates at its VaR root
    (``_end_bounds``): from below by a line, the tail weights' minorant
    of the ES, and from above by the subadditivity level r_U.  An end
    without r_U solves on all n scenarios first, and its root and
    tangent serve as its bounds.  One kept set, the scenarios that can
    decide a root anywhere in the polygon the bounds enclose
    (``_corners``, ``_polygon``), serves the whole grid: an end weight
    starts from the larger of its VaR root and the lower lines, less a
    margin, and is accepted at or below r_U plus the margin; an interior
    weight, once both ends have a root in the polygon, starts from the
    larger of its VaR root, the lower lines and the end roots' tangents,
    less the margin, and is accepted at or below the end roots' chord.
    Its iterates stay in the triangle between these tangents and that
    chord, so it selects among the scenarios of that triangle, pruned
    once out of the kept set by the same argument: fewer than the
    polygon's, whose upper levels lie above the end roots.  A solve is
    accepted only with its (k+1)-th largest loss at most zero, and, when
    it made no step, only from the VaR root: a start the ES already
    accepts could lie beyond the root.  A weight whose solve is not
    accepted, or every weight when there is no polygon, reruns from the
    VaR root on all n scenarios.  ``iterations`` counts the selections,
    the VaR one that gave the start included.

    The standard error of a VaR root is the ratio window's,
    sqrt(alpha (1 - alpha) / n) / f_R(r0), with the density f_R of X/Z
    read from the (k+1 -/+ m)-th largest ratios, clipped to the finite
    ones; none when they coincide.  ES keeps the delta method on the
    tail influence.  A VaR residual is the (k+1)-th largest loss
    X - r0 Z among the candidates.  The report's ``losses`` carries the
    sample moments of L and the sums over its positive values, all the
    split needs.

    Every pass over all n scenarios runs in the calling thread, in
    blocks that keep its temporaries small.  The end-ratio and
    corner-loss bounds and LTM(S) select their order statistics as the
    blocks stream by (``_largest``), and the moment sums add the
    pairwise sums of blocks of 2^16 in order.  So the only n-long array
    a solve makes is the bool mask of a prune, one at a time, until a
    weight reruns on all scenarios: an ES rerun needs two n-long float
    arrays, the losses and their selection, which the first rerun makes
    and the later ones reuse.

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
    return _es_grid(c, ws, claims, assets)


def _es_grid(c: _Candidates, ws: list[float], x: np.ndarray,
             s: np.ndarray | None) -> list[SolveReport | NoSolutionError]:
    # The ES reports of ``solve_r0_numeric``.
    tail, work = c.alpha * c.n, []

    def solve(w, r_var, start=None, r_max=None, kept=None):
        # The root at w, its losses and their (k+1)-th largest, and the
        # asset returns it was solved on: on the kept set from start when
        # that solve is accepted, else on all scenarios from the VaR root.
        if kept is not None and start <= r_max:
            found = _es_report(c, w, *kept, start, r_max)
            # with no step from above the VaR root, the start may lie
            # beyond the root
            if found is not None and not found[0].r0 == start > r_var:
                return (*found, kept[1])
        if not work:
            work.extend((np.empty(x.size), np.empty(x.size)))
        return (*_es_report(c, w, x, s, r_var, work=tuple(work)), s)

    def tangent(w, found):
        # the line through the root with the tail mean s_bar of S there
        report, losses, q, kept_s = found
        s_bar = _tail_mean(kept_s, 1.0, losses, q, c.k, tail)
        return report.r0 * (w * s_bar + (1.0 - w)), s_bar

    def start_at(w, r_var):
        return max(r_var, (1.0 - _ES_MARGIN) * max(_line_root(line, w) for line in lines))

    def at_end(w, r_var, upper):
        # the end root from the kept set, and its tangent and root when it
        # lies in the polygon; its losses go with this frame
        r_max = upper * (1.0 + _ES_MARGIN)
        found = solve(w, r_var, start_at(w, r_var), r_max, kept)
        inside = found[0].r0 <= r_max and len(ws) > 2
        return found[0], (tangent(w, found), found[0].r0) if inside else None

    # LTM(S), the mean of the alpha n lowest asset returns, from a pool of
    # the k + 1 lowest
    low_s = 1.0
    if ws[-1] > 0.0:
        low_s = -tail_average(_largest(lambda i, e: np.negative(s[i:e]), s.size, c.k),
                              c.k, tail)[0]
    reports: dict[float, SolveReport | NoSolutionError] = {}
    bounds = {}
    for w in dict.fromkeys((ws[0], ws[-1])):
        try:
            r_var = _var_root(c, w)
            line, upper = _end_bounds(c, w, r_var, w * low_s + (1.0 - w))
            if upper is None:
                found = solve(w, r_var)
                reports[w], line, upper = found[0], tangent(w, found), found[0].r0
        except NoSolutionError as exc:
            reports[w] = exc.with_traceback(None)  # as in _outcome
            continue
        bounds[w] = (line, upper, r_var)
    corners = _corners({w: (line, upper) for w, (line, upper, _) in bounds.items()})
    kept = _polygon(x, s, c.k, *corners) if corners and corners[0] else None
    lines = [line for line, _, _ in bounds.values()]
    ends = {}  # the end roots in the polygon, each with its tangent
    for w, (line, upper, r_var) in bounds.items():
        if w in reports:  # solved on all scenarios: the tangent and root
            ends[w] = (line, upper)
            continue
        try:
            reports[w], end = at_end(w, r_var, upper)
        except NoSolutionError as exc:
            reports[w] = exc.with_traceback(None)
            continue
        if end is not None:
            ends[w] = end
    chord = None
    if len(ends) == 2 and kept is not None:
        chord = [(w, r) for w, (_, r) in ends.items()]
        lines += [line for line, _ in ends.values()]
        # the interior iterates stay between the tangents and the chord of
        # the end roots: the scenarios of that triangle, out of the kept set
        inner = _corners(ends)
        if inner:
            kept = _polygon(*kept, c.k, *inner) or kept

    def interior(w):
        r_var = _var_root(c, w)
        if chord is None:
            return solve(w, r_var)[0]
        return solve(w, r_var, start_at(w, r_var), _chord(w, chord), kept)[0]

    return [reports[w] if w in reports else _outcome(interior, w) for w in ws]


def _chord(w: float, ends: list[tuple[float, float]]) -> float:
    # the r where the ray of w meets the chord of the end roots: 1/r is
    # affine in w along it, and every weight below is >= 0
    (w0, r0), (w1, r1) = ends
    return (w1 - w0) / ((w1 - w) / r0 + (w - w0) / r1)


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
    return SolveReport(r0=r0, residual=float(losses[size - 1 - k]), iterations=1,
                       std_error=se, losses=LossSummary.of(n, mean, var, positive))


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
        r0, selections = _es_root(x, s, w, k, tail, r, losses, sel)
    except NoSolutionError:
        if dropped:
            return None
        raise
    q = float(sel[size - k - 1])  # L_(n-k)
    if dropped and not (r0 <= r_max and q <= 0.0):
        return None
    if r0 <= 0.0:
        raise NoSolutionError("claim is acceptable with zero capital")

    # In scenario order, which a kept set keeps: the report is a function
    # of the losses at the root, whichever set they were selected in.
    tail_l, tail_z = _at_or_above(losses, s, w, q)
    above = tail_l[tail_l > q]
    slope = float(tail_z.mean())
    # 1-based ranks i_lo <= n - k <= i_hi of the quantile's density window
    i_lo, i_hi = max(n - k - c.m, 1), min(n - k + c.m, n)
    # Delta-method standard error: the noise of the empirical ES over the
    # mean mixed return beyond the boundary; none when an atom at q spans
    # the density window.  Every dropped scenario counts below q.
    se = None
    if slope > 0.0 and not (n - above.size >= i_hi and n - tail_z.size < i_lo):
        # the influence q + (L - q)^+ / alpha equals q off the losses above q
        excess = (above - q) / alpha
        mean = float(excess.sum()) / n
        var = (float(np.square(excess - mean).sum()) + (n - above.size) * mean * mean) / (n - 1)
        se = math.sqrt(var / n) / slope
    # every loss not above q is at most q
    positive = above[above > 0.0] if q <= 0.0 else losses[losses > 0.0]
    residual = shortfall(above, q, tail)
    mean, var = c.loss_moments(r0, w)
    report = SolveReport(r0=r0, residual=residual, iterations=selections, std_error=se,
                         losses=LossSummary.of(n, mean, var, positive))
    return report, losses, q


def _part(s: np.ndarray | None, i: int, e: int) -> np.ndarray | None:
    return None if s is None else s[i:e]


def _at_or_above(losses: np.ndarray, s: np.ndarray | None, w: float,
                 q: float) -> tuple[np.ndarray, np.ndarray]:
    # The losses at or above q and their Z = w S + 1 - w, as
    # ``_mixed_return`` rounds it (1 when s is None), in scenario order.
    # A fifth of a kept set can be in the tail, where taking by index is
    # about three times faster than a boolean mask.
    idx = np.flatnonzero(losses >= q)
    z = np.ones(idx.size) if s is None else _mixed_return(s.take(idx), w)
    return losses.take(idx), z


def _tail_mean(s: np.ndarray | None, w: float, losses: np.ndarray, q: float, k: int,
               tail: float) -> float:
    # The mean of Z = w S + 1 - w under the ES tail weights of the losses:
    # 1/tail on each loss above the (k+1)-th largest q, the rest shared
    # equally by the ties at q.
    lb, z = _at_or_above(losses, s, w, q)
    above, tied = z[lb > q], z[lb == q]
    edge = k - above.size + max(tail - k, 0.0)
    return (float(above.sum()) + edge * float(tied.mean())) / tail


def _es_root(x: np.ndarray, s: np.ndarray | None, w: float, k: int, tail: float, r: float,
             losses: np.ndarray, sel: np.ndarray) -> tuple[float, int]:
    # Newton's method on the empirical ES from r at or below the root; the
    # slope is minus the tail-weighted mean of Z = w S + 1 - w (1 when s is
    # None).  Selections count the VaR one.  It leaves the losses at the
    # returned r in ``losses``, selected in ``sel``.
    selections = 1
    while True:
        # X - r Z into ``losses``, with r Z made in ``sel``, which then
        # takes a copy for the selection
        if s is None:
            np.subtract(x, r, out=losses)
        else:
            z = _mixed_return(s, w, out=sel)
            np.subtract(x, np.multiply(z, r, out=z), out=losses)
        np.copyto(sel, losses)
        es, q = tail_average(sel, k, tail)
        selections += 1
        if es <= 0.0:
            return r, selections
        z_bar = _tail_mean(s, w, losses, q, k, tail)
        if not z_bar > 0.0:  # convex ES stays positive beyond this point
            raise NoSolutionError(f"expected shortfall does not fall at r = {r:g}")
        r_next = r + es / z_bar
        if not r_next > r:  # the step is below round-off
            return r, selections
        r = r_next
