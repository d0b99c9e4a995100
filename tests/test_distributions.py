"""Distribution layer: closed forms, moment matching, inverse transforms."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cocval.distributions import (
    Degenerate,
    Lognormal,
    Normal,
    ParetoTypeI,
    distribution_from_config,
    lognormal_from_moments,
    pareto_from_mean_beta,
    pareto_from_moments,
    standard_normal_cdf,
    standard_normal_pdf,
    standard_normal_quantile,
)

from helpers import draw, generate_scenarios, scaled


def bisect_normal_quantile(p: float, tol: float = 1e-13) -> float:
    """Independent oracle: bisection on the normal CDF.

    Levels above 1/2 are reflected so the CDF comparison happens where
    it has full absolute resolution (near 1 the CDF is flat at the ulp
    scale and bisection alone cannot place the root).
    """
    if p > 0.5:
        return -bisect_normal_quantile(1.0 - p, tol)
    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if standard_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scipy_law(dist):
    """The ``scipy.stats`` frozen law of a normal, lognormal or Pareto
    distribution: an independent reference for its CDF and survival."""
    from scipy import stats

    if isinstance(dist, Normal):
        return stats.norm(dist.mean, dist.sd)
    if isinstance(dist, Lognormal):
        return stats.lognorm(dist.sd_log, scale=math.exp(dist.mu_log))
    return stats.pareto(dist.beta, scale=dist.x_m)


class TestStandardNormalQuantile:
    def test_against_bisection_oracle(self):
        # p = 0.995 must land on 2.5758 (4 decimals) per the bisection oracle
        oracle = bisect_normal_quantile(0.995)
        assert abs(oracle - 2.5758) < 1e-4
        assert abs(standard_normal_quantile(0.995) - oracle) < 1e-10

    def test_accuracy_across_range(self):
        ps = np.concatenate([np.geomspace(1e-8, 0.5, 60), 1 - np.geomspace(1e-8, 0.5, 60)])
        for p in ps:
            assert abs(standard_normal_quantile(float(p)) - bisect_normal_quantile(float(p))) < 1e-10

    def test_median_and_symmetry(self):
        assert standard_normal_quantile(0.5) == 0.0
        # antisymmetry up to the information lost when the caller
        # rounds 1 - p; a few ulps of the quantile value
        for p in (0.005, 0.01, 0.2, 0.4999):
            total = standard_normal_quantile(1.0 - p) + standard_normal_quantile(p)
            assert abs(total) < 1e-14

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain_error(self, p):
        with pytest.raises(ValueError):
            standard_normal_quantile(p)


def _erfc_reference(x: np.ndarray) -> np.ndarray:
    """erfc from scipy's erfcx, erfc(x) = erfcx(x) exp(-x^2) for x >= 0,
    with x^2 carried as an exact sum hi + lo (Dekker's split) so that
    rounding x^2 costs no accuracy; erfc(-x) = 2 - erfc(x)."""
    from scipy import special

    ax = np.abs(x)
    c = 134217729.0 * ax  # 2^27 + 1
    head = c - (c - ax)
    tail = ax - head
    hi = ax * ax
    lo = ((head * head - hi) + 2.0 * head * tail) + tail * tail
    upper = special.erfcx(ax) * np.exp(-hi) * (1.0 - lo)
    return np.where(x >= 0.0, upper, 2.0 - upper)


class TestAgainstScipy:
    """The normal CDF is ``math.erfc``; the quantile is Wichura's AS241,
    in Python floats for a level, as the standard library computes it,
    and in numpy for a block of ``Normal.sample``.  Each must give scipy's
    numbers to round-off."""

    TOL = 2e-15
    TINY = np.finfo(float).tiny  # erfc values below it are subnormal or 0

    def test_erfc_matches_scipy_where_x_squared_is_exact(self):
        from scipy import special

        x = np.arange(-38 * 1024, 38 * 1024 + 1) / 1024.0
        scalar = np.array([math.erfc(v) for v in x])
        array = special.erfc(x)
        keep = array >= self.TINY
        assert keep.sum() > 0.8 * x.size
        assert np.max(np.abs(scalar - array)[keep] / array[keep]) <= self.TOL

    def test_erfc_against_reference(self):
        # off the dyadic grid scipy's erfc rounds x^2 and drifts from the
        # reference by up to 5.7e-14 relative for x in (4, 26.6);
        # math.erfc must not
        x = np.linspace(-38.0, 38.0, 100_001)
        scalar = np.array([math.erfc(v) for v in x])
        ref = _erfc_reference(x)
        keep = ref >= self.TINY
        assert np.max(np.abs(scalar - ref)[keep] / ref[keep]) <= self.TOL

    def test_quantile_matches_ndtri_in_both_tails(self):
        from scipy import special

        lower = np.geomspace(1e-12, 0.5, 20_001)[:-1]
        p = np.concatenate([lower, 1.0 - lower])
        scalar = np.array([standard_normal_quantile(float(v)) for v in p])
        array = special.ndtri(p)
        assert np.max(np.abs(scalar - array) / np.abs(array)) <= self.TOL
        assert standard_normal_quantile(0.5) == special.ndtri(0.5) == 0.0

    def test_pdf_matches_scipy(self):
        from scipy import stats

        x = np.linspace(-30.0, 30.0, 601)
        scalar = np.array([standard_normal_pdf(float(v)) for v in x])
        assert np.max(np.abs(scalar / stats.norm.pdf(x) - 1.0)) <= self.TOL

    def test_cdf_and_pdf_return_floats(self):
        # scalar functions: an int or a numpy scalar in, a float out,
        # tails included
        for x in (0, 1.5, np.float64(1.5), -40.0, 40.0):
            assert type(standard_normal_cdf(x)) is float
            assert type(standard_normal_pdf(x)) is float
        assert 0.0 < standard_normal_cdf(-37.5) < 1e-300
        assert standard_normal_cdf(40.0) == 1.0

    @staticmethod
    def levels():
        # 1e-300 to 1 - 2^-53 through the three regions of AS241, with the
        # sampler's extreme uniforms 2^-54 and 1 - 2^-53 and a uniform grid
        lower = np.geomspace(1e-300, 0.5, 20_001)
        upper = 1.0 - np.geomspace(2.0 ** -53, 0.5, 20_001)
        grid = (np.arange(1, 4097) - 0.5) / 4096.0
        return np.concatenate([lower, upper, grid, [2.0 ** -54, 1.0 - 2.0 ** -53]])

    def test_array_quantile_matches_ndtri(self):
        from scipy import special

        p = self.levels()
        # over a thousand levels in each region: central, near and far tail
        r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
        central = np.abs(p - 0.5) <= 0.425
        assert min(central.sum(), (~central & (r <= 5.0)).sum(), (r > 5.0).sum()) > 1000
        array = draw(Normal(0.0, 1.0), p)
        ref = special.ndtri(p)
        assert np.all(np.abs(array - ref) <= self.TOL * np.abs(ref))

    def test_scalar_quantile_is_the_standard_library_bit_for_bit(self):
        # the same rationals in Python floats, in the order of CPython's
        # ``_normal_dist_inv_cdf``
        import statistics

        inv_cdf = statistics.NormalDist().inv_cdf
        p = self.levels().tolist()
        got = [standard_normal_quantile(v).hex() for v in p]
        assert got == [inv_cdf(v).hex() for v in p]

    def test_array_quantile_matches_the_scalar(self):
        # the same rationals, so only numpy's log and math.log may differ
        p = self.levels()
        array = draw(Normal(0.0, 1.0), p)
        scalar = np.array([standard_normal_quantile(float(v)) for v in p])
        assert np.all(np.abs(array - scalar) <= 1e-15 * np.abs(scalar))

    def test_transforms_are_the_quantile_bit_for_bit(self):
        # the normal and lognormal transforms work in place on the
        # standard normal quantile and round as the plain expressions do
        u = self.levels()
        z = draw(Normal(0.0, 1.0), u)
        assert np.array_equal(draw(Normal(1.0, 0.3), u), 1.0 + 0.3 * z)
        assert np.array_equal(draw(Lognormal(0.1, 0.4), u), np.exp(0.1 + 0.4 * z))


class TestCdfExamples:
    """The CDF facts the closed forms rest on, read off the scalar normal
    CDF, the quantile and the stop-loss transform."""

    def test_normal_symmetry_point(self):
        assert standard_normal_cdf(0.0) == 0.5
        assert Normal(0.0, 1.0).quantile(0.5) == 0.0
        # E[G^+] = phi(0) for standard normal G
        assert Normal(0.0, 1.0).stop_loss(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi),
                                                               rel=1e-15)

    def test_pareto_support_edge(self):
        # no mass below x_m: the stop-loss there is mean - t, and the tail
        # branch meets it at the edge with slope -1, minus the survival 1
        d = ParetoTypeI(0.5, 2.0)
        assert d.stop_loss(0.5) == d.mean - 0.5 == 0.5
        h = 1e-7
        assert (d.stop_loss(0.5 + h) - d.stop_loss(0.5)) / h == pytest.approx(-1.0, rel=1e-6)
        assert d.quantile(1e-12) == pytest.approx(0.5, rel=1e-12)
        assert scipy_law(d).cdf(0.5) == 0.0

    def test_lognormal_median(self):
        d = Lognormal(0.0, 1.0)
        assert d.quantile(0.5) == 1.0
        assert scipy_law(d).cdf(1.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("dist", [Normal(0.0, 1.0), Normal(1.0, 0.0), Lognormal(0.0, 1.0),
                                      ParetoTypeI(1.0, 2.0), Degenerate(1.0)],
                             ids=["normal", "normal-sd0", "lognormal", "pareto", "degenerate"])
    def test_stop_loss_of_nan_is_nan(self, dist):
        # a nan retention propagates; no branch turns it into a number
        got = dist.stop_loss(math.nan)
        assert type(got) is float and math.isnan(got)

    def test_cdf_monotone_and_bounded(self):
        x = np.linspace(-40.0, 40.0, 801)
        cdf = np.array([standard_normal_cdf(float(v)) for v in x])
        assert np.all(np.diff(cdf) >= 0)
        assert np.all((cdf >= 0) & (cdf <= 1))
        # the stop-loss is the integral of the survival 1 - F beyond t, so
        # a CDF in [0, 1] makes it nonincreasing and convex, and Jensen
        # keeps it above (mean - t)^+
        ts = np.linspace(-5, 25, 400)
        for dist in (Normal(1.0, 0.3), Lognormal(0.0, 0.5), ParetoTypeI(0.5, 2.0), Degenerate(1.0)):
            sl = np.array([dist.stop_loss(float(t)) for t in ts])
            assert np.all(np.diff(sl) <= 1e-12)
            assert np.all(np.diff(sl, 2) >= -1e-12)
            assert np.all(sl >= np.maximum(dist.mean - ts, 0.0) - 1e-12)


class TestQuantileExamples:
    def test_normal_high_quantile(self):
        assert Normal(0.0, 1.0).quantile(0.995) == pytest.approx(2.5758, abs=1e-4)

    def test_pareto_high_quantile(self):
        # 0.5 * 0.005 ** (-1/2), about 7.07 times the scale
        assert ParetoTypeI(0.5, 2.0).quantile(0.995) == pytest.approx(7.0710678, abs=1e-6)

    def test_nondecreasing_in_the_level(self):
        ps = np.linspace(0.001, 0.999, 400)
        for dist in (Normal(1.0, 0.3), Lognormal(0.0, 0.5), ParetoTypeI(0.5, 2.0), Degenerate(1.0)):
            assert np.all(np.diff([dist.quantile(float(p)) for p in ps]) >= 0)

    def test_degenerate_any_level(self):
        d = Degenerate(1.0)
        for p in (0.01, 0.5, 0.99):
            assert d.quantile(p) == 1.0

    def test_domain_errors(self):
        for dist in (Normal(0, 1), Lognormal(0, 1), ParetoTypeI(1, 2), Degenerate(3)):
            with pytest.raises(ValueError):
                dist.quantile(0.0)
            with pytest.raises(ValueError):
                dist.quantile(1.0)

    @pytest.mark.parametrize("p", [math.nan, np.float64(math.nan), np.array(math.nan)],
                             ids=["float", "numpy-scalar", "0-d"])
    def test_nan_level_is_a_domain_error(self, p):
        # nan is neither inside (0, 1) nor outside by comparison, so the
        # check decides it explicitly
        for dist in (Normal(0, 1), Normal(1, 0), Lognormal(0, 1), ParetoTypeI(1, 2),
                     Degenerate(3)):
            with pytest.raises(ValueError, match="strictly inside"):
                dist.quantile(p)
        with pytest.raises(ValueError, match="strictly inside"):
            standard_normal_quantile(p)

    def test_scalar_and_array_types(self):
        # a scalar level, numpy scalars and 0-d arrays included, gives a
        # float; a list, a tuple or an array is no level, one entry long too
        for dist in (Normal(0, 1), Normal(1, 0), Lognormal(0, 1), ParetoTypeI(1, 2),
                     Degenerate(3)):
            for p in (0.25, np.float64(0.25), np.array(0.25)):
                assert type(dist.quantile(p)) is float
            for p in ([0.25, 0.5], [0.25], (0.25,)):
                with pytest.raises(TypeError):
                    dist.quantile(p)
            # numpy 1.x takes float() of a one-entry array without a word
            for p in (np.array([0.25]), np.array([[0.25]]), np.empty(0)):
                with pytest.raises(TypeError, match="probability level must be a scalar"):
                    dist.quantile(p)
        with pytest.raises(TypeError, match="probability level must be a scalar"):
            standard_normal_quantile(np.array([0.25]))


class TestSampleExamples:
    def test_normal_median_draw(self):
        assert draw(Normal(0.0, 1.0), [0.5])[0] == 0.0

    def test_lognormal_tail_draw(self):
        assert draw(Lognormal(0.0, 1.0), [0.995])[0] == pytest.approx(13.143, abs=0.01)

    def test_pareto_tail_draw(self):
        assert draw(ParetoTypeI(0.5, 2.0), [0.995])[0] == pytest.approx(7.0711, abs=1e-4)

    def test_sample_is_quantile(self):
        # the draws are written over u, which sample returns; they are the
        # scalar quantiles up to the rounding of numpy's log, 1e-15 relative
        for dist in (Normal(1, 0.3), Lognormal(0.1, 0.4), ParetoTypeI(0.8, 3.0), Degenerate(2.0)):
            u = np.linspace(0.01, 0.99, 23)
            want = np.array([dist.quantile(float(v)) for v in u])
            assert dist.sample(u, np.empty((2, u.size))) is u
            assert np.all(np.abs(u - want) <= 1e-15 * np.abs(want))


SAMPLED = (Normal(1.0, 0.3), Normal(-0.4, 0.0), Lognormal(0.1, 0.4), ParetoTypeI(0.8, 1.1),
           ParetoTypeI(0.5, 3.0), Degenerate(1.02))


class TestInPlaceSample:
    """``sample(u, work)`` writes the quantile of u over u, in the caller's
    scratch, bit for bit as the family's plain numpy expression rounds it."""

    @staticmethod
    def plain(dist, u):
        # each family's transform as a plain out-of-place numpy expression
        if isinstance(dist, ParetoTypeI):
            return dist.x_m * (1.0 - u) ** (-1.0 / dist.beta)
        if isinstance(dist, Lognormal):
            return np.exp(dist.mu_log + dist.sd_log * draw(Normal(0.0, 1.0), u))
        if isinstance(dist, Degenerate) or dist.sd == 0.0:
            return np.full(u.shape, float(dist.mean))
        return dist.mean + dist.sd * draw(Normal(0.0, 1.0), u)

    def check(self, dist, u):
        want = self.plain(dist, u)
        work = np.full((2, u.size), np.nan)
        got = dist.sample(u, work)
        assert got is u
        assert u.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dist", SAMPLED, ids=repr)
    def test_at_the_levels_of_every_region(self, dist):
        # 1e-300 to 1 - 2^-53, with 2^-54, through the three regions of AS241
        self.check(dist, TestAgainstScipy.levels())

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=2.0 ** -54, max_value=1.0 - 2.0 ** -53),
                    min_size=1, max_size=300),
           st.sampled_from(SAMPLED))
    def test_on_any_block(self, levels, dist):
        self.check(dist, np.array(levels))

    @pytest.mark.parametrize("dist", SAMPLED, ids=repr)
    def test_read_only_uniforms_are_refused(self, dist):
        # the draws have nowhere to go
        u = np.full(4, 0.25)
        u.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            dist.sample(u, np.empty((2, 4)))
        assert np.all(u == 0.25)

    @pytest.mark.parametrize("dist", SAMPLED, ids=repr)
    def test_scratch_is_required(self, dist):
        with pytest.raises(TypeError):
            dist.sample(np.full(4, 0.25))


class TestMomentMatching:
    def test_lognormal_examples(self):
        d = lognormal_from_moments(1.05, 0.2)
        assert d.sd_log ** 2 == pytest.approx(0.035638, abs=1e-6)
        assert d.mu_log == pytest.approx(0.030971, abs=1e-6)
        d2 = lognormal_from_moments(1.0, 0.3)
        assert d2.sd_log ** 2 == pytest.approx(math.log(1.09), rel=1e-12)
        assert d2.mu_log == pytest.approx(-0.5 * math.log(1.09), rel=1e-12)

    def test_lognormal_round_trip(self):
        for mean, sd in [(1.05, 0.2), (1.0, 0.3), (2.5, 1.7), (0.3, 0.02)]:
            d = lognormal_from_moments(mean, sd)
            assert d.mean == pytest.approx(mean, rel=1e-12)
            assert math.sqrt(d.variance) == pytest.approx(sd, rel=1e-12)

    def test_lognormal_continuity_limit(self):
        d = lognormal_from_moments(1.0, 1e-6)
        assert abs(d.mu_log) < 1e-11
        assert d.sd_log == pytest.approx(1e-6, rel=1e-6)

    def test_lognormal_degenerate_input(self):
        with pytest.raises(ValueError):
            lognormal_from_moments(1.0, 0.0)

    def test_pareto_examples(self):
        d = pareto_from_moments(1.0, 0.3)
        assert d.beta == pytest.approx(4.4801, abs=1e-4)
        assert d.x_m == pytest.approx(0.77679, abs=1e-5)
        d2 = pareto_from_moments(1.0, 0.2)
        assert d2.beta == pytest.approx(1 + math.sqrt(26), rel=1e-12)
        assert d2.x_m == pytest.approx(0.83604, abs=1e-5)

    def test_pareto_round_trip(self):
        for mean, sd in [(1.0, 0.3), (1.0, 0.2), (2.0, 0.6), (5.0, 0.4)]:
            d = pareto_from_moments(mean, sd)
            assert d.beta > 2.0
            assert d.mean == pytest.approx(mean, rel=1e-12)
            assert math.sqrt(d.variance) == pytest.approx(sd, rel=1e-12)

    def test_pareto_scale_equivariance(self):
        a, b = pareto_from_moments(1.0, 0.3), pareto_from_moments(2.0, 0.6)
        assert b.beta == pytest.approx(a.beta, rel=1e-14)
        assert b.x_m == pytest.approx(2 * a.x_m, rel=1e-14)

    @pytest.mark.parametrize("sd", [6e7, 1e8, 1e200, 1e308])
    def test_pareto_sd_whose_index_rounds_to_two_is_refused(self, sd):
        # 1 + mean^2 / sd^2 rounds to 1: the index would be 2.0 and the
        # variance infinite
        with pytest.raises(ValueError, match=re.escape(f"sd {sd!r} is too large")):
            pareto_from_moments(1.0, sd)

    @given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=1e-3, max_value=1e12))
    @settings(max_examples=200, deadline=None)
    def test_pareto_from_moments_has_a_finite_variance(self, mean, sd):
        try:
            d = pareto_from_moments(mean, sd)
        except ValueError as raised:
            assert "too large" in str(raised)
            return
        assert d.beta > 2.0 and math.isfinite(d.variance)
        assert d.variance == pytest.approx(sd * sd, rel=1e-6)

    @pytest.mark.parametrize("sd", [1e6, 1e7, 2e7, 3.5e7])
    def test_pareto_sd_whose_variance_misses_is_refused(self, sd):
        # beta - 2 = mean^2 / (2 sd^2) is a few ulps of 2.0 or less, and the
        # variance follows its rounding: by 8.9e-5 relative at sd 1e6 and by
        # 41% at 2e7
        with pytest.raises(ValueError, match=re.escape(f"sd {sd!r} is too large") +
                           ".*variance misses sd\\^2 by more than 1e-6"):
            pareto_from_moments(1.0, sd)

    @pytest.mark.parametrize("mean, sd", [(1.0, 3e5), (1e-300, 3e-296), (1e300, 3e305)])
    def test_pareto_variance_within_the_tolerance_is_kept(self, mean, sd):
        # 8.3e-8 relative at sd 3e5 times the mean, on any scale
        d = pareto_from_moments(mean, sd)
        assert d.mean == pytest.approx(mean, rel=1e-12)
        assert (d.x_m / sd) ** 2 * d.beta / ((d.beta - 1.0) ** 2 * (d.beta - 2.0)) == \
            pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("build, mean", [
        (lambda m: pareto_from_mean_beta(m, 2.0), 5e-324),
        (lambda m: pareto_from_mean_beta(m, 1.1), 1e-323),  # twice the least subnormal
        (lambda m: pareto_from_moments(m, m), 5e-324),
    ], ids=["mean-beta-2", "mean-beta-1.1", "moments"])
    def test_pareto_mean_whose_scale_underflows_is_refused(self, build, mean):
        # the scale mean (beta - 1) / beta is 0: the message names the mean
        with pytest.raises(ValueError, match=re.escape(f"mean {mean!r} is too small")):
            build(mean)

    def test_pareto_from_mean_beta(self):
        assert pareto_from_mean_beta(1.0, 2.0).x_m == 0.5
        assert pareto_from_mean_beta(1.0, 1.1).x_m == pytest.approx(1 / 11, rel=1e-12)
        assert pareto_from_mean_beta(1.0, 1e9).x_m == pytest.approx(1.0, rel=1e-8)
        with pytest.raises(ValueError):
            pareto_from_mean_beta(1.0, 1.0)


class TestInvariants:
    @given(st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=200, deadline=None)
    def test_quantile_cdf_round_trip(self, p):
        for dist in (Normal(1.0, 0.3), Lognormal(0.2, 0.5), ParetoTypeI(0.5, 2.0)):
            x = dist.quantile(p)
            cdf = float(scipy_law(dist).cdf(x))
            assert cdf == pytest.approx(p, abs=1e-12)
            assert dist.quantile(cdf) == pytest.approx(x, abs=1e-9, rel=1e-9)

    @given(st.floats(min_value=0.01, max_value=100.0), st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=200, deadline=None)
    def test_scale_equivariance_of_quantiles(self, a, p):
        for dist in (Lognormal(0.1, 0.4), ParetoTypeI(0.7, 2.5)):
            assert scaled(dist, a).quantile(p) == pytest.approx(a * dist.quantile(p), rel=1e-12)

    def test_inverse_transform_law(self):
        scen = generate_scenarios(10 ** 6, seed=2024)
        u = scen.u_claim
        cases = [
            Normal(1.0, 0.3),
            lognormal_from_moments(1.0, 0.3),
            pareto_from_moments(1.0, 0.3),  # tail index above 2
        ]
        for dist in cases:
            draws = draw(dist, u)
            se = math.sqrt(dist.variance / u.size)
            assert abs(float(np.mean(draws)) - dist.mean) < 4 * se

    def test_cdf_of_quantile_at_least_p(self):
        ps = np.linspace(0.01, 0.99, 99)
        for dist in (Normal(0, 1), Lognormal(0, 1), ParetoTypeI(0.5, 2.0)):
            qs = np.array([dist.quantile(float(p)) for p in ps])
            assert np.all(scipy_law(dist).cdf(qs) >= ps - 1e-12)
        # the point mass has CDF 1 at its value, every level's quantile
        assert all(Degenerate(1.0).quantile(float(p)) == 1.0 for p in ps)


class TestStopLoss:
    def test_matches_quadrature_of_survival(self):
        from scipy.integrate import quad
        cases = [(Normal(1.0, 0.3), -0.5), (Normal(1.0, 0.3), 1.2),
                 (Lognormal(0.0, 0.5), 0.8), (ParetoTypeI(0.5, 2.5), 1.5)]
        for dist, t in cases:
            ref, _ = quad(scipy_law(dist).sf, t, np.inf, limit=400)
            assert dist.stop_loss(t) == pytest.approx(ref, rel=1e-6, abs=1e-9)
        assert Degenerate(2.0).stop_loss(0.7) == pytest.approx(1.3, rel=1e-15)
        assert Degenerate(2.0).stop_loss(2.5) == 0.0

    def test_zero_sd_normal_is_the_point_mass(self):
        for t in (-1.0, 0.5, 1.0, 1.5):
            assert Normal(1.0, 0.0).stop_loss(t) == Degenerate(1.0).stop_loss(t)

    def test_limits_far_below_and_above_the_support(self):
        # far below the support the retention is always exceeded: mean - t
        for dist, t in ((Normal(1.0, 0.3), 1.0 - 40 * 0.3), (Lognormal(0.0, 0.5), 0.0),
                        (ParetoTypeI(0.5, 2.5), 0.5), (Degenerate(2.0), -3.0)):
            assert dist.stop_loss(t) == pytest.approx(dist.mean - t, rel=1e-15)
        # far above it the expected excess vanishes; the Pareto tail only
        # as t^(1 - beta)
        assert Normal(1.0, 0.3).stop_loss(1.0 + 40 * 0.3) < 1e-300
        # log 1000 is 13.8 log-scale deviations out: tiny, and still positive
        assert 0.0 < Lognormal(0.0, 0.5).stop_loss(1e3) < 1e-40
        pareto = ParetoTypeI(0.5, 2.5)
        assert pareto.stop_loss(1e6) == pytest.approx(0.5 * 2e6 ** -1.5 / 1.5, rel=1e-12)


class TestConfig:
    def test_parse_native_and_moment_forms(self):
        assert distribution_from_config({"kind": "normal", "mean": 1, "sd": 0.3}) == Normal(1.0, 0.3)
        assert distribution_from_config(
            {"kind": "lognormal", "mean": 1.0, "sd": 0.3}) == lognormal_from_moments(1.0, 0.3)
        assert distribution_from_config(
            {"kind": "pareto", "mean": 1.0, "beta": 2.0}) == ParetoTypeI(0.5, 2.0)
        assert distribution_from_config({"kind": "degenerate", "value": 1}) == Degenerate(1.0)
        # numeric strings convert, as the config file's numbers do
        assert distribution_from_config(
            {"kind": "pareto", "mean": "1", "beta": "2.0"}) == ParetoTypeI(0.5, 2.0)

    def test_round_trip(self):
        # the native form of every family is its fields
        dists = {"normal": Normal(1.0, 0.3), "lognormal": Lognormal(0.1, 0.4),
                 "pareto": ParetoTypeI(0.5, 2.0), "degenerate": Degenerate(1.0)}
        for kind, dist in dists.items():
            assert distribution_from_config({"kind": kind, **vars(dist)}) == dist

    def test_rejects_bad_specs(self):
        for bad in [{"kind": "cauchy"}, {"kind": "normal", "mean": 1},
                    {"kind": "pareto", "x_m": 1.0}, {"mean": 1.0, "sd": 0.2}, "normal"]:
            with pytest.raises(ValueError):
                distribution_from_config(bad)

    def test_names_the_missing_key(self):
        with pytest.raises(ValueError) as err:
            distribution_from_config({"kind": "normal", "mean": 1})
        assert str(err.value) == ("normal parameters ['mean']: missing 'sd' for {mean, sd}; "
                                  "normal accepts {mean, sd}")

    def test_names_the_extra_key(self):
        with pytest.raises(ValueError) as err:
            distribution_from_config({"kind": "lognormal", "mean": 1, "sd": 0.3, "beta": 2})
        assert str(err.value) == (
            "lognormal parameters ['beta', 'mean', 'sd']: extra 'beta' for {mean, sd}; "
            "lognormal accepts {mu_log, sd_log} or {mean, sd}")

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "pareto", "mean": True, "beta": 2}, "mean"),
        ({"kind": "normal", "mean": 1.0, "sd": False}, "sd"),
        ({"kind": "degenerate", "value": True}, "value"),
        ({"kind": "lognormal", "mu_log": 0.0, "sd_log": True}, "sd_log"),
        ({"kind": "pareto", "mean": "abc", "beta": 2}, "mean"),
        ({"kind": "normal", "mean": None, "sd": 0.3}, "mean")])
    def test_non_numbers_are_not_parameters(self, spec, key):
        # Python takes true for 1 and false for 0; a distribution may not
        message = f"{spec['kind']} parameter {key!r} must be a number, got {spec[key]!r}$"
        with pytest.raises(ValueError, match=message):
            distribution_from_config(spec)


class TestValidation:
    def test_parameter_gates(self):
        with pytest.raises(ValueError, match="^sd must be nonnegative"):
            Normal(0.0, -1.0)
        with pytest.raises(ValueError, match="^sd_log must be positive"):
            Lognormal(0.0, 0.0)
        with pytest.raises(ValueError, match="^x_m must be positive"):
            ParetoTypeI(0.0, 2.0)
        with pytest.raises(ValueError, match="^beta must exceed 1"):
            ParetoTypeI(1.0, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("build, name", [
        (lambda v: Normal(v, 1.0), "mean"), (lambda v: Normal(0.0, v), "sd"),
        (lambda v: Lognormal(v, 1.0), "mu_log"), (lambda v: Lognormal(0.0, v), "sd_log"),
        (lambda v: ParetoTypeI(v, 2.0), "x_m"), (lambda v: ParetoTypeI(1.0, v), "beta"),
        (Degenerate, "value"),
    ], ids=["normal-mean", "normal-sd", "lognormal-mu_log", "lognormal-sd_log", "pareto-x_m",
            "pareto-beta", "degenerate-value"])
    def test_non_finite_parameters_are_refused(self, build, name, value):
        # nan fails every range check, and a location must be finite too
        with pytest.raises(ValueError, match=f"^{name} must .*finite"):
            build(value)

    def test_pareto_variance_finiteness(self):
        assert math.isinf(ParetoTypeI(0.5, 2.0).variance)
        assert math.isfinite(ParetoTypeI(0.5, 2.1).variance)

    def test_scaled_zero_collapses_to_point_mass(self):
        assert scaled(Lognormal(0.0, 1.0), 0.0) == Degenerate(0.0)
        with pytest.raises(ValueError):
            scaled(ParetoTypeI(1.0, 2.0), -1.0)
