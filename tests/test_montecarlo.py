"""Scenario generation, reproducibility, the chunked sampler against its
serial reference, and the estimators on top."""

import math
import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cocval import montecarlo
from cocval.distributions import Degenerate, Normal, lognormal_from_moments, pareto_from_mean_beta
from cocval.market import MarketSpec, SolveReport
from cocval.montecarlo import sample_scenarios
from cocval.risk_measures import RiskMeasure, var_empirical, var_multiplier
from cocval.valuation import gaussian_positive_part_factor, mc_valuation

from helpers import generate_scenarios, mc_at, open_uniform, summary_of


CLAIM = lognormal_from_moments(1.0, 0.3)
ASSET = lognormal_from_moments(1.05, 0.2)
# the four families, each with draws of both signs or a heavy tail
FAMILIES = (Normal(0.3, 1.7), CLAIM, pareto_from_mean_beta(1.0, 1.1), Degenerate(1.5))
SIZES = (1, 3, 4, 5, 2 ** 14 - 1, 2 ** 14 + 1, 65_537, 10 ** 6)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGenerate:
    # the serial reference generator of the test helpers, which the
    # chunked sampler reproduces bit for bit (TestSampleScenarios)
    def test_deterministic_regeneration(self):
        a = generate_scenarios(8, seed=42)
        b = generate_scenarios(8, seed=42)
        assert np.array_equal(a.u_asset, b.u_asset)
        assert np.array_equal(a.u_claim, b.u_claim)

    def test_streams_differ_and_seeds_matter(self):
        scen = generate_scenarios(64, seed=1)
        other = generate_scenarios(64, seed=2)
        assert not np.array_equal(scen.u_asset, scen.u_claim)
        assert not np.array_equal(scen.u_asset, other.u_asset)

    def test_memory_guard(self, monkeypatch):
        # a machine with room for exactly 1000 scenarios
        monkeypatch.setattr("cocval.market._physical_memory",
                            lambda: 1000.0 * montecarlo.PEAK_BYTES_PER_SCENARIO)
        x, s = sample_scenarios(CLAIM, ASSET, 1000, seed=1)
        assert x.size == s.size == 1000
        with pytest.raises(ValueError, match="physical memory"):
            sample_scenarios(CLAIM, ASSET, 1001, seed=1)
        # the guard runs before anything is allocated: 10^7 scenarios would be 160 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="physical memory"):
                sample_scenarios(CLAIM, ASSET, 10 ** 7, seed=1)
            assert tracemalloc.get_traced_memory()[1] < 100_000
        finally:
            tracemalloc.stop()

    def test_uniform_mean(self):
        scen = generate_scenarios(10 ** 6, seed=1)
        band = 4 * (1 / math.sqrt(12)) / 1e3
        assert abs(float(scen.u_asset.mean()) - 0.5) < band
        assert abs(float(scen.u_claim.mean()) - 0.5) < band

    def test_streams_uncorrelated(self):
        scen = generate_scenarios(10 ** 6, seed=1)
        corr = float(np.corrcoef(scen.u_asset, scen.u_claim)[0, 1])
        assert abs(corr) < 4 / math.sqrt(10 ** 6)

    def test_open_interval(self):
        scen = generate_scenarios(10 ** 5, seed=3)
        for u in (scen.u_asset, scen.u_claim):
            assert float(u.min()) > 0.0
            assert float(u.max()) < 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            generate_scenarios(0, seed=1)
        with pytest.raises(ValueError):
            sample_scenarios(CLAIM, ASSET, 0, seed=1)

    def test_immutable(self):
        scen = generate_scenarios(4, seed=9)
        with pytest.raises(ValueError):
            scen.u_asset[0] = 0.5


@pytest.fixture
def own_pool(monkeypatch):
    """A pool of the test's own, made on first use and shut down after, so
    that a patched CPU count does not size the process's pool."""
    monkeypatch.setattr(montecarlo, "_pool", None)
    yield
    if montecarlo._pool is not None:
        montecarlo._pool.shutdown()


class TestSampleScenarios:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("i", range(len(FAMILIES)), ids=lambda i: type(FAMILIES[i]).__name__)
    def test_equals_serial_reference(self, i, n):
        claim, asset = FAMILIES[i], FAMILIES[(i + 1) % len(FAMILIES)]
        scen = generate_scenarios(n, seed=5)
        x, s = sample_scenarios(claim, asset, n, seed=5)
        assert same_bits(x, claim.sample(scen.u_claim))
        assert same_bits(s, asset.sample(scen.u_asset))
        x1, s1 = sample_scenarios(claim, None, n, seed=5)  # the claim stream alone
        assert s1 is None and same_bits(x1, x)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 7])
    def test_any_number_of_cpus(self, monkeypatch, own_pool, cpus):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        n = 5 * montecarlo.MIN_CHUNK + 3
        scen = generate_scenarios(n, seed=8)
        x, s = sample_scenarios(CLAIM, ASSET, n, seed=8)
        assert same_bits(x, CLAIM.sample(scen.u_claim))
        assert same_bits(s, ASSET.sample(scen.u_asset))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 2_000), cuts=st.lists(st.integers(1, 500), max_size=6),
           block=st.sampled_from([1, 3, 8, 64, 2 ** 14]), seed=st.integers(0, 2 ** 32 - 1),
           family=st.sampled_from(FAMILIES))
    def test_any_split_at_multiples_of_four(self, n, cuts, block, seed, family):
        # chunks whose starts are multiples of 4, worked in blocks of any
        # length, each chunk in scratch of its own
        bounds = sorted({4 * c for c in cuts if 4 * c < n})
        out = np.full(n, np.nan)
        _, key_claim = np.random.SeedSequence(seed).spawn(2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "BLOCK", block)
            for a, b in zip([0, *bounds], [*bounds, n]):
                montecarlo._fill(out, family, key_claim, a, b, np.full((2, block), np.nan))
        assert same_bits(out, family.sample(generate_scenarios(n, seed).u_claim))

    @pytest.mark.parametrize("family", [*FAMILIES, Normal(-0.4, 0.0)], ids=repr)
    def test_a_block_in_caller_scratch_makes_no_block_long_array(self, family):
        # the draws overwrite the uniforms in out and the transform works in
        # the caller's scratch: only the normal quantile's tail entries, about
        # 15% of a block, and one bool mask are allocated
        n = montecarlo.BLOCK
        out, work = np.empty(n), np.empty((2, n))
        _, key = np.random.SeedSequence(4).spawn(2)
        montecarlo._fill(out, family, key, 0, n, work)  # numpy's first-use caches
        tracemalloc.start()
        try:
            montecarlo._fill(out, family, key, 0, n, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes
        assert same_bits(out, family.sample(generate_scenarios(n, seed=4).u_claim))

    def test_jump_ahead_facts(self):
        # the chunking rests on these facts of numpy's Philox generator
        key = np.random.SeedSequence(3)
        raw = np.random.Philox(key).random_raw(200)
        # integers(0, 2^53) takes one 64-bit word per value, its top 53 bits
        gen = np.random.Generator(np.random.Philox(key))
        ints = gen.integers(0, 1 << 53, size=81, dtype=np.int64)
        assert np.array_equal(ints, (raw[:81] >> np.uint64(11)).astype(np.int64))
        assert gen.bit_generator.random_raw() == raw[81]
        # random() scales the same 53 bits of one word per value by 2^-53
        gen = np.random.Generator(np.random.Philox(key))
        assert np.array_equal(gen.random(81), (raw[:81] >> np.uint64(11)) * 2.0 ** -53)
        assert gen.bit_generator.random_raw() == raw[81]
        # advance(d) skips 4 d words
        for d in (1, 5, 10, 33):
            bits = np.random.Philox(key)
            bits.advance(d)
            assert np.array_equal(bits.random_raw(40), raw[4 * d:4 * d + 40])

    def test_uniforms_equal_the_integer_form(self):
        # a chunk from a nonzero start draws k 2^-53 + 2^-54, which is
        # (k + 0.5) 2^-53 for the same 53-bit integers k, bit for bit
        class Uniform:
            @staticmethod
            def sample(u, work):
                return u

        _, key = np.random.SeedSequence(12).spawn(2)
        start = 4 * 25_001
        stop = start + 3 * montecarlo.BLOCK + 5
        out = np.full(stop, np.nan)
        montecarlo._fill(out, Uniform, key, start, stop, np.empty((2, montecarlo.BLOCK)))
        want = open_uniform(np.random.Generator(np.random.Philox(key)), stop)
        assert same_bits(out[start:], want[start:])
        assert np.all(np.isnan(out[:start]))

    def test_word_to_uniform_at_the_ends_and_the_middle(self):
        # k = 0, 2^52 and the top word 2^53 - 1, whose midpoint rounds to
        # 1.0 and is capped below it; the serial reference agrees
        ks = np.array([0, 1 << 52, (1 << 53) - 1], dtype=np.int64)
        want = [2.0 ** -54, 0.5, 1.0 - 2.0 ** -53]
        assert montecarlo._open_unit(ks * 2.0 ** -53).tolist() == want

        class Words:
            @staticmethod
            def integers(low, high, size, dtype):
                assert (low, high, size, dtype) == (0, 1 << 53, 3, np.int64)
                return ks

        assert open_uniform(Words, 3).tolist() == want
        assert np.isfinite(CLAIM.sample(np.array(want))).all()

    def test_concurrent_calls_share_one_pool(self, monkeypatch, own_pool):
        # six callers race to make the pool and split into more chunks than
        # cores, with frequent thread switches; each gets its own streams
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 5)
        n, seeds = 5 * montecarlo.MIN_CHUNK + 7, range(6)
        got, pools = {}, []

        def call(seed):
            got[seed] = sample_scenarios(CLAIM, ASSET, n, seed)
            pools.append(montecarlo._pool)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(seed,)) for seed in seeds]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert len(pools) == 6 and all(pool is pools[0] for pool in pools)
        for seed in seeds:
            scen = generate_scenarios(n, seed)
            assert same_bits(got[seed][0], CLAIM.sample(scen.u_claim))
            assert same_bits(got[seed][1], ASSET.sample(scen.u_asset))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_forked_child_makes_its_own_pool(self, monkeypatch, own_pool):
        # a child forked after the pool exists has none of its workers
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        n = 2 * montecarlo.MIN_CHUNK
        want = sample_scenarios(CLAIM, ASSET, n, seed=2)
        assert montecarlo._pool is not None

        def draw_again():
            x, s = sample_scenarios(CLAIM, ASSET, n, seed=2)
            sys.exit(0 if same_bits(x, want[0]) and same_bits(s, want[1]) else 3)

        child = multiprocessing.get_context("fork").Process(target=draw_again)
        child.start()
        child.join(timeout=60)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung and child.exitcode == 0

    def test_no_full_length_uniforms(self, monkeypatch, own_pool):
        # the uniforms exist only in blocks: the peak is the two streams
        # and each chunk's block temporaries, not two more streams; two
        # chunks run at once, whatever the machine, each with at most three
        # block-long float arrays besides the streams
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        n = 10 ** 6
        # a first run makes the pool and imports numpy.random, which are
        # set-up, not sampling
        sample_scenarios(CLAIM, ASSET, n, seed=1)
        tracemalloc.start()
        try:
            x, s = sample_scenarios(CLAIM, ASSET, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.nbytes + s.nbytes <= peak < x.nbytes + s.nbytes + 4_000_000


class TestNetWorth:
    # The net worth r Z - X enters mc_valuation as c0 = E[(.)^+] / (1 + eta)
    # and llo = E[(.)^-] / (1 + eta), so c0 - llo is its discounted mean.
    def test_riskless_no_claim(self):
        scen = generate_scenarios(16, seed=0)
        market = MarketSpec(claim=Degenerate(0.0), asset=Normal(1.05, 0.2), w=0.0, eta=0.06)
        row = mc_at(1.0, market, scen)
        assert (row.c0, row.c0_se, row.llo) == (1.0 / 1.06, 0.0, 0.0)

    def test_zero_capital(self):
        scen = generate_scenarios(64, seed=0)
        market = MarketSpec(claim=lognormal_from_moments(1.0, 0.3),
                            asset=Normal(1.05, 0.2), w=0.5, eta=0.06)
        x = market.claim.sample(scen.u_claim)
        row = mc_at(0.0, market, scen)
        assert row.c0 == 0.0
        assert row.llo == float(x.mean()) / 1.06

    def test_gaussian_mean(self):
        n = 10 ** 6
        scen = generate_scenarios(n, seed=7)
        market = MarketSpec(claim=Normal(1.0, 0.3), asset=Normal(1.05, 0.2), w=0.4, eta=0.06)
        r = 2.0
        row = mc_at(r, market, scen)
        mu_w = 0.4 * 1.05 + 0.6
        sd = math.sqrt(r * r * (0.4 * 0.2) ** 2 + 0.3 ** 2)
        mean = (row.c0 - row.llo) * 1.06
        assert abs(mean - (r * mu_w - 1.0)) < 4 * sd / math.sqrt(n)

    def test_crn_monotone_in_capital(self):
        # pathwise nonnegative mixed return makes the empirical VaR
        # non-increasing in the capital level, scenario-exact
        scen = generate_scenarios(20_000, seed=13)
        market = MarketSpec(claim=lognormal_from_moments(1.0, 0.3),
                            asset=lognormal_from_moments(1.05, 0.2), w=0.7, eta=0.06)
        z = 0.7 * market.asset.sample(scen.u_asset) + 0.3
        x = market.claim.sample(scen.u_claim)
        levels = [var_empirical(r * z - x, 0.01) for r in np.linspace(0.0, 4.0, 41)]
        assert all(b <= a + 1e-12 for a, b in zip(levels, levels[1:]))


class TestEstimators:
    def test_positive_part_all_negative(self):
        scen = generate_scenarios(3, seed=0)
        market = MarketSpec(claim=Degenerate(3.0), asset=Degenerate(1.0), w=0.0, eta=0.06)
        row = mc_at(1.0, market, scen)
        assert row.c0 == 0.0
        assert row.c0_se == 0.0

    def test_positive_part_all_ones(self):
        scen = generate_scenarios(8, seed=0)
        market = MarketSpec(claim=Degenerate(0.0), asset=Degenerate(1.0), w=0.0, eta=0.06)
        row = mc_at(1.0, market, scen)
        assert (row.c0, row.c0_se, row.llo_se) == (1.0 / 1.06, 0.0, 0.0)

    def test_mean_and_se(self):
        # losses 1 and 3: the option averages them, 2 with standard error 1
        rep = SolveReport(r0=1.0, residual=0.0, iterations=0, losses=summary_of([1.0, 3.0]))
        market = MarketSpec(claim=Degenerate(0.0), asset=Degenerate(1.0), w=0.0, eta=1.0)
        row = mc_valuation(rep, market, RiskMeasure("var", 0.25))
        assert (row.llo, row.c0) == (1.0, 0.0)
        assert row.llo_se == pytest.approx(0.5, rel=1e-15)

    def test_gaussian_positive_part_against_closed_form(self):
        # E[(e - f G)^+] = e * factor when the VaR of e + f G is zero:
        # capital e against a centred normal claim of sd f
        n = 10 ** 6
        scen = generate_scenarios(n, seed=21)
        alpha, e = 0.01, 0.8
        f = e / var_multiplier(alpha)
        market = MarketSpec(claim=Normal(0.0, f), asset=Degenerate(1.0), w=0.0, eta=0.06)
        row = mc_at(e, market, scen)
        expected = e * gaussian_positive_part_factor(var_multiplier(alpha)) / 1.06
        assert abs(row.c0 - expected) < 4 * row.c0_se
