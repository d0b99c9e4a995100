"""Deterministic scenario sampling with common random numbers.

A Monte Carlo run draws one scenario set, the claims and the asset
returns, and reuses it for every candidate capital level and every
asset mix, so estimated curves are smooth and differences between
nearby parameter values carry far less noise than independent draws
would.

Substream derivation: the seed feeds a ``SeedSequence`` whose two
spawned children key independent Philox counter-based generators, one
for the asset return, one for the claim.  Draw i of a stream is
(k_i + 0.5) 2^-53, rounded once and capped at 1 - 2^-53, where k_i is
the top 53 bits of the i-th 64-bit word of its generator, and its sample
is the inverse transform of that uniform.  ``Generator.random`` gives
k_i 2^-53 exactly, and adding 2^-54 rounds once, as (k_i + 0.5) 2^-53
does; ``integers(0, 2^53)`` takes the same k_i from each word.  The cap
moves only the top word, k = 2^53 - 1, whose midpoint rounds to even at
1.0.  Philox4x64 makes four 64-bit words per counter
step and each draw takes one word, so ``Philox.advance(i // 4)`` reaches
draw i of a fresh generator when i is a multiple of 4 (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11).
``sample_scenarios`` therefore splits each stream into contiguous
chunks, one per usable CPU and each at least ``MIN_CHUNK`` draws long,
that run on a thread pool (numpy releases the GIL in its loops), and
each chunk draws blocks of ``BLOCK`` uniforms into its slice of the
samples and transforms them there, in scratch the calling thread made:
no full-length uniform array exists, and no pool thread makes a block.
Every stream is a function of (n, seed) alone, bit for bit, whatever the
split or the platform.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import wait

import numpy as np

from .distributions import Distribution
from .market import check_memory

__all__ = [
    "sample_scenarios",
]

# Peak resident bytes per scenario of a Monte Carlo valuation or sweep:
# the slope of peak RSS between 1e6 and 2e6 scenarios (seed 1, numpy 2.4,
# Linux x86-64, 2 cores) was 16.4-17.3 on fig3b and fig15b at grid steps
# 0.1 and 0.001 and on the lognormal VaR and Pareto-1.1 valuations, and
# 18.7-19.2 on fig8b at both steps and on the lognormal ES valuation.
# The claims and asset returns, 16 bytes, are the only n-long float
# arrays the sampler leaves.  A solve adds the bool mask of a prune, one
# at a time, and arrays on its kept scenarios, which grow with alpha n:
# the ES kept set holds 2.4-9.5% of the scenarios on the ES presets.  A
# solved weight keeps sums of its losses, no array.  Only a weight that
# reruns on all scenarios makes the two n-long arrays of the losses and
# their selection, which later reruns reuse; the constant keeps room for
# them, and more since blocks are transformed in place (2.5 MB less RSS).
PEAK_BYTES_PER_SCENARIO = 40

# Length of the blocks a chunk works through and of its two scratch rows;
# a block's transform makes no other block-long array.  The normal quantile
# makes about 40 numpy calls per block, each releasing the GIL only inside
# its loop; at 2^14 the pool's threads barely overlap, at 2^16 they do.
BLOCK = 1 << 16
# The largest uniform, the top word's: (2^53 - 0.5) 2^-53 rounds to 1.0.
_TOP = 1.0 - 2.0 ** -53
# The shortest chunk: a hand-off to the pool costs tens of microseconds,
# so shorter runs stay in one thread.
MIN_CHUNK = 1 << 16

_pool = None  # the concurrent.futures.ThreadPoolExecutor, made on first use
_pool_pid = None  # the process that made it: a forked child has none of its workers
_pool_lock = threading.Lock()


def _usable_cpus() -> int:
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _executor():
    # one pool for the process, made by the first run that splits; the
    # import waits for it too, so a run without Monte Carlo does not pay
    global _pool, _pool_pid
    with _pool_lock:
        if _pool is None or _pool_pid != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=_usable_cpus(),
                                       thread_name_prefix="cocval-chunk")
            _pool_pid = os.getpid()
        return _pool


def _fill(out: np.ndarray, dist: Distribution, key: np.random.SeedSequence,
          start: int, stop: int, work: np.ndarray) -> None:
    # Draws start..stop-1 of the stream keyed by ``key``, transformed by
    # ``dist`` into out[start:stop]; start is a multiple of 4.  Each
    # block's uniforms are drawn into the block's own slice of out, and its
    # samples overwrite them there, with work[:, :BLOCK] as scratch.
    bits = np.random.Philox(key)
    bits.advance(start // 4)
    gen = np.random.Generator(bits)
    for i in range(start, stop, BLOCK):
        j = min(i + BLOCK, stop)
        dist.sample(_open_unit(gen.random(out=out[i:j])), work[:, :j - i])


def _open_unit(v: np.ndarray) -> np.ndarray:
    # k 2^-53 from a word's top 53 bits, made (k + 0.5) 2^-53 in one
    # rounding and capped at _TOP, in place: strictly inside (0, 1), so
    # inverse transforms stay finite for every draw.
    v += 2.0 ** -54
    return np.minimum(v, _TOP, out=v)


def sample_scenarios(claim: Distribution, asset: Distribution | None, n: int,
                     seed: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The claims X and asset returns S of the scenario set of ``n``
    draws from ``seed``, each its stream's inverse transform; S is None,
    and its stream is not drawn, when ``asset`` is None.

    Raises:
        ValueError: n < 1, or a run on n scenarios would need more than
            the physical memory, at ``PEAK_BYTES_PER_SCENARIO``; checked
            before anything is allocated.
    """
    if n < 1:
        raise ValueError("need at least one scenario")
    check_memory(n * PEAK_BYTES_PER_SCENARIO, f"{n} scenarios")
    key_asset, key_claim = np.random.SeedSequence(seed).spawn(2)
    x = np.empty(n)
    s = None if asset is None else np.empty(n)

    def chunk(start: int, stop: int, work: np.ndarray) -> None:
        _fill(x, claim, key_claim, start, stop, work)
        if s is not None:
            _fill(s, asset, key_asset, start, stop, work)

    # chunks of at least MIN_CHUNK draws, one per usable CPU, each start a
    # multiple of 4; a single chunk runs in the calling thread.  Scratch made
    # here returns, freed, to the heap the solve allocates from next.
    size = max(MIN_CHUNK, -(-n // _usable_cpus()))
    size = -(-size // 4) * 4
    if size >= n:
        chunk(0, n, np.empty((2, min(BLOCK, n))))
        return x, s
    futures = [_executor().submit(chunk, a, min(a + size, n), np.empty((2, BLOCK)))
               for a in range(0, n, size)]
    wait(futures)  # every chunk ends before the first exception is raised
    for future in futures:
        future.result()
    return x, s

