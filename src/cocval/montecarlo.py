"""Deterministic scenario sampling with common random numbers.

A Monte Carlo run draws one scenario set, the claims and the asset
returns, and reuses it for every candidate capital level and every
asset mix, so estimated curves are smooth and differences between
nearby parameter values carry far less noise than independent draws
would.

Substream derivation: the seed feeds a ``SeedSequence`` whose two
spawned children key independent Philox counter-based generators, one
for the asset return, one for the claim.  Draw i of a stream is
(k_i + 0.5) 2^-53 for the i-th 53-bit integer k_i of its generator, and
its sample is the inverse transform of that uniform.  Philox4x64 makes
four 64-bit words per counter step and each integer takes one word, so
``Philox.advance(i // 4)`` reaches draw i of a fresh generator when i is
a multiple of 4 (Salmon et al., "Parallel random numbers: as easy as 1,
2, 3", SC'11).  ``sample_scenarios`` therefore splits each stream into
contiguous chunks, one per usable CPU and each at least ``MIN_CHUNK``
draws long, that run on a thread pool (numpy and scipy release the GIL
in their loops), and each chunk transforms blocks of ``BLOCK`` uniforms
straight into its slice of the samples: no full-length uniform array
exists.  Every stream is a function of (n, seed) alone, bit for bit,
whatever the split or the platform.  ``in_chunks`` lends the same pool
to the solver's full-length passes.
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

_INV_2_53 = 2.0 ** -53

# Peak resident bytes per scenario of a Monte Carlo valuation or sweep:
# the slope of peak RSS between 1e6 and 2e6 scenarios (seed 1, numpy 2.4,
# Linux x86-64) was 24 on fig3b and fig15b at grid steps 0.1 and 0.001
# and on the lognormal VaR and Pareto-1.1 valuations, and 34-35 on fig8b
# at both steps and on the lognormal ES valuation.  The claims and asset
# returns are the only n-long arrays the sampler leaves; a VaR solve adds
# the end-ratio minima, and an ES grid the losses and their selection,
# which every solve on all scenarios reuses.  Interior ES weights solve
# on the triangle's kept scenarios, and a solved weight keeps sums of its
# losses, no array.
PEAK_BYTES_PER_SCENARIO = 40

# Length of the blocks a chunk works through: its temporaries stay small
# and are reused from block to block.
BLOCK = 1 << 14
# The shortest chunk: a hand-off to the pool costs tens of microseconds,
# so shorter runs, such as the solves on a kept set, stay in one thread.
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


def in_chunks(fn, n: int, align: int) -> list:
    """``fn(start, stop)`` on contiguous chunks that cover range(n), one
    per usable CPU, each at least ``MIN_CHUNK`` long and each start a
    multiple of ``align``; the results in chunk order.

    The chunks run on the module's thread pool, made on first use, and a
    single chunk runs in the calling thread.  ``fn`` must write only
    into its own chunk's slice of any shared output.  Every chunk ends
    before the call returns or raises the first chunk's exception.
    """
    size = max(MIN_CHUNK, -(-n // _usable_cpus()))
    size = -(-size // align) * align
    spans = [(a, min(a + size, n)) for a in range(0, n, size)]
    if len(spans) == 1:
        return [fn(0, n)]
    futures = [_executor().submit(fn, a, b) for a, b in spans]
    wait(futures)
    return [f.result() for f in futures]


def _fill(out: np.ndarray, dist: Distribution, key: np.random.SeedSequence,
          start: int, stop: int) -> None:
    # Draws start..stop-1 of the stream keyed by ``key``, transformed by
    # ``dist`` into out[start:stop]; start is a multiple of 4.
    bits = np.random.Philox(key)
    bits.advance(start // 4)
    gen = np.random.Generator(bits)
    u = np.empty(min(BLOCK, stop - start))
    for i in range(start, stop, BLOCK):
        j = min(i + BLOCK, stop)
        # (k + 0.5) / 2^53 lies strictly inside (0, 1), so inverse
        # transforms stay finite for every draw.
        v = np.add(gen.integers(0, 1 << 53, size=j - i, dtype=np.int64), 0.5, out=u[:j - i])
        v *= _INV_2_53
        out[i:j] = dist.sample(v)


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

    def chunk(start: int, stop: int) -> None:
        _fill(x, claim, key_claim, start, stop)
        if s is not None:
            _fill(s, asset, key_asset, start, stop)

    in_chunks(chunk, n, 4)
    return x, s

