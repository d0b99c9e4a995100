"""Deterministic scenario generation with common random numbers.

One ``ScenarioSet`` drives every sampled quantity in a run: the same
uniforms are re-used for every candidate capital level and every asset
mix, so estimated curves are smooth and differences between nearby
parameter values carry far less noise than independent draws would.

Substream derivation: the seed feeds a ``SeedSequence`` whose two
spawned children key independent Philox counter-based generators, one
for the asset return, one for the claim.  Regeneration from (n, seed)
is bit-identical regardless of platform or call order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScenarioSet",
    "generate_scenarios",
]

_INV_2_53 = 2.0 ** -53

# Peak resident bytes per scenario of a Monte Carlo valuation or sweep:
# the slope of peak RSS between 1e6 and 2e6 scenarios was 43-68 over the
# VaR and ES sweeps and single valuations, highest under ES, where the
# solves at a sweep's two end weights, a single valuation and any rerun
# on all scenarios hold Z, the losses and their selection at full length
# (numpy 2.4, Linux x86-64).  Interior ES weights of a sweep solve on the
# triangle's kept scenarios and do not raise it.
PEAK_BYTES_PER_SCENARIO = 72


@dataclass(frozen=True)
class ScenarioSet:
    """Frozen pair of independent uniform streams of common length."""

    n: int
    seed: int
    u_asset: np.ndarray
    u_claim: np.ndarray

    def __post_init__(self) -> None:
        self.u_asset.flags.writeable = False
        self.u_claim.flags.writeable = False


def _open_uniform(gen: np.random.Generator, n: int) -> np.ndarray:
    # (k + 0.5) / 2^53 lies strictly inside (0, 1), so inverse
    # transforms stay finite for every draw.
    return (gen.integers(0, 1 << 53, size=n, dtype=np.int64) + 0.5) * _INV_2_53


def generate_scenarios(n: int, seed: int) -> ScenarioSet:
    """Reproducible scenario set of ``n`` draws per stream.

    Raises:
        ValueError: n < 1, or a run on n scenarios would need more than
            the physical memory, at ``PEAK_BYTES_PER_SCENARIO``; checked
            before anything is allocated.
    """
    if n < 1:
        raise ValueError("need at least one scenario")
    need, have = n * PEAK_BYTES_PER_SCENARIO, _physical_memory()
    if need > have:
        raise ValueError(f"{n} scenarios need about {need / 2 ** 30:.3g} GiB at peak, "
                         f"more than the {have / 2 ** 30:.3g} GiB of physical memory")
    child_asset, child_claim = np.random.SeedSequence(seed).spawn(2)
    u_asset = _open_uniform(np.random.Generator(np.random.Philox(child_asset)), n)
    u_claim = _open_uniform(np.random.Generator(np.random.Philox(child_claim)), n)
    return ScenarioSet(n=int(n), seed=int(seed), u_asset=u_asset, u_claim=u_claim)


def _physical_memory() -> float:
    # bytes, or inf where the system does not tell
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf
    return float(have) if have > 0 else math.inf
