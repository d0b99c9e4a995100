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

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScenarioSet",
    "McEstimate",
    "generate_scenarios",
    "estimate_mean",
]

_INV_2_53 = 2.0 ** -53


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


@dataclass(frozen=True)
class McEstimate:
    """Mean-type Monte Carlo estimate with its standard error."""

    value: float
    std_error: float
    n: int


def _open_uniform(gen: np.random.Generator, n: int) -> np.ndarray:
    # (k + 0.5) / 2^53 lies strictly inside (0, 1), so inverse
    # transforms stay finite for every draw.
    return (gen.integers(0, 1 << 53, size=n, dtype=np.int64) + 0.5) * _INV_2_53


def generate_scenarios(n: int, seed: int) -> ScenarioSet:
    """Reproducible scenario set of ``n`` draws per stream.

    Raises:
        ValueError: n < 1.
    """
    if n < 1:
        raise ValueError("need at least one scenario")
    child_asset, child_claim = np.random.SeedSequence(seed).spawn(2)
    u_asset = _open_uniform(np.random.Generator(np.random.Philox(child_asset)), n)
    u_claim = _open_uniform(np.random.Generator(np.random.Philox(child_claim)), n)
    return ScenarioSet(n=int(n), seed=int(seed), u_asset=u_asset, u_claim=u_claim)


def estimate_mean(values) -> McEstimate:
    """Sample mean with standard error sd / sqrt(n)."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty sample")
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return McEstimate(value=float(arr.mean()), std_error=se, n=arr.size)
