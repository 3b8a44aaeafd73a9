"""Seeded random variates for workload generation.

The paper's workload models object reference probabilities with a
*(truncated) geometric* distribution whose mean is varied (10, 20,
43.5) to move from highly-skewed to near-uniform access.  This module
provides that distribution plus the usual building blocks, all driven
by an explicit, seedable stream so experiments are reproducible.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from functools import lru_cache
from typing import List, Optional, Sequence

from repro.integrity import sha256
from repro.sim import sanitize


@lru_cache(maxsize=4096)
def substream_salt(name: str) -> int:
    """A stable integer salt for a named substream.

    Derived from SHA-256 of the name, so it is identical across
    interpreter runs and ``PYTHONHASHSEED`` values, and — unlike the
    small hand-picked integers passed to :meth:`RandomStream.fork` —
    effectively collision-free between names.  Memoised per process:
    a fault injector names one substream per drive.
    """
    digest = sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


class RandomStream:
    """A seeded random stream with the variates used by the model."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def __repr__(self) -> str:
        return f"<RandomStream seed={self.seed!r}>"

    def fork(self, salt: int) -> "RandomStream":
        """Derive an independent stream (stable for a given seed+salt).

        Every derived seed is reported to the active sanitizer (see
        :mod:`repro.sim.sanitize`): handing the same derived seed to
        two subsystems in one run is a correlation bug the sanitizer's
        ``rng_substream_reuse`` check flags.
        """
        base = self.seed if self.seed is not None else 0
        seed = (base * 1_000_003 + salt) & 0x7FFF_FFFF_FFFF_FFFF
        sanitize.note_stream_seed(seed)
        return RandomStream(seed=seed)

    def substream(self, name: str) -> "RandomStream":
        """Derive an independent *named* stream (stable for seed+name).

        Subsystems that draw random variates independently of each
        other — the workload, placement, and fault injection — each
        fork their own named substream from the run seed, so adding
        draws to one (e.g. enabling fault injection) can never perturb
        the sequences the others see.  The salt space is disjoint by
        construction from the small integers used with :meth:`fork`.
        """
        return self.fork(substream_salt(name))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform float in ``[low, high)``."""
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._rng.randint(low, high)

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be > 0, got {mean}")
        return self._rng.expovariate(1.0 / mean)


def geometric_success_probability(mean: float) -> float:
    """Success probability ``p`` for a geometric with ``mean = (1-p)/p``."""
    if mean <= 0:
        raise ValueError(f"geometric mean must be > 0, got {mean}")
    return 1.0 / (mean + 1.0)


def truncated_geometric_pmf(mean: float, limit: int) -> List[float]:
    """Probability mass function of the truncated geometric.

    Returns ``limit`` probabilities summing to 1, with ``P(i) ∝
    (1-p)^i``.
    """
    if limit < 1:
        raise ValueError(f"pmf limit must be >= 1, got {limit}")
    p = geometric_success_probability(mean)
    weights = [(1.0 - p) ** i for i in range(limit)]
    total = sum(weights)
    return [w / total for w in weights]


class DiscreteSampler:
    """Alias-free inverse-CDF sampler over an explicit pmf.

    Used for the object access distribution: build once per
    experiment, sample per request in O(log n).
    """

    def __init__(self, pmf: Sequence[float], stream: RandomStream) -> None:
        if not pmf:
            raise ValueError("pmf must be non-empty")
        total = float(sum(pmf))
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
            pmf = [p / total for p in pmf]
        self.pmf = list(pmf)
        self.stream = stream
        self._cdf: List[float] = []
        running = 0.0
        for prob in self.pmf:
            if prob < 0:
                raise ValueError(f"pmf entries must be >= 0, got {prob}")
            running += prob
            self._cdf.append(running)
        self._cdf[-1] = 1.0

    def sample(self) -> int:
        """Draw one index according to the pmf."""
        return bisect_left(self._cdf, self.stream.uniform())
