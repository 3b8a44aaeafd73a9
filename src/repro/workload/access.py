"""Object access distributions.

The paper models reference probabilities with a truncated geometric
distribution and varies its mean (10, 20, 43.5) to produce working
sets of roughly 100, 200, and 400 objects out of a 2000-object
database.  Objects are ranked by popularity: object 0 is the hottest.
"""

from __future__ import annotations

import abc
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.sim.rng import (
    DiscreteSampler,
    RandomStream,
    truncated_geometric_pmf,
)


class AccessDistribution(abc.ABC):
    """Maps random draws to object ids."""

    @abc.abstractmethod
    def sample(self) -> int:
        """Draw one object id."""

    @abc.abstractmethod
    def popularity_ranking(self) -> List[int]:
        """Object ids from most to least popular (for preloading)."""


class GeometricAccess(AccessDistribution):
    """Truncated geometric access over ``object_ids`` (paper §4.1).

    ``object_ids[0]`` is the most popular object.
    """

    def __init__(
        self, object_ids: Sequence[int], mean: float, stream: RandomStream
    ) -> None:
        if not object_ids:
            raise ConfigurationError("object_ids must be non-empty")
        self.object_ids = list(object_ids)
        self.mean = mean
        self.pmf = truncated_geometric_pmf(mean, len(self.object_ids))
        self._sampler = DiscreteSampler(self.pmf, stream)

    def __repr__(self) -> str:
        return (
            f"<GeometricAccess mean={self.mean} objects={len(self.object_ids)}>"
        )

    def sample(self) -> int:
        """Draw one object id (rank transformed through the pmf)."""
        return self.object_ids[self._sampler.sample()]

    def popularity_ranking(self) -> List[int]:
        """Most-popular-first ordering (the catalog order itself)."""
        return list(self.object_ids)


def zipf_pmf(exponent: float, limit: int) -> List[float]:
    """Probability mass function of a Zipf law over ``limit`` ranks.

    ``P(rank i) ∝ 1 / (i + 1)**exponent`` for ``i`` in ``[0, limit)``,
    normalised to sum to 1.  Rank 0 is the most popular title — the
    skew law large VoD catalog studies fit to real request streams
    (arXiv:0804.0743), offered alongside the paper's truncated
    geometric.
    """
    if limit < 1:
        raise ConfigurationError(f"pmf limit must be >= 1, got {limit}")
    if exponent <= 0:
        raise ConfigurationError(
            f"zipf exponent must be > 0, got {exponent}"
        )
    weights = [(i + 1) ** -exponent for i in range(limit)]
    total = sum(weights)
    return [w / total for w in weights]


class ZipfAccess(AccessDistribution):
    """Zipf-skewed access over ``object_ids``.

    ``object_ids[0]`` is the most popular object, matching the
    catalog-order convention of :class:`GeometricAccess`.
    """

    def __init__(
        self, object_ids: Sequence[int], exponent: float, stream: RandomStream
    ) -> None:
        if not object_ids:
            raise ConfigurationError("object_ids must be non-empty")
        self.object_ids = list(object_ids)
        self.exponent = exponent
        self.pmf = zipf_pmf(exponent, len(self.object_ids))
        self._sampler = DiscreteSampler(self.pmf, stream)

    def __repr__(self) -> str:
        return (
            f"<ZipfAccess s={self.exponent} objects={len(self.object_ids)}>"
        )

    def sample(self) -> int:
        """Draw one object id (rank transformed through the pmf)."""
        return self.object_ids[self._sampler.sample()]

    def popularity_ranking(self) -> List[int]:
        """Most-popular-first ordering (the catalog order itself)."""
        return list(self.object_ids)


class UniformAccess(AccessDistribution):
    """Uniform access over ``object_ids`` (the skew-free extreme)."""

    def __init__(self, object_ids: Sequence[int], stream: RandomStream) -> None:
        if not object_ids:
            raise ConfigurationError("object_ids must be non-empty")
        self.object_ids = list(object_ids)
        self.stream = stream

    def __repr__(self) -> str:
        return f"<UniformAccess objects={len(self.object_ids)}>"

    def sample(self) -> int:
        """Draw one object id uniformly."""
        return self.object_ids[self.stream.randint(0, len(self.object_ids) - 1)]

    def popularity_ranking(self) -> List[int]:
        """All objects are equally popular; catalog order."""
        return list(self.object_ids)
