"""The paper's truncated-geometric access model in closed form (§4.1).

The package samples object choices from the distribution's pmf
(:class:`repro.workload.access.GeometricAccess` over
:func:`repro.sim.rng.truncated_geometric_pmf`).  This oracle keeps an
independent inverse-CDF sampler to check that pmf against, and the
working-set reading of the paper's claim that means 10 / 20 / 43.5
reference roughly 100 / 200 / 400 objects of a 2000-object database.
"""

from __future__ import annotations

import math

from repro.sim.rng import (
    RandomStream,
    geometric_success_probability,
    truncated_geometric_pmf,
)


def truncated_geometric(stream: RandomStream, mean: float, limit: int) -> int:
    """Sample ``i`` in ``[0, limit)`` with ``P(i) ∝ (1-p)^i``.

    ``p`` is chosen so the *untruncated* geometric has the given mean
    (``mean = (1-p)/p``), the paper's parameterisation.
    """
    p = geometric_success_probability(mean)
    u = stream.uniform()
    # Inverse CDF of the geometric truncated to [0, limit).
    truncation_mass = 1.0 - (1.0 - p) ** limit
    value = math.floor(math.log1p(-u * truncation_mass) / math.log1p(-p))
    return min(int(value), limit - 1)


def effective_working_set(mean: float, limit: int, mass: float = 0.99) -> int:
    """Smallest prefix of objects covering ``mass`` of the access mass."""
    if not 0.0 < mass < 1.0:
        raise ValueError(f"mass must be in (0, 1), got {mass}")
    cumulative = 0.0
    for i, prob in enumerate(truncated_geometric_pmf(mean, limit)):
        cumulative += prob
        if cumulative >= mass:
            return i + 1
    return limit
