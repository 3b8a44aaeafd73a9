"""Workload generation: arrival processes and access distributions.

The paper's experiment (§4.1) drives the system with a *closed*
workload: each display station issues one request, waits for the whole
display, and immediately (zero think time) issues the next.  Object
choice follows a truncated geometric distribution whose mean tunes the
skew (10 = highly skewed … 43.5 = near uniform over the working set).

Beyond the paper, :mod:`repro.workload.arrivals` opens the system:
Poisson/MMPP request streams with Zipf catalog skew, diurnal shaping,
flash-crowd bursts, and deadline-based blocking —
:class:`StationPool` is simply the closed implementation of the same
:class:`ArrivalProcess` contract.  The Erlang-B / M/M/c closed forms
and server-bank policies the open engine is validated against are a
test oracle, ``tests/oracles/analytic.py`` (docs/workloads.md).
"""

from repro.workload.access import (
    AccessDistribution,
    GeometricAccess,
    UniformAccess,
    ZipfAccess,
)
from repro.workload.arrivals import (
    ArrivalProcess,
    MMPPSource,
    OpenArrivals,
    PoissonSource,
    RateModulation,
)
from repro.workload.stations import DisplayStation, StationPool

__all__ = [
    "AccessDistribution",
    "ArrivalProcess",
    "DisplayStation",
    "GeometricAccess",
    "MMPPSource",
    "OpenArrivals",
    "PoissonSource",
    "RateModulation",
    "StationPool",
    "UniformAccess",
    "ZipfAccess",
]
