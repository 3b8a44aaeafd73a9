"""Open-workload grid: blocking and wait percentiles vs offered load.

The paper's Figure 8 plots throughput against a *closed* station
count.  The open analogue — the operating curve of a production VoD
service (arXiv:1202.5094) — plots blocking probability, wait
percentiles, and carried load against the *offered* arrival rate,
swept across utilisations of the array's nominal streaming capacity
for each storage technique.

Like every grid, the cells are independent
:func:`repro.exec.experiment_spec` runs fanned through
:func:`repro.exec.execute`, so ``jobs``/``cache``/``supervision``
behave exactly as for Figure 8 and cached cells are digest-isolated
from closed runs (the arrival fields are part of the spec digest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.exec import execute, experiment_spec, records_to_results
from repro.simulation.config import PaperConfig, ScaledConfig, SimulationConfig
from repro.simulation.results import SimulationResult

#: Fractions of nominal array capacity the default grid offers.
DEFAULT_UTILISATIONS = (0.5, 0.8, 1.1)

#: Default admission deadline, intervals.  Generous enough that
#: transient queueing is absorbed, short enough that a saturated array
#: sheds load instead of growing an unbounded queue.
DEFAULT_DEADLINE = 25

#: Default Zipf exponent (catalog skew of large VoD traces).
DEFAULT_ZIPF_S = 0.8


@dataclass(frozen=True)
class OpenWorkloadPoint:
    """One cell: a technique at one offered rate."""

    technique: str
    rate: float  # offered arrivals per second
    offered: int
    blocked: int
    blocking_probability: float
    wait_p50_s: float
    wait_p95_s: float
    wait_p99_s: float
    carried_load: float
    displays_per_hour: float


def base_config(scale: int = 10) -> SimulationConfig:
    """Full-scale (scale=1) or proportionally scaled configuration."""
    return PaperConfig() if scale == 1 else ScaledConfig(scale=scale)


def nominal_capacity_rate(config: SimulationConfig) -> float:
    """Arrivals/second that would exactly fill the array.

    ``D / M`` concurrent displays each holding for ``display_time``
    seconds — Little's law gives the saturating arrival rate.
    """
    concurrent = config.num_disks / config.degree
    return concurrent / config.display_time


def grid_rates(
    config: SimulationConfig,
    utilisations: Sequence[float] = DEFAULT_UTILISATIONS,
) -> List[float]:
    """Offered rates at the given fractions of nominal capacity."""
    capacity = nominal_capacity_rate(config)
    return [round(u * capacity, 9) for u in utilisations]


def cell_config(
    config: SimulationConfig,
    technique: str,
    rate: float,
    deadline: int = DEFAULT_DEADLINE,
    zipf_s: Optional[float] = DEFAULT_ZIPF_S,
) -> SimulationConfig:
    """The configuration of one (technique, rate) cell."""
    return config.with_(
        technique=technique,
        arrival="poisson",
        arrival_rate=rate,
        deadline_intervals=deadline,
        zipf_s=zipf_s,
    )


def point_from_result(
    result: SimulationResult, technique: str, rate: float
) -> OpenWorkloadPoint:
    """One grid point from a finished run."""
    return OpenWorkloadPoint(
        technique=technique,
        rate=rate,
        offered=result.offered,
        blocked=result.blocked,
        blocking_probability=result.blocking_probability,
        wait_p50_s=result.wait_p50_seconds,
        wait_p95_s=result.wait_p95_seconds,
        wait_p99_s=result.wait_p99_seconds,
        carried_load=result.carried_load,
        displays_per_hour=result.throughput_per_hour,
    )


def run_open_workload(
    scale: int = 10,
    rates: Optional[Sequence[float]] = None,
    utilisations: Sequence[float] = DEFAULT_UTILISATIONS,
    techniques: Sequence[str] = ("simple", "staggered"),
    deadline: int = DEFAULT_DEADLINE,
    zipf_s: Optional[float] = DEFAULT_ZIPF_S,
    config: Optional[SimulationConfig] = None,
    obs=None,
    jobs: int = 1,
    cache=None,
    supervision=None,
) -> Dict[str, List[OpenWorkloadPoint]]:
    """The grid, grouped by technique.

    ``rates`` (arrivals/second) wins when given; otherwise the rates
    are derived from ``utilisations`` of nominal capacity.  The cells
    fan through :func:`repro.exec.execute` and come back in grid
    order regardless of scheduling.  Every cell varies ``config``
    (default: :func:`base_config` at ``scale``).
    """
    config = config if config is not None else base_config(scale)
    rates = list(rates) if rates else grid_rates(config, utilisations)
    cells = [
        (technique, rate) for technique in techniques for rate in rates
    ]
    specs = [
        experiment_spec(
            cell_config(config, technique, rate, deadline, zipf_s)
        )
        for technique, rate in cells
    ]
    results = records_to_results(
        execute(specs, jobs=jobs, cache=cache, obs=obs, supervision=supervision)
    )
    curves: Dict[str, List[OpenWorkloadPoint]] = {
        technique: [] for technique in techniques
    }
    for (technique, rate), result in zip(cells, results):
        curves[technique].append(point_from_result(result, technique, rate))
    return curves


def open_workload_rows(
    curves: Dict[str, List[OpenWorkloadPoint]]
) -> List[Dict]:
    """Flatten the grid into printable rows."""
    rows = []
    for technique in curves:
        for point in curves[technique]:
            rows.append(
                {
                    "technique": point.technique,
                    "rate_per_s": round(point.rate, 6),
                    "offered": point.offered,
                    "blocked": point.blocked,
                    "blocking_probability": round(
                        point.blocking_probability, 4
                    ),
                    "wait_p50_s": round(point.wait_p50_s, 2),
                    "wait_p95_s": round(point.wait_p95_s, 2),
                    "wait_p99_s": round(point.wait_p99_s, 2),
                    "carried_load": round(point.carried_load, 2),
                    "displays_per_hour": round(point.displays_per_hour, 1),
                }
            )
    return rows
