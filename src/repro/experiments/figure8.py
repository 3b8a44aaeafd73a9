"""Figure 8: throughput vs number of display stations.

Three graphs (access-distribution means 10 / 20 / 43.5 at full scale),
each comparing simple striping against virtual data replication as the
station count grows from 1 to 256.  The scaled configuration divides
every linear dimension by ``scale`` (default 10) — including the
means and the station counts — preserving the ratios the curves
depend on; pass ``scale=1`` for the paper's exact parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.exec import execute, experiment_spec, records_to_results
from repro.simulation.config import PaperConfig, ScaledConfig, SimulationConfig
from repro.simulation.results import SimulationResult

#: The paper's three access-distribution means and their labels.
PAPER_MEANS = {10.0: "highly skewed", 20.0: "skewed", 43.5: "uniform"}

#: Station counts plotted in Figure 8 (powers of two up to 256).
PAPER_STATIONS = [1, 2, 4, 8, 16, 32, 64, 128, 256]


@dataclass(frozen=True)
class Figure8Point:
    """One point of one curve."""

    technique: str
    access_mean: float
    stations: int
    throughput_per_hour: float
    hit_rate: float
    tertiary_utilization: float
    mean_latency_s: float


def base_config(scale: int = 10) -> SimulationConfig:
    """Full-scale (scale=1) or proportionally scaled configuration."""
    return PaperConfig() if scale == 1 else ScaledConfig(scale=scale)


def scaled_means(scale: int = 10) -> List[float]:
    """The paper's means divided by the scale factor."""
    return [mean / scale for mean in PAPER_MEANS]


def scaled_stations(scale: int = 10) -> List[int]:
    """Station counts shrunk with the system (minimum 1 each)."""
    return sorted({max(1, s // scale) for s in PAPER_STATIONS})


def point_config(
    config: SimulationConfig, technique: str, mean: float, stations: int
) -> SimulationConfig:
    """The configuration of one (technique, mean, stations) cell."""
    return config.with_(
        technique=technique, access_mean=mean, num_stations=stations
    )


def point_from_result(
    result: SimulationResult, technique: str, mean: float, stations: int
) -> Figure8Point:
    """One curve point from a finished run."""
    stats = result.policy_stats
    return Figure8Point(
        technique=technique,
        access_mean=mean,
        stations=stations,
        throughput_per_hour=result.throughput_per_hour,
        hit_rate=stats.get("hit_rate", 0.0),
        tertiary_utilization=stats.get("tertiary_utilization", 0.0),
        mean_latency_s=result.mean_startup_latency_seconds,
    )


def run_figure8(
    scale: int = 10,
    stations: Optional[Sequence[int]] = None,
    means: Optional[Sequence[float]] = None,
    techniques: Sequence[str] = ("simple", "vdr"),
    config: Optional[SimulationConfig] = None,
    obs=None,
    jobs: int = 1,
    cache=None,
    supervision=None,
) -> Dict[float, List[Figure8Point]]:
    """All curves, grouped by access mean.

    The grid's runs are independent, so they fan through
    :func:`repro.exec.execute` — ``jobs`` workers, optional result
    ``cache``, optional :class:`repro.exec.Supervision` — and come
    back in grid order regardless of scheduling.  Every cell varies
    ``config`` (default: :func:`base_config` at ``scale``).
    """
    config = config if config is not None else base_config(scale)
    stations = list(stations) if stations else scaled_stations(scale)
    means = list(means) if means else scaled_means(scale)
    cells = [
        (mean, technique, count)
        for mean in means
        for technique in techniques
        for count in stations
    ]
    specs = [
        experiment_spec(point_config(config, technique, mean, count))
        for mean, technique, count in cells
    ]
    results = records_to_results(
        execute(specs, jobs=jobs, cache=cache, obs=obs, supervision=supervision)
    )
    curves: Dict[float, List[Figure8Point]] = {mean: [] for mean in means}
    for (mean, technique, count), result in zip(cells, results):
        curves[mean].append(point_from_result(result, technique, mean, count))
    return curves


def figure8_rows(curves: Dict[float, List[Figure8Point]]) -> List[Dict]:
    """Flatten the curves into printable rows."""
    rows = []
    for mean in sorted(curves):
        for point in curves[mean]:
            rows.append(
                {
                    "mean": mean,
                    "technique": point.technique,
                    "stations": point.stations,
                    "displays_per_hour": round(point.throughput_per_hour, 1),
                    "hit_rate": round(point.hit_rate, 3),
                    "tertiary_util": round(point.tertiary_utilization, 3),
                    "latency_s": round(point.mean_latency_s, 1),
                }
            )
    return rows
