"""Start-up latency distributions: striping vs VDR.

Figure 8 reports throughput; the §3.1/§3.2.2 discussion is all about
*display-initiation latency*.  This experiment profiles the full
latency distribution (median / p90 / p99 / max) of each technique at a
given load, quantifying the paper's queueing argument: a VDR request
colliding with a busy cluster waits up to a whole display time, while
striping's pooled (rotating) slots keep waits near one service time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.exec import execute, experiment_spec, records_to_results
from repro.obs.metrics import Histogram
from repro.simulation.config import ScaledConfig, SimulationConfig
from repro.simulation.results import SimulationResult


def latency_histogram(
    result: SimulationResult, bins: int = 64
) -> Histogram:
    """Bucket a result's startup latencies (in seconds)."""
    latencies = [
        intervals * result.interval_length
        for intervals in result.latencies_intervals
    ]
    high = max(latencies, default=1.0) * 1.01 + 1e-9
    histogram = Histogram(low=0.0, high=high, bins=bins, name="startup")
    for value in latencies:
        histogram.record(value)
    return histogram


def profile_row(result: SimulationResult) -> Dict:
    """Quantile summary of one run's startup latencies."""
    histogram = latency_histogram(result)
    return {
        "technique": result.technique,
        "completed": result.completed,
        "p50_s": round(histogram.quantile(0.50) or 0.0, 1),
        "p90_s": round(histogram.quantile(0.90) or 0.0, 1),
        "p99_s": round(histogram.quantile(0.99) or 0.0, 1),
        "max_s": round(result.max_startup_latency_seconds, 1),
        "mean_s": round(result.mean_startup_latency_seconds, 1),
    }


def latency_profiles(
    scale: int = 10,
    num_stations: int = 12,
    access_mean: Optional[float] = 1.0,
    techniques: Sequence[str] = ("simple", "vdr"),
    config: Optional[SimulationConfig] = None,
    jobs: int = 1,
    cache=None,
) -> List[Dict]:
    """One quantile row per technique at the given load."""
    base = config if config is not None else ScaledConfig(scale=scale)
    base = base.with_(num_stations=num_stations, access_mean=access_mean)
    specs = [
        experiment_spec(base.with_(technique=technique))
        for technique in techniques
    ]
    results = records_to_results(execute(specs, jobs=jobs, cache=cache))
    return [profile_row(result) for result in results]
