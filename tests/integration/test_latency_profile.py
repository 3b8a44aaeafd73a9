"""Start-up latency distributions: striping vs VDR.

Figure 8 reports throughput; the §3.1/§3.2.2 discussion is all about
*display-initiation latency*.  These tests profile the full latency
distribution (median / p90 / p99 / max) of each technique at one load,
checking the paper's queueing argument: a VDR request colliding with a
busy cluster waits up to a whole display time, while striping's pooled
(rotating) slots keep waits near one service time.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.exec import execute, experiment_spec, records_to_results
from repro.obs.metrics import Histogram
from repro.simulation.config import ScaledConfig, SimulationConfig
from repro.simulation.results import SimulationResult


def latency_histogram(result: SimulationResult, bins: int = 64) -> Histogram:
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
    config: SimulationConfig, num_stations: int, access_mean: float
) -> List[Dict]:
    """One quantile row per technique (simple striping, VDR)."""
    base = config.with_(num_stations=num_stations, access_mean=access_mean)
    specs = [
        experiment_spec(base.with_(technique=technique))
        for technique in ("simple", "vdr")
    ]
    return [
        profile_row(result)
        for result in records_to_results(execute(specs))
    ]


def make_result(latencies, interval_length=0.6):
    result = SimulationResult(
        technique="simple", num_stations=4, access_mean=1.0,
        interval_length=interval_length, warmup_intervals=0,
        measure_intervals=100, completed=len(latencies),
        latencies_intervals=list(latencies),
    )
    return result


class TestHistogramConversion:
    def test_counts_every_completion(self):
        result = make_result([0, 1, 2, 3, 10])
        histogram = latency_histogram(result)
        assert histogram.count == 5
        assert histogram.overflow == 0

    def test_quantiles_in_seconds(self):
        result = make_result([10] * 100, interval_length=0.5)
        row = profile_row(result)
        assert row["p50_s"] == pytest.approx(5.0, abs=0.2)
        assert row["max_s"] == pytest.approx(5.0, abs=0.01)

    def test_empty_result_is_safe(self):
        row = profile_row(make_result([]))
        assert row["completed"] == 0
        assert row["p99_s"] == 0.0


class TestEndToEnd:
    def test_profiles_both_techniques(self):
        """The §3.1/§3.2.2 latency story measured end to end."""
        rows = latency_profiles(
            config=ScaledConfig(scale=10, warmup_intervals=300,
                                measure_intervals=3000),
            num_stations=12,
            access_mean=1.0,
        )
        assert [row["technique"] for row in rows] == ["simple", "vdr"]
        for row in rows:
            assert row["completed"] > 0
            assert row["p50_s"] <= row["p90_s"] <= row["p99_s"] + 1e-9
        striping, vdr = rows
        # Striping's pooled rotating slots: median waits around a
        # service time; VDR's partitioned clusters: tail waits around a
        # display time (the paper's k=M vs k=D argument, live).
        assert striping["p50_s"] <= vdr["p50_s"] + 1.0
        assert striping["p99_s"] < vdr["p99_s"]
        assert striping["max_s"] < vdr["max_s"]
        # The worst VDR wait approaches a display time (181 s scaled).
        assert vdr["max_s"] > 60.0
