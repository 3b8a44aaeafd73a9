"""Tests for the latency-profile experiment."""

from __future__ import annotations

import pytest

from repro.experiments.latency_profile import (
    latency_histogram,
    latency_profiles,
    profile_row,
)
from repro.simulation.config import ScaledConfig
from repro.simulation.results import SimulationResult


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
