"""Tests for result metrics."""

from __future__ import annotations

import pytest

from repro.simulation.policy import Completion, Request
from repro.simulation.results import SimulationResult, improvement_percent


def make_result(completed=0, interval_length=0.6048, measure=1000):
    return SimulationResult(
        technique="simple",
        num_stations=16,
        access_mean=10.0,
        interval_length=interval_length,
        warmup_intervals=100,
        measure_intervals=measure,
        completed=completed,
    )


def completion(issued=0, start=5, finish=10):
    request = Request(request_id=1, station_id=0, object_id=0, issued_at=issued)
    return Completion(request=request, deliver_start=start, finished_at=finish)


class TestMetrics:
    def test_throughput_per_hour(self):
        result = make_result(completed=100, interval_length=3.6, measure=1000)
        assert result.throughput_per_hour == pytest.approx(100.0)

    def test_record_tracks_latency(self):
        result = make_result()
        result.record(completion(issued=2, start=7))
        assert result.completed == 1
        assert result.latencies_intervals == [5]
        assert result.mean_startup_latency_seconds == pytest.approx(5 * 0.6048)

    def test_max_latency(self):
        result = make_result()
        result.record(completion(issued=0, start=3))
        result.record(completion(issued=0, start=9))
        assert result.max_startup_latency_seconds == pytest.approx(9 * 0.6048)

    def test_empty_latencies_are_zero(self):
        result = make_result()
        assert result.mean_startup_latency_seconds == 0.0
        assert result.max_startup_latency_seconds == 0.0

    def test_span_samples_match_one_sample_per_interval(self):
        """A skipped span books the bytes stepping would: 0.1 added
        37 times is not 37 × 0.1 in floating point."""
        stepped, skipped = make_result(), make_result()
        for result in (stepped, skipped):
            result.record_utilization(2, 0.3)
        for _ in range(37):
            stepped.record_utilization(3, 0.1)
        skipped.record_utilization_span(3, 0.1, 37)
        assert skipped.to_dict() == stepped.to_dict()
        assert stepped.busy_fraction_sum != 0.3 + 37 * 0.1
        skipped.record_utilization_span(9, 0.5, 0)
        assert skipped.to_dict() == stepped.to_dict()

    def test_summary_includes_policy_stats(self):
        result = make_result(completed=10)
        result.policy_stats = {"hit_rate": 0.97}
        summary = result.summary()
        assert summary["completed"] == 10
        assert summary["hit_rate"] == pytest.approx(0.97)


class TestCompletionProperties:
    def test_latency_and_service(self):
        c = completion(issued=2, start=7, finish=12)
        assert c.startup_latency == 5
        assert c.service_intervals == 6


class TestImprovement:
    def test_table4_metric(self):
        striping = make_result(completed=200)
        vdr = make_result(completed=100)
        assert improvement_percent(striping, vdr) == pytest.approx(100.0)

    def test_zero_baseline(self):
        striping = make_result(completed=10)
        vdr = make_result(completed=0)
        assert improvement_percent(striping, vdr) == float("inf")
        assert improvement_percent(make_result(), vdr) == 0.0
