"""Tests for the metric primitives and the registry."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tally,
    TimeSeries,
    TimeWeighted,
    UtilizationMatrix,
)
from tests.oracles.kernel import Simulation


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)
        assert counter.snapshot() == {"type": "counter", "value": 3.5}

    def test_counter_rejects_decrease(self):
        with pytest.raises(ConfigurationError):
            Counter("c").inc(-1)

    def test_gauge_tracks_extremes(self):
        gauge = Gauge("g")
        for level in (3.0, -1.0, 7.0):
            gauge.set(level)
        snap = gauge.snapshot()
        assert snap["value"] == 7.0
        assert snap["min"] == -1.0
        assert snap["max"] == 7.0
        assert snap["updates"] == 3

    def test_empty_gauge_snapshot_is_finite(self):
        snap = Gauge("g").snapshot()
        assert snap["min"] == 0.0 and snap["max"] == 0.0


class TestTally:
    def test_mean_and_extremes(self):
        tally = Tally()
        for value in (1.0, 2.0, 3.0, 4.0):
            tally.record(value)
        assert tally.count == 4
        assert tally.mean == pytest.approx(2.5)
        assert tally.minimum == 1.0
        assert tally.maximum == 4.0
        assert tally.total == pytest.approx(10.0)

    def test_variance_matches_textbook(self):
        tally = Tally()
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        for value in values:
            tally.record(value)
        mean = sum(values) / len(values)
        expected = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert tally.variance == pytest.approx(expected)
        assert tally.stddev == pytest.approx(math.sqrt(expected))

    def test_empty_is_safe(self):
        tally = Tally()
        assert tally.mean == 0.0
        assert tally.variance == 0.0

    def test_reset(self):
        tally = Tally()
        tally.record(5.0)
        tally.reset()
        assert tally.count == 0
        assert tally.mean == 0.0


class TestTimeWeighted:
    def test_mean_weights_by_duration(self):
        clock = {"now": 0.0}
        tw = TimeWeighted(clock=lambda: clock["now"], initial=0.0)
        clock["now"] = 4.0
        tw.record(10.0)  # level 0 for 4s
        clock["now"] = 8.0
        # level 10 for 4s → mean (0*4 + 10*4) / 8 = 5
        assert tw.mean == pytest.approx(5.0)
        assert tw.maximum == 10.0

    def test_mean_weights_by_duration_on_simulation_clock(self):
        sim = Simulation()
        tw = TimeWeighted(clock=lambda: sim.now, initial=0.0)
        sim.schedule(2.0, lambda _: tw.record(10.0))
        sim.schedule(6.0, lambda _: tw.record(0.0))
        sim.schedule(10.0, lambda _: None)
        sim.run()
        # 0 for 2s, 10 for 4s, 0 for 4s over 10s -> mean 4.0
        assert tw.mean == pytest.approx(4.0)
        assert tw.maximum == 10.0

    def test_tracks_current_level(self):
        tw = TimeWeighted(clock=lambda: 0.0, initial=3.0)
        assert tw.level == 3.0
        tw.record(7.0)
        assert tw.level == 7.0

    def test_reset_restarts_window(self):
        clock = {"now": 0.0}
        tw = TimeWeighted(clock=lambda: clock["now"], initial=5.0)
        clock["now"] = 4.0
        tw.reset()
        clock["now"] = 8.0
        assert tw.mean == pytest.approx(5.0)
        assert tw.elapsed == pytest.approx(4.0)


class TestHistogram:
    def test_bins_and_quantiles(self):
        histogram = Histogram(low=0.0, high=10.0, bins=10)
        for value in range(10):
            histogram.record(value + 0.5)
        assert histogram.count == 10
        assert histogram.underflow == 0
        assert histogram.overflow == 0
        assert histogram.counts == [1] * 10
        assert histogram.quantile(0.5) == pytest.approx(4.5)

    def test_under_and_overflow(self):
        histogram = Histogram(low=0.0, high=1.0, bins=2)
        histogram.record(-1.0)
        histogram.record(2.0)
        assert histogram.underflow == 1
        assert histogram.overflow == 1

    def test_quantile_empty_returns_none(self):
        histogram = Histogram(low=0.0, high=1.0)
        assert histogram.quantile(0.5) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(low=0.0, high=0.0)
        with pytest.raises(ValueError):
            Histogram(low=0.0, high=1.0, bins=0)
        histogram = Histogram(low=0.0, high=1.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)


class TestTimeSeries:
    def test_decimation_bounds_memory(self):
        series = TimeSeries("s", max_points=8)
        for i in range(1000):
            series.record(float(i), float(i))
        assert len(series) < 8
        assert series.seen == 1000
        assert series.stride > 1
        # Coverage spans the whole run, not just a prefix.
        assert series.points[0][0] == 0.0
        assert series.points[-1][0] > 500.0
        # The tally still sees every sample.
        assert series.stats.count == 1000
        assert series.stats.mean == pytest.approx(499.5)

    def test_quantiles(self):
        series = TimeSeries("s")
        for i in range(100):
            series.record(float(i), float(i))
        assert series.quantile(0.0) == 0.0
        assert series.quantile(0.5) == pytest.approx(50.0)
        assert series.quantile(1.0) == 99.0
        assert TimeSeries("empty").quantile(0.5) is None


class TestUtilizationMatrix:
    def test_busy_fractions(self):
        matrix = UtilizationMatrix(num_devices=4, window=2)
        # Device 0 busy both intervals, device 1 busy one of two.
        matrix.mark(0)
        matrix.mark(1)
        matrix.tick(0.0)
        matrix.mark(0)
        matrix.tick(1.0)
        assert matrix.rows == [(1.0, [1.0, 0.5, 0.0, 0.0])]
        assert matrix.utilization() == [1.0, 0.5, 0.0, 0.0]

    def test_row_merging_doubles_window(self):
        matrix = UtilizationMatrix(num_devices=1, window=1, max_rows=4)
        for i in range(64):
            matrix.mark(0)
            matrix.tick(float(i))
        assert len(matrix.rows) < 4
        assert matrix.window > 1
        assert matrix.utilization() == [1.0]

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            UtilizationMatrix(num_devices=0)
        with pytest.raises(ConfigurationError):
            UtilizationMatrix(num_devices=1, window=0)


class TestRegistry:
    def test_same_instrument_per_label_set(self):
        registry = MetricsRegistry()
        a = registry.counter("disk.reads", disk=3)
        b = registry.counter("disk.reads", disk=3)
        c = registry.counter("disk.reads", disk=4)
        assert a is b and a is not c

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.gauge("x", disk=1, tier="ssd")
        b = registry.gauge("x", tier="ssd", disk=1)
        assert a is b

    def test_family_collects_per_device_instruments(self):
        registry = MetricsRegistry()
        for disk in range(3):
            registry.counter("disk.reads", disk=disk).inc(disk)
        family = registry.family("disk.reads")
        assert set(family) == {
            "disk.reads{disk=0}", "disk.reads{disk=1}", "disk.reads{disk=2}"
        }
        assert registry.counter("other").name == "other"
        assert len(registry.family("other")) == 1

    def test_snapshot_is_sorted_and_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        registry.series("s").record(0.0, 1.0)
        registry.tally("t").record(2.0)
        registry.utilization_matrix("u", num_devices=2).tick(0.0)
        snap = registry.snapshot()
        assert list(snap) == sorted(snap)
        json.dumps(snap)  # must not raise

    def test_snapshot_deterministic_across_creation_order(self):
        first = MetricsRegistry()
        first.counter("a").inc()
        first.counter("z", disk=1).inc()
        second = MetricsRegistry()
        second.counter("z", disk=1).inc()
        second.counter("a").inc()
        assert first.snapshot() == second.snapshot()
