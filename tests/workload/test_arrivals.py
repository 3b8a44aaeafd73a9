"""Unit tests for the open arrival machinery.

Sources, modulation, the `OpenArrivals` interval coupling, deadline
blocking through the engine, and the `ArrivalProcess` contract shared
with the closed `StationPool`.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import RandomStream
from repro.simulation.engine import IntervalEngine
from repro.simulation.policy import Request
from repro.workload.access import UniformAccess, ZipfAccess
from repro.workload.arrivals import (
    OPEN_STATION_ID,
    ArrivalProcess,
    MMPPSource,
    OpenArrivals,
    PoissonSource,
    RateModulation,
)
from repro.workload.stations import StationPool
from tests.oracles.analytic import LossServerPolicy


def make_open(
    rate=0.5,
    seed=7,
    deadline=None,
    modulation=None,
    burst_hotspot=0.0,
    catalog=(0, 1, 2, 3),
):
    stream = RandomStream(seed)
    needs_thinning = modulation is not None and not modulation.is_flat
    return OpenArrivals(
        source=PoissonSource(rate, stream.substream("workload.arrivals")),
        access=UniformAccess(
            list(catalog), stream.substream("workload.access")
        ),
        interval_length=1.0,
        deadline_intervals=deadline,
        modulation=modulation,
        burst_hotspot=burst_hotspot,
        modulation_stream=(
            stream.substream("workload.modulation")
            if needs_thinning
            else None
        ),
        burst_stream=(
            stream.substream("workload.burst") if burst_hotspot > 0 else None
        ),
        kind="poisson",
    )


class TestArrivalProcessContract:
    def test_station_pool_is_a_closed_arrival_process(self, stream):
        pool = StationPool(num_stations=3, access=None)
        assert isinstance(pool, ArrivalProcess)
        assert pool.is_open is False
        assert pool.deadline_intervals is None
        assert pool.kind == "closed"
        assert len(pool) == 3

    def test_open_arrivals_is_open(self):
        arrivals = make_open()
        assert isinstance(arrivals, ArrivalProcess)
        assert arrivals.is_open is True
        assert arrivals.kind == "poisson"
        assert len(arrivals) == 0  # unbounded population

    def test_record_blocked_default_is_noop(self):
        pool = StationPool(num_stations=1, access=None)
        request = Request(
            request_id=1, station_id=0, object_id=0, issued_at=0
        )
        pool.record_blocked(request, 0)  # must not raise


class TestPoissonSource:
    def test_rejects_nonpositive_rate(self, stream):
        with pytest.raises(ConfigurationError):
            PoissonSource(0.0, stream)

    def test_times_strictly_increase(self, stream):
        source = PoissonSource(2.0, stream)
        times = [source.next_time() for _ in range(200)]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[0] > 0


class TestMMPPSource:
    def test_validation(self, stream):
        other = RandomStream(2)
        with pytest.raises(ConfigurationError):
            MMPPSource([1.0], [1.0], stream, other)
        with pytest.raises(ConfigurationError):
            MMPPSource([1.0, 2.0], [1.0], stream, other)
        with pytest.raises(ConfigurationError):
            MMPPSource([0.0, 0.0], [1.0, 1.0], stream, other)
        with pytest.raises(ConfigurationError):
            MMPPSource([1.0, 2.0], [1.0, 0.0], stream, other)

    def test_stationary_distribution(self, stream):
        source = MMPPSource(
            [1.0, 3.0], [10.0, 30.0], stream, RandomStream(2)
        )
        assert [s / sum(source.sojourns) for s in source.sojourns] == [0.25, 0.75]

    def test_zero_rate_phase_emits_nothing(self):
        """A silent phase only contributes idle time."""
        source = MMPPSource(
            [5.0, 0.0],
            [10.0, 10.0],
            RandomStream(3),
            RandomStream(4),
        )
        times = [source.next_time() for _ in range(500)]
        assert all(b > a for a, b in zip(times, times[1:]))
        # Both phases were visited, yet every arrival landed in the
        # emitting phase's share of the timeline.
        assert source.time_in_phase[0] > 0
        assert source.time_in_phase[1] > 0


class TestRateModulation:
    def test_flat_by_default(self):
        flat = RateModulation()
        assert flat.is_flat
        assert flat.factor(123.0) == 1.0
        assert flat.peak_factor == 1.0

    def test_diurnal_peaks_and_troughs(self):
        curve = RateModulation(diurnal_period=100.0, diurnal_amplitude=0.5)
        assert not curve.is_flat
        assert curve.factor(25.0) == pytest.approx(1.5)  # sin peak
        assert curve.factor(75.0) == pytest.approx(0.5)  # sin trough
        assert curve.peak_factor == pytest.approx(1.5)

    def test_burst_window(self):
        burst = RateModulation(
            burst_start=10.0, burst_end=20.0, burst_factor=3.0
        )
        assert not burst.is_flat
        assert burst.in_burst(10.0) and burst.in_burst(19.9)
        assert not burst.in_burst(20.0) and not burst.in_burst(9.9)
        assert burst.factor(15.0) == 3.0
        assert burst.factor(25.0) == 1.0
        assert burst.peak_factor == 3.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RateModulation(diurnal_amplitude=1.5, diurnal_period=10.0)
        with pytest.raises(ConfigurationError):
            RateModulation(diurnal_amplitude=0.5)  # no period
        with pytest.raises(ConfigurationError):
            RateModulation(burst_factor=-1.0)


class TestOpenArrivals:
    def test_requests_land_in_their_interval(self):
        arrivals = make_open(rate=2.0)
        for interval in range(50):
            for request in arrivals.ready_requests(interval):
                assert request.issued_at == interval
                assert request.station_id == OPEN_STATION_ID

    def test_request_ids_unique_and_offered_counted(self):
        arrivals = make_open(rate=2.0)
        ids = [
            r.request_id
            for t in range(100)
            for r in arrivals.ready_requests(t)
        ]
        assert len(ids) == len(set(ids))
        assert arrivals.offered == len(ids)

    def test_deterministic_for_seed(self):
        first = [
            (r.request_id, r.object_id)
            for t in range(100)
            for r in make_open(seed=42).ready_requests(t)
        ]
        second = [
            (r.request_id, r.object_id)
            for t in range(100)
            for r in make_open(seed=42).ready_requests(t)
        ]
        assert first == second
        assert first != [
            (r.request_id, r.object_id)
            for t in range(100)
            for r in make_open(seed=43).ready_requests(t)
        ]

    def test_thinning_reduces_volume(self):
        """A half-amplitude diurnal curve offers the same average rate
        as the flat source, but the source runs at peak — thinning
        must discard the difference."""
        flat = make_open(rate=1.0, seed=9)
        shaped = make_open(
            rate=1.0,
            seed=9,
            modulation=RateModulation(
                diurnal_period=200.0, diurnal_amplitude=0.5
            ),
        )
        horizon = 2000
        flat_count = sum(
            len(flat.ready_requests(t)) for t in range(horizon)
        )
        shaped_count = sum(
            len(shaped.ready_requests(t)) for t in range(horizon)
        )
        # Peak-rate source offers 1.5x; thinning brings it back near
        # the nominal average (well below the raw peak volume).
        assert shaped_count < flat_count * 1.25

    def test_burst_redirects_to_hot_title(self):
        burst = RateModulation(
            burst_start=0.0, burst_end=1000.0, burst_factor=1.0
        )
        # burst_factor 1 keeps the rate flat but opens the window, so
        # hotspot redirection is isolated from thinning.
        arrivals = make_open(
            rate=1.0,
            seed=5,
            modulation=burst,
            burst_hotspot=1.0,
            catalog=(7, 8, 9),
        )
        objects = {
            r.object_id
            for t in range(500)
            for r in arrivals.ready_requests(t)
        }
        assert objects == {7}  # every arrival redirected to the hottest

    def test_zipf_catalog_skew(self):
        stream = RandomStream(11)
        arrivals = OpenArrivals(
            source=PoissonSource(
                2.0, stream.substream("workload.arrivals")
            ),
            access=ZipfAccess(
                list(range(20)), 1.2, stream.substream("workload.access")
            ),
            interval_length=1.0,
            kind="poisson",
        )
        counts = {}
        for t in range(2000):
            for request in arrivals.ready_requests(t):
                counts[request.object_id] = (
                    counts.get(request.object_id, 0) + 1
                )
        assert counts.get(0, 0) > counts.get(5, 0) > counts.get(19, 0)

    def test_shaped_arrivals_require_thinning_stream(self):
        stream = RandomStream(1)
        with pytest.raises(ConfigurationError):
            OpenArrivals(
                source=PoissonSource(1.0, stream.substream("a")),
                access=UniformAccess([0], stream.substream("b")),
                interval_length=1.0,
                modulation=RateModulation(
                    diurnal_period=10.0, diurnal_amplitude=0.5
                ),
            )

    def test_hotspot_requires_burst_stream(self):
        stream = RandomStream(1)
        with pytest.raises(ConfigurationError):
            OpenArrivals(
                source=PoissonSource(1.0, stream.substream("a")),
                access=UniformAccess([0], stream.substream("b")),
                interval_length=1.0,
                burst_hotspot=0.5,
            )


class TestDeadlineBlocking:
    """The engine's blocking bookkeeping against a tiny server bank."""

    def run_engine(self, deadline, servers=1, rate=0.5, measure=2000):
        engine = IntervalEngine(
            policy=LossServerPolicy(servers, service_intervals=50),
            stations=make_open(rate=rate, deadline=deadline),
            interval_length=1.0,
        )
        result = engine.run(warmup_intervals=0, measure_intervals=measure)
        return engine, result

    def test_overload_blocks_and_balances(self):
        engine, result = self.run_engine(deadline=0)
        assert result.blocked > 0
        assert result.offered == engine.stations.offered
        # Every offered request is admitted (completed or in flight)
        # or blocked; nothing is lost by the bookkeeping.
        admitted = engine.policy.admitted
        assert result.offered == admitted + result.blocked
        assert engine.stations.blocked == result.blocked
        assert result.blocking_probability == pytest.approx(
            result.blocked / result.offered
        )

    def test_longer_deadline_blocks_less(self):
        _, tight = self.run_engine(deadline=0)
        _, loose = self.run_engine(deadline=100)
        assert loose.blocked < tight.blocked

    def test_no_deadline_never_blocks(self):
        engine, result = self.run_engine(deadline=None)
        assert result.blocked == 0
        assert engine.blocked_total == 0

    def test_blocking_attributed_to_arrival_cohort(self):
        """Requests issued during warmup may only expire inside the
        measurement window; they must not count as blocked there, or
        the windowed blocking probability could exceed 1."""
        engine = IntervalEngine(
            policy=LossServerPolicy(1, service_intervals=50),
            stations=make_open(rate=0.5, deadline=25),
            interval_length=1.0,
        )
        result = engine.run(warmup_intervals=20, measure_intervals=300)
        assert 0 < result.blocked <= result.offered
        assert result.blocking_probability <= 1.0

    def test_waits_reflect_queueing(self):
        """With a deadline long enough to queue, admitted requests
        carry nonzero waits and the percentiles order correctly."""
        _, result = self.run_engine(deadline=200, rate=0.1, measure=5000)
        assert result.completed > 0
        assert (
            result.wait_p50_seconds
            <= result.wait_p95_seconds
            <= result.wait_p99_seconds
        )
        assert result.arrival == "poisson"
        summary = result.summary()
        assert summary["offered"] == result.offered
        assert "blocking_probability" in summary
