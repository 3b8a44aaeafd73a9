"""Tests for closed-loop display stations."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import RandomStream
from repro.workload.access import UniformAccess
from repro.workload.stations import StationPool


@pytest.fixture
def pool(stream):
    access = UniformAccess(list(range(5)), stream)
    return StationPool(num_stations=3, access=access)


class TestClosedLoop:
    def test_all_stations_issue_at_start(self, pool):
        requests = pool.ready_requests(0)
        assert len(requests) == 3
        assert {r.station_id for r in requests} == {0, 1, 2}

    def test_busy_station_does_not_reissue(self, pool):
        pool.ready_requests(0)
        assert pool.ready_requests(1) == []

    def test_completion_reissues_next_interval(self, pool):
        [request, *_] = pool.ready_requests(0)
        pool.complete(request, interval=10)
        assert pool.ready_requests(10) == []  # zero think, next interval
        reissued = pool.ready_requests(11)
        assert len(reissued) == 1
        assert reissued[0].station_id == request.station_id
        assert reissued[0].request_id != request.request_id

    def test_think_time_delays_reissue(self, stream):
        access = UniformAccess([0], stream)
        pool = StationPool(num_stations=1, access=access, think_intervals=5)
        [request] = pool.ready_requests(0)
        pool.complete(request, interval=10)
        assert pool.ready_requests(15) == []
        assert len(pool.ready_requests(16)) == 1

    def test_mismatched_completion_rejected(self, pool):
        [request, *_] = pool.ready_requests(0)
        pool.complete(request, 5)
        with pytest.raises(ConfigurationError):
            pool.complete(request, 6)

    def test_counters(self, pool):
        requests = pool.ready_requests(0)
        for request in requests:
            pool.complete(request, 3)
        assert pool.total_completed() == 3
        assert all(s.requests_issued == 1 for s in pool.stations)

    def test_request_ids_unique(self, pool):
        seen = set()
        for interval in range(0, 20, 2):
            for request in pool.ready_requests(interval):
                assert request.request_id not in seen
                seen.add(request.request_id)
                pool.complete(request, interval)


def test_validation(stream):
    access = UniformAccess([0], stream)
    with pytest.raises(ConfigurationError):
        StationPool(num_stations=0, access=access)
    with pytest.raises(ConfigurationError):
        StationPool(num_stations=1, access=access, think_intervals=-1)


class ScannedStationPool(StationPool):
    """Reference oracle: the per-interval scan over every station that
    the idle heap replaces."""

    def ready_requests(self, interval):
        return [
            self._issue(station, interval)
            for station in self.stations
            if not (station.busy or interval < station.next_issue_at)
        ]


class TestHeapEquivalence:
    """The pool's idle heap must issue exactly the requests, in
    exactly the order (hence with exactly the RNG draws), of the
    station scan — over arbitrary complete/idle interleavings,
    including non-monotone interval queries."""

    def _pools(self, num_stations, think):
        return [
            kind(
                num_stations=num_stations,
                access=UniformAccess(list(range(7)), RandomStream(seed=99)),
                think_intervals=think,
            )
            for kind in (ScannedStationPool, StationPool)
        ]

    def _assert_same_requests(self, a, b):
        assert [
            (r.request_id, r.station_id, r.object_id) for r in a
        ] == [(r.request_id, r.station_id, r.object_id) for r in b]

    @pytest.mark.parametrize("think", [0, 3])
    def test_lockstep_issue_and_complete(self, think):
        scalar, batched = self._pools(8, think)
        import random

        rng = random.Random(4)
        inflight = []
        interval = 0
        for _step in range(200):
            interval += rng.choice([0, 1, 1, 2])
            got_s = scalar.ready_requests(interval)
            got_b = batched.ready_requests(interval)
            self._assert_same_requests(got_s, got_b)
            inflight.extend(zip(got_s, got_b))
            rng.shuffle(inflight)
            for _ in range(rng.randrange(len(inflight) + 1)):
                req_s, req_b = inflight.pop()
                done = interval + rng.randrange(4)
                scalar.complete(req_s, done)
                batched.complete(req_b, done)
        assert scalar.total_completed() == batched.total_completed()

    def test_ascending_station_order_among_due(self):
        """Stations becoming ready at the same interval issue in
        station-id order on both paths (the RNG-draw order)."""
        scalar, batched = self._pools(6, 0)
        for pool in (scalar, batched):
            requests = pool.ready_requests(0)
            # Complete in reverse station order; reissue order must
            # still be ascending by station id.
            for request in sorted(
                requests, key=lambda r: -r.station_id
            ):
                pool.complete(request, interval=5)
        got_s = scalar.ready_requests(6)
        got_b = batched.ready_requests(6)
        assert [r.station_id for r in got_s] == [0, 1, 2, 3, 4, 5]
        self._assert_same_requests(got_s, got_b)

    def test_repeated_query_same_interval_is_stable(self):
        scalar, batched = self._pools(4, 0)
        assert len(batched.ready_requests(0)) == 4
        assert batched.ready_requests(0) == []
        assert scalar.ready_requests(0) and scalar.ready_requests(0) == []
