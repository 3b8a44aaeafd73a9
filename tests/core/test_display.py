"""Tests for display/lane state."""

from __future__ import annotations

import pytest

from repro.core.display import Display, Lane
from repro.errors import SchedulingError
from tests.conftest import make_object


def make_display(ready=(0, 0, 0), requested_at=0):
    obj = make_object(num_subobjects=6, degree=len(ready))
    display = Display(
        display_id=1, obj=obj, start_disk=0, requested_at=requested_at
    )
    for lane, r in zip(display.lanes, ready):
        lane.slot = 10 + lane.fragment
        lane.ready = r
    return display


class TestLane:
    def test_read_and_release_intervals(self):
        lane = Lane(fragment=1, slot=5, ready=3)
        assert lane.release_interval(6) == 9

    def test_unclaimed_lane_raises(self):
        lane = Lane(fragment=0)
        assert not lane.claimed
        with pytest.raises(SchedulingError):
            lane.release_interval(6)


class TestAlignedDisplay:
    def test_deliver_start_and_finish(self):
        display = make_display(ready=(2, 2, 2), requested_at=1)
        assert display.deliver_start == 2
        assert display.finish_interval == 7
        assert display.startup_latency_intervals == 1

    def test_no_buffering_when_aligned(self):
        display = make_display(ready=(2, 2, 2))
        assert display.buffer_demand() == 0.0
        assert set(display.steady_state_buffers().values()) == {0}

    def test_delivery_schedule(self):
        display = make_display(ready=(0, 0, 0))
        assert display.delivers_at(0) == 0
        assert display.delivers_at(5) == 5
        assert display.delivers_at(6) is None


class TestFragmentedDisplay:
    def test_deliver_start_is_slowest_lane(self):
        display = make_display(ready=(2, 0, 1))
        assert display.deliver_start == 2

    def test_write_offsets_match_algorithm1(self):
        display = make_display(ready=(2, 0, 1))
        assert display.lane_write_offset(0) == 0
        assert display.lane_write_offset(1) == 2
        assert display.lane_write_offset(2) == 1

    def test_buffer_demand_sums_offsets(self):
        display = make_display(ready=(2, 0, 1))
        assert display.buffer_demand() == pytest.approx(3 * 12.096)

    def test_reads_at_respects_per_lane_schedule(self):
        display = make_display(ready=(2, 0, 1))
        assert {l.fragment for l in display.reads_at(0)} == {1}
        assert {l.fragment for l in display.reads_at(1)} == {1, 2}
        assert {l.fragment for l in display.reads_at(2)} == {0, 1, 2}
        assert {l.fragment for l in display.reads_at(5)} == {0, 1, 2}
        # Lane 1 started at 0, reads 6 subobjects, done after interval 5.
        assert {l.fragment for l in display.reads_at(6)} == {0, 2}


class TestPartialDisplay:
    def test_pending_lanes(self):
        obj = make_object(degree=3)
        display = Display(display_id=1, obj=obj, start_disk=0, requested_at=0)
        display.lanes[0].slot = 3
        display.lanes[0].ready = 0
        assert not display.fully_laned
        assert [l.fragment for l, _t, _h in display.waiting] == [1, 2]
        with pytest.raises(SchedulingError):
            _ = display.deliver_start

    def test_delivers_nothing_until_fully_laned(self):
        obj = make_object(degree=2)
        display = Display(display_id=1, obj=obj, start_disk=0, requested_at=0)
        assert display.delivers_at(0) is None


class TestHalfSlotDisplays:
    def test_full_bandwidth_lane_halves(self):
        display = make_display()
        assert display.lane_halves() == [2, 2, 2]

    def test_odd_half_degree(self):
        obj = make_object(bandwidth=30.0, degree=2)
        display = Display(
            display_id=1, obj=obj, start_disk=0, requested_at=0,
            degree_halves=3,
        )
        assert display.lane_halves() == [2, 1]

    def test_half_degree_lane_count_validated(self):
        obj = make_object(bandwidth=30.0, degree=2)
        with pytest.raises(SchedulingError):
            Display(
                display_id=1,
                obj=obj,
                start_disk=0,
                requested_at=0,
                lanes=[Lane(fragment=0)],
                degree_halves=5,
            )
