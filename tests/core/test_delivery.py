"""Tests for Algorithm 1 (time-fragmented delivery) replayed on the DES
oracle kernel, and for the delivery-trace validators."""

from __future__ import annotations

import pytest

from repro.core.coalesce import DeliveryTrace
from repro.core.virtual_disks import SlotPool
from repro.errors import SchedulingError
from tests.conftest import make_object
from tests.oracles.delivery import run_fragmented_delivery


def figure6_pool():
    """Fig. 6's rotating frame: D=8, k=1, slots 1 and 6 free."""
    return SlotPool(num_disks=8, stride=1)


class TestFigure6Timeline:
    """The worked example of §3.2.1 (before coalescing)."""

    @pytest.fixture
    def outcome(self):
        obj = make_object(num_subobjects=6, degree=2)
        pool = figure6_pool()
        trace, offsets = run_fragmented_delivery(
            obj, start_disk=0, lane_slots=[6, 1], pool=pool
        )
        return trace, offsets

    def test_offsets(self, outcome):
        _trace, offsets = outcome
        assert offsets == [0, 2]  # lane 1 buffers 2 intervals

    def test_lane1_reads_immediately(self, outcome):
        trace, _ = outcome
        reads = [(e.interval, e.subobject) for e in trace.reads() if e.lane == 1]
        assert reads[:3] == [(0, 0), (1, 1), (2, 2)]

    def test_lane0_reads_from_interval_2(self, outcome):
        trace, _ = outcome
        reads = [(e.interval, e.subobject) for e in trace.reads() if e.lane == 0]
        assert reads[:3] == [(2, 0), (3, 1), (4, 2)]

    def test_delivery_starts_at_interval_2_and_is_synchronized(self, outcome):
        trace, _ = outcome
        by_interval = trace.outputs_by_interval()
        assert min(by_interval) == 2
        # Both fragments of subobject 0 delivered together at t=2.
        assert sorted((e.lane, e.subobject) for e in by_interval[2]) == [
            (0, 0),
            (1, 0),
        ]

    def test_all_subobjects_delivered_in_order(self, outcome):
        trace, _ = outcome
        assert trace.delivered_subobjects() == list(range(6))

    def test_lane1_steady_state_buffer_is_two_fragments(self, outcome):
        trace, _ = outcome
        assert trace.buffered_count(1, 1) == 2
        assert trace.buffered_count(1, 3) == 2  # steady state
        assert trace.buffered_count(0, 3) == 0  # pipelined lane


class TestAlignedDelivery:
    def test_no_offsets_no_buffering(self):
        obj = make_object(num_subobjects=4, degree=3)
        pool = SlotPool(num_disks=8, stride=1)
        trace, offsets = run_fragmented_delivery(
            obj, start_disk=2, lane_slots=[2, 3, 4], pool=pool
        )
        assert offsets == [0, 0, 0]
        assert trace.delivered_subobjects() == [0, 1, 2, 3]
        for lane in range(3):
            assert trace.buffered_count(lane, 2) == 0

    def test_reads_equal_outputs_per_lane(self):
        obj = make_object(num_subobjects=5, degree=2)
        pool = SlotPool(num_disks=6, stride=1)
        trace, _ = run_fragmented_delivery(
            obj, start_disk=0, lane_slots=[4, 1], pool=pool
        )
        assert len(trace.reads()) == len(trace.outputs()) == 10


class TestValidation:
    def test_wrong_lane_count_rejected(self):
        obj = make_object(degree=3)
        pool = SlotPool(num_disks=8, stride=1)
        with pytest.raises(SchedulingError):
            run_fragmented_delivery(obj, 0, [1, 2], pool)

    def test_unreachable_slot_rejected(self):
        obj = make_object(degree=2)
        pool = SlotPool(num_disks=10, stride=5)
        # Slot 1 never reaches drive 0 (gcd 5 does not divide -1).
        with pytest.raises(SchedulingError):
            run_fragmented_delivery(obj, 0, [1, 6], pool)


class TestTraceValidators:
    def test_hiccup_detected(self):
        trace = DeliveryTrace()
        trace.record(0, "output", 0, 0)
        trace.record(1, "output", 1, 0)  # lanes disagree on interval
        with pytest.raises(SchedulingError):
            trace.delivered_subobjects()

    def test_partial_delivery_detected(self):
        trace = DeliveryTrace()
        trace.record(0, "output", 0, 0)
        trace.record(0, "output", 1, 0)
        trace.record(1, "output", 0, 1)  # lane 1 missing for subobject 1
        with pytest.raises(SchedulingError):
            trace.delivered_subobjects()
