"""Tests for Algorithm 2 (dynamic coalescing) against Figure 6."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from tests.conftest import make_object
from tests.oracles.coalesce import CoalescingLane, plan_coalesce, run_coalescing_lane


class TestPlan:
    def test_figure6_plan(self):
        """Lane .1: ready 0, deliver_start 2, coalesce granted at t=5
        to offset 0 -> backlog X3.1/X4.1, new disk reads X5 at t=7."""
        obj = make_object(num_subobjects=12, degree=2)
        plan = plan_coalesce(
            obj, deliver_start=2, old_ready=0, new_offset=0, at_interval=5
        )
        assert plan.backlog == 2
        assert plan.old_last_read_subobject == 4
        assert plan.new_first_read_subobject == 5
        assert plan.new_ready == 7
        assert plan.quiet_intervals == 2

    def test_partial_coalesce(self):
        """Coalescing to a smaller-but-nonzero offset drains only the
        difference."""
        obj = make_object(num_subobjects=20, degree=2)
        plan = plan_coalesce(
            obj, deliver_start=3, old_ready=0, new_offset=1, at_interval=6
        )
        assert plan.backlog == 2
        assert plan.new_ready == 3 + 6 - 1  # deliver_start + s - offset

    def test_growing_offset_rejected(self):
        obj = make_object()
        with pytest.raises(SchedulingError):
            plan_coalesce(obj, deliver_start=2, old_ready=0, new_offset=3,
                          at_interval=5)


class TestFigure6Lane:
    def test_full_timeline(self):
        obj = make_object(num_subobjects=8, degree=2)
        trace = run_coalescing_lane(
            obj, lane=1, deliver_start=2, ready=0, coalesce_at=5, new_offset=0
        )
        reads = [(e.interval, e.subobject) for e in trace.reads()]
        outputs = [(e.interval, e.subobject) for e in trace.outputs()]
        # Reads 0..4 at t=0..4, quiet at 5-6, resume s5 at t=7.
        assert reads == [
            (0, 0), (1, 1), (2, 2), (3, 3), (4, 4),
            (7, 5), (8, 6), (9, 7),
        ]
        # Delivery continuous from t=2: one subobject per interval.
        assert outputs == [(2 + s, s) for s in range(8)]

    def test_buffer_drains_to_zero_after_coalesce(self):
        obj = make_object(num_subobjects=8, degree=2)
        lane = CoalescingLane(obj, lane=1, deliver_start=2, ready=0)
        for t in range(12):
            if t == 5:
                lane.request_coalesce(0, t)
            lane.step(t)
        assert lane.done
        assert lane.buffered() == 0
        assert lane.coalesces_completed == 1
        assert lane.w_offset == 0

    def test_no_coalesce_baseline(self):
        obj = make_object(num_subobjects=5, degree=2)
        trace = run_coalescing_lane(obj, lane=1, deliver_start=2, ready=0)
        assert [(e.interval, e.subobject) for e in trace.outputs()] == [
            (2 + s, s) for s in range(5)
        ]

    def test_double_coalesce_rejected_while_in_transition(self):
        obj = make_object(num_subobjects=10, degree=2)
        lane = CoalescingLane(obj, lane=1, deliver_start=2, ready=0)
        for t in range(5):
            lane.step(t)
        lane.request_coalesce(0, 5)
        with pytest.raises(SchedulingError):
            lane.request_coalesce(0, 5)

    def test_second_coalesce_after_completion_allowed(self):
        obj = make_object(num_subobjects=20, degree=2)
        lane = CoalescingLane(obj, lane=1, deliver_start=4, ready=0)
        granted = []
        for t in range(26):
            if t == 6:
                granted.append(lane.request_coalesce(2, t))
            if t == 14 and not lane.in_transition:
                granted.append(lane.request_coalesce(0, t))
            lane.step(t)
            if lane.done:
                break
        assert lane.done
        assert lane.coalesces_completed == 2
        assert len(granted) == 2

    def test_hiccup_free_invariant(self):
        """Every interval in [deliver_start, finish] delivers exactly
        one subobject, coalesce or not."""
        obj = make_object(num_subobjects=10, degree=2)
        trace = run_coalescing_lane(
            obj, lane=0, deliver_start=3, ready=1, coalesce_at=6, new_offset=0
        )
        intervals = [e.interval for e in trace.outputs()]
        assert intervals == list(range(3, 13))
