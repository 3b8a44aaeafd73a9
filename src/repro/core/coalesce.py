"""Algorithm 2: dynamic coalescing of time fragments (§3.2.1, Fig. 6).

A time-fragmented display buffers fragments on its early lanes.  When
intervening busy virtual disks free up, the display can *coalesce*:
move an early lane onto a newly-freed virtual disk adjacent to the
slow lanes, eliminating the buffering.  During the transition the lane

1. **drains its backlog** — the ``w_offset_old - w_offset_new``
   fragments already buffered are delivered one per interval (the old
   virtual disk stops reading and is released);
2. its new virtual disk observes a **quiet period** (the paper's
   ``skip_write`` counter) until it rotates into position for the
   lane's next unread fragment;
3. normal pipelined read+deliver resumes on the new virtual disk.

In Figure 6's example the backlog drain and the quiet period *overlap*
(fragments X3.1/X4.1 leave the buffer during intervals 5-6 while the
new disk is still rotating into position); delivery is continuous
throughout and the display station never observes a hiccup.

The module provides the closed-form :func:`plan_coalesce` and a
lane state machine (:class:`CoalescingLane`) whose observable counters
mirror the paper's ``write_thread`` (``w_offset`` / ``backlog`` /
``skip_write``), driven one interval at a time.  The lane records its
reads and outputs in a :class:`DeliveryTrace`, whose validators check
the paper's delivery order and find hiccups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import SchedulingError
from repro.media.objects import MediaObject


@dataclass(frozen=True)
class TraceEvent:
    """One read or output action of a lane thread."""

    interval: int
    action: str  # "read" | "output"
    lane: int
    subobject: int


@dataclass
class DeliveryTrace:
    """Chronological record of lane actions, with validation helpers."""

    events: List[TraceEvent] = field(default_factory=list)

    def record(self, interval: int, action: str, lane: int, subobject: int) -> None:
        """Append one event."""
        self.events.append(TraceEvent(interval, action, lane, subobject))

    def reads(self) -> List[TraceEvent]:
        """All read events in order."""
        return [e for e in self.events if e.action == "read"]

    def outputs(self) -> List[TraceEvent]:
        """All output events in order."""
        return [e for e in self.events if e.action == "output"]

    def outputs_by_interval(self) -> Dict[int, List[TraceEvent]]:
        """Output events grouped by interval."""
        grouped: Dict[int, List[TraceEvent]] = {}
        for event in self.outputs():
            grouped.setdefault(event.interval, []).append(event)
        return grouped

    def delivered_subobjects(self) -> List[int]:
        """Subobjects fully delivered (all lanes output), in completion
        order.  Raises if lanes of one subobject were output in
        different intervals (a hiccup)."""
        by_subobject: Dict[int, List[int]] = {}
        lanes = {e.lane for e in self.events}
        for event in self.outputs():
            by_subobject.setdefault(event.subobject, []).append(event.interval)
        delivered = []
        for subobject in sorted(by_subobject):
            intervals = by_subobject[subobject]
            if len(set(intervals)) != 1:
                raise SchedulingError(
                    f"hiccup: subobject {subobject} lanes output at "
                    f"different intervals {sorted(set(intervals))}"
                )
            if len(intervals) != len(lanes):
                raise SchedulingError(
                    f"subobject {subobject} delivered by {len(intervals)} of "
                    f"{len(lanes)} lanes"
                )
            delivered.append(subobject)
        return delivered

    def buffered_count(self, lane: int, interval: int) -> int:
        """Fragments lane ``lane`` holds in buffer at end of ``interval``
        (read but not yet output)."""
        reads = sum(
            1
            for e in self.events
            if e.lane == lane and e.action == "read" and e.interval <= interval
        )
        outputs = sum(
            1
            for e in self.events
            if e.lane == lane and e.action == "output" and e.interval <= interval
        )
        return reads - outputs


@dataclass(frozen=True)
class CoalescePlan:
    """Closed-form schedule of one lane's coalescing transition.

    Attributes
    ----------
    backlog:
        Buffered fragments to drain (``w_offset_old - w_offset_new``).
    quiet_intervals:
        Intervals the lane reads nothing between the old slot's last
        read and the new slot's first read (the paper's ``skip_write``).
    old_last_read_subobject:
        Last subobject index the old virtual disk reads (−1 when the
        old disk never read anything before the grant).
    new_first_read_subobject:
        First subobject index the new virtual disk reads.
    new_ready:
        Interval of the new virtual disk's first read.
    """

    backlog: int
    quiet_intervals: int
    old_last_read_subobject: int
    new_first_read_subobject: int
    new_ready: int


def plan_coalesce(
    obj: MediaObject,
    deliver_start: int,
    old_ready: int,
    new_offset: int,
    at_interval: int,
) -> CoalescePlan:
    """Plan a coalescing transition for one lane.

    Parameters
    ----------
    obj:
        The displayed object.
    deliver_start:
        Interval of the display's first delivery (fixed by the
        slowest lane; coalescing never changes it).
    old_ready:
        Interval at which the old virtual disk read subobject 0.
    new_offset:
        The lane's ``w_offset`` after coalescing (0 = fully aligned
        with the slowest lane).
    at_interval:
        Interval at which the coalesce request is granted (the new
        virtual disk has been claimed; the old one stops reading now).
    """
    old_offset = deliver_start - old_ready
    if old_offset < 0:
        raise SchedulingError("old_ready is after deliver_start")
    if not 0 <= new_offset <= old_offset:
        raise SchedulingError(
            f"new_offset must shrink the lag: old={old_offset}, new={new_offset}"
        )
    if at_interval < old_ready:
        raise SchedulingError("coalesce granted before the lane ever read")
    backlog = old_offset - new_offset
    old_last_read = min(at_interval - old_ready - 1, obj.num_subobjects - 1)
    new_first_read = old_last_read + 1
    if new_first_read >= obj.num_subobjects:
        # Everything is already read; the "new" virtual disk has
        # nothing to do and the transition is pure buffer drain.
        new_ready = at_interval
        quiet = 0
    else:
        # New slot reads subobject s at deliver_start + s - new_offset.
        new_ready = deliver_start + new_first_read - new_offset
        quiet = new_ready - at_interval
    if quiet < 0:
        raise SchedulingError(
            f"coalesce plan infeasible: new slot needed {-quiet} intervals ago"
        )
    return CoalescePlan(
        backlog=backlog,
        quiet_intervals=quiet,
        old_last_read_subobject=old_last_read,
        new_first_read_subobject=new_first_read,
        new_ready=new_ready,
    )


class CoalescingLane:
    """One lane's read/output schedule with dynamic coalescing.

    Drive it one interval at a time with :meth:`step`; it records
    reads/outputs into a :class:`DeliveryTrace`.  A coalesce request
    is injected with :meth:`request_coalesce`; per the paper, "a new
    coalesce request can only arrive after a previous coalescing has
    completed".
    """

    def __init__(
        self,
        obj: MediaObject,
        lane: int,
        deliver_start: int,
        ready: int,
        trace: Optional[DeliveryTrace] = None,
    ) -> None:
        if ready > deliver_start:
            raise SchedulingError("lane ready after deliver_start")
        self.obj = obj
        self.lane = lane
        self.deliver_start = deliver_start
        self.ready = ready
        self.trace = trace if trace is not None else DeliveryTrace()
        self.w_offset = deliver_start - ready
        self._next_read = 0
        self._next_output = 0
        # Transition state: reads pause until the new slot is in position.
        self._read_pause_until: Optional[int] = None
        self._pending_offset: Optional[int] = None
        self.coalesces_completed = 0

    def __repr__(self) -> str:
        return (
            f"<CoalescingLane {self.lane} w_offset={self.w_offset} "
            f"read={self._next_read} out={self._next_output}>"
        )

    @property
    def done(self) -> bool:
        """True once all subobjects are delivered."""
        return self._next_output >= self.obj.num_subobjects

    @property
    def in_transition(self) -> bool:
        """True while the new virtual disk is rotating into position."""
        return self._read_pause_until is not None

    def buffered(self) -> int:
        """Fragments currently read but not delivered."""
        return self._next_read - self._next_output

    def request_coalesce(self, new_offset: int, at_interval: int) -> CoalescePlan:
        """Grant a coalesce to ``new_offset`` effective ``at_interval``.

        The caller (the scheduler) is responsible for having claimed a
        new virtual disk that reaches the lane's next fragment at the
        plan's ``new_ready`` interval, and for releasing the old one.
        """
        if self.in_transition:
            raise SchedulingError(
                "coalesce requested before the previous one completed"
            )
        plan = plan_coalesce(
            self.obj, self.deliver_start, self.ready, new_offset, at_interval
        )
        self._read_pause_until = plan.new_ready
        self._pending_offset = new_offset
        return plan

    def step(self, interval: int) -> None:
        """Execute one interval: at most one read and one output."""
        if self.done:
            return
        self._maybe_finish_transition(interval)
        # --- read side --------------------------------------------------
        if (
            not self.in_transition
            and self._next_read < self.obj.num_subobjects
            and interval >= self.ready + self._next_read
        ):
            self.trace.record(interval, "read", self.lane, self._next_read)
            self._next_read += 1
        # --- output side -------------------------------------------------
        if interval >= self.deliver_start + self._next_output:
            if self.buffered() <= 0:
                raise SchedulingError(
                    f"hiccup: lane {self.lane} has nothing to deliver at "
                    f"interval {interval}"
                )
            self.trace.record(interval, "output", self.lane, self._next_output)
            self._next_output += 1

    def _maybe_finish_transition(self, interval: int) -> None:
        if self._read_pause_until is None or interval < self._read_pause_until:
            return
        assert self._pending_offset is not None
        # Re-anchor the read schedule: subobject s is read at
        # deliver_start + s - new_offset from now on.
        self.w_offset = self._pending_offset
        self.ready = self.deliver_start - self._pending_offset
        self._read_pause_until = None
        self._pending_offset = None
        self.coalesces_completed += 1


def run_coalescing_lane(
    obj: MediaObject,
    lane: int,
    deliver_start: int,
    ready: int,
    coalesce_at: Optional[int] = None,
    new_offset: int = 0,
    horizon: Optional[int] = None,
) -> DeliveryTrace:
    """Run one lane to completion, optionally coalescing mid-stream.

    Returns the trace; used by the Figure 6 tests and bench.
    """
    thread = CoalescingLane(obj, lane, deliver_start, ready)
    limit = horizon if horizon is not None else deliver_start + obj.num_subobjects + 8
    for interval in range(limit):
        if coalesce_at is not None and interval == coalesce_at:
            thread.request_coalesce(new_offset, interval)
        thread.step(interval)
        if thread.done:
            break
    if not thread.done:
        raise SchedulingError(f"lane {lane} did not finish within {limit} intervals")
    return thread.trace
