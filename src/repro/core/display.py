"""The state of one active display.

A display of object ``X`` (``n`` subobjects, degree ``M``) owns ``M``
*lanes*, one per fragment index.  Lane ``j`` owns a virtual disk and
reads fragments ``X_{0.j}, X_{1.j}, …`` at consecutive intervals
starting at its ``ready`` interval.  When the lanes' ready intervals
differ (time-fragmented admission, §3.2.1), early lanes read ahead
into buffers; delivery of subobject ``i`` happens at
``deliver_start + i`` where ``deliver_start = max_j ready_j`` — the
operational content of the paper's Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.media.objects import MediaObject


@dataclass
class Lane:
    """One fragment lane of a display.

    Parameters
    ----------
    fragment:
        Fragment index ``j`` (0-based).
    slot:
        The virtual disk the lane owns, or ``None`` while the lane is
        still waiting for a free slot to rotate into position.
    ready:
        Interval at which the lane reads ``X_{0.j}``; ``None`` until
        the slot is claimed.
    """

    fragment: int
    slot: Optional[int] = None
    ready: Optional[int] = None

    @property
    def claimed(self) -> bool:
        """True once the lane owns a virtual disk."""
        return self.slot is not None

    def release_interval(self, num_subobjects: int) -> int:
        """First interval at which the lane's slot is free again."""
        if self.ready is None:
            raise SchedulingError(f"lane {self.fragment} not yet claimed")
        return self.ready + num_subobjects


#: One entry of :attr:`Display.waiting`: ``(lane, target, halves)``.
WaitingLane = Tuple[Lane, int, int]


@dataclass
class Display:
    """An admitted (possibly still partially-laned) display.

    ``degree_halves`` enables the low-bandwidth mode of §3.2.3: when
    set, the display needs that many *logical half-disks* and each
    lane claims one or two half-slots (see :meth:`lane_halves`).
    """

    display_id: int
    obj: MediaObject
    start_disk: int
    requested_at: int
    lanes: List[Lane] = field(default_factory=list)
    degree_halves: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.lanes:
            self.lanes = [Lane(fragment=j) for j in range(self.obj.degree)]
        if self.degree_halves is not None:
            expected = (self.degree_halves + 1) // 2
            if len(self.lanes) != expected:
                raise SchedulingError(
                    f"display with {self.degree_halves} half-disks needs "
                    f"{expected} lanes, got {len(self.lanes)}"
                )
        # Lanes are only ever claimed, never un-claimed (a display that
        # loses a lane is aborted wholesale), so "fully laned" is a
        # one-way latch and the derived quantities below are immutable
        # once it flips — cache them instead of recomputing per interval.
        self._fully_laned = False
        self._waiting: Optional[List[WaitingLane]] = None
        self._lane_halves: Optional[List[int]] = None
        self._full_lanes: Optional[int] = None
        self._deliver_start: Optional[int] = None
        self._buffer_demand: Optional[float] = None

    def lane_halves(self) -> List[int]:
        """Half-slots each lane claims: 2 per lane for full-bandwidth
        displays; the last lane claims 1 when ``degree_halves`` is odd."""
        if self._lane_halves is None:
            if self.degree_halves is None:
                self._lane_halves = [2] * len(self.lanes)
            else:
                self._lane_halves = [
                    min(2, self.degree_halves - 2 * lane.fragment)
                    for lane in self.lanes
                ]
        return self._lane_halves

    def full_lane_count(self) -> int:
        """Lanes that claim both half-slots (all of them unless the
        display runs in the low-bandwidth mode); cached like
        :meth:`lane_halves` — the admission fast path reads this per
        probe."""
        if self._full_lanes is None:
            self._full_lanes = sum(1 for h in self.lane_halves() if h == 2)
        return self._full_lanes

    def __repr__(self) -> str:
        claimed = sum(1 for lane in self.lanes if lane.claimed)
        return (
            f"<Display {self.display_id} obj={self.obj.object_id} "
            f"lanes={claimed}/{len(self.lanes)}>"
        )

    # ------------------------------------------------------------------
    # Lane state
    # ------------------------------------------------------------------
    @property
    def waiting(self) -> List[WaitingLane]:
        """The lanes still waiting for a virtual disk, in fragment
        order, as ``(lane, target, halves)``.

        ``target = start_disk + fragment`` is the lane's target drive
        (below ``2·D``; a probe at rotation offset ``k·t`` looks at
        slot ``(target − k·t) mod D``) and ``halves`` its half-slot
        demand.  The list is built from the lanes' claim state on
        first use; from then on the admission probe is its only writer
        and trims each lane it claims *in place* (the verdict index
        keeps a reference to it), so it is the one record of what a
        queued display still needs (the sanitizer's ``batch_index``
        sweep checks it against the lanes).
        """
        if self._waiting is None:
            start = self.start_disk
            self._waiting = [
                (lane, start + lane.fragment, halves)
                for lane, halves in zip(self.lanes, self.lane_halves())
                if lane.slot is None
            ]
        return self._waiting

    @property
    def fully_laned(self) -> bool:
        """True once every lane owns a virtual disk."""
        if self._fully_laned:
            return True
        if not self.waiting:
            self._fully_laned = True
            return True
        return False

    @property
    def pending_lane_count(self) -> int:
        """Lanes still waiting for a virtual disk."""
        return len(self.waiting)

    @property
    def deliver_start(self) -> int:
        """Interval of the first subobject's delivery (max lane ready)."""
        if self._deliver_start is not None:
            return self._deliver_start
        if not self.fully_laned:
            raise SchedulingError(
                f"display {self.display_id} is not fully laned yet"
            )
        start = max(lane.ready for lane in self.lanes)  # type: ignore[arg-type]
        self._deliver_start = start
        return start

    @property
    def finish_interval(self) -> int:
        """Interval during which the last subobject is delivered."""
        return self.deliver_start + self.obj.num_subobjects - 1

    @property
    def startup_latency_intervals(self) -> int:
        """Intervals from request arrival to first delivery."""
        return self.deliver_start - self.requested_at

    # ------------------------------------------------------------------
    # Buffering (Algorithm 1 accounting)
    # ------------------------------------------------------------------
    def lane_write_offset(self, fragment: int) -> int:
        """``w_offset`` of Algorithm 1: intervals lane ``fragment``
        buffers each fragment before delivery."""
        lane = self.lanes[fragment]
        if lane.ready is None:
            raise SchedulingError(f"lane {fragment} not yet claimed")
        return self.deliver_start - lane.ready

    def steady_state_buffers(self) -> Dict[int, int]:
        """Fragments held in each lane's node buffer at steady state.

        Lane ``j`` stays ``w_offset_j`` fragments ahead of delivery,
        so it holds exactly ``w_offset_j`` buffered fragments once the
        pipeline fills (0 for the latest lane).
        """
        return {
            lane.fragment: self.lane_write_offset(lane.fragment)
            for lane in self.lanes
        }

    def buffer_demand(self) -> float:
        """Total staging memory (megabits) this display needs."""
        if self._buffer_demand is not None:
            return self._buffer_demand
        demand = sum(self.steady_state_buffers().values()) * self.obj.fragment_size
        if self._fully_laned:
            self._buffer_demand = demand
        return demand

    # ------------------------------------------------------------------
    # Schedules (used by the validating engine and by tests)
    # ------------------------------------------------------------------
    def reads_at(self, interval: int) -> List[Lane]:
        """Lanes that read a fragment during ``interval``."""
        active = []
        for lane in self.lanes:
            if lane.ready is None:
                continue
            i = interval - lane.ready
            if 0 <= i < self.obj.num_subobjects:
                active.append(lane)
        return active

    def delivers_at(self, interval: int) -> Optional[int]:
        """Subobject delivered during ``interval`` (None outside range)."""
        if not self.fully_laned:
            return None
        i = interval - self.deliver_start
        if 0 <= i < self.obj.num_subobjects:
            return i
        return None
