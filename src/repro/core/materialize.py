"""Disk-side materialisation jobs (§3.2.4).

While the tertiary device streams an object, the disks absorb it
``W = ceil(B_tertiary / B_disk)`` fragments per interval (2 for the
paper's 40 mbps tertiary over 20 mbps drives).  With the
fragment-ordered tape layout the writer behaves exactly like a display
with ``W`` lanes: it claims ``W`` virtual disks and sweeps the
object's drives, ``ceil(M / W)`` passes of ``n`` intervals each when
the object's degree ``M`` exceeds ``W``.

A :class:`MaterializationJob` tracks that writer: its lanes are
claimed lazily from the slot pool (just like display admission) and
held for the job's whole duration, so materialisation bandwidth is
correctly charged against the array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.virtual_disks import SlotPool
from repro.errors import ConfigurationError
from repro.media.objects import MediaObject
from repro.media.tape_layout import TapeLayout, TapeOrder


@dataclass
class WriteLane:
    """One of the writer's ``W`` lanes."""

    offset: int  # target drive offset from the object's start drive
    slot: Optional[int] = None
    ready: Optional[int] = None

    @property
    def claimed(self) -> bool:
        """True once the lane owns a virtual disk."""
        return self.slot is not None


def writer_passes(degree: int, write_degree: int) -> int:
    """Sweeps over the object needed to write all ``M`` fragment lanes."""
    if degree < 1 or write_degree < 1:
        raise ConfigurationError("degree and write_degree must be >= 1")
    return math.ceil(degree / write_degree)


def disk_side_intervals(obj: MediaObject, write_degree: int) -> int:
    """Intervals the writer needs: ``ceil(M/W)`` passes of ``n``."""
    return writer_passes(obj.degree, write_degree) * obj.num_subobjects


class MaterializationJob:
    """The disk-side writer of one materialisation.

    Lifecycle: created when the tertiary device starts serving the
    object; lanes claimed lazily per interval; once fully laned the
    job runs for its duration and then releases its lanes.  The
    duration is the *maximum* of the disk-side sweep time and the
    tape-layout service time — with a sequential tape layout the
    tertiary's repositioning dominates and the writer (still holding
    its lanes) is mostly stalled, reproducing §3.2.4's wasted-work
    narrative.
    """

    def __init__(
        self,
        job_id: object,
        obj: MediaObject,
        start_disk: int,
        write_degree: int,
        duration_intervals: int,
    ) -> None:
        if write_degree < 1:
            raise ConfigurationError(f"write_degree must be >= 1, got {write_degree}")
        if duration_intervals < 1:
            raise ConfigurationError(
                f"duration_intervals must be >= 1, got {duration_intervals}"
            )
        self.job_id = job_id
        self.obj = obj
        self.start_disk = start_disk
        self.write_degree = min(write_degree, obj.degree)
        self.duration_intervals = duration_intervals
        self.lanes: List[WriteLane] = [
            WriteLane(offset=c) for c in range(self.write_degree)
        ]
        self.started_at: Optional[int] = None
        self.finish_interval: Optional[int] = None
        # Lanes are claimed and never given back before release, so
        # "fully laned" is a one-way latch.
        self._fully_laned = False

    def __repr__(self) -> str:
        claimed = sum(1 for lane in self.lanes if lane.claimed)
        return (
            f"<MaterializationJob {self.job_id} obj={self.obj.object_id} "
            f"lanes={claimed}/{len(self.lanes)}>"
        )

    @property
    def fully_laned(self) -> bool:
        """True once every write lane owns a virtual disk."""
        if not self._fully_laned:
            self._fully_laned = all(lane.claimed for lane in self.lanes)
        return self._fully_laned

    def try_claim(self, pool: SlotPool, interval: int) -> bool:
        """Claim free virtual disks currently over the write targets.

        Returns True when the job became fully laned this call.
        """
        if self.fully_laned:
            return False
        if pool.free_count == 0:
            # No fully free slot anywhere: a write lane claims both
            # halves, so nothing can be claimed this interval.
            return False
        d = pool.num_disks
        for lane in self.lanes:
            if lane.claimed:
                continue
            target = (self.start_disk + lane.offset) % d
            slot = pool.slot_at(target, interval)
            if pool.is_free(slot):
                pool.claim(slot, self.job_id)
                lane.slot = slot
                lane.ready = interval
        if self.fully_laned:
            self.started_at = max(lane.ready for lane in self.lanes)  # type: ignore[type-var]
            self.finish_interval = self.started_at + self.duration_intervals - 1
            return True
        return False

    def release(self, pool: SlotPool) -> None:
        """Return every claimed lane to the pool."""
        pool.release_all(self.job_id)


def job_duration_intervals(
    obj: MediaObject,
    write_degree: int,
    tape_layout: TapeLayout,
    tertiary_service_time: float,
    interval_length: float,
) -> int:
    """Duration of a materialisation in intervals.

    The writer's disk-side sweep and the tertiary's tape-side service
    proceed concurrently; the job completes when both are done.
    """
    disk_side = disk_side_intervals(obj, write_degree)
    tape_side = math.ceil(tertiary_service_time / interval_length - 1e-9)
    return max(disk_side, tape_side, 1)
