"""The Disk Manager (§4.1).

"The Disk Manager keeps track of the different disks and their status
(busy or idle) for each time interval."

This module combines the rotating-frame allocator
(:class:`~repro.core.virtual_disks.SlotPool`) with physical placement
and storage accounting on a :class:`~repro.hardware.disk_array.DiskArray`.
It also provides the *validation mode* used by integration tests: the
closed-form schedule of every active display is replayed against the
physical array interval by interval, asserting that no drive is ever
asked for two full-bandwidth fragments at once.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.display import Display
from repro.core.virtual_disks import SlotPool
from repro.errors import CapacityError, ConfigurationError, LayoutError
from repro.hardware.disk_array import DiskArray
from repro.media.catalog import Catalog
from repro.media.layout import StripingLayout
from repro.media.objects import MediaObject


class DiskManager:
    """Placement, storage accounting, and slot allocation for the array.

    Parameters
    ----------
    array:
        The physical drives.
    stride:
        The system-wide stride ``k``.
    fragment_cylinders:
        Cylinders per fragment (storage accounting unit).
    placement_alignment:
        Start drives are assigned round-robin in steps of this many
        drives.  Simple striping uses ``M`` so objects start at
        cluster boundaries; staggered striping typically uses 1.
    """

    def __init__(
        self,
        array: DiskArray,
        stride: int,
        fragment_cylinders: int = 1,
        placement_alignment: int = 1,
    ) -> None:
        if placement_alignment < 1:
            raise ConfigurationError(
                f"placement_alignment must be >= 1, got {placement_alignment}"
            )
        self.array = array
        self.pool = SlotPool(num_disks=array.num_disks, stride=stride)
        self.layout = StripingLayout(num_disks=array.num_disks, stride=stride)
        self.fragment_cylinders = fragment_cylinders
        self.placement_alignment = placement_alignment
        self._next_start = 0

    def __repr__(self) -> str:
        return (
            f"<DiskManager D={self.array.num_disks} k={self.pool.stride} "
            f"placed={len(self.layout.placed_objects())}>"
        )

    @property
    def num_disks(self) -> int:
        """Drives in the array."""
        return self.array.num_disks

    @property
    def stride(self) -> int:
        """The system stride ``k``."""
        return self.pool.stride

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place_object(self, obj: MediaObject, start_disk: Optional[int] = None) -> int:
        """Place ``obj`` on the drives; returns its start drive.

        Storage is charged per drive using the exact fragment counts
        of the stride layout.  Placement is atomic: when any drive
        lacks the room, :class:`~repro.errors.CapacityError` is raised
        and the layout, the array and the next start drive are left as
        they were.
        """
        automatic = start_disk is None
        if automatic:
            start_disk = self._next_start
        self.layout.place(obj, start_disk)
        counts = self.layout.fragment_counts(obj.object_id)
        try:
            self.array.store_all([c * self.fragment_cylinders for c in counts])
        except CapacityError:
            self.layout.remove(obj.object_id)
            raise
        if automatic:
            self._next_start = (
                self._next_start + self.placement_alignment
            ) % self.array.num_disks
        return start_disk % self.array.num_disks

    def evict_object(self, object_id: int) -> None:
        """Remove ``object_id``'s fragments and reclaim its storage."""
        if not self.layout.is_placed(object_id):
            raise LayoutError(f"object {object_id} is not placed")
        for disk, fragments in enumerate(self.layout.fragment_counts(object_id)):
            if fragments:
                self.array.evict(disk, fragments * self.fragment_cylinders)
        self.layout.remove(object_id)

    def start_disk(self, object_id: int) -> int:
        """Start drive of a placed object."""
        return self.layout.start_disk(object_id)

    def is_placed(self, object_id: int) -> bool:
        """True when the object has fragments on the drives."""
        return self.layout.is_placed(object_id)

    # ------------------------------------------------------------------
    # Validation mode
    # ------------------------------------------------------------------
    def validate_interval(self, displays: Iterable[Display], interval: int) -> None:
        """Replay one interval's reads against the physical array.

        Claims each active lane's physical drive in the
        :class:`DiskArray` (which raises on oversubscription) and
        cross-checks the lane's drive against the striping layout.
        Used by integration tests; the production engine relies on the
        slot-pool invariant instead.
        """
        self.array.begin_interval()
        for display in displays:
            halves = display.lane_halves()
            for lane in display.reads_at(interval):
                subobject = interval - lane.ready  # type: ignore[operator]
                physical = self.pool.physical_of(lane.slot, interval)  # type: ignore[arg-type]
                if self.layout.is_placed(display.obj.object_id):
                    from repro.media.objects import FragmentAddress

                    expected = self.layout.disk_of(
                        FragmentAddress(
                            display.obj.object_id, subobject, lane.fragment
                        )
                    )
                    if expected != physical:
                        raise LayoutError(
                            f"display {display.display_id} lane {lane.fragment} "
                            f"reads drive {physical} but fragment lives on "
                            f"{expected}"
                        )
                self.array.claim(
                    physical,
                    owner=(display.display_id, lane.fragment),
                    slots=halves[lane.fragment],
                )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def observe_interval(self, matrix, interval: int) -> None:
        """Record this interval's per-*physical*-drive busy state.

        ``matrix`` is a :class:`repro.obs.metrics.UtilizationMatrix`
        with one device per drive.  Only busy virtual disks are
        walked, so the cost scales with load, not array size.
        """
        matrix.mark_many(self.pool.busy_physical_disks(interval))
        matrix.tick(float(interval))

    def used_cylinder_profile(self) -> List[int]:
        """Used cylinders per drive (index = drive number)."""
        return [
            self.array.used_cylinders(d) for d in range(self.array.num_disks)
        ]

    def storage_report(self) -> Dict[str, float]:
        """Min/max/mean used cylinders across drives."""
        used = [self.array.used_cylinders(d) for d in range(self.array.num_disks)]
        return {
            "min_cylinders": min(used),
            "max_cylinders": max(used),
            "mean_cylinders": sum(used) / len(used),
        }

    def idle_slot_count(self) -> int:
        """Fully free virtual disks right now."""
        return self.pool.free_count
