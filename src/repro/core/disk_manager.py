"""The Disk Manager (§4.1).

"The Disk Manager keeps track of the different disks and their status
(busy or idle) for each time interval."

This module combines the rotating-frame allocator
(:class:`~repro.core.virtual_disks.SlotPool`, which holds that
per-interval busy/idle state) with physical placement and storage
accounting on a :class:`~repro.hardware.disk_array.DiskArray`.  The
physical replay that checks the pool's schedules drive by drive is a
test oracle (``tests/oracles/physical.py``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.virtual_disks import SlotPool
from repro.errors import CapacityError, ConfigurationError, LayoutError
from repro.hardware.disk_array import DiskArray
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
