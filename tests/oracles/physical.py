"""A physical replay of the slot pool's schedules, drive by drive.

The simulator keeps per-interval occupancy in one place, the rotating
:class:`~repro.core.virtual_disks.SlotPool`, and trusts its invariant:
no virtual disk's two half-slots are ever oversubscribed, so no
physical drive is asked for more than one full-bandwidth fragment (or
two half-bandwidth sub-fragments) in one interval.  This oracle checks
that claim from the other side.  It walks every active display's reads
for one interval, maps each lane's slot to the physical drive under it,
counts the halves read from each drive and checks each read against
the striping layout (tests/integration/test_system.py,
tests/integration/test_fuzz_scheduler.py).
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.core.virtual_disks import HALVES_PER_SLOT
from repro.errors import LayoutError, SchedulingError
from repro.media.objects import FragmentAddress


def replay_interval(disk_manager, displays: Iterable, interval: int) -> Dict[int, int]:
    """Replay one interval's reads; returns ``{drive: halves read}``.

    Raises :class:`SchedulingError` when a drive is asked for more than
    ``HALVES_PER_SLOT`` halves, and :class:`LayoutError` when a lane of
    a placed object reads a drive that is not its fragment's home.
    """
    pool = disk_manager.pool
    layout = disk_manager.layout
    halves_on: Dict[int, int] = {}
    for display in displays:
        object_id = display.obj.object_id
        placed = layout.is_placed(object_id)
        halves = display.lane_halves()
        for lane in display.reads_at(interval):
            drive = pool.physical_of(lane.slot, interval)
            if placed:
                home = layout.disk_of(
                    FragmentAddress(object_id, interval - lane.ready, lane.fragment)
                )
                if home != drive:
                    raise LayoutError(
                        f"display {display.display_id} lane {lane.fragment} "
                        f"reads drive {drive} but fragment lives on {home}"
                    )
            total = halves_on.get(drive, 0) + halves[lane.fragment]
            if total > HALVES_PER_SLOT:
                raise SchedulingError(
                    f"drive {drive} asked for {total} halves in interval "
                    f"{interval} (display {display.display_id} lane "
                    f"{lane.fragment})"
                )
            halves_on[drive] = total
    return halves_on
