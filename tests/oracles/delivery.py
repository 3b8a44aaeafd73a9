"""Algorithm 1: time-fragmented delivery without coalescing (§3.2.1).

The paper's ``simple_combined_algorithm`` runs one thread per virtual
disk.  Each thread waits until its virtual disk rotates over the
physical drive holding its first fragment, then for
``n + w_offset`` intervals reads one fragment per interval (while
``t < n``) and delivers one fragment per interval (while
``t >= w_offset``), where ``w_offset`` is how many intervals this
lane runs ahead of the display's slowest lane.

This oracle ports that algorithm faithfully onto the
:mod:`tests.oracles.kernel` (one generator process per lane) and
records a :class:`~repro.core.coalesce.DeliveryTrace` that tests
compare against the paper's Figure 6 timeline.  The package uses the
closed-form equivalent (:class:`repro.core.display.Display`); the
property tests assert the two agree.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.coalesce import DeliveryTrace
from repro.core.virtual_disks import SlotPool
from repro.errors import SchedulingError
from repro.media.objects import MediaObject
from tests.oracles.kernel import Simulation, hold


class IntervalEnvironment:
    """Adapter giving lane threads an interval-granular view of the
    DES kernel: ``interval == int(sim.now)`` with unit interval length."""

    def __init__(self, sim: Simulation, pool: SlotPool) -> None:
        self.sim = sim
        self.pool = pool
        self.trace = DeliveryTrace()

    @property
    def interval(self) -> int:
        """Current interval index."""
        return int(round(self.sim.now))

    def physical(self, slot: int) -> int:
        """Physical drive under ``slot`` this interval."""
        return self.pool.physical_of(slot, self.interval)

    def initiate_read(self, lane: int, subobject: int) -> None:
        """Record a fragment read this interval."""
        self.trace.record(self.interval, "read", lane, subobject)

    def initiate_output(self, lane: int, subobject: int) -> None:
        """Record a fragment delivery this interval."""
        self.trace.record(self.interval, "output", lane, subobject)


def simple_combined_algorithm(
    env: IntervalEnvironment,
    obj: MediaObject,
    start_disk: int,
    lane: int,
    slot: int,
    w_offset: int,
):
    """Generator process: the paper's Algorithm 1 for one lane.

    Parameters mirror the pseudocode: the object ``X`` with ``n``
    subobjects, the drive ``p`` holding ``X_{0.0}``, the lane's
    fragment index ``i``, its virtual disk ``z_i``, and ``w_offset``
    (how long each fragment is buffered before delivery; the paper
    computes it as ``z_i - z_0 - i`` in its frame labelling, which
    equals ``deliver_start - ready_i`` in ours).
    """
    n = obj.num_subobjects
    target = (start_disk + lane) % env.pool.num_disks
    # Line 3: wait until physical(z_i) = p + i.
    while env.physical(slot) != target:
        yield hold(1.0)
    # Lines 4-7: read while t < n, output while t >= w_offset.
    for t in range(n + w_offset):
        if t < n:
            env.initiate_read(lane, t)
        if t >= w_offset:
            env.initiate_output(lane, t - w_offset)
        yield hold(1.0)


def run_fragmented_delivery(
    obj: MediaObject,
    start_disk: int,
    lane_slots: Sequence[int],
    pool: SlotPool,
) -> Tuple[DeliveryTrace, List[int]]:
    """Run Algorithm 1 for a whole display on the DES kernel,
    requested at interval 0.

    ``lane_slots[j]`` is the virtual disk assigned to lane ``j``; each
    must eventually pass over drive ``start_disk + j``.  Returns the
    trace and the per-lane ``w_offset`` values.

    Raises :class:`SchedulingError` when a slot can never reach its
    lane's target drive (possible when ``gcd(k, D) > 1``).
    """
    if len(lane_slots) != obj.degree:
        raise SchedulingError(
            f"need {obj.degree} lane slots, got {len(lane_slots)}"
        )
    arrivals: List[int] = []
    for j, slot in enumerate(lane_slots):
        target = (start_disk + j) % pool.num_disks
        arrival = pool.arrival(slot, target, 0)
        if arrival is None:
            raise SchedulingError(
                f"slot {slot} can never reach drive {target} with "
                f"stride {pool.stride} over {pool.num_disks} disks"
            )
        arrivals.append(arrival)
    deliver_start = max(arrivals)
    offsets = [deliver_start - a for a in arrivals]

    sim = Simulation()
    env = IntervalEnvironment(sim, pool)
    for j, slot in enumerate(lane_slots):
        sim.spawn(
            simple_combined_algorithm(env, obj, start_disk, j, slot, offsets[j]),
            name=f"lane-{j}",
        )
    sim.run()
    return env.trace, offsets
