"""Whole-queue claim verdicts over the queued displays' waiting lanes.

One admission pass probes every queued display against the rotating
slot pool.  A lane claims a slot only when a free one sits over its
target drive (§3.2.1), so before the walk the pass asks, for every
queued display, whether its probe can possibly succeed, and hands the
claim path only the displays whose answer is yes.  The question is
answered from each display's list of waiting lanes
(:attr:`~repro.core.display.Display.waiting`, ``(lane, target,
halves)``), which the claim probe trims as lanes claim:

* FRAGMENTED: True when any waiting lane's slot
  ``(target − k·t) mod D`` has the half-slots it needs;
* CONTIGUOUS: True when the capacity buckets admit the window and
  every lane's slot fits;
* a display with nothing waiting is True (its probe completes it).

The pass is a plain loop over ``SlotPool._free``: it costs one list
read per waiting lane up to the first that decides the verdict.  The
CONTIGUOUS lookahead
(:meth:`BatchAdmissionIndex.first_admissible`) runs the same window
test over the next few rotation offsets.

Byte-identity argument (why skipping on a False verdict is safe):
within one admission pass the pool's free halves only *decrease* —
the pass only claims; lane releases, tertiary completions, and fault
transitions all run outside it.  A pre-pass verdict of "no waiting
lane of this display fits at this interval's rotation offset"
therefore stays false for the whole pass, and skipping the display is
observably identical to running its probe (which would claim nothing
and change nothing).  The same monotonicity licenses the scheduler to
*re-tighten* verdicts mid-pass: once a claim has landed, the walk
recomputes the True verdict of each display it reaches
(:meth:`BatchAdmissionIndex.verdict`) before probing it, so every
remaining probe claims something.  The admission counters are
preserved because the caller counts one attempt per display its walk
reaches, skipped or not.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Set, Tuple

from repro.core.admission import AdmissionMode
from repro.core.display import Display, WaitingLane
from repro.core.virtual_disks import HALVES_PER_SLOT, SlotPool
from repro.simulation.policy import NEVER

#: Rotation offsets :meth:`BatchAdmissionIndex.first_admissible` tests
#: per call; past them the caller wakes early and asks again.
LOOKAHEAD_OFFSETS = 32


class Verdicts(Dict[int, bool]):
    """One pass's claim verdicts: queued display id -> verdict."""

    def sum(self) -> int:
        """The number of True verdicts."""
        return sum(self.values())


class BatchAdmissionIndex:
    """Whole-queue claim verdicts, and the registry of queued displays.

    The scheduler adds a display when it creates (or a reposition
    requeues) it and removes it on admission or cancel, so the
    registry holds exactly the queued displays.  Queries answer by
    display id.
    """

    def __init__(self, pool: SlotPool, mode: AdmissionMode) -> None:
        self.pool = pool
        self.mode = mode
        # display_id -> (display, display.waiting).  The probe trims
        # the waiting list in place, so the reference stays current
        # and the verdict loop reads it without a property call.
        self._queued: Dict[int, Tuple[Display, List[WaitingLane]]] = {}

    def __len__(self) -> int:
        return len(self._queued)

    def add_display(self, display: Display) -> None:
        """Register ``display`` (it joined the queue)."""
        self._queued[display.display_id] = (display, display.waiting)

    def remove_display(self, display_id: int) -> None:
        """Forget ``display_id`` (admitted or cancelled); an unknown id
        is a no-op."""
        self._queued.pop(display_id, None)

    def claimable(self, interval: int) -> Set[int]:
        """Ids of the queued displays whose :meth:`pass_verdicts`
        verdict is True at ``interval``.

        A display left out claims nothing at ``interval``, and cannot
        for the rest of the pass (see the module docstring).
        """
        return {
            display_id
            for display_id, verdict in self.pass_verdicts(interval).items()
            if verdict
        }

    def pass_verdicts(self, interval: int) -> Verdicts:
        """Every queued display's claim verdict for ``interval``.

        A False verdict licenses the caller to skip the display's
        probe for the rest of the pass (see the module docstring);
        True only means "worth probing" — the claim path re-checks
        lane by lane.
        """
        return self._verdicts(self._queued.items(), interval)

    def verdict(self, display_id: int, interval: int) -> bool:
        """One queued display's :meth:`pass_verdicts` verdict for
        ``interval``, against the pool as it stands now.

        The admission walk refreshes a True verdict with it after a
        claim earlier in the pass, instead of recomputing the whole
        queue's.
        """
        entry = ((display_id, self._queued[display_id]),)
        return self._verdicts(entry, interval)[display_id]

    def _verdicts(
        self,
        queued: Iterable[Tuple[int, Tuple[Display, List[WaitingLane]]]],
        interval: int,
    ) -> Verdicts:
        """The verdict of each registry entry in ``queued``: the one
        lane test behind :meth:`pass_verdicts` and :meth:`verdict`."""
        pool = self.pool
        d = pool.num_disks
        offset = pool.stride * interval % d
        free = pool._free
        verdicts = Verdicts()
        if self.mode is AdmissionMode.FRAGMENTED:
            for display_id, (_display, waiting) in queued:
                verdict = not waiting
                for _lane, target, h in waiting:
                    if free[(target - offset) % d] >= h:
                        verdict = True
                        break
                verdicts[display_id] = verdict
            return verdicts
        buckets = pool._buckets
        full_free = buckets[HALVES_PER_SLOT]
        headroom = d - buckets[0]
        for display_id, (display, waiting) in queued:
            verdict = not waiting or (
                display.full_lane_count() <= full_free
                and len(display.lanes) <= headroom
            )
            if waiting and verdict:
                for _lane, target, h in waiting:
                    if free[(target - offset) % d] < h:
                        verdict = False
                        break
            verdicts[display_id] = verdict
        return verdicts

    def first_admissible(self, after: int) -> int:
        """CONTIGUOUS lookahead over an unchanging pool: the first
        interval ``>= after`` at which a queued display is
        :meth:`claimable`.

        Between events the free halves and capacity buckets are fixed
        and only the rotation offset ``k·t mod D`` moves, with period
        ``D / gcd(D, k)``.  Tests at most :data:`LOOKAHEAD_OFFSETS`
        intervals, each with :meth:`pass_verdicts`'s window test over
        the displays that pass the bucket bounds; when all fail it returns
        the first untested interval (an early wake-up is safe), or
        ``NEVER`` once a whole period has been tested or no display
        passes the bucket bounds.
        """
        pool = self.pool
        d = pool.num_disks
        buckets = pool._buckets
        full_free = buckets[HALVES_PER_SLOT]
        headroom = d - buckets[0]
        candidates = []
        for display, waiting in self._queued.values():
            if (
                display.full_lane_count() > full_free
                or len(display.lanes) > headroom
            ):
                continue
            if not waiting:
                return after  # its probe completes it at any interval
            candidates.append(waiting)
        if not candidates:
            return NEVER
        stride = pool.stride
        free = pool._free
        period = d // math.gcd(d, stride)
        span = min(LOOKAHEAD_OFFSETS, period)
        for interval in range(after, after + span):
            offset = stride * interval % d
            for waiting in candidates:
                for _lane, target, h in waiting:
                    if free[(target - offset) % d] < h:
                        break
                else:
                    return interval
        return after + span if span < period else NEVER

    # ------------------------------------------------------------------
    # Runtime invariant checks (repro.sim.sanitize)
    # ------------------------------------------------------------------
    def verify_invariants(
        self, sanitizer, interval: int, queued: List[Display]
    ) -> None:
        """The registry holds exactly the ``queued`` displays, and
        every registered display's waiting list names exactly its
        unclaimed lanes, in fragment order, with their targets and
        half-slot demands.

        A stale waiting list is what would make a skipped probe
        unsound, so every list is rebuilt from the lanes and compared.
        """
        registered = {
            display_id: display
            for display_id, (display, _waiting) in self._queued.items()
        }
        sanitizer.expect(
            sorted(registered) == sorted(d.display_id for d in queued)
            and all(registered.get(d.display_id) is d for d in queued),
            "batch_index",
            f"registered displays differ from the queued ones in interval "
            f"{interval}",
        )
        for display_id, (display, waiting) in self._queued.items():
            start = display.start_disk
            expected = [
                (id(lane), start + lane.fragment, h)
                for lane, h in zip(display.lanes, display.lane_halves())
                if lane.slot is None
            ]
            sanitizer.expect(
                waiting is display.waiting
                and [(id(lane), t, h) for lane, t, h in waiting] == expected,
                "batch_index",
                f"waiting lanes diverged for display {display_id} "
                f"in interval {interval}",
            )
