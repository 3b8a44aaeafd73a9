"""Admission control: allocating virtual disks to new displays.

Two modes, matching the paper's two levels of sophistication:

* :attr:`AdmissionMode.CONTIGUOUS` — the display starts only when the
  ``M`` virtual disks currently over drives ``p .. p+M-1`` are *all*
  free (the simple-striping discipline: the whole logical cluster is
  claimed at once, all lanes aligned, no buffering).
* :attr:`AdmissionMode.FRAGMENTED` — lanes are claimed lazily, one
  whenever a free virtual disk rotates over that lane's target drive
  (§3.2.1).  Early lanes read ahead into buffers; delivery starts when
  the last lane comes online (Algorithm 1's ``w_offset`` machinery).

Claiming is *lazy* — a lane takes the slot that is over its target
drive **now**, never reserving a slot that is still rotating towards
it.  This is behaviourally identical to the paper's "wait until
``physical(z_i) = p+i``" (the read schedule is the same) but lets the
slot serve other work during the rotation wait, so it is never worse.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List

from repro.core.display import Display
from repro.core.virtual_disks import HALVES_PER_SLOT, SlotPool


class AdmissionMode(enum.Enum):
    """How lanes acquire virtual disks."""

    CONTIGUOUS = "contiguous"
    FRAGMENTED = "fragmented"


@dataclass
class AdmissionPlan:
    """Result of one admission attempt for one display."""

    display: Display
    claimed_now: List[int] = field(default_factory=list)
    complete: bool = False


class Admitter:
    """Claims virtual disks for displays against a :class:`SlotPool`.

    Passing a :class:`repro.obs.RunObservation` as ``obs`` counts
    claim attempts, lanes claimed, and completed claims; with the
    default ``None`` the claim path is untouched.
    """

    def __init__(
        self,
        pool: SlotPool,
        mode: AdmissionMode = AdmissionMode.FRAGMENTED,
        obs=None,
    ):
        self.pool = pool
        self.mode = mode
        # Plain-int accumulators, published to the registry by a
        # snapshot-time flusher (see RunObservation).  Lanes/completes
        # count on the cold claim paths; attempts are batched in by
        # the caller (:meth:`count_attempts`) so the per-call hot path
        # carries no instrumentation at all.
        self._n_attempts = 0
        self._n_lanes = 0
        self._n_complete = 0
        if obs is not None:
            registry = obs.registry
            self._c_attempts = registry.counter("admission.claim_attempts")
            self._c_lanes = registry.counter("admission.lanes_claimed")
            self._c_complete = registry.counter("admission.claims_completed")
            obs.add_flusher(self._flush_counters)

    def _flush_counters(self) -> None:
        self._c_attempts.value = float(self._n_attempts)
        self._c_lanes.value = float(self._n_lanes)
        self._c_complete.value = float(self._n_complete)

    def __repr__(self) -> str:
        return f"<Admitter mode={self.mode.value} pool={self.pool!r}>"

    def try_claim(self, display: Display, interval: int) -> AdmissionPlan:
        """Attempt to claim (more) lanes for ``display`` at ``interval``.

        Returns a plan describing which lanes were claimed this call
        and whether the display is now fully laned.  In CONTIGUOUS
        mode the claim is all-or-nothing; in FRAGMENTED mode it is
        incremental.
        """
        if self.mode is AdmissionMode.CONTIGUOUS:
            return self._claim_contiguous(display, interval)
        return self._claim_fragmented(display, interval)

    def count_attempts(self, attempts: int) -> None:
        """Batch-record ``attempts`` claim attempts (see the caller's
        admission loop; keeps :meth:`try_claim` instrumentation-free)."""
        self._n_attempts += attempts

    # ------------------------------------------------------------------
    # CONTIGUOUS: all-or-nothing, aligned window
    # ------------------------------------------------------------------
    def _claim_contiguous(self, display: Display, interval: int) -> AdmissionPlan:
        plan = AdmissionPlan(display=display)
        if display.fully_laned:
            plan.complete = True
            self._n_complete += 1
            return plan
        pool = self.pool
        d = pool.num_disks
        # The window's slots are distinct (M <= D consecutive drives),
        # so the capacity buckets give O(1) necessary conditions:
        # enough fully-free slots for the full-bandwidth lanes and
        # enough slots with any headroom for the rest.
        offset = pool.stride * interval % d
        buckets = pool._buckets
        if (
            buckets[HALVES_PER_SLOT] < display.full_lane_count()
            or d - buckets[0] < len(display.lanes)
        ):
            return plan
        # Inline window probe over the waiting lanes (all of them: a
        # CONTIGUOUS claim is all-or-nothing), mirroring the fragmented
        # hot loop below.
        free = pool._free
        waiting = display.waiting
        window = []
        for _lane, target, h in waiting:
            slot = (target - offset) % d
            if free[slot] < h:
                return plan
            window.append(slot)
        for (lane, _target, h), slot in zip(waiting, window):
            pool.claim(slot, display.display_id, halves=h)
            lane.slot = slot
            lane.ready = interval
        plan.claimed_now = window
        waiting.clear()
        plan.complete = True
        # Cold path (a successful whole-window claim): counting here
        # keeps the try_claim hot path to a single accumulator add.
        self._n_lanes += len(plan.claimed_now)
        self._n_complete += 1
        return plan

    # ------------------------------------------------------------------
    # FRAGMENTED: lazy incremental claims (§3.2.1)
    # ------------------------------------------------------------------
    def _claim_fragmented(self, display: Display, interval: int) -> AdmissionPlan:
        plan = AdmissionPlan(display=display)
        pool = self.pool
        if display.fully_laned:
            # Identical tallies to falling through the loop (every lane
            # skipped) — just without walking the lanes.
            plan.complete = True
            self._n_complete += 1
            return plan
        if not pool._free_half_total:
            # Saturated pool: no lane can claim anything this interval.
            # At high load this is the dominant case, and it turns the
            # whole per-display probe into one integer comparison.
            return plan
        # The per-lane probe below is the hottest loop in the simulator
        # (one pass per queued display the verdicts let through), so
        # it walks only the display's waiting lanes, the rotation
        # arithmetic is hoisted out (slot_at(target, t) unrolls to
        # (target - k·t) mod D) and the free-half list is read
        # directly.
        d = pool.num_disks
        offset = pool.stride * interval % d
        free = pool._free
        claimed = plan.claimed_now
        waiting = display.waiting
        for lane, target, h in waiting:
            slot = (target - offset) % d
            if free[slot] >= h:
                pool.claim(slot, display.display_id, halves=h)
                lane.slot = slot
                lane.ready = interval
                claimed.append(slot)
        if claimed:
            self._n_lanes += len(claimed)
            waiting[:] = [entry for entry in waiting if entry[0].slot is None]
            if not waiting:
                plan.complete = True
                self._n_complete += 1
        return plan

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------
    def abort(self, display: Display) -> int:
        """Return every slot of an aborted display; returns the count."""
        return self.pool.release_all(display.display_id)
