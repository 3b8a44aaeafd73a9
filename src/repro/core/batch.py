"""Vectorised batch admission probes.

One admission pass probes every queued display against the rotating
slot pool.  Walking each display's lanes in python is the hottest
loop in the simulator, so the pass first evaluates **all** pending
lane probes for the interval in one numpy pass over the pool's
free-half array and hands the scalar claim path only the displays
whose probe can possibly succeed:

* the rotation arithmetic ``slot = (start + fragment - k·t) mod D``
  becomes one array expression over every queued lane;
* FRAGMENTED saturation fast-outs and CONTIGUOUS bucket rejects
  become masks over per-display reductions (``logical_or.reduceat`` /
  ``logical_and.reduceat`` on the lane-probe results).

Byte-identity argument (why skipping on a False verdict is safe):
within one admission pass the pool's free halves only *decrease* —
the pass only claims; lane releases, tertiary completions, and fault
transitions all run outside it.  A pre-pass verdict of "no pending
lane of this display fits at this interval's rotation offset"
therefore stays false for the whole pass, and skipping the display is
observably identical to running its scalar probe (which would claim
nothing and change nothing).  The same monotonicity licenses the
scheduler to *re-tighten* verdicts mid-pass: after any successful
claim the verdict array is recomputed, so the surviving True verdicts
are exact and every remaining probe claims something.  The admission
counters are preserved because the caller counts one attempt per
probed display, skipped or not.  (The CONTIGUOUS negative cache in
:class:`~repro.core.admission.Admitter` sees fewer probes — that
cache is pure acceleration state and never observable.)

Data layout — a persistent **lane table** rather than per-pass
concatenation: three grow-only parallel arrays (``bases``, half
demands, pending mask) hold one row per lane of every registered
display, and a segment registry maps ``display_id`` to its contiguous
row range.  Lane geometry is immutable for a display's lifetime, so a
display is written once (:meth:`add_display`); only its pending rows
are rewritten, and only when it claims (:meth:`on_claim`).  Departed
displays leave dead rows (pending forced False so they never produce
a verdict) that are reclaimed by compaction once they outnumber the
live ones.  A pass therefore costs a handful of whole-table numpy
ops and **zero** per-display python.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.admission import AdmissionMode
from repro.core.display import Display
from repro.core.virtual_disks import HALVES_PER_SLOT, SlotPool

#: Compact only past this many rows (small tables never pay the cost).
_COMPACT_MIN_ROWS = 512


class BatchAdmissionIndex:
    """Whole-queue claim verdicts over a persistent lane table.

    Built by the scheduler for every discipline except fcfs, whose
    head-of-line stop keeps the scalar pass (DESIGN.md decision 9).

    Segment *positions* (the index of a display's segment in creation
    order) are stable across :meth:`add_display` and
    :meth:`remove_display`, but compaction renumbers them; callers
    caching positions must compare :attr:`generation` and re-resolve
    on a mismatch.
    """

    def __init__(self, pool: SlotPool, mode: AdmissionMode) -> None:
        self.pool = pool
        self.mode = mode
        #: Bumped by compaction; cached segment positions die with it.
        self.generation = 0
        capacity = 256
        # Row r describes one lane: _bases[r] is the lane's virtual
        # disk at interval 0, _halves[r] its half-slot demand,
        # _pending[r] whether the lane still needs a claim.  Dead rows
        # keep _halves at 1 (any value works — their verdicts are
        # never gathered) and _pending at False.
        self._bases = np.zeros(capacity, dtype=np.int64)
        self._halves = np.ones(capacity, dtype=np.int64)
        self._pending = np.zeros(capacity, dtype=bool)
        self._rows = 0
        self._live_rows = 0
        # Segment registry: display_id -> (position, row_start, lanes).
        self._segments: Dict[int, Tuple[int, int, int]] = {}
        self._displays: Dict[int, Display] = {}
        # Per-segment metadata in creation order (live and dead).
        self._starts: List[int] = []
        self._full: List[int] = []  # CONTIGUOUS: full-slot lane count
        self._nlanes: List[int] = []  # CONTIGUOUS: lane count
        # numpy mirrors of the metadata lists, rebuilt lazily.
        self._starts_np = None
        self._full_np = None
        self._nlanes_np = None

    def __len__(self) -> int:
        return len(self._segments)

    def position(self, display_id: int) -> Optional[int]:
        """Current segment position of ``display_id`` (None if absent)."""
        segment = self._segments.get(display_id)
        return None if segment is None else segment[0]

    def _ensure_capacity(self, rows: int) -> None:
        capacity = len(self._bases)
        if rows <= capacity:
            return
        while capacity < rows:
            capacity *= 2
        for name, fill in (("_bases", 0), ("_halves", 1), ("_pending", False)):
            old = getattr(self, name)
            grown = np.full(capacity, fill, dtype=old.dtype)
            grown[: self._rows] = old[: self._rows]
            setattr(self, name, grown)

    def add_display(self, display: Display) -> int:
        """Register ``display``'s lanes; returns its segment position."""
        lanes = display.lanes
        n = len(lanes)
        row = self._rows
        self._ensure_capacity(row + n)
        d = self.pool.num_disks
        start = display.start_disk
        halves = display.lane_halves()
        self._bases[row : row + n] = [
            (start + lane.fragment) % d for lane in lanes
        ]
        self._halves[row : row + n] = halves
        self._pending[row : row + n] = [lane.slot is None for lane in lanes]
        position = len(self._starts)
        self._starts.append(row)
        if self.mode is AdmissionMode.CONTIGUOUS:
            self._full.append(
                sum(1 for h in halves if h == HALVES_PER_SLOT)
            )
            self._nlanes.append(n)
        self._segments[display.display_id] = (position, row, n)
        self._displays[display.display_id] = display
        self._rows = row + n
        self._live_rows += n
        self._starts_np = self._full_np = self._nlanes_np = None
        return position

    def on_claim(self, display: Display) -> None:
        """Refresh ``display``'s pending rows (it just claimed lanes)."""
        segment = self._segments.get(display.display_id)
        if segment is None:
            return
        _position, row, n = segment
        self._pending[row : row + n] = [
            lane.slot is None for lane in display.lanes
        ]

    def remove_display(self, display_id: int) -> None:
        """Retire ``display_id``'s segment (admitted or cancelled).

        The rows go dead in place — pending is forced False so they
        can never contribute a verdict — and the table compacts once
        dead rows outnumber live ones.
        """
        segment = self._segments.pop(display_id, None)
        if segment is None:
            return
        del self._displays[display_id]
        _position, row, n = segment
        self._pending[row : row + n] = False
        self._live_rows -= n
        if self._rows > _COMPACT_MIN_ROWS and 2 * self._live_rows < self._rows:
            self._compact()

    def _compact(self) -> None:
        """Rewrite the table with live segments only (renumbers
        positions — bumps :attr:`generation`)."""
        survivors = [
            self._displays[display_id]
            for display_id, _segment in sorted(
                self._segments.items(), key=lambda item: item[1][0]
            )
        ]
        self._segments.clear()
        self._displays.clear()
        self._starts = []
        self._full = []
        self._nlanes = []
        self._rows = 0
        self._live_rows = 0
        self._starts_np = self._full_np = self._nlanes_np = None
        self.generation += 1
        for display in survivors:
            self.add_display(display)

    def pass_verdicts(self, interval: int):
        """Per-segment claim verdicts for ``interval`` (creation-order
        numpy bool array, live and dead segments alike).

        A False verdict licenses the caller to skip the display's
        scalar probe for the rest of the pass (see the module
        docstring); True only means "worth probing" — the scalar claim
        path re-checks lane by lane.
        """
        rows = self._rows
        if rows == 0:
            return np.zeros(0, dtype=bool)
        if self._starts_np is None:
            self._starts_np = np.array(self._starts, dtype=np.intp)
            if self.mode is AdmissionMode.CONTIGUOUS:
                self._full_np = np.array(self._full, dtype=np.int64)
                self._nlanes_np = np.array(self._nlanes, dtype=np.int64)
        starts = self._starts_np
        pool = self.pool
        d = pool.num_disks
        offset = pool.stride * interval % d
        pending = self._pending[:rows]
        fits = (
            pool._free_np[(self._bases[:rows] - offset) % d]
            >= self._halves[:rows]
        )
        if self.mode is AdmissionMode.FRAGMENTED:
            verdicts = np.logical_or.reduceat(fits & pending, starts)
        else:
            verdicts = np.logical_and.reduceat(fits, starts)
            buckets = pool._buckets
            verdicts &= (self._full_np <= buckets[HALVES_PER_SLOT]) & (
                self._nlanes_np <= d - buckets[0]
            )
        # A display with no pending lane would complete immediately on
        # its scalar probe, so it must never be skipped: force those
        # verdicts True.  (The scheduler's queue discipline makes this
        # unreachable — a display leaves the queue the pass its last
        # lane claims — but correctness must not rest on that.  Dead
        # segments also surface True here; they are never gathered.)
        verdicts |= ~np.logical_or.reduceat(pending, starts)
        return verdicts

    # ------------------------------------------------------------------
    # Runtime invariant checks (repro.sim.sanitize)
    # ------------------------------------------------------------------
    def verify_invariants(self, sanitizer, interval: int) -> None:
        """Every registered segment mirrors its live lane state.

        A stale pending row is what would make a batched skip unsound,
        so the whole table is rechecked against the display objects.
        """
        d = self.pool.num_disks
        live_rows = 0
        for display_id, (position, row, n) in self._segments.items():
            display = self._displays[display_id]
            live_rows += n
            sanitizer.expect(
                self._starts[position] == row and len(display.lanes) == n,
                "batch_index",
                f"segment registry drifted for display {display_id} "
                f"in interval {interval}",
            )
            sanitizer.expect(
                self._bases[row : row + n].tolist()
                == [
                    (display.start_disk + lane.fragment) % d
                    for lane in display.lanes
                ]
                and self._halves[row : row + n].tolist()
                == display.lane_halves(),
                "batch_index",
                f"lane geometry rows diverged for display {display_id} "
                f"in interval {interval}",
            )
            sanitizer.expect(
                self._pending[row : row + n].tolist()
                == [lane.slot is None for lane in display.lanes],
                "batch_index",
                f"pending rows diverged for display {display_id} "
                f"in interval {interval}",
            )
        sanitizer.expect(
            live_rows == self._live_rows,
            "batch_index",
            f"live-row count drifted in interval {interval}: "
            f"running {self._live_rows} != recount {live_rows}",
        )
