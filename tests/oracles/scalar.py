"""Scalar references for the package's batched, memoized and
incremental paths.

Each function here is the straightforward version of a production
path that was later made faster; the identity tests monkeypatch them
in and demand byte-identical results:

* :func:`reference_free_holder` / :func:`reference_admission_pass` —
  the VDR holder lookup over a sorted cluster list and the admission
  pass with one full lookup per queued request, no per-pass memo
  (tests/vdr/test_admission_identity.py);
* :func:`scalar_admission_pass` / :func:`arm_scalar_admission` — the
  staggered admission pass with one probe per display and no claim
  verdicts, and a scan over every station, stepped every interval
  (tests/simulation/test_batch_identity.py);
* :func:`pool_brute_force_free` — a slot pool's free halves recounted
  from its ownership map (tests/hardware/test_occupancy_index.py).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.scheduler import StaggeredStripingPolicy
from repro.core.virtual_disks import HALVES_PER_SLOT, SlotPool
from repro.simulation.policy import Request
from repro.workload.stations import StationPool


def reference_free_holder(self, object_id, interval):
    """A free cluster holding the object, lowest index first."""
    for cluster in sorted(self.holders(object_id), key=lambda c: c.index):
        if cluster.is_free(interval):
            return cluster
    return None


def reference_admission_pass(self, interval):
    """One ``free_holder`` lookup per queued request, no memo."""
    waiting_after: Dict[int, int] = {}
    for request in self._queue:
        waiting_after[request.object_id] = (
            waiting_after.get(request.object_id, 0) + 1
        )
    still_waiting: List[Request] = []
    for request in self._queue:
        object_id = request.object_id
        cluster = self.clusters.free_holder(object_id, interval)
        if cluster is None:
            if (
                self.clusters.copy_count(object_id) == 0
                and object_id not in self._mat_pending
            ):
                self._queue_materialization(object_id)
            still_waiting.append(request)
            continue
        obj = self.catalog.get(object_id)
        n = obj.num_subobjects
        cluster.occupy(interval, n, "display", object_id)
        self.startup_latency.record(interval - request.issued_at)
        self._push_event(
            interval + n - 1, "display", cluster.index, (request, interval)
        )
        waiting_after[object_id] -= 1
        self._maybe_replicate(object_id, waiting_after[object_id], interval, n)
    self._queue = still_waiting


def scanned_ready_requests(self, interval):
    """The station scan the idle heap replaces."""
    return [
        self._issue(station, interval)
        for station in self.stations
        if not (station.busy or interval < station.next_issue_at)
    ]


def step_every_interval(self, interval):
    """``next_activity`` of a policy that never skips."""
    return interval + 1


def scalar_admission_pass(self, interval):
    """The staggered admission pass without claim verdicts: every
    display the walk reaches is probed.

    It keeps the verdict index's registry of queued displays (add on
    creation, remove on admission), which the strict
    sanitizer checks against the queue; it never asks the index for a
    verdict.
    """
    admitted: List[int] = []
    blocked = False
    attempts = 0
    budget = self._claim_budget()
    order = self._scan_order()
    for position, entry in enumerate(order):
        if blocked:
            break
        if not self.object_manager.is_resident(entry.request.object_id):
            if self.queue_discipline == "fcfs":
                blocked = True
            continue
        if entry.display is None:
            obj = self.catalog.get(entry.request.object_id)
            if budget is not None:
                if obj.degree > budget:
                    # Anti-hoarding rule: beginning to claim now
                    # could leave partially-laned displays holding
                    # virtual disks that can never all be
                    # completed — a deadlock (see DESIGN.md §4).
                    if self.queue_discipline == "fcfs":
                        blocked = True
                    continue
                budget -= obj.degree
            start = self.disk_manager.start_disk(entry.request.object_id)
            entry.display = self._new_display(obj, start, entry.request)
            self._queued_pending_lanes += len(entry.display.lanes)
            self._batch_index.add_display(entry.display)
        attempts += 1
        plan = self.admitter.try_claim(entry.display, interval)
        if plan.claimed_now:
            self._queued_pending_lanes -= len(plan.claimed_now)
        if plan.complete:
            self._activate(entry.display)
            self._batch_index.remove_display(entry.display.display_id)
            admitted.append(position)
        elif self.queue_discipline == "fcfs":
            blocked = True
    if attempts and self.obs is not None:
        # Batched once per pass; a local add per attempt keeps the
        # claim loop free of per-call instrument traffic.
        self.admitter.count_attempts(attempts)
    if admitted:
        self._drop_admitted(order, admitted)


def arm_scalar_admission(monkeypatch) -> None:
    """Swap the staggered admission pass and the station heap for
    their scalar references, stepping every interval.

    The reference is "scalar pass, every interval", so the production
    run's skipped spans are checked against stepped ones as well.
    """
    monkeypatch.setattr(
        StaggeredStripingPolicy, "_admission_pass", scalar_admission_pass
    )
    monkeypatch.setattr(
        StaggeredStripingPolicy, "next_activity", step_every_interval
    )
    monkeypatch.setattr(StationPool, "ready_requests", scanned_ready_requests)


def pool_brute_force_free(pool: SlotPool) -> list:
    """Free halves per slot, recounted from the public ownership map."""
    return [
        HALVES_PER_SLOT - sum(pool.owners_of(z).values())
        for z in range(pool.num_disks)
    ]
