"""Scalar references for the package's batched, memoized and
incremental paths.

Each function here is the straightforward version of a production
path that was later made faster; the identity tests monkeypatch them
in and demand byte-identical results:

* :func:`reference_free_holder` / :func:`reference_admission_pass` —
  the VDR holder lookup over a sorted cluster list and the admission
  pass with one full lookup per queued request, no per-pass memo
  (tests/vdr/test_admission_identity.py);
* :func:`arm_scalar_admission` — the scalar staggered admission pass
  (the one fcfs always runs) and a scan over every station, stepped
  every interval (tests/simulation/test_batch_identity.py);
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


def arm_scalar_admission(monkeypatch) -> None:
    """Swap the batched staggered admission and the station heap for
    their scalar references, stepping every interval.

    The scalar pass maintains neither the policy's queued-display
    lists nor the verdict index's pending rows, so a CONTIGUOUS
    lookahead would read lanes that are no longer current: the
    reference is "scalar pass, every interval".
    """
    monkeypatch.setattr(
        StaggeredStripingPolicy, "_admission_pass_batched",
        StaggeredStripingPolicy._admission_pass,
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
