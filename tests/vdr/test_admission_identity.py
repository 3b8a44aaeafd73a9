"""Byte-identity of the VDR admission pass and its unmemoized oracle.

The production pass (:meth:`VirtualReplicationPolicy._admission_pass`)
memoizes, per pass, the objects with no free copy, admits without
rebuilding the queue, and looks holders up without building and
sorting a cluster list.  The references below are the straightforward
versions it replaced: ``free_holder`` over the sorted holder list and
one full lookup per queued request.  Monkeypatched in, they must give
byte-identical results under ``--sanitize strict``.
"""

from __future__ import annotations

import json
from typing import Dict, List

import pytest

from repro.simulation.config import ScaledConfig
from repro.simulation.policy import Request
from repro.simulation.runner import build_engine
from repro.vdr.clusters import ClusterArray
from repro.vdr.scheduler import VirtualReplicationPolicy


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


# Scale 20: D = 50, ten one-object clusters, 100 objects.  Forty
# stations keep a queue of several requests per object, so the memo and
# the replication trigger both see repeated objects within one pass.
BASE = ScaledConfig(scale=20).with_(
    technique="vdr", num_stations=40, warmup_intervals=150,
    measure_intervals=900, sanitize="strict",
)

CASES = {
    "closed": BASE,
    "tertiary_source": BASE.with_(replication_source="tertiary"),
    # No redundancy: a failed drive takes its cluster offline
    # (available=False) and evicts its copies until repair.
    "faulted": BASE.with_(
        mttf=2000.0, mttr=30.0, redundancy="none", on_fault="abort"
    ),
}


def run(config):
    engine = build_engine(config)
    result = engine.run(config.warmup_intervals, config.measure_intervals)
    return json.dumps(result.to_dict(), sort_keys=True), engine.policy


@pytest.mark.parametrize("name", sorted(CASES))
def test_memoized_pass_is_byte_identical_to_reference(name, monkeypatch):
    blob, policy = run(CASES[name])
    stats = policy.stats()
    assert stats["completed_displays"] > 0
    assert stats["mean_queue_length"] > len(policy.clusters)
    if name == "faulted":
        assert stats["fault_failures"] > 0
        assert stats["fault_aborts"] > 0
    monkeypatch.setattr(ClusterArray, "free_holder", reference_free_holder)
    monkeypatch.setattr(
        VirtualReplicationPolicy, "_admission_pass", reference_admission_pass
    )
    assert run(CASES[name])[0] == blob
