"""Byte-identity of the VDR admission pass and its unmemoized oracle.

The production pass (:meth:`VirtualReplicationPolicy._admission_pass`)
memoizes, per pass, the objects with no free copy, admits without
rebuilding the queue, and looks holders up without building and
sorting a cluster list.  The references are the straightforward
versions it replaced: ``free_holder`` over the sorted holder list and
one full lookup per queued request (:mod:`tests.oracles.scalar`).
Monkeypatched in, they must give byte-identical results under
``--sanitize strict``.
"""

from __future__ import annotations

import json

import pytest

from repro.simulation.config import ScaledConfig
from repro.simulation.runner import build_engine
from repro.vdr.clusters import ClusterArray
from repro.vdr.scheduler import VirtualReplicationPolicy
from tests.oracles.scalar import reference_admission_pass, reference_free_holder

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
