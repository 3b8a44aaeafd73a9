"""End-to-end byte-identity of the production kernel and a scalar oracle.

The production path batches two things: whole-queue admission
verdicts (:mod:`repro.core.batch`) and the station idle heap.  Their
scalar references live in :mod:`tests.oracles.scalar` and are reached
by monkeypatching:

* the scalar :meth:`StaggeredStripingPolicy._admission_pass` (the pass
  fcfs always runs) stands in for the batched pass of scan, sjf and
  largest_first, and the engine steps every interval;
* a scan over every station stands in for the idle heap.

Both sides must produce **byte-identical** serialized results across
admission modes, queue disciplines, and fault scenarios, under
``--sanitize strict`` so every invariant sweep runs.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.mixed_media import build_mixed_system
from repro.sim.sanitize import Sanitizer
from repro.simulation.config import ScaledConfig
from repro.simulation.policy import Request
from repro.simulation.runner import build_engine
from tests.oracles.scalar import arm_scalar_admission


@pytest.fixture
def scalar_oracle(monkeypatch):
    """Returns a callable that swaps every batched component for its
    scalar reference for the rest of the test, and makes the engine
    step every interval: the scalar pass maintains neither the
    queued-display lists nor the verdict index, so a CONTIGUOUS
    lookahead would read stale lanes.  The reference is "scalar
    pass, every interval"."""
    return lambda: arm_scalar_admission(monkeypatch)


def run_blob(config) -> str:
    engine = build_engine(config)
    result = engine.run(config.warmup_intervals, config.measure_intervals)
    return json.dumps(result.to_dict(), sort_keys=True)


CASES = {
    "staggered_fragmented": ScaledConfig(scale=100).with_(
        technique="staggered", num_stations=8, sanitize="strict"
    ),
    "simple_contiguous": ScaledConfig(scale=100).with_(
        technique="simple", num_stations=8, sanitize="strict"
    ),
    "staggered_sjf": ScaledConfig(scale=50).with_(
        technique="staggered", num_stations=12, queue_discipline="sjf",
        sanitize="strict",
    ),
    "staggered_largest_first": ScaledConfig(scale=50).with_(
        technique="staggered", num_stations=12,
        queue_discipline="largest_first", sanitize="strict",
    ),
    # D = 20, M = 5: forty stations queue ~36 deep against four display
    # slots, so the claim budget mostly sits between 0 and M — the
    # batched pass's widened fast-out and early walk exit both fire.
    "staggered_deep_queue": ScaledConfig(scale=50).with_(
        technique="staggered", num_stations=40, sanitize="strict"
    ),
    "fcfs_head_of_line": ScaledConfig(scale=50).with_(
        technique="staggered", num_stations=12, queue_discipline="fcfs",
        sanitize="strict",
    ),
    "faulted_mirror": ScaledConfig(scale=50).with_(
        technique="staggered", num_stations=8, mttf=60.0, mttr=8.0,
        redundancy="mirror", sanitize="strict",
    ),
    "faulted_abort": ScaledConfig(scale=50).with_(
        technique="staggered", num_stations=8, mttf=40.0, mttr=6.0,
        redundancy="none", on_fault="abort", sanitize="strict",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_run_is_byte_identical_to_scalar(name, scalar_oracle):
    config = CASES[name]
    batched = run_blob(config)
    scalar_oracle()
    assert run_blob(config) == batched


def test_mixed_degree_flood_is_identical_to_scalar(scalar_oracle):
    """Degrees 2 and 6 in one catalog: the batched walk may stop only
    once the budget is below the *smallest* degree (a bound on the
    largest would skip narrow displays the scalar pass admits)."""

    def completion_log():
        mix = (("narrow", 40.0, 6), ("wide", 120.0, 6))
        catalog, policy = build_mixed_system(
            num_disks=36, naive=False, mix=mix, num_subobjects=40
        )
        assert sorted({obj.degree for obj in catalog}) == [2, 6]
        for i, object_id in enumerate(list(catalog.object_ids) * 4):
            policy.submit(
                Request(request_id=i + 1, station_id=i, object_id=object_id,
                        issued_at=0),
                interval=0,
            )
        sanitizer = Sanitizer("strict")
        log = []
        for interval in range(3000):
            log.extend(
                (done.request.request_id, done.deliver_start, done.finished_at)
                for done in policy.advance(interval)
            )
            sanitizer.check_interval(policy, interval)
            if policy.pending_count() == 0:
                break
        return log

    batched = completion_log()
    assert len(batched) == 48
    scalar_oracle()
    assert completion_log() == batched


@pytest.mark.parametrize("discipline", ["scan", "sjf", "largest_first", "fcfs"])
def test_batch_index_is_built_for_every_discipline_but_fcfs(discipline):
    engine = build_engine(
        CASES["staggered_fragmented"].with_(queue_discipline=discipline)
    )
    assert (engine.policy._batch_index is None) == (discipline == "fcfs")
