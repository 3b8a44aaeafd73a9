"""End-to-end byte-identity of the production kernel and a scalar oracle.

The production path batches two things: whole-queue admission
verdicts (:mod:`repro.core.batch`) and the station idle heap.  Their
scalar references live in :mod:`tests.oracles.scalar` and are reached
by monkeypatching:

* the scalar admission pass (one probe per display the walk reaches,
  no verdicts) stands in for
  :meth:`StaggeredStripingPolicy._admission_pass` under every queue
  discipline, and the engine steps every interval;
* a scan over every station stands in for the idle heap.

Both sides must produce **byte-identical** serialized results across
admission modes, queue disciplines, and fault scenarios, under
``--sanitize strict`` so every invariant sweep runs.
"""

from __future__ import annotations

import json

import pytest

from repro.core.admission import AdmissionMode
from repro.core.disk_manager import DiskManager
from repro.core.object_manager import ObjectManager
from repro.core.scheduler import StaggeredStripingPolicy
from repro.hardware.disk import TABLE3_DISK
from repro.hardware.disk_array import DiskArray
from repro.media.catalog import Catalog
from repro.obs import Observability
from repro.sim.sanitize import Sanitizer
from repro.simulation.config import ScaledConfig
from repro.simulation.policy import Request
from repro.simulation.runner import build_engine, run_experiment
from tests.conftest import make_object
from tests.oracles.mixed_media import build_mixed_system
from tests.oracles.scalar import arm_scalar_admission


@pytest.fixture
def scalar_oracle(monkeypatch):
    """Returns a callable that swaps every batched component for its
    scalar reference for the rest of the test, and makes the engine
    step every interval.  The reference is "scalar pass, every
    interval"."""
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
    # Fault aborts requeue a bare request at the head, in front of a
    # partially claimed one: fcfs then queues two displays and takes
    # the verdicts, stopping at a False one.
    "fcfs_faulted_abort": ScaledConfig(scale=50).with_(
        technique="staggered", num_stations=8, queue_discipline="fcfs",
        mttf=40.0, mttr=6.0, redundancy="none", on_fault="abort",
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_claim_counters_match_scalar(name, scalar_oracle):
    """The pass counts one claim attempt per display its walk reaches,
    probed or skipped, so the ``--obs-level metrics`` snapshot equals
    the scalar walk's, which probes every display it reaches."""

    def metrics():
        session = Observability(level="metrics")
        return run_experiment(CASES[name], obs=session).observation["metrics"]

    batched = metrics()
    assert batched["admission.claim_attempts"]["value"] > 0
    scalar_oracle()
    assert metrics() == batched


def flood_log(policy, requests: int, horizon: int = 3000):
    """Submit ``requests`` requests cycling over the catalog at interval
    0, then advance under the strict sanitizer until the queue drains;
    returns every completion as (request, deliver_start, finished_at)."""
    object_ids = list(policy.catalog.object_ids)
    for i in range(requests):
        policy.submit(
            Request(request_id=i + 1, station_id=i,
                    object_id=object_ids[i % len(object_ids)], issued_at=0),
            interval=0,
        )
    sanitizer = Sanitizer("strict")
    log = []
    for interval in range(horizon):
        log.extend(
            (done.request.request_id, done.deliver_start, done.finished_at)
            for done in policy.advance(interval)
        )
        sanitizer.check_interval(policy, interval)
        if policy.pending_count() == 0:
            break
    return log


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
        return flood_log(policy, requests=4 * len(catalog.object_ids))

    batched = completion_log()
    assert len(batched) == 48
    scalar_oracle()
    assert completion_log() == batched


@pytest.mark.parametrize("discipline", ["scan", "fcfs", "sjf"])
def test_half_slot_flood_is_identical_to_scalar(discipline, scalar_oracle):
    """Low-bandwidth displays (§3.2.3): with half-slot objects on, an
    odd number of logical half-disks leaves a one-half last lane, so
    the waiting lists carry lanes of 1 and 2 halves side by side, and
    two one-half lanes can share a virtual disk."""

    def completion_log():
        # B_disk = 20: 10 -> 1 half, 30 -> [2, 1], 50 -> [2, 2, 1],
        # 40 -> [2, 2] (full bandwidth).
        objects = [
            make_object(i, bandwidth=bandwidth, num_subobjects=30,
                        degree=-(-int(bandwidth) // 20))
            for i, bandwidth in enumerate((10.0, 30.0, 50.0, 40.0, 10.0, 30.0))
        ]
        catalog = Catalog(objects)
        policy = StaggeredStripingPolicy(
            catalog=catalog,
            disk_manager=DiskManager(
                array=DiskArray(model=TABLE3_DISK, num_disks=14), stride=1
            ),
            object_manager=ObjectManager(catalog, capacity=catalog.total_size),
            admission_mode=AdmissionMode.FRAGMENTED,
            queue_discipline=discipline,
            half_slot_objects=True,
            disk_bandwidth=20.0,
        )
        policy.preload(catalog.object_ids)
        return flood_log(policy, requests=60)

    production = completion_log()
    assert len(production) == 60
    scalar_oracle()
    assert completion_log() == production
