"""End-to-end byte-identity of the production kernel and a scalar oracle.

The production path batches three things: whole-queue admission
verdicts (:mod:`repro.core.batch`), the station idle heap, and
same-time cohort draining in the DES kernel.  Their scalar references
live only here and are reached by monkeypatching:

* the scalar :meth:`StaggeredStripingPolicy._admission_pass` (the pass
  fcfs always runs) stands in for the batched pass of scan, sjf and
  largest_first;
* a scan over every station, written as a comprehension below, stands
  in for the idle heap;
* one :meth:`Simulation.step` per calendar entry stands in for
  :meth:`Simulation.step_cohort` (exercised by the traced delivery of
  :mod:`repro.core.delivery`, whose lanes are kernel processes).

Both sides must produce **byte-identical** serialized results across
admission modes, queue disciplines, and fault scenarios, under
``--sanitize strict`` so every invariant sweep runs.
"""

from __future__ import annotations

import json

import pytest

from repro.core.delivery import run_fragmented_delivery
from repro.core.scheduler import StaggeredStripingPolicy
from repro.core.virtual_disks import SlotPool
from repro.experiments.mixed_media import build_mixed_system
from repro.sim.kernel import Simulation
from repro.sim.sanitize import Sanitizer
from repro.simulation.config import ScaledConfig
from repro.simulation.policy import Request
from repro.simulation.runner import build_engine
from repro.workload.stations import StationPool
from tests.conftest import make_object


def scanned_ready_requests(self, interval):
    """The station scan the idle heap replaces."""
    return [
        self._issue(station, interval)
        for station in self.stations
        if not (station.busy or interval < station.next_issue_at)
    ]


def single_entry_cohort(self):
    """One calendar entry per loop turn instead of a whole cohort."""
    return int(self.step())


@pytest.fixture
def scalar_oracle(monkeypatch):
    """Returns a callable that swaps every batched component for its
    scalar reference for the rest of the test."""

    def arm():
        monkeypatch.setattr(
            StaggeredStripingPolicy, "_admission_pass_batched",
            StaggeredStripingPolicy._admission_pass,
        )
        monkeypatch.setattr(StationPool, "ready_requests", scanned_ready_requests)
        monkeypatch.setattr(Simulation, "step_cohort", single_entry_cohort)

    return arm


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


@pytest.mark.parametrize("start_disk,lane_slots", [(0, [6, 1]), (2, [2, 3, 4])])
def test_traced_delivery_is_identical_under_per_entry_steps(
    start_disk, lane_slots, scalar_oracle
):
    """Algorithm 1's traced delivery runs one kernel process per lane,
    so its calendar holds many entries per instant — the case cohort
    draining must not reorder.  (The engines' calendars hold one
    process, so their cohorts are single entries.)"""

    def events():
        trace, offsets = run_fragmented_delivery(
            make_object(num_subobjects=6, degree=len(lane_slots)),
            start_disk=start_disk,
            lane_slots=lane_slots,
            pool=SlotPool(num_disks=8, stride=1),
        )
        return trace.events, offsets

    cohorts = events()
    scalar_oracle()
    assert events() == cohorts


@pytest.mark.parametrize("discipline", ["scan", "sjf", "largest_first", "fcfs"])
def test_batch_index_is_built_for_every_discipline_but_fcfs(discipline):
    engine = build_engine(
        CASES["staggered_fragmented"].with_(queue_discipline=discipline)
    )
    assert (engine.policy._batch_index is None) == (discipline == "fcfs")
