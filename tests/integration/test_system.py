"""Cross-module integration tests: whole-system invariants."""

from __future__ import annotations

import pytest

from repro.core.admission import AdmissionMode
from repro.core.disk_manager import DiskManager
from repro.core.object_manager import ObjectManager
from repro.core.scheduler import StaggeredStripingPolicy
from repro.core.tertiary_manager import TertiaryManager
from repro.hardware.disk import TABLE3_DISK
from repro.hardware.disk_array import DiskArray
from repro.hardware.tertiary import TertiaryDevice
from repro.media.catalog import Catalog
from repro.media.tape_layout import TapeLayout, TapeOrder
from repro.simulation.config import ScaledConfig
from repro.simulation.policy import Request
from repro.simulation.runner import build_engine
from tests.conftest import make_object
from tests.oracles.physical import replay_interval


def build_validated_policy(num_disks=12, stride=1, mode=AdmissionMode.FRAGMENTED):
    objects = [make_object(i, num_subobjects=8, degree=3) for i in range(4)]
    catalog = Catalog(objects)
    array = DiskArray(model=TABLE3_DISK, num_disks=num_disks)
    disk_manager = DiskManager(array=array, stride=stride, placement_alignment=3)
    object_manager = ObjectManager(catalog, capacity=catalog.total_size)
    tertiary = TertiaryManager(
        device=TertiaryDevice(bandwidth=40.0, reposition_time=0.6),
        tape_layout=TapeLayout(TapeOrder.FRAGMENT_ORDERED),
        interval_length=0.6048,
        disk_bandwidth=20.0,
    )
    return StaggeredStripingPolicy(
        catalog=catalog,
        disk_manager=disk_manager,
        object_manager=object_manager,
        tertiary_manager=tertiary,
        admission_mode=mode,
    )


class TestPhysicalValidation:
    """Replay the scheduler's closed-form schedules drive by drive
    (tests/oracles/physical.py): no drive oversubscription, correct
    fragment homes."""

    @pytest.mark.parametrize("mode", list(AdmissionMode))
    def test_concurrent_displays_validate_every_interval(self, mode):
        policy = build_validated_policy(mode=mode)
        policy.preload([0, 1, 2, 3])
        for i in range(4):
            policy.submit(
                Request(request_id=i + 1, station_id=i, object_id=i, issued_at=0),
                interval=0,
            )
        for interval in range(40):
            policy.advance(interval)
            replay_interval(
                policy.disk_manager, policy._active.values(), interval
            )
            if policy.pending_count() == 0:
                break
        assert policy.completed == 4

    def test_validation_with_simple_striping_stride(self):
        policy = build_validated_policy(stride=3, mode=AdmissionMode.CONTIGUOUS)
        policy.preload([0, 1, 2, 3])
        for i in range(4):
            policy.submit(
                Request(request_id=i + 1, station_id=i, object_id=i, issued_at=0),
                interval=0,
            )
        for interval in range(60):
            policy.advance(interval)
            replay_interval(
                policy.disk_manager, policy._active.values(), interval
            )
            if policy.pending_count() == 0:
                break
        assert policy.completed == 4


class TestConservation:
    """Every request eventually completes; every slot comes home."""

    @pytest.mark.parametrize("technique", ["simple", "staggered", "vdr"])
    def test_closed_loop_conserves_requests(self, technique):
        config = ScaledConfig(
            technique=technique, num_stations=6, access_mean=2.0,
            warmup_intervals=0, measure_intervals=1200,
        )
        engine = build_engine(config)
        result = engine.run(0, 1200)
        issued = sum(s.requests_issued for s in engine.stations.stations)
        outstanding = engine.policy.pending_count()
        assert issued == result.completed + outstanding
        assert outstanding <= 6

    def test_slots_all_free_after_drain(self):
        config = ScaledConfig(
            technique="simple", num_stations=4, access_mean=1.0,
        )
        engine = build_engine(config)
        for _ in range(400):
            engine.step()
        # Stop issuing further requests and let the system drain
        # (displays are 300 intervals long; queued ones serialise).
        # Completions reset next_issue_at, so park the think time too.
        for station in engine.stations.stations:
            station.next_issue_at = 10**9
            station.think_intervals = 10**9
        for _ in range(4000):
            engine.step()
            if engine.policy.pending_count() == 0:
                break
        assert engine.policy.pending_count() == 0
        # A few more intervals for the trailing lane releases.
        for _ in range(5):
            engine.step()
        assert engine.policy.disk_manager.pool.free_count == config.num_disks


class TestHiccupFreedom:
    """An admitted display delivers one subobject per interval with no
    gaps — the paper's core guarantee."""

    def test_delivery_intervals_are_contiguous(self):
        policy = build_validated_policy()
        policy.preload([0, 1, 2, 3])
        deliveries = {}
        for i in range(4):
            policy.submit(
                Request(request_id=i + 1, station_id=i, object_id=i, issued_at=0),
                interval=0,
            )
        seen = {}
        for interval in range(60):
            policy.advance(interval)
            seen.update(policy._active)
            for display in seen.values():
                subobject = display.delivers_at(interval)
                if subobject is not None:
                    deliveries.setdefault(display.display_id, []).append(
                        (interval, subobject)
                    )
            if policy.pending_count() == 0:
                break
        assert len(deliveries) == 4
        for schedule in deliveries.values():
            intervals = [t for t, _ in schedule]
            subobjects = [s for _, s in schedule]
            assert intervals == list(range(intervals[0], intervals[0] + 8))
            assert subobjects == list(range(8))
