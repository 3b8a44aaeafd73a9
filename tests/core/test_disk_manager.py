"""Tests for the Disk Manager: placement and storage accounting, and
the physical replay oracle (tests/oracles/physical.py) run against
its schedules."""

from __future__ import annotations

import pytest

from repro.core.admission import AdmissionMode, Admitter
from repro.core.disk_manager import DiskManager
from repro.core.display import Display
from repro.errors import ConfigurationError, LayoutError, SchedulingError
from repro.hardware.disk import TABLE3_DISK
from repro.hardware.disk_array import DiskArray
from tests.conftest import make_object
from tests.oracles.physical import replay_interval


@pytest.fixture
def manager():
    array = DiskArray(model=TABLE3_DISK, num_disks=10)
    return DiskManager(array=array, stride=1, fragment_cylinders=1)


class TestPlacement:
    def test_round_robin_start_disks(self, manager):
        a = make_object(0, num_subobjects=4, degree=2)
        b = make_object(1, num_subobjects=4, degree=2)
        assert manager.place_object(a) == 0
        assert manager.place_object(b) == 1

    def test_alignment_respected(self):
        array = DiskArray(model=TABLE3_DISK, num_disks=9)
        manager = DiskManager(array=array, stride=3, placement_alignment=3)
        starts = [
            manager.place_object(make_object(i, num_subobjects=3, degree=3))
            for i in range(4)
        ]
        assert starts == [0, 3, 6, 0]

    def test_storage_charged_per_disk(self, manager):
        obj = make_object(0, num_subobjects=10, degree=2)  # 20 fragments
        manager.place_object(obj, start_disk=0)
        assert sum(
            manager.array.used_cylinders(d) for d in range(10)
        ) == pytest.approx(20.0)

    def test_evict_reclaims_storage(self, manager):
        obj = make_object(0, num_subobjects=10, degree=2)
        manager.place_object(obj, start_disk=0)
        manager.evict_object(0)
        assert all(manager.array.used_cylinders(d) == 0.0 for d in range(10))
        assert not manager.is_placed(0)

    def test_evict_unplaced_raises(self, manager):
        with pytest.raises(LayoutError):
            manager.evict_object(42)

    def test_alignment_validation(self):
        array = DiskArray(model=TABLE3_DISK, num_disks=4)
        with pytest.raises(ConfigurationError):
            DiskManager(array=array, stride=1, placement_alignment=0)

    def test_batch_with_a_placed_object_changes_nothing(self, manager):
        manager.place_object(make_object(0, num_subobjects=4, degree=2))
        before = [manager.array.used_cylinders(d) for d in range(10)]
        batch = [make_object(i, num_subobjects=4, degree=2) for i in (1, 2, 0)]
        with pytest.raises(LayoutError):
            manager.place_objects(batch)
        assert manager.layout.placed_objects() == [0]
        assert [manager.array.used_cylinders(d) for d in range(10)] == before
        assert manager.place_object(batch[0]) == 1


def _laned(display_id, obj, slots, ready, degree_halves=None):
    """A display whose lanes sit on ``slots`` from ``ready`` on, set by
    hand without going through the pool."""
    display = Display(
        display_id=display_id, obj=obj, start_disk=0, requested_at=0,
        degree_halves=degree_halves,
    )
    for lane, slot in zip(display.lanes, slots):
        lane.slot = slot
        lane.ready = ready
    return display


class TestValidationMode:
    def test_replays_display_reads_cleanly(self, manager):
        obj = make_object(0, num_subobjects=6, degree=3)
        manager.place_object(obj, start_disk=0)
        display = Display(display_id=1, obj=obj, start_disk=0, requested_at=0)
        admitter = Admitter(manager.pool, AdmissionMode.FRAGMENTED)
        assert admitter.try_claim(display, 0).complete
        for interval in range(6):
            replay_interval(manager, [display], interval)

    def test_detects_layout_mismatch(self, manager):
        obj = make_object(0, num_subobjects=6, degree=2)
        manager.place_object(obj, start_disk=0)
        display = Display(display_id=1, obj=obj, start_disk=0, requested_at=0)
        admitter = Admitter(manager.pool, AdmissionMode.FRAGMENTED)
        admitter.try_claim(display, 0)
        # Corrupt a lane: point it at the wrong virtual disk.
        display.lanes[0].slot = (display.lanes[0].slot + 3) % 10
        with pytest.raises(LayoutError):
            replay_interval(manager, [display], 0)

    def test_two_aligned_displays_never_collide(self, manager):
        a = make_object(0, num_subobjects=8, degree=3)
        b = make_object(1, num_subobjects=8, degree=3)
        manager.place_object(a, start_disk=0)
        manager.place_object(b, start_disk=5)
        admitter = Admitter(manager.pool, AdmissionMode.FRAGMENTED)
        da = Display(display_id=1, obj=a, start_disk=0, requested_at=0)
        db = Display(display_id=2, obj=b, start_disk=5, requested_at=0)
        assert admitter.try_claim(da, 0).complete
        assert admitter.try_claim(db, 0).complete
        for interval in range(8):
            replay_interval(manager, [da, db], interval)

    def test_two_full_reads_on_one_drive_raise(self, manager):
        first = _laned(1, make_object(1, degree=1), slots=[2], ready=0)
        second = _laned(2, make_object(2, degree=1), slots=[2], ready=0)
        with pytest.raises(SchedulingError, match="drive 2 asked for 4 halves"):
            replay_interval(manager, [first, second], 0)

    def test_two_half_reads_share_a_drive(self, manager):
        halves = [
            _laned(i, make_object(i, degree=1), [2], 0, degree_halves=1)
            for i in range(3)
        ]
        assert replay_interval(manager, halves[:2], 0) == {2: 2}
        with pytest.raises(SchedulingError):
            replay_interval(manager, halves, 0)

    def test_a_lane_off_its_fragment_home_raises(self, manager):
        obj = make_object(0, degree=2)
        manager.place_object(obj, start_disk=0)
        # Fragment X_{0.1} lives on drive 1; the lane's slot sits over 3.
        display = _laned(1, obj, slots=[0, 3], ready=0)
        with pytest.raises(LayoutError, match="reads drive 3 but fragment lives on 1"):
            replay_interval(manager, [display], 0)

    def test_reads_are_counted_per_interval(self, manager):
        """Each interval is replayed from zero: the drives a display
        reads move with the rotation, and a finished display reads
        nothing."""
        obj = make_object(0, num_subobjects=4, degree=2)
        manager.place_object(obj, start_disk=0)
        display = _laned(1, obj, slots=[0, 1], ready=0)
        assert replay_interval(manager, [display], 0) == {0: 2, 1: 2}
        assert replay_interval(manager, [display], 1) == {1: 2, 2: 2}
        assert replay_interval(manager, [display], 4) == {}
