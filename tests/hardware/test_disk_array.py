"""Tests for the disk array: storage accounting and failure state."""

from __future__ import annotations

import pytest

from repro.errors import CapacityError, ConfigurationError, FaultError
from repro.hardware.disk import TABLE3_DISK
from repro.hardware.disk_array import DiskArray


@pytest.fixture
def array():
    return DiskArray(model=TABLE3_DISK, num_disks=6)


def only(disk: int, cylinders: float, num_disks: int = 6):
    """A charge vector holding ``cylinders`` on ``disk`` alone."""
    charges = [0] * num_disks
    charges[disk] = cylinders
    return charges


class TestStorage:
    def test_store_and_evict_roundtrip(self, array):
        array.store_all(only(2, 100.0))
        assert array.used_cylinders(2) == 100.0
        array.evict_all(only(2, 60.0))
        assert array.used_cylinders(2) == pytest.approx(40.0)

    def test_overflow_rejected(self, array):
        with pytest.raises(CapacityError):
            array.store_all(only(0, TABLE3_DISK.num_cylinders + 1))

    def test_underflow_rejected(self, array):
        array.store_all(only(0, 5.0))
        with pytest.raises(CapacityError):
            array.evict_all(only(0, 6.0))

    def test_overflow_names_the_first_full_drive_and_changes_nothing(self, array):
        array.store_all([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        version = array.version
        room = TABLE3_DISK.num_cylinders
        with pytest.raises(CapacityError, match=r"^disk 3 overflow: 4\.00 \+ "):
            array.store_all([1.0, 0, 0, room, room, 1.0])
        assert [array.used_cylinders(d) for d in range(6)] == [
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
        ]
        assert array.version == version

    def test_underflow_names_the_first_short_drive_and_changes_nothing(self, array):
        array.store_all([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        version = array.version
        with pytest.raises(
            CapacityError, match=r"^disk 2 underflow: evicting 4\.00 from 3\.00"
        ):
            array.evict_all([1.0, 2.0, 4.0, 4.0, 9.0, 0])
        assert [array.used_cylinders(d) for d in range(6)] == [
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
        ]
        assert array.version == version

    def test_a_refund_within_the_tolerance_clamps_to_zero(self, array):
        array.store_all(only(1, 5.0))
        array.evict_all(only(1, 5.0 + 1e-10))
        assert array.used_cylinders(1) == 0.0


class TestFailures:
    def test_fail_marks_the_drive_down(self, array):
        array.fail(2)
        assert array.is_failed(2)
        assert array.failed_disks() == [2]
        assert array.failed_count == 1

    def test_fail_reports_the_rebuild_work(self, array):
        array.store_all(only(2, 100.0))
        assert array.fail(2) == pytest.approx(100.0)

    def test_double_fail_and_stray_repair_rejected(self, array):
        array.fail(2)
        with pytest.raises(FaultError):
            array.fail(2)
        with pytest.raises(FaultError):
            array.repair(0)

    def test_repair_brings_the_drive_back(self, array):
        array.store_all(only(2, 100.0))
        array.fail(2)
        array.repair(2)
        assert not array.is_failed(2)
        assert array.failed_disks() == []
        assert array.failed_count == 0
        # Storage accounting is untouched by the failure and repair.
        assert array.used_cylinders(2) == pytest.approx(100.0)


def test_rejects_empty_array():
    with pytest.raises(ConfigurationError):
        DiskArray(model=TABLE3_DISK, num_disks=0)
