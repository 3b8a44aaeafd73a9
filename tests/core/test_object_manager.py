"""Tests for the Object Manager: residency, pins, LFU/LRU replacement."""

from __future__ import annotations

import pytest

from repro.core.object_manager import ObjectManager, ReplacementPolicy
from repro.errors import CapacityError, ConfigurationError
from repro.media.catalog import Catalog
from tests.conftest import make_object


@pytest.fixture
def catalog():
    # Five objects of 72 mbit each (2 subobjects x 3 fragments x 12).
    return Catalog([make_object(i, num_subobjects=2, degree=3,
                                fragment_size=12.0) for i in range(5)])


@pytest.fixture
def manager(catalog):
    # Room for exactly three objects.
    return ObjectManager(catalog, capacity=3 * 72.0)


class TestResidency:
    def test_add_and_remove(self, manager):
        manager.add_resident(0)
        assert manager.is_resident(0)
        assert manager.used == pytest.approx(72.0)
        manager.remove_resident(0)
        assert not manager.is_resident(0)
        assert manager.used == 0.0
        assert manager.evictions == 1

    def test_add_is_idempotent(self, manager):
        manager.add_resident(0)
        manager.add_resident(0)
        assert manager.used == pytest.approx(72.0)

    def test_overflow_rejected(self, manager):
        for object_id in range(3):
            manager.add_resident(object_id)
        with pytest.raises(CapacityError):
            manager.add_resident(3)

    def test_reservation_converts_without_double_charge(self, manager):
        manager.reserve(0)
        assert manager.used == pytest.approx(72.0)
        manager.add_resident(0)
        assert manager.used == pytest.approx(72.0)
        assert manager.is_resident(0)

class TestAccessAccounting:
    def test_hit_and_miss_counters(self, manager):
        manager.add_resident(0)
        assert manager.record_access(0, interval=1)
        assert not manager.record_access(1, interval=2)
        assert manager.hits == 1
        assert manager.misses == 1
        assert manager.hit_rate() == pytest.approx(0.5)

    def test_frequency_accumulates(self, manager):
        for _ in range(3):
            manager.record_access(2, interval=0)
        assert manager.frequency(2) == 3


class TestPins:
    def test_pinned_object_not_evictable(self, manager):
        manager.add_resident(0)
        manager.add_resident(1)
        manager.pin(0)
        assert manager.choose_victim() == 1
        manager.pin(1)
        assert manager.choose_victim() is None

    def test_unpin_restores_evictability(self, manager):
        manager.add_resident(0)
        manager.pin(0)
        manager.unpin(0)
        assert manager.choose_victim() == 0

    def test_unbalanced_unpin_raises(self, manager):
        with pytest.raises(CapacityError):
            manager.unpin(0)

    def test_evicting_pinned_raises(self, manager):
        manager.add_resident(0)
        manager.pin(0)
        with pytest.raises(CapacityError):
            manager.remove_resident(0)


class TestLFUReplacement:
    def test_least_frequent_evicted_first(self, manager):
        for object_id in range(3):
            manager.add_resident(object_id)
        manager.record_access(0, 1)
        manager.record_access(0, 2)
        manager.record_access(1, 3)
        # Object 2: frequency 0 -> victim.
        assert manager.choose_victim() == 2

    def test_tie_broken_by_recency(self, manager):
        manager.add_resident(0)
        manager.add_resident(1)
        manager.record_access(0, 5)
        manager.record_access(1, 9)
        assert manager.choose_victim() == 0  # same freq, older access

    def test_make_room_evicts_until_fit(self, manager, catalog):
        for object_id in range(3):
            manager.add_resident(object_id)
        manager.record_access(2, 1)
        fits, evicted = manager.make_room(2 * 72.0)
        assert fits
        assert len(evicted) == 2
        assert 2 not in evicted  # the accessed object survived

    def test_make_room_reports_failure_with_partial_evictions(self, manager):
        for object_id in range(3):
            manager.add_resident(object_id)
        manager.pin(1)
        manager.pin(2)
        fits, evicted = manager.make_room(3 * 72.0)
        assert not fits
        assert evicted == [0]

    def test_impossible_size_raises(self, manager):
        with pytest.raises(CapacityError):
            manager.make_room(10_000.0)


class TestLRUReplacement:
    def test_least_recent_evicted(self, catalog):
        manager = ObjectManager(
            catalog, capacity=3 * 72.0, policy=ReplacementPolicy.LRU
        )
        for object_id in range(3):
            manager.add_resident(object_id)
        manager.record_access(0, 10)
        manager.record_access(1, 20)
        manager.record_access(2, 5)
        manager.record_access(2, 6)  # more frequent but older than 0, 1
        assert manager.choose_victim() == 2


def test_capacity_validation(catalog):
    with pytest.raises(ConfigurationError):
        ObjectManager(catalog, capacity=0.0)
