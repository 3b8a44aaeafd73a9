"""Tests for virtual disks and the slot pool."""

from __future__ import annotations

import pytest

from repro.core.virtual_disks import (
    HALVES_PER_SLOT,
    SlotPool,
    first_arrival,
    physical_disk_of_slot,
    slot_at_physical,
)
from repro.errors import ConfigurationError, SchedulingError
from repro.sim.sanitize import Sanitizer


class TestGeometry:
    def test_physical_shifts_right_by_stride(self):
        assert physical_disk_of_slot(0, 0, 1, 8) == 0
        assert physical_disk_of_slot(0, 1, 1, 8) == 1
        assert physical_disk_of_slot(0, 3, 2, 8) == 6
        assert physical_disk_of_slot(6, 2, 1, 8) == 0  # the Fig. 6 slot

    def test_slot_at_is_inverse_of_physical(self):
        for d in range(12):
            for t in range(25):
                slot = slot_at_physical(d, t, 3, 12)
                assert physical_disk_of_slot(slot, t, 3, 12) == d

    def test_virtual_disk_reads_consecutive_subobjects(self):
        """§3.2.1: the virtual disk reading the first fragment of a
        subobject at interval t reads the first fragment of the next
        subobject at t+1 (fragments are k apart)."""
        stride, d = 3, 12
        start = 4
        for i in range(10):
            fragment_disk = (start + i * stride) % d
            slot = slot_at_physical(fragment_disk, i, stride, d)
            assert slot == slot_at_physical(start, 0, stride, d)


class TestFirstArrival:
    def test_stride_one_simple_difference(self):
        assert first_arrival(6, 0, 1, 8, 0) == 2  # Fig. 6: slot 6 -> drive 0
        assert first_arrival(1, 1, 1, 8, 0) == 0

    def test_not_before_pushes_to_next_cycle(self):
        assert first_arrival(1, 1, 1, 8, 1) == 8

    def test_unreachable_with_composite_gcd(self):
        # k=5, D=1000: slot 0 only visits multiples of 5.
        assert first_arrival(0, 3, 5, 1000, 0) is None
        assert first_arrival(0, 10, 5, 1000, 0) == 2

    def test_coprime_stride_reaches_everything(self):
        for target in range(9):
            arrival = first_arrival(0, target, 2, 9, 0)
            assert arrival is not None
            assert (0 + 2 * arrival) % 9 == target


class TestSlotPoolOwnership:
    @pytest.fixture
    def pool(self):
        return SlotPool(num_disks=8, stride=1)

    def test_claim_and_release(self, pool):
        pool.claim(3, "d1")
        assert pool.owners_of(3) == {"d1": 2}
        assert not pool.is_free(3)
        assert pool.release(3, "d1") == 2
        assert pool.is_free(3)

    def test_double_claim_rejected(self, pool):
        pool.claim(3, "d1")
        with pytest.raises(SchedulingError):
            pool.claim(3, "d2")

    def test_half_claims_coexist(self, pool):
        pool.claim(3, "a", halves=1)
        pool.claim(3, "b", halves=1)
        assert pool.free_halves(3) == 0
        with pytest.raises(SchedulingError):
            pool.claim(3, "c", halves=1)

    def test_is_free_with_halves(self, pool):
        pool.claim(3, "a", halves=1)
        assert pool.is_free(3, halves=1)
        assert not pool.is_free(3, halves=2)

    def test_release_wrong_owner_rejected(self, pool):
        pool.claim(3, "a")
        with pytest.raises(SchedulingError):
            pool.release(3, "b")

    def test_release_all(self, pool):
        pool.claim(1, "a")
        pool.claim(5, "a", halves=1)
        pool.claim(5, "b", halves=1)
        assert pool.release_all("a") == 2
        assert pool.is_free(1)
        assert pool.free_halves(5) == 1

    def test_counts(self, pool):
        assert pool.free_count == 8
        pool.claim(0, "a")
        pool.claim(1, "b", halves=1)
        assert pool.busy_count == 2
        assert pool.free_count == 6
        assert pool.slots_of("a") == [0]

    def test_invalid_halves(self, pool):
        with pytest.raises(SchedulingError):
            pool.claim(0, "a", halves=0)
        with pytest.raises(SchedulingError):
            pool.claim(0, "a", halves=3)

    @staticmethod
    def _state(pool):
        return (
            {z: dict(holders) for z, holders in pool._owners.items()},
            list(pool._free),
            list(pool._buckets),
            pool.free_half_total,
            pool.version,
        )

    @pytest.mark.parametrize("bad_call", [
        lambda pool: pool.claim(3, "c", halves=1),  # slot 3 is full
        lambda pool: pool.claim(5, "c", halves=2),  # slot 5 has one free
        lambda pool: pool.claim(0, "c", halves=0),
        lambda pool: pool.claim(0, "c", halves=3),
        lambda pool: pool.release(5, "b"),  # b holds nothing on 5
        lambda pool: pool.release(0, "a"),  # nobody holds slot 0
    ])
    def test_rejected_call_changes_nothing(self, pool, bad_call):
        pool.claim(3, "a", halves=1)
        pool.claim(3, "b", halves=1)
        pool.claim(5, "a", halves=1)
        before = self._state(pool)
        with pytest.raises(SchedulingError):
            bad_call(pool)
        assert self._state(pool) == before

    def test_oversubscription_error_names_the_holders(self, pool):
        pool.claim(3, "a", halves=1)
        pool.claim(3, "b", halves=1)
        with pytest.raises(SchedulingError) as info:
            pool.claim(3, "c", halves=1)
        assert str(info.value) == (
            "virtual disk 3 oversubscribed: {'a': 1, 'b': 1} + 'c':1"
        )


class TestHolds:
    """Owner-less one-interval holds share the free-half index with
    claims and all return at once with ``drop_holds``."""

    @pytest.fixture
    def pool(self):
        pool = SlotPool(num_disks=8, stride=1)
        pool.claim(3, "a", halves=1)
        pool.claim(5, "b")
        return pool

    @staticmethod
    def _state(pool):
        return TestSlotPoolOwnership._state(pool) + (list(pool._held),)

    def test_hold_takes_halves_without_an_owner(self, pool):
        pool.hold(3, 1)
        pool.hold(6, 2)
        assert pool.owners_of(3) == {"a": 1}
        assert pool.owners_of(6) == {}
        assert pool.free_halves(3) == pool.free_halves(6) == 0
        assert pool.claimed_halves(6) == 2
        assert pool.busy_count == 3
        assert pool.free_count == 5
        assert pool.free_slots() == [0, 1, 2, 4, 7]
        assert sorted(pool.busy_physical_disks(2)) == [0, 5, 7]
        assert pool.slots_of("a") == [3]

    @pytest.mark.parametrize("slot, halves", [
        (5, 1),  # slot 5 is full
        (3, 2),  # slot 3 has one free
        (0, 0),
        (0, 3),
    ])
    def test_rejected_hold_changes_nothing(self, pool, slot, halves):
        pool.hold(0, 1)
        before = self._state(pool)
        with pytest.raises(SchedulingError):
            pool.hold(slot, halves)
        assert self._state(pool) == before

    def test_oversubscription_error_names_the_holders(self, pool):
        with pytest.raises(SchedulingError) as info:
            pool.hold(3, 2)
        assert str(info.value) == (
            "virtual disk 3 oversubscribed: {'a': 1} + hold:2"
        )

    def test_drop_holds_restores_the_index_exactly(self, pool):
        owners, free, buckets, total, version, held = self._state(pool)
        pool.hold(3, 1)
        pool.hold(0, 1)
        pool.hold(0, 1)  # a slot may be held twice
        pool.hold(7, 2)
        assert pool.free_half_total == total - 5
        pool.drop_holds()
        assert self._state(pool)[:4] == (owners, free, buckets, total)
        assert pool._held == held == []
        assert pool.version > version + 4

    def test_sanitizer_recounts_holds(self, pool):
        sanitizer = Sanitizer(mode="check")
        pool.hold(3, 1)
        pool.hold(0, 2)
        pool.verify_invariants(sanitizer, interval=0)
        assert sanitizer.total == 0
        pool._held[1] = (0, 1)  # a hold that lost half its count
        pool.hold(1, 1)  # a real mutation re-arms the sweep
        pool.verify_invariants(sanitizer, interval=1)
        assert set(sanitizer.counts) == {"occ_index"}

    def test_sanitizer_flags_a_hold_over_a_full_slot(self, pool):
        sanitizer = Sanitizer(mode="check")
        pool._held.append((5, 1))  # slot 5 is owned in full
        pool.hold(1, 1)
        pool.verify_invariants(sanitizer, interval=0)
        assert sanitizer.counts["half_slots"] == 1


class TestFreeRuns:
    """Fully free virtual disks, read from the capacity buckets and
    the ascending free-slot list."""

    def test_empty_pool_is_one_run(self):
        pool = SlotPool(num_disks=8, stride=1)
        assert pool.free_slots() == list(range(8))
        assert pool._buckets[HALVES_PER_SLOT] == 8

    def test_full_pool_has_no_runs(self):
        pool = SlotPool(num_disks=4, stride=1)
        for z in range(4):
            pool.claim(z, f"d{z}")
        assert pool.free_slots() == []
        assert pool._buckets[HALVES_PER_SLOT] == 0

    def test_figure6_pattern(self):
        """Fig. 6: free slots at 1 and 6, two intervening busy pairs."""
        pool = SlotPool(num_disks=8, stride=1)
        for z in (0, 7, 2, 3, 4, 5):
            pool.claim(z, f"other{z}")
        assert pool.free_slots() == [1, 6]
        assert pool._free == [0, 2, 0, 0, 0, 0, 2, 0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SlotPool(num_disks=0, stride=1)
        with pytest.raises(ConfigurationError):
            SlotPool(num_disks=8, stride=0)
