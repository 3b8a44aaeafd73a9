"""Property tests for the incremental occupancy indexes.

The indexes (:class:`repro.core.virtual_disks.SlotPool`'s free-half
list, capacity buckets and free-half total; :class:`DiskArray`'s
sorted failed-drive list) hold nothing but what ownership and the
drives' own flags already say: after *any* sequence of claims,
releases, failures and repairs they must answer every query exactly
as a brute-force recount would.  Hypothesis
drives random operation sequences and checks that after every step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.virtual_disks import HALVES_PER_SLOT, SlotPool
from repro.errors import FaultError, SchedulingError
from repro.hardware.disk import TABLE3_DISK
from repro.hardware.disk_array import DiskArray
from repro.sim.sanitize import Sanitizer
from tests.oracles.scalar import pool_brute_force_free

# One operation: (kind, slot/disk selector, owner selector, halves).
# Selectors are reduced modulo the current domain inside the test so
# shrinking stays effective.
ops = st.lists(
    st.tuples(
        st.sampled_from(["claim", "release", "release_all", "fail", "repair"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=HALVES_PER_SLOT),
    ),
    max_size=60,
)


def assert_pool_index_consistent(pool: SlotPool) -> None:
    free = pool_brute_force_free(pool)
    assert pool._free == free
    assert pool._free_half_total == sum(free)
    buckets = [0] * (HALVES_PER_SLOT + 1)
    for h in free:
        buckets[h] += 1
    assert pool._buckets == buckets


@given(st.integers(min_value=1, max_value=12), ops)
@settings(max_examples=120, deadline=None)
def test_slot_pool_index_matches_brute_force(num_disks, operations):
    """Every pool operation's outcome and every occupancy query must
    agree with a brute-force recount from ``owners_of()``."""
    pool = SlotPool(num_disks=num_disks, stride=1)
    for kind, slot, owner, halves in operations:
        slot %= num_disks
        if kind in ("fail", "repair"):
            continue  # DiskArray-only operations
        before = pool_brute_force_free(pool)
        held = [pool.owners_of(z).get(owner, 0) for z in range(num_disks)]
        if kind == "claim":
            if before[slot] >= halves:
                pool.claim(slot, owner, halves=halves)
            else:
                with pytest.raises(SchedulingError):
                    pool.claim(slot, owner, halves=halves)
        elif kind == "release":
            if held[slot]:
                assert pool.release(slot, owner) == held[slot]
            else:
                with pytest.raises(SchedulingError):
                    pool.release(slot, owner)
        else:
            assert pool.release_all(owner) == sum(1 for h in held if h)
        assert_pool_index_consistent(pool)
        free = pool_brute_force_free(pool)
        for z in range(num_disks):
            assert pool.free_halves(z) == free[z]
            assert pool.claimed_halves(z) == HALVES_PER_SLOT - free[z]
        assert pool.free_half_total == sum(free)
        full = [z for z in range(num_disks) if free[z] == HALVES_PER_SLOT]
        assert pool.free_count == len(full)
        assert pool.free_slots() == full


@given(st.integers(min_value=1, max_value=10), ops)
@settings(max_examples=120, deadline=None)
def test_disk_array_counts_match_brute_force(num_disks, operations):
    """The array's sorted failed-drive list must match a rescan of
    every drive's ``is_failed`` after arbitrary fail/repair (rebuild)
    sequences."""
    array = DiskArray(model=TABLE3_DISK, num_disks=num_disks)
    for kind, disk, _owner, _halves in operations:
        disk %= num_disks
        try:
            if kind == "fail":
                array.fail(disk)
            elif kind == "repair":
                array.repair(disk)
        except FaultError:
            pass
        failed = [d for d in range(num_disks) if array.is_failed(d)]
        assert array.failed_count == len(failed)
        assert array.failed_disks() == failed


@given(st.integers(min_value=1, max_value=12), ops)
@settings(max_examples=60, deadline=None)
def test_sanitize_sweep_is_clean_after_any_sequence(num_disks, operations):
    """The sanitizer's occ_index cross-check never fires on states
    reached through the public API, and the clean-skip memo never
    suppresses a sweep of changed state."""
    pool = SlotPool(num_disks=num_disks, stride=1)
    sanitizer = Sanitizer(mode="check")
    for kind, slot, owner, halves in operations:
        slot %= num_disks
        if kind in ("fail", "repair"):
            continue
        try:
            if kind == "claim":
                pool.claim(slot, owner, halves=halves)
            elif kind == "release":
                pool.release(slot, owner)
            else:
                pool.release_all(owner)
        except SchedulingError:
            pass
        pool.verify_invariants(sanitizer, interval=0)
        assert sanitizer.total == 0
        # The memo is pinned to the current version: any mutation bumps
        # the version, so the next sweep after a change always runs.
        assert pool._verified_clean_version == pool.version


def test_clean_skip_memo_does_not_mask_corruption():
    """Direct corruption after a clean sweep is still caught on the
    next sweep once the pool changes (version bump) — and an unclean
    sweep never arms the memo."""
    pool = SlotPool(num_disks=4, stride=1)
    sanitizer = Sanitizer(mode="check")
    pool.claim(0, "a")
    pool.verify_invariants(sanitizer, interval=0)
    assert sanitizer.total == 0
    # Corrupt the index behind the pool's back; the memoed sweep skips
    # (version unchanged — this is exactly the documented trade-off)...
    pool._free_half_total += 1
    pool.verify_invariants(sanitizer, interval=1)
    assert sanitizer.total == 0
    # ...but the very next legitimate mutation re-arms the sweep.
    pool.claim(1, "b")
    pool.verify_invariants(sanitizer, interval=2)
    assert sanitizer.total > 0
    assert pool._verified_clean_version is None
    # And while the state stays dirty, every sweep keeps firing.
    before = sanitizer.total
    pool.claim(2, "c")
    pool.verify_invariants(sanitizer, interval=3)
    assert sanitizer.total > before


def test_failed_disks_is_a_sorted_copy():
    array = DiskArray(model=TABLE3_DISK, num_disks=8)
    for disk in (5, 1, 7, 3):
        array.fail(disk)
    array.repair(7)
    failed = array.failed_disks()
    assert failed == [1, 3, 5]
    failed.append(0)
    assert array.failed_disks() == [1, 3, 5]
    assert array.failed_count == 3


def test_sanitize_sweep_cross_checks_the_failed_list():
    """A maintained failed-drive list that disagrees with the drives'
    own flags is an occ_index violation even when its length (the
    failed count) still matches: here, the right drives out of order."""
    array = DiskArray(model=TABLE3_DISK, num_disks=6)
    array.fail(4)
    array.fail(1)
    sanitizer = Sanitizer(mode="check")
    array.verify_invariants(sanitizer, interval=0)
    assert sanitizer.total == 0
    array._failed.reverse()
    array.store_all([1.0, 0, 0, 0, 0, 0])  # a real mutation re-arms the sweep
    array.verify_invariants(sanitizer, interval=1)
    assert sanitizer.counts == {"occ_index": 1}
