"""Property tests for the batched admission kernel.

:class:`repro.core.batch.BatchAdmissionIndex` is pure acceleration:
its per-pass verdicts must agree with the scalar
:class:`~repro.core.admission.Admitter` probe for **every** display
after *any* sequence of adds, scalar claims, pool churn, removals and
compactions — a False verdict must mean "the scalar probe would claim
nothing", a True verdict must mean "the scalar probe claims at least
one lane" (FRAGMENTED) or "the whole window claim succeeds"
(CONTIGUOUS).  Hypothesis drives random operation sequences against
the index, the scalar admitter, and the pool's numpy free-half copy
and checks all three after every step, mirroring
``tests/hardware/test_occupancy_index.py`` for the occupancy indexes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batch as batch_module
from repro.core.admission import AdmissionMode, Admitter
from repro.core.batch import BatchAdmissionIndex
from repro.core.display import Display
from repro.core.virtual_disks import HALVES_PER_SLOT, SlotPool
from repro.errors import SchedulingError
from repro.media.objects import MediaObject, MediaType
from repro.sim.sanitize import Sanitizer

_TYPE = MediaType(name="test-video", display_bandwidth=100.0)


def _display(display_id: int, degree: int, start_disk: int,
             degree_halves=None) -> Display:
    obj = MediaObject(
        object_id=display_id,
        media_type=_TYPE,
        num_subobjects=10,
        degree=degree,
        fragment_size=180.0,
    )
    lanes = None
    if degree_halves is not None:
        # __post_init__ derives the lane count from degree_halves.
        from repro.core.display import Lane

        lanes = [Lane(fragment=j) for j in range((degree_halves + 1) // 2)]
    return Display(
        display_id=display_id,
        obj=obj,
        start_disk=start_disk,
        requested_at=0,
        lanes=lanes or [],
        degree_halves=degree_halves,
    )


def _scalar_verdict(index: BatchAdmissionIndex, display: Display,
                    interval: int) -> bool:
    """Brute-force oracle for one display's pass verdict."""
    pool = index.pool
    d = pool.num_disks
    offset = pool.stride * interval % d
    halves = display.lane_halves()
    pending = [lane.slot is None for lane in display.lanes]
    if not any(pending):
        return True  # forced True: the scalar probe completes instantly
    fits = [
        pool.free_halves((display.start_disk + lane.fragment - offset) % d)
        >= h
        for lane, h in zip(display.lanes, halves)
    ]
    if index.mode is AdmissionMode.FRAGMENTED:
        return any(f and p for f, p in zip(fits, pending))
    full = display.full_lane_count()
    buckets = pool._buckets
    return (
        all(fits)
        and full <= buckets[HALVES_PER_SLOT]
        and len(halves) <= d - buckets[0]
    )


def _assert_verdicts_match_oracle(index: BatchAdmissionIndex,
                                  interval: int) -> None:
    verdicts = index.pass_verdicts(interval)
    for display_id, (position, _row, _n) in index._segments.items():
        display = index._displays[display_id]
        assert bool(verdicts[position]) == _scalar_verdict(
            index, display, interval
        ), f"display {display_id} at interval {interval}"


# One operation: (kind, selector a, selector b, halves-ish small int).
ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["add", "add_half", "claim", "background", "release_bg",
             "remove", "tick"]
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=HALVES_PER_SLOT),
    ),
    max_size=50,
)


@pytest.mark.parametrize(
    "mode", [AdmissionMode.FRAGMENTED, AdmissionMode.CONTIGUOUS]
)
@given(num_disks=st.integers(min_value=2, max_value=12), operations=ops)
@settings(max_examples=60, deadline=None)
def test_batched_verdicts_match_scalar_probe(mode, num_disks, operations):
    """After any claim/release/churn sequence the batched verdicts
    agree with the scalar oracle, the numpy copy matches the scalar
    free list, and the sanitizer sweep stays clean."""
    pool = SlotPool(num_disks=num_disks, stride=1)
    admitter = Admitter(pool, mode=mode)
    index = BatchAdmissionIndex(pool, mode)
    sanitizer = Sanitizer(mode="check")
    displays = {}
    interval = 0
    next_id = 0
    for kind, a, b, halves in operations:
        if kind in ("add", "add_half"):
            next_id += 1
            degree = 1 + a % min(num_disks, 4)
            degree_halves = None
            if kind == "add_half":
                degree_halves = 1 + b % (2 * degree)
            display = _display(
                next_id, degree, b % num_disks, degree_halves=degree_halves
            )
            displays[next_id] = display
            index.add_display(display)
        elif kind == "claim" and displays:
            keys = sorted(displays)
            display = displays[keys[a % len(keys)]]
            verdict = bool(
                index.pass_verdicts(interval)[index.position(display.display_id)]
            )
            plan = admitter.try_claim(display, interval)
            index.on_claim(display)
            # Soundness: a False verdict promised the scalar probe
            # would do nothing.  Exactness: a True verdict promised at
            # least one claim (FRAGMENTED) / the whole window
            # (CONTIGUOUS).
            if not verdict:
                assert plan.claimed_now == []
                assert not plan.complete
            elif display.fully_laned and not plan.claimed_now:
                assert plan.complete
            elif mode is AdmissionMode.FRAGMENTED:
                assert plan.claimed_now
            else:
                assert plan.complete and plan.claimed_now
            if plan.complete:
                admitter.abort(display)
                index.remove_display(display.display_id)
                del displays[display.display_id]
        elif kind == "background":
            try:
                pool.claim(a % num_disks, ("bg", b % 7), halves=halves)
            except SchedulingError:
                pass
        elif kind == "release_bg":
            pool.release_all(("bg", b % 7))
        elif kind == "remove" and displays:
            keys = sorted(displays)
            display = displays.pop(keys[a % len(keys)])
            admitter.abort(display)
            index.remove_display(display.display_id)
        elif kind == "tick":
            interval += 1
        # The numpy copy must track the scalar free list exactly.
        assert pool._free_np.tolist() == pool._free
        assert len(index) == len(displays)
        _assert_verdicts_match_oracle(index, interval)
        index.verify_invariants(sanitizer, interval)
        assert sanitizer.total == 0


@given(num_disks=st.integers(min_value=2, max_value=8),
       operations=ops)
@settings(max_examples=40, deadline=None)
def test_compaction_preserves_verdicts_and_renumbers(num_disks, operations):
    """With the compaction threshold forced low, heavy add/remove churn
    compacts repeatedly; every compaction must bump the generation,
    keep creation order, and leave verdicts equal to the oracle."""
    original = batch_module._COMPACT_MIN_ROWS
    batch_module._COMPACT_MIN_ROWS = 4
    try:
        _run_compaction_sequence(num_disks, operations)
    finally:
        batch_module._COMPACT_MIN_ROWS = original


def _run_compaction_sequence(num_disks, operations):
    pool = SlotPool(num_disks=num_disks, stride=1)
    index = BatchAdmissionIndex(pool, AdmissionMode.FRAGMENTED)
    displays = {}
    next_id = 0
    positions = {}
    for kind, a, b, _halves in operations:
        generation_before = index.generation
        if kind in ("add", "add_half", "claim", "tick"):
            next_id += 1
            display = _display(next_id, 1 + a % num_disks, b % num_disks)
            displays[next_id] = display
            positions[next_id] = index.add_display(display)
        elif displays:  # remove / background / release_bg all remove here
            keys = sorted(displays)
            victim = keys[a % len(keys)]
            del displays[victim]
            positions.pop(victim)
            index.remove_display(victim)
        if index.generation == generation_before:
            # No compaction: cached positions must still resolve.
            for display_id, position in positions.items():
                assert index.position(display_id) == position
        else:
            # Compaction renumbered: re-resolve, creation order intact.
            assert index.generation > generation_before
            positions = {
                display_id: index.position(display_id)
                for display_id in displays
            }
            ordered = sorted(positions, key=positions.__getitem__)
            assert ordered == sorted(displays)
        assert len(index) == len(displays)
        _assert_verdicts_match_oracle(index, 0)
    sanitizer = Sanitizer(mode="check")
    index.verify_invariants(sanitizer, 0)
    assert sanitizer.total == 0


class TestConstruction:
    def test_empty_table_yields_empty_verdicts(self):
        pool = SlotPool(num_disks=4, stride=1)
        index = BatchAdmissionIndex(pool, AdmissionMode.FRAGMENTED)
        assert len(index.pass_verdicts(0)) == 0
        assert len(index) == 0
        assert index.position(99) is None

    def test_capacity_growth_preserves_rows(self):
        pool = SlotPool(num_disks=8, stride=1)
        index = BatchAdmissionIndex(pool, AdmissionMode.FRAGMENTED)
        displays = [_display(i + 1, 4, i % 8) for i in range(200)]
        for display in displays:
            index.add_display(display)
        assert index._rows == 800  # past the initial 256 capacity
        sanitizer = Sanitizer(mode="check")
        index.verify_invariants(sanitizer, 0)
        assert sanitizer.total == 0
        _assert_verdicts_match_oracle(index, 0)


class TestSanitizerCatchesDrift:
    def _index(self):
        pool = SlotPool(num_disks=8, stride=1)
        index = BatchAdmissionIndex(pool, AdmissionMode.FRAGMENTED)
        index.add_display(_display(1, 4, 0))
        return index

    def test_stale_pending_row_fires(self):
        index = self._index()
        index._pending[2] = False  # display 1 lane 2 is actually pending
        sanitizer = Sanitizer(mode="check")
        index.verify_invariants(sanitizer, interval=5)
        assert sanitizer.total > 0

    def test_corrupt_geometry_fires(self):
        index = self._index()
        index._bases[0] += 1
        sanitizer = Sanitizer(mode="check")
        index.verify_invariants(sanitizer, interval=5)
        assert sanitizer.total > 0

    def test_live_row_count_drift_fires(self):
        index = self._index()
        index._live_rows += 1
        sanitizer = Sanitizer(mode="check")
        index.verify_invariants(sanitizer, interval=5)
        assert sanitizer.total > 0
