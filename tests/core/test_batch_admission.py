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

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batch as batch_module
from repro.core.admission import AdmissionMode, Admitter
from repro.core.batch import LOOKAHEAD_OFFSETS, BatchAdmissionIndex
from repro.core.display import Display
from repro.core.virtual_disks import HALVES_PER_SLOT, SlotPool
from repro.errors import SchedulingError
from repro.media.objects import MediaObject, MediaType
from repro.sim.sanitize import Sanitizer
from repro.simulation.policy import NEVER

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
                                  displays, interval: int) -> None:
    """``claimable`` names exactly the registered ``displays`` (a dict
    by id) whose oracle verdict is True."""
    expected = {
        display_id
        for display_id, display in displays.items()
        if _scalar_verdict(index, display, interval)
    }
    assert index.claimable(interval) == expected, f"interval {interval}"


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
            verdict = display.display_id in index.claimable(interval)
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
        _assert_verdicts_match_oracle(index, displays, interval)
        index.verify_invariants(sanitizer, interval, list(displays.values()))
        assert sanitizer.total == 0


@given(num_disks=st.integers(min_value=2, max_value=8),
       operations=ops)
@settings(max_examples=40, deadline=None)
def test_compaction_preserves_verdicts_and_renumbers(num_disks, operations):
    """With the compaction threshold forced low, heavy add/remove churn
    compacts (and renumbers the segments) repeatedly; verdicts are
    keyed by display id, so every survivor keeps its verdict across a
    compaction and all of them stay equal to the oracle."""
    original = batch_module._COMPACT_MIN_ROWS
    batch_module._COMPACT_MIN_ROWS = 4
    try:
        _run_compaction_sequence(num_disks, operations)
    finally:
        batch_module._COMPACT_MIN_ROWS = original


def _run_compaction_sequence(num_disks, operations):
    pool = SlotPool(num_disks=num_disks, stride=1)
    # Every other slot busy, so the verdicts are a mix of True and False.
    for slot in range(0, num_disks, 2):
        pool.claim(slot, "bg")
    index = BatchAdmissionIndex(pool, AdmissionMode.FRAGMENTED)
    displays = {}
    next_id = 0
    for kind, a, b, _halves in operations:
        before = index.claimable(0)
        if kind in ("add", "add_half", "claim", "tick"):
            next_id += 1
            display = _display(next_id, 1 + a % num_disks, b % num_disks)
            displays[next_id] = display
            index.add_display(display)
            assert index.claimable(0) - {next_id} == before
        elif displays:  # remove / background / release_bg all remove here
            keys = sorted(displays)
            victim = keys[a % len(keys)]
            del displays[victim]
            index.remove_display(victim)
            assert index.claimable(0) == before - {victim}
        assert len(index) == len(displays)
        _assert_verdicts_match_oracle(index, displays, 0)
    sanitizer = Sanitizer(mode="check")
    index.verify_invariants(sanitizer, 0, list(displays.values()))
    assert sanitizer.total == 0


@given(
    num_disks=st.integers(min_value=2, max_value=80),
    stride=st.integers(min_value=1, max_value=80),
    displays=st.lists(
        st.tuples(st.integers(1, 4), st.integers(0, 79), st.booleans()),
        min_size=1, max_size=6,
    ),
    background=st.lists(st.integers(0, 79), max_size=60),
    after=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=150, deadline=None)
def test_first_admissible_matches_a_scalar_scan(
    num_disks, stride, displays, background, after
):
    """The CONTIGUOUS lookahead names the first interval at which the
    scalar oracle admits a queued display; past LOOKAHEAD_OFFSETS
    untested intervals it wakes early, and it answers NEVER only when
    no interval of a whole rotation period admits one.  Displays that
    left the queue (removed, their rows dead) never count."""
    stride = 1 + (stride - 1) % num_disks
    pool = SlotPool(num_disks=num_disks, stride=stride)
    for slot in background:
        if pool.free_halves(slot % num_disks) == HALVES_PER_SLOT:
            pool.claim(slot % num_disks, "bg")
    index = BatchAdmissionIndex(pool, AdmissionMode.CONTIGUOUS)
    queued = []
    for display_id, (degree, start, stays) in enumerate(displays, 1):
        display = _display(display_id, min(degree, num_disks), start % num_disks)
        index.add_display(display)
        if stays:
            queued.append(display)
        else:
            index.remove_display(display_id)
    period = num_disks // math.gcd(num_disks, stride)
    span = min(LOOKAHEAD_OFFSETS, period)
    first = next(
        (
            interval
            for interval in range(after, after + period)
            if any(_scalar_verdict(index, d, interval) for d in queued)
        ),
        None,
    )
    found = index.first_admissible(after)
    if first is None:
        # No alignment in a whole period: NEVER, or an early wake-up
        # when the period is longer than one lookahead.
        assert found in (NEVER, after + span if span < period else NEVER)
    else:
        assert found == min(first, after + span)


class TestConstruction:
    def test_empty_table_yields_empty_verdicts(self):
        pool = SlotPool(num_disks=4, stride=1)
        index = BatchAdmissionIndex(pool, AdmissionMode.FRAGMENTED)
        assert len(index.pass_verdicts(0)) == 0
        assert len(index) == 0
        assert index.claimable(0) == set()
        assert index.first_admissible(0) == NEVER
        index.remove_display(99)  # an unknown id is a no-op
        assert len(index) == 0

    def test_capacity_growth_preserves_rows(self):
        pool = SlotPool(num_disks=8, stride=1)
        index = BatchAdmissionIndex(pool, AdmissionMode.FRAGMENTED)
        displays = {i + 1: _display(i + 1, 4, i % 8) for i in range(200)}
        for display in displays.values():
            index.add_display(display)
        assert index._rows == 800  # past the initial 256 capacity
        sanitizer = Sanitizer(mode="check")
        index.verify_invariants(sanitizer, 0, list(displays.values()))
        assert sanitizer.total == 0
        _assert_verdicts_match_oracle(index, displays, 0)


class TestSanitizerCatchesDrift:
    def _index(self):
        pool = SlotPool(num_disks=8, stride=1)
        index = BatchAdmissionIndex(pool, AdmissionMode.FRAGMENTED)
        self.display = _display(1, 4, 0)
        index.add_display(self.display)
        return index

    def test_stale_pending_row_fires(self):
        index = self._index()
        index._pending[2] = False  # display 1 lane 2 is actually pending
        sanitizer = Sanitizer(mode="check")
        index.verify_invariants(sanitizer, interval=5, queued=[self.display])
        assert sanitizer.total > 0

    def test_corrupt_geometry_fires(self):
        index = self._index()
        index._bases[0] += 1
        sanitizer = Sanitizer(mode="check")
        index.verify_invariants(sanitizer, interval=5, queued=[self.display])
        assert sanitizer.total > 0

    def test_live_row_count_drift_fires(self):
        index = self._index()
        index._live_rows += 1
        sanitizer = Sanitizer(mode="check")
        index.verify_invariants(sanitizer, interval=5, queued=[self.display])
        assert sanitizer.total > 0

    def test_registry_that_differs_from_the_queue_fires(self):
        index = self._index()
        sanitizer = Sanitizer(mode="check")
        index.verify_invariants(sanitizer, interval=5, queued=[])
        assert sanitizer.total > 0
