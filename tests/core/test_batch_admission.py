"""Property tests for the waiting-lane admission verdicts.

:class:`repro.core.batch.BatchAdmissionIndex` is pure acceleration:
its per-pass verdicts must agree with the scalar
:class:`~repro.core.admission.Admitter` probe for **every** queued
display after *any* sequence of adds, claims, pool churn and cancels
— a False verdict must mean "the scalar probe would claim nothing", a
True verdict must mean "the scalar probe claims at least one lane"
(FRAGMENTED) or "the whole window claim succeeds" (CONTIGUOUS).
Hypothesis drives random operation sequences against the index, the
scalar admitter and the displays' waiting lists and checks them after
every step, mirroring ``tests/hardware/test_occupancy_index.py`` for
the occupancy indexes.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import AdmissionMode, Admitter
from repro.core.batch import LOOKAHEAD_OFFSETS, BatchAdmissionIndex
from repro.core.display import Display, Lane
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
        # __post_init__ checks the lane count against degree_halves.
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
    """``pass_verdicts`` holds one verdict per registered display (a
    dict by id), each equal to the oracle's and to the display's own
    ``verdict`` (the walk's mid-pass refresh), and ``claimable`` names
    exactly the True ones."""
    expected = {
        display_id: _scalar_verdict(index, display, interval)
        for display_id, display in displays.items()
    }
    verdicts = index.pass_verdicts(interval)
    assert dict(verdicts) == expected, f"interval {interval}"
    for display_id in displays:
        assert index.verdict(display_id, interval) == verdicts[display_id]
    assert len(verdicts) == len(displays)
    assert int(verdicts.sum()) == sum(expected.values())
    assert index.claimable(interval) == {
        display_id for display_id, verdict in expected.items() if verdict
    }


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
    """After any claim/churn/cancel sequence the verdicts, whole-queue
    and per display, agree with the scalar oracle, every display's
    waiting list names exactly its unclaimed lanes, and the sanitizer
    sweep stays clean."""
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
        assert len(index) == len(displays)
        for display in displays.values():
            assert [lane for lane, _t, _h in display.waiting] == [
                lane for lane in display.lanes if lane.slot is None
            ]
        _assert_verdicts_match_oracle(index, displays, interval)
        index.verify_invariants(sanitizer, interval, list(displays.values()))
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
    left the queue never count."""
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
        assert int(index.pass_verdicts(0).sum()) == 0
        assert len(index) == 0
        assert index.claimable(0) == set()
        assert index.first_admissible(0) == NEVER
        index.remove_display(99)  # an unknown id is a no-op
        assert len(index) == 0

    def test_probe_trims_the_waiting_list(self):
        """The FRAGMENTED probe drops exactly the lanes it claims, and a
        display with nothing left waiting is fully laned."""
        pool = SlotPool(num_disks=8, stride=1)
        pool.claim(1, "bg")
        display = _display(1, 3, 0)
        assert [t for _lane, t, _h in display.waiting] == [0, 1, 2]
        admitter = Admitter(pool, AdmissionMode.FRAGMENTED)
        plan = admitter.try_claim(display, 0)
        assert plan.claimed_now == [0, 2] and not plan.complete
        assert [lane.fragment for lane, _t, _h in display.waiting] == [1]
        assert display.pending_lane_count == 1
        pool.release(1, "bg")
        assert admitter.try_claim(display, 0).complete
        assert display.waiting == [] and display.fully_laned


class TestSanitizerCatchesDrift:
    def _index(self, degree_halves=None):
        pool = SlotPool(num_disks=8, stride=1)
        index = BatchAdmissionIndex(pool, AdmissionMode.FRAGMENTED)
        self.display = _display(1, 4, 0, degree_halves=degree_halves)
        index.add_display(self.display)
        return index

    def _fires(self, index, queued) -> bool:
        sanitizer = Sanitizer(mode="check")
        index.verify_invariants(sanitizer, interval=5, queued=queued)
        return sanitizer.total > 0

    def test_clean_index_does_not_fire(self):
        index = self._index(degree_halves=7)
        assert not self._fires(index, [self.display])

    def test_stale_waiting_list_fires(self):
        """A claimed lane left on the list, or an unclaimed one dropped
        from it, is a stale list."""
        index = self._index()
        lane, _target, _halves = self.display.waiting[2]
        lane.slot, lane.ready = 2, 0  # claimed behind the list's back
        assert self._fires(index, [self.display])
        index = self._index()
        del self.display.waiting[1]  # lane 1 is actually unclaimed
        assert self._fires(index, [self.display])

    def test_corrupt_geometry_fires(self):
        index = self._index()
        lane, target, halves = self.display.waiting[0]
        self.display.waiting[0] = (lane, target + 1, halves)
        assert self._fires(index, [self.display])
        index = self._index(degree_halves=7)
        lane, target, _halves = self.display.waiting[3]
        self.display.waiting[3] = (lane, target, HALVES_PER_SLOT)
        assert self._fires(index, [self.display])

    def test_registry_that_differs_from_the_queue_fires(self):
        index = self._index()
        assert self._fires(index, [])
        other = _display(1, 4, 0)  # same id, another display object
        assert self._fires(index, [other])
