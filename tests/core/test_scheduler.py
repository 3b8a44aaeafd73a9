"""Tests for the staggered-striping Centralized Scheduler."""

from __future__ import annotations

import pytest

from repro.core.admission import AdmissionMode
from repro.core.disk_manager import DiskManager
from repro.core.object_manager import ObjectManager
from repro.core.scheduler import StaggeredStripingPolicy
from repro.core.tertiary_manager import TertiaryManager
from repro.errors import SanitizeError, SchedulingError
from repro.hardware.disk import TABLE3_DISK
from repro.hardware.disk_array import DiskArray
from repro.hardware.tertiary import TertiaryDevice
from repro.media.catalog import Catalog
from repro.media.tape_layout import TapeLayout, TapeOrder
from repro.sim.sanitize import Sanitizer
from repro.simulation.policy import Request
from tests.conftest import make_object


def build_policy(
    num_disks=12,
    stride=1,
    num_objects=4,
    num_subobjects=6,
    degree=3,
    capacity_objects=None,
    mode=AdmissionMode.FRAGMENTED,
    with_tertiary=True,
    queue_discipline="scan",
    placement_alignment=1,
):
    objects = [
        make_object(i, num_subobjects=num_subobjects, degree=degree)
        for i in range(num_objects)
    ]
    catalog = Catalog(objects)
    array = DiskArray(model=TABLE3_DISK, num_disks=num_disks)
    disk_manager = DiskManager(
        array=array, stride=stride, placement_alignment=placement_alignment
    )
    size = objects[0].size
    capacity = (capacity_objects if capacity_objects is not None else num_objects)
    object_manager = ObjectManager(catalog, capacity=capacity * size)
    tertiary = None
    if with_tertiary:
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
        queue_discipline=queue_discipline,
    )


def request(request_id, object_id, issued_at=0, station=0):
    return Request(
        request_id=request_id,
        station_id=station,
        object_id=object_id,
        issued_at=issued_at,
    )


def run_until_complete(policy, horizon=500):
    completions = []
    for interval in range(horizon):
        completions.extend(policy.advance(interval))
        if policy.pending_count() == 0:
            break
    return completions


class TestSingleDisplay:
    def test_resident_object_plays_to_completion(self):
        policy = build_policy()
        policy.preload([0])
        policy.submit(request(1, 0), interval=0)
        completions = run_until_complete(policy)
        assert len(completions) == 1
        done = completions[0]
        assert done.deliver_start == 0
        assert done.finished_at == 5  # 6 subobjects
        assert done.startup_latency == 0

    def test_slots_fully_released_after_completion(self):
        policy = build_policy()
        policy.preload([0])
        policy.submit(request(1, 0), interval=0)
        for interval in range(20):
            policy.advance(interval)
        assert policy.disk_manager.pool.free_count == 12

    def test_miss_triggers_materialisation_then_display(self):
        policy = build_policy()
        policy.submit(request(1, 0), interval=0)
        completions = run_until_complete(policy, horizon=200)
        assert len(completions) == 1
        assert completions[0].startup_latency > 0
        assert policy.object_manager.is_resident(0)
        assert policy.stats()["tertiary_completed"] == 1.0

    def test_missing_tertiary_raises_on_miss(self):
        policy = build_policy(with_tertiary=False)
        with pytest.raises(SchedulingError):
            policy.submit(request(1, 0), interval=0)


class TestConcurrency:
    def test_pipelined_displays_of_same_object(self):
        """Two displays of one object overlap in time (no replication
        needed — the paper's core claim about striping)."""
        policy = build_policy(num_disks=12, num_subobjects=4)
        policy.preload([0])
        policy.submit(request(1, 0), interval=0)
        policy.advance(0)
        policy.submit(request(2, 0, issued_at=1), interval=1)
        completions = run_until_complete(policy)
        assert len(completions) == 2
        finishes = sorted(c.finished_at for c in completions)
        assert finishes[0] == 3  # first display unobstructed
        assert finishes[0] < finishes[1] <= 8  # second overlaps, trails

    def test_disjoint_objects_run_in_parallel(self):
        policy = build_policy(num_disks=12, num_objects=4, degree=3,
                              placement_alignment=3)
        policy.preload([0, 1, 2, 3])
        for object_id in range(4):
            policy.submit(request(object_id + 1, object_id), interval=0)
        completions = run_until_complete(policy)
        assert len(completions) == 4
        # 12 drives / M=3 = 4 concurrent: everyone finishes together.
        assert {c.finished_at for c in completions} == {5}

    def test_oversubscription_queues(self):
        policy = build_policy(num_disks=6, num_objects=4, degree=3,
                              num_subobjects=4)
        policy.preload([0, 1, 2, 3])
        for object_id in range(4):
            policy.submit(request(object_id + 1, object_id), interval=0)
        completions = run_until_complete(policy)
        assert len(completions) == 4
        latencies = sorted(c.startup_latency for c in completions)
        assert latencies[0] == 0
        assert latencies[-1] > 0


class TestEvictionFlow:
    def test_lfu_eviction_makes_room(self):
        policy = build_policy(num_objects=3, capacity_objects=2)
        policy.preload([0, 1])
        # Touch object 1 so object 0 is the LFU victim.
        policy.submit(request(1, 1), interval=0)
        run_until_complete(policy, horizon=100)
        policy.submit(request(2, 2), interval=100)
        for interval in range(100, 300):
            policy.advance(interval)
            if policy.pending_count() == 0:
                break
        assert policy.object_manager.is_resident(2)
        assert not policy.object_manager.is_resident(0)
        assert policy.object_manager.is_resident(1)

    def test_pinned_objects_defer_placement(self):
        policy = build_policy(num_objects=3, capacity_objects=2,
                              num_subobjects=8)
        policy.preload([0, 1])
        policy.submit(request(1, 0), interval=0)
        policy.submit(request(2, 1), interval=0)
        policy.advance(0)
        # Both resident objects now pinned by active displays; a miss
        # cannot evict yet but must not crash.
        policy.submit(request(3, 2), interval=1)
        completions = []
        for interval in range(1, 400):
            completions.extend(policy.advance(interval))
            if len(completions) == 3:
                break
        assert len(completions) == 3


class TestDeferredPlacement:
    """A miss that cannot evict (every resident object pinned) defers
    its placement; the per-interval retry places it once a pin goes."""

    @staticmethod
    def defer_object_2():
        """Objects 0 and 1 fill the disks and are pinned by displays;
        a request for object 2 then defers at submit."""
        policy = build_policy(num_objects=3, capacity_objects=2,
                              num_subobjects=8)
        policy.preload([0, 1])
        policy.submit(request(1, 0), interval=0)
        policy.submit(request(2, 1), interval=0)
        policy.advance(0)
        policy.submit(request(3, 2), interval=1)
        assert policy._n_deferred == 1
        assert not policy.disk_manager.is_placed(2)
        return policy

    def test_released_pin_starts_materialisation_and_display(self):
        policy = self.defer_object_2()
        sanitizer = Sanitizer("strict")
        completions = []
        placed_at = None
        for interval in range(1, 400):
            completions.extend(policy.advance(interval))
            sanitizer.check_interval(policy, interval)
            if placed_at is None and policy._n_deferred == 0:
                placed_at = interval
                # The retry ran after the first display unpinned its
                # object: the eviction made room and tertiary started.
                assert completions
                assert policy.tertiary_manager.is_pending(2)
                assert policy.disk_manager.is_placed(2)
            if len(completions) == 3:
                break
        assert placed_at is not None
        assert sorted(c.request.object_id for c in completions) == [0, 1, 2]
        assert policy.object_manager.is_resident(2)
        assert sanitizer.total == 0

    def test_cancelled_deferred_entry_is_never_placed(self):
        policy = self.defer_object_2()
        sanitizer = Sanitizer("strict")
        assert policy.try_cancel(request(3, 2), interval=1)
        assert policy._n_deferred == 0
        assert not policy.object_manager.is_pinned(2)
        for interval in range(1, 100):
            policy.advance(interval)
            sanitizer.check_interval(policy, interval)
        assert not policy.disk_manager.is_placed(2)
        assert not policy.tertiary_manager.is_pending(2)
        assert policy.pending_count() == 0

    def test_drifted_count_is_an_occ_index_violation(self):
        policy = self.defer_object_2()
        policy._n_deferred = 0  # the retry walk would now skip the entry
        with pytest.raises(SanitizeError, match=r"\[sanitize\.occ_index\]"):
            Sanitizer("strict").check_interval(policy, 1)


class TestQueueDisciplines:
    def test_scan_lets_later_requests_bypass(self):
        policy = build_policy(num_disks=6, num_objects=3, degree=3,
                              num_subobjects=6, queue_discipline="scan")
        policy.preload([0, 1, 2])
        # Object 0's display occupies half the drives.
        policy.submit(request(1, 0), interval=0)
        policy.advance(0)
        # Object 1 placed at drive 1: overlaps the active display ->
        # cannot claim; object 2 at drive 2 also overlaps.  Use a
        # second request for object 0 (start drive 0): also blocked.
        # Scan discipline still lets anyone who CAN claim do so.
        policy.submit(request(2, 1), interval=1)
        policy.submit(request(3, 2), interval=1)
        completions = run_until_complete(policy, horizon=200)
        assert len(completions) == 3

    def test_fcfs_blocks_behind_head(self):
        policy = build_policy(num_disks=9, num_objects=3, degree=3,
                              num_subobjects=9, queue_discipline="fcfs")
        policy.preload([0, 1, 2])
        policy.submit(request(1, 0), interval=0)
        policy.advance(0)
        # Head request: same object 0 (blocked by the active display's
        # slots for a while); a request behind it could run elsewhere
        # but must wait under FCFS at least one interval.
        policy.submit(request(2, 0, issued_at=1), interval=1)
        policy.submit(request(3, 1, issued_at=1), interval=1)
        policy.advance(1)
        latencies = {}
        for interval in range(2, 300):
            for completion in policy.advance(interval):
                latencies[completion.request.request_id] = (
                    completion.startup_latency
                )
            if len(latencies) == 3:
                break
        assert len(latencies) == 3


class TestReposition:
    def test_fast_forward_shortens_display(self):
        policy = build_policy(num_subobjects=12)
        policy.preload([0])
        policy.submit(request(1, 0), interval=0)
        policy.advance(0)
        display_id = next(iter(policy._active))
        policy.advance(1)
        policy.reposition(display_id, target_subobject=9, interval=2)
        completions = []
        for interval in range(2, 60):
            completions.extend(policy.advance(interval))
            if completions:
                break
        assert len(completions) == 1
        # Only 3 subobjects remained: finishes quickly.
        assert completions[0].finished_at < 12
        # All slots eventually come home.
        for interval in range(interval + 1, interval + 20):
            policy.advance(interval)
        assert policy.disk_manager.pool.free_count == 12

    def test_reposition_inactive_display_rejected(self):
        policy = build_policy()
        with pytest.raises(SchedulingError):
            policy.reposition(999, 0, 0)


class TestStats:
    def test_stats_shape(self):
        policy = build_policy()
        policy.preload([0])
        policy.submit(request(1, 0), interval=0)
        run_until_complete(policy)
        stats = policy.stats()
        assert stats["completed_displays"] == 1.0
        assert stats["hit_rate"] == 1.0
        assert "tertiary_utilization" in stats
        assert stats["resident_objects"] == 1.0


class TestNextActivity:
    def test_quiet_until_the_display_finishes(self):
        policy = build_policy(num_disks=6, with_tertiary=False)
        policy.preload([0, 1, 2, 3])
        policy.submit(request(1, 0), 0)
        policy.advance(0)
        # Six subobjects from interval 0: the last delivery is at 5.
        assert policy.next_activity(0) == 5

    def test_cancel_that_returns_lanes_wakes_the_next_interval(self):
        """A deadline cancel runs after the pass.  Returning a partial
        display's lanes can lift the claim budget over a display-less
        entry's degree, which then starts claiming next interval."""
        policy = build_policy(num_disks=6, with_tertiary=False)
        policy.preload([0, 1, 2, 3])
        policy.submit(request(1, 0), 0)
        policy.advance(0)  # display 1 holds virtual disks 0-2
        policy.submit(request(2, 3, issued_at=1), 1)
        policy.submit(request(3, 1, issued_at=1, station=1), 1)
        policy.advance(1)
        partial, waiting = policy._queue
        assert partial.display.pending_lane_count == 1
        assert waiting.display is None  # the budget is spent on request 2
        assert policy.try_cancel(partial.request, 1)
        assert policy.next_activity(1) == 2
        policy.advance(2)
        assert policy._queue[0].display is not None

    def test_fcfs_steps_every_interval(self):
        policy = build_policy(num_disks=6, queue_discipline="fcfs")
        assert policy.next_activity(7) == 8
