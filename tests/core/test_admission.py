"""Tests for admission control over the slot pool."""

from __future__ import annotations

import pytest

from repro.core.admission import AdmissionMode, Admitter
from repro.core.display import Display
from repro.core.virtual_disks import SlotPool
from tests.conftest import make_object


def make_display(display_id=1, start_disk=0, degree=3, n=6, requested_at=0):
    obj = make_object(num_subobjects=n, degree=degree)
    return Display(
        display_id=display_id,
        obj=obj,
        start_disk=start_disk,
        requested_at=requested_at,
    )


class TestContiguous:
    def test_empty_pool_admits_immediately(self):
        pool = SlotPool(num_disks=9, stride=3)
        admitter = Admitter(pool, AdmissionMode.CONTIGUOUS)
        display = make_display(start_disk=3)
        plan = admitter.try_claim(display, interval=0)
        assert plan.complete
        assert display.deliver_start == 0
        # Lanes sit over drives 3,4,5 at interval 0.
        for lane in display.lanes:
            assert pool.physical_of(lane.slot, 0) == 3 + lane.fragment

    def test_all_or_nothing(self):
        pool = SlotPool(num_disks=9, stride=3)
        pool.claim(pool.slot_at(4, 0), "other")  # middle drive busy
        admitter = Admitter(pool, AdmissionMode.CONTIGUOUS)
        display = make_display(start_disk=3)
        plan = admitter.try_claim(display, interval=0)
        assert not plan.complete
        assert plan.claimed_now == []
        assert [lane for lane, _t, _h in display.waiting] == display.lanes

    def test_waits_for_rotation(self):
        """With k=M the aligned window returns every R intervals."""
        pool = SlotPool(num_disks=9, stride=3)
        # Cluster over drives 0..2 at interval 0 is busy.
        for z in (0, 1, 2):
            pool.claim(z, "other")
        admitter = Admitter(pool, AdmissionMode.CONTIGUOUS)
        display = make_display(start_disk=0)
        assert not admitter.try_claim(display, 0).complete
        # Next interval the slots over drives 0..2 are 6,7,8 (free).
        assert admitter.try_claim(display, 1).complete
        assert display.deliver_start == 1

    def test_second_claim_after_complete_is_noop(self):
        pool = SlotPool(num_disks=9, stride=3)
        admitter = Admitter(pool, AdmissionMode.CONTIGUOUS)
        display = make_display()
        assert admitter.try_claim(display, 0).complete
        plan = admitter.try_claim(display, 1)
        assert plan.complete and plan.claimed_now == []


class TestFragmented:
    def test_incremental_claims_follow_figure6(self):
        """Fig. 6: M=2 display, drives 0/1 busy except slot 1; slot 6
        reaches drive 0 at interval 2."""
        pool = SlotPool(num_disks=8, stride=1)
        for z in (0, 7, 2, 3, 4, 5):
            pool.claim(z, f"other{z}")
        admitter = Admitter(pool, AdmissionMode.FRAGMENTED)
        display = make_display(start_disk=0, degree=2, n=6)
        plan0 = admitter.try_claim(display, 0)
        assert not plan0.complete
        assert display.lanes[1].slot == 1  # fragment X0.1 via slot 1
        assert display.lanes[1].ready == 0
        assert not admitter.try_claim(display, 1).complete
        plan2 = admitter.try_claim(display, 2)
        assert plan2.complete
        assert display.lanes[0].slot == 6
        assert display.lanes[0].ready == 2
        assert display.deliver_start == 2
        assert display.lane_write_offset(1) == 2  # buffered two intervals

    def test_aligned_when_everything_free(self):
        pool = SlotPool(num_disks=8, stride=1)
        admitter = Admitter(pool, AdmissionMode.FRAGMENTED)
        display = make_display(start_disk=2, degree=3)
        assert admitter.try_claim(display, 0).complete
        assert display.buffer_demand() == 0.0

    def test_release_lane_and_abort(self):
        pool = SlotPool(num_disks=8, stride=1)
        admitter = Admitter(pool, AdmissionMode.FRAGMENTED)
        display = make_display(degree=3)
        admitter.try_claim(display, 0)
        pool.release(display.lanes[1].slot, display.display_id)
        assert pool.is_free(display.lanes[1].slot)
        assert admitter.abort(display) == 2

    def test_two_displays_share_the_pool(self):
        pool = SlotPool(num_disks=6, stride=1)
        admitter = Admitter(pool, AdmissionMode.FRAGMENTED)
        a = make_display(display_id=1, start_disk=0, degree=3)
        b = make_display(display_id=2, start_disk=3, degree=3)
        assert admitter.try_claim(a, 0).complete
        assert admitter.try_claim(b, 0).complete
        assert pool.free_count == 0
        owned = {tuple(sorted(pool.slots_of(1))), tuple(sorted(pool.slots_of(2)))}
        assert owned == {(0, 1, 2), (3, 4, 5)}

