"""Tests for the deterministic fault injector."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultEvent, FaultInjector
from repro.sim.rng import RandomStream


def make_injector(seed=42, **kwargs):
    stream = RandomStream(seed=seed).substream("faults")
    return FaultInjector(stream=stream, **kwargs)


def drain(injector, horizon=100_000):
    """Every event the injector fires up to ``horizon``, one poll per
    pending time (mirrors how the coordinators consume it)."""
    events = []
    while True:
        upcoming = injector.peek()
        if upcoming is None or upcoming > horizon:
            return events
        events.extend(injector.pop_due(upcoming))


class TestScripted:
    def test_scripted_failure_fires_at_interval(self):
        injector = make_injector(num_disks=4, fail_at=((2, 10),))
        assert injector.pop_due(9) == []
        assert not injector.is_down(2)
        events = injector.pop_due(10)
        assert events == [FaultEvent(interval=10, disk=2, kind="fail")]
        assert injector.is_down(2)

    def test_no_mttr_leaves_drive_down_forever(self):
        injector = make_injector(num_disks=4, fail_at=((2, 10),))
        injector.pop_due(10)
        assert injector.peek() is None
        assert injector.is_down(2)

    def test_mttr_schedules_a_repair(self):
        injector = make_injector(num_disks=4, mttr=5.0, fail_at=((2, 10),))
        injector.pop_due(10)
        repair_at = injector.peek()
        assert repair_at is not None and repair_at > 10
        events = injector.pop_due(repair_at)
        assert events == [FaultEvent(interval=repair_at, disk=2, kind="repair")]
        assert not injector.is_down(2)

    def test_overlapping_failures_collapse(self):
        """A drive scripted to fail twice while down fails once."""
        injector = make_injector(num_disks=4, fail_at=((2, 10), (2, 12)))
        assert len(injector.pop_due(20)) == 1
        assert injector.is_down(2)

    def test_repair_then_next_stochastic_failure(self):
        """With MTTF and MTTR both set, drives cycle fail/repair."""
        injector = make_injector(num_disks=2, mttf=50.0, mttr=5.0)
        events = drain(injector, horizon=2_000)
        kinds = [e.kind for e in events if e.disk == 0]
        assert len(kinds) > 4
        # Strict alternation per drive: fail, repair, fail, repair, ...
        assert all(
            kind == ("fail" if i % 2 == 0 else "repair")
            for i, kind in enumerate(kinds)
        )


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        a = drain(make_injector(num_disks=8, mttf=200.0, mttr=20.0), 5_000)
        b = drain(make_injector(num_disks=8, mttf=200.0, mttr=20.0), 5_000)
        assert a == b
        assert len(a) > 10

    def test_different_seed_different_schedule(self):
        a = drain(make_injector(seed=1, num_disks=8, mttf=200.0, mttr=20.0), 5_000)
        b = drain(make_injector(seed=2, num_disks=8, mttf=200.0, mttr=20.0), 5_000)
        assert a != b

    def test_per_disk_streams_independent_of_array_width(self):
        """A drive's lifetime draws depend on (seed, disk) only: adding
        more drives to the array never moves an existing drive's
        failure times."""
        narrow = drain(make_injector(num_disks=2, mttf=200.0, mttr=20.0), 5_000)
        wide = drain(make_injector(num_disks=8, mttf=200.0, mttr=20.0), 5_000)
        narrow_d0 = [e for e in narrow if e.disk == 0]
        wide_d0 = [e for e in wide if e.disk == 0]
        assert narrow_d0 == wide_d0

    def test_polling_granularity_irrelevant(self):
        """Events are the same whether polled every interval or in one
        big catch-up call."""
        fine = make_injector(num_disks=4, mttf=100.0, mttr=10.0)
        coarse = make_injector(num_disks=4, mttf=100.0, mttr=10.0)
        fine_events = []
        for t in range(1_000):
            fine_events.extend(fine.pop_due(t))
        assert fine_events == coarse.pop_due(999)


class TestValidation:
    def test_rejects_empty_array(self):
        with pytest.raises(ConfigurationError):
            make_injector(num_disks=0)

    def test_rejects_nonpositive_lifetimes(self):
        with pytest.raises(ConfigurationError):
            make_injector(num_disks=4, mttf=0.0)
        with pytest.raises(ConfigurationError):
            make_injector(num_disks=4, mttr=-1.0)

    def test_rejects_out_of_range_scripted_disk(self):
        with pytest.raises(ConfigurationError):
            make_injector(num_disks=4, fail_at=((4, 10),))
