"""Tests for the simulation kernel: clock, calendar, processes."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.events import Interrupt
from repro.sim.kernel import Simulation, hold, wait


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_runs_callbacks_in_time_order(sim):
    seen = []
    sim.schedule(2.0, seen.append, "b")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(3.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_callbacks_run_in_schedule_order(sim):
    seen = []
    for label in ("first", "second", "third"):
        sim.schedule(1.0, seen.append, label)
    sim.run()
    assert seen == ["first", "second", "third"]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda _: None)


def test_hold_rejects_negative():
    with pytest.raises(SimulationError):
        hold(-1.0)


def test_process_holds_advance_time(sim):
    times = []

    def proc():
        times.append(sim.now)
        yield hold(1.5)
        times.append(sim.now)
        yield hold(0.5)
        times.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert times == [0.0, 1.5, 2.0]


def test_process_returns_value_and_fires_done_event(sim):
    def proc():
        yield hold(1.0)
        return 42

    p = sim.spawn(proc())
    sim.run()
    assert not p.alive
    assert p.result == 42
    assert p.done_event.is_set
    assert p.done_event.value == 42


def test_process_can_wait_for_another_process(sim):
    order = []

    def child():
        yield hold(2.0)
        order.append("child done")
        return "payload"

    def parent():
        child_proc = sim.spawn(child(), name="child")
        result = yield child_proc
        order.append(f"parent saw {result}")

    sim.spawn(parent(), name="parent")
    sim.run()
    assert order == ["child done", "parent saw payload"]


def test_wait_on_event_resumes_with_value(sim):
    results = []
    event = sim.event("go")

    def waiter():
        value = yield wait(event)
        results.append((sim.now, value))

    sim.spawn(waiter())
    event.fire_in(3.0, "ready")
    sim.run()
    assert results == [(3.0, "ready")]


def test_yielding_event_directly_is_equivalent_to_wait(sim):
    results = []
    event = sim.event()

    def waiter():
        value = yield event
        results.append(value)

    sim.spawn(waiter())
    event.fire_in(1.0, "direct")
    sim.run()
    assert results == ["direct"]


def test_wait_on_already_set_event_resumes_immediately(sim):
    event = sim.event()
    event.fire("early")
    results = []

    def waiter():
        value = yield wait(event)
        results.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert results == [(0.0, "early")]


def test_run_until_stops_clock_at_bound(sim):
    def proc():
        while True:
            yield hold(1.0)

    p = sim.spawn(proc())
    sim.run(until=5.5)
    assert sim.now == 5.5
    p.kill()
    sim.run(until=6.0)


def test_run_is_not_reentrant(sim):
    def proc():
        with pytest.raises(SimulationError):
            sim.run()
        yield hold(0.0)

    sim.spawn(proc())
    sim.run()


def test_interrupt_is_thrown_into_waiting_process(sim):
    outcomes = []
    event = sim.event()

    def waiter():
        try:
            yield wait(event)
            outcomes.append("completed")
        except Interrupt as exc:
            outcomes.append(("interrupted", exc.cause, sim.now))

    p = sim.spawn(waiter())
    sim.schedule(2.0, lambda _: p.interrupt("timeout"), None)
    sim.run()
    assert outcomes == [("interrupted", "timeout", 2.0)]
    assert event.waiter_count == 0  # waiter was withdrawn


def test_kill_terminates_process_silently(sim):
    progressed = []

    def proc():
        yield hold(1.0)
        progressed.append("step")
        yield hold(10.0)
        progressed.append("never")

    p = sim.spawn(proc())
    sim.schedule(2.0, lambda _: p.kill(), None)
    sim.run()
    assert progressed == ["step"]
    assert not p.alive


def test_spawn_rejects_non_generator(sim):
    with pytest.raises(SimulationError):
        sim.spawn(42)  # type: ignore[arg-type]


def test_unsupported_command_raises(sim):
    def proc():
        yield "nonsense"

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_many_processes_interleave_deterministically(sim):
    log = []

    def proc(name, delay):
        for i in range(3):
            yield hold(delay)
            log.append((sim.now, name, i))

    sim.spawn(proc("a", 1.0))
    sim.spawn(proc("b", 1.5))
    sim.run()
    assert log == sorted(log, key=lambda entry: entry[0])
    assert len(log) == 6


def test_peek_reports_next_event_time(sim):
    assert sim.peek() == float("inf")
    sim.schedule(4.0, lambda _: None)
    assert sim.peek() == 4.0


def test_max_events_bounds_execution(sim):
    seen = []
    for i in range(10):
        sim.schedule(float(i), seen.append, i)
    sim.run(max_events=3)
    assert seen == [0, 1, 2]


# ----------------------------------------------------------------------
# Cancellable timers (lazy calendar invalidation)
# ----------------------------------------------------------------------
class TestCancellableTimers:
    def test_cancelled_entry_never_fires(self, sim):
        seen = []
        timer = sim.schedule_cancellable(1.0, seen.append, "dead")
        sim.schedule(2.0, seen.append, "alive")
        timer.cancel()
        sim.run()
        assert seen == ["alive"]
        assert sim.now == 2.0

    def test_cancel_is_idempotent(self, sim):
        timer = sim.schedule_cancellable(1.0, lambda _: None)
        timer.cancel()
        timer.cancel()
        assert timer.cancelled
        sim.run()

    def test_peek_skips_cancelled_front(self, sim):
        timer = sim.schedule_cancellable(1.0, lambda _: None)
        sim.schedule(5.0, lambda _: None)
        timer.cancel()
        assert sim.peek() == 5.0

    def test_step_returns_false_when_only_tombstones_remain(self, sim):
        timer = sim.schedule_cancellable(1.0, lambda _: None)
        timer.cancel()
        assert sim.step() is False
        assert sim.now == 0.0

    def test_mass_cancellation_compacts_the_heap(self, sim):
        seen = []
        timers = [
            sim.schedule_cancellable(float(i + 1), seen.append, i)
            for i in range(300)
        ]
        for timer in timers[:299]:
            timer.cancel()
        # Compaction kicks in once tombstones dominate; the one live
        # entry must survive it.
        assert len(sim._heap) < 300
        sim.run()
        assert seen == [299]

    def test_interrupt_during_hold_cancels_the_stale_resume(self, sim):
        """An interrupted hold must not leave its scheduled resume
        behind: the stale entry would re-advance the generator at the
        original wake time."""
        trace = []

        def proc():
            try:
                yield hold(10.0)
                trace.append(("woke", sim.now))
            except Interrupt:
                trace.append(("interrupted", sim.now))
                yield hold(1.0)
                trace.append(("resumed", sim.now))

        process = sim.spawn(proc())
        sim.schedule(3.0, lambda _: process.interrupt(), None)
        sim.run()
        assert trace == [("interrupted", 3.0), ("resumed", 4.0)]
        assert sim.now == 4.0  # nothing fired at the stale t=10

    def test_interrupted_hold_timer_handle_is_dropped(self, sim):
        def proc():
            try:
                yield hold(10.0)
            except Interrupt:
                pass

        process = sim.spawn(proc())
        sim.schedule(1.0, lambda _: process.interrupt(), None)
        sim.run()
        assert process._hold_timer is None
        assert not process.alive


class TestCohortStepping:
    """``step_cohort`` / cohort-draining ``run()`` must execute the
    calendar in exactly the order repeated ``step()`` calls would — the
    cohort drain removes loop overhead, never reorders."""

    def _churn(self, sim, trace):
        """A workload with same-time cohorts, mid-cohort scheduling,
        holds, events, and cancellations."""
        from repro.sim.kernel import Simulation  # noqa: F401 (docs)

        def worker(name, delay):
            yield hold(delay)
            trace.append((name, sim.now))
            yield hold(1.0)
            trace.append((name + "-again", sim.now))

        for i in range(4):
            sim.spawn(worker(f"w{i}", 2.0), name=f"w{i}")
        # Same-instant callbacks, one of which schedules another at the
        # same instant (joins the cohort) and one at a later instant.
        sim.schedule(2.0, lambda _: trace.append(("cb", sim.now)), None)
        sim.schedule(
            2.0,
            lambda _: sim.schedule(
                0.0, lambda __: trace.append(("nested", sim.now)), None
            ),
            None,
        )
        timer = sim.schedule_cancellable(
            2.0, lambda _: trace.append(("cancelled", sim.now)), None
        )
        sim.schedule(0.5, lambda _: timer.cancel(), None)

    def test_batched_run_matches_scalar_run(self):
        traces = []
        for cohorts in (False, True):
            sim = Simulation()
            trace = []
            self._churn(sim, trace)
            if cohorts:
                sim.run()
            else:
                while sim.step():
                    pass
            traces.append((trace, sim.now))
        assert traces[0] == traces[1]
        assert ("cancelled", 2.0) not in traces[0][0]
        assert ("nested", 2.0) in traces[0][0]

    def test_step_cohort_counts_and_advances(self, sim):
        seen = []
        for label in ("a", "b", "c"):
            sim.schedule(1.0, seen.append, label)
        sim.schedule(2.0, seen.append, "late")
        assert sim.step_cohort() == 3
        assert seen == ["a", "b", "c"]
        assert sim.now == 1.0
        assert sim.step_cohort() == 1
        assert sim.now == 2.0
        assert sim.step_cohort() == 0  # empty calendar

    def test_step_cohort_skips_cancelled_entries(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "keep")
        timer = sim.schedule_cancellable(1.0, seen.append, "dead")
        sim.schedule(1.0, seen.append, "keep2")
        timer.cancel()
        assert sim.step_cohort() == 2
        assert seen == ["keep", "keep2"]

    def test_max_events_disables_cohort_draining(self):
        """A bounded run must honour the per-entry budget even when the
        kernel drains cohorts (a cohort could overshoot it)."""
        sim = Simulation()
        seen = []
        for label in ("a", "b", "c"):
            sim.schedule(1.0, seen.append, label)
        sim.run(max_events=2)
        assert seen == ["a", "b"]

    def test_run_until_stops_before_next_cohort(self):
        sim = Simulation()
        seen = []
        sim.schedule(1.0, seen.append, "early")
        sim.schedule(5.0, seen.append, "late")
        assert sim.run(until=2.0) == 2.0
        assert seen == ["early"]
