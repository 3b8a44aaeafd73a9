"""Tests for the simulation kernel: clock, calendar, processes."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulation, hold


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
    # An infinite delay would never come due: run() would spin on it.
    for delay in (-0.1, float("nan"), float("inf")):
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda _: None)
    assert sim.run() == 0.0


def test_hold_rejects_negative():
    for delay in (-1.0, float("nan"), float("inf")):
        with pytest.raises(SimulationError):
            hold(delay)


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


def test_process_returns_value(sim):
    def proc():
        yield hold(1.0)
        return 42

    p = sim.spawn(proc())
    assert p.alive
    sim.run()
    assert not p.alive
    assert p.result == 42


def test_run_is_not_reentrant(sim):
    def proc():
        with pytest.raises(SimulationError):
            sim.run()
        yield hold(0.0)

    sim.spawn(proc())
    sim.run()


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


class TestCohortStepping:
    """``step_cohort`` / cohort-draining ``run()`` must execute the
    calendar in exactly the order repeated ``step()`` calls would — the
    cohort drain removes loop overhead, never reorders."""

    def _churn(self, sim, trace):
        """A workload with same-time cohorts, mid-cohort scheduling,
        and holds."""

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
        # Scheduled at t=0.5 for t=2.0: joins the t=2.0 cohort behind
        # every entry that was already waiting for it.
        sim.schedule(
            0.5,
            lambda _: sim.schedule(
                1.5, lambda __: trace.append(("late-joiner", sim.now)), None
            ),
            None,
        )

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
        trace = traces[0][0]
        assert ("nested", 2.0) in trace
        assert trace.index(("cb", 2.0)) < trace.index(("late-joiner", 2.0))
        assert trace.index(("late-joiner", 2.0)) < trace.index(("nested", 2.0))

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
