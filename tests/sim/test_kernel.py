"""Tests for the DES oracle kernel: clock, calendar, processes."""

from __future__ import annotations

import pytest

from tests.oracles.kernel import Simulation, SimulationError, hold


@pytest.fixture
def sim() -> Simulation:
    """A fresh simulation kernel."""
    return Simulation()


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
