"""A process-oriented discrete-event kernel: the CSIM stand-in.

The paper ran its model on CSIM [Sch85].  The package runs it on the
interval-stepped :class:`~repro.simulation.engine.IntervalEngine`; this
kernel survives only so the oracles beside it can replay the model the
CSIM way and the tests can demand identical results.

A *process* is a generator that yields ``hold(delay)`` commands, each
suspending it ``delay`` simulated seconds:

.. code-block:: python

    sim = Simulation()

    def lane(sim, reads):
        for subobject in range(3):
            reads.append((sim.now, subobject))  # one read per interval
            yield hold(1.0)

    sim.spawn(lane(sim, reads), name="lane-0")
    sim.run()                                   # until the calendar drains

Plain callbacks go on the same calendar through
:meth:`Simulation.schedule`.  That is the whole vocabulary: its two
callers, Algorithm 1's traced delivery (:mod:`tests.oracles.delivery`)
and the cross-validation engine (:mod:`tests.oracles.des_engine`),
need nothing more.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterator, List, Tuple

from repro.errors import SimulationError


@dataclass(frozen=True)
class Hold:
    """Command: advance the issuing process by ``delay`` seconds."""

    delay: float


def _check_delay(delay: float) -> None:
    # NaN fails both comparisons, so one test rejects negative, NaN
    # and infinite delays (an infinite one would never come due).
    if not 0 <= delay < math.inf:
        raise SimulationError(f"delay must be finite and >= 0, got {delay!r}")


def hold(delay: float) -> Hold:
    """Return a command that suspends the caller ``delay`` seconds."""
    _check_delay(delay)
    return Hold(float(delay))


class Process:
    """A running simulation process wrapping a generator.

    Processes are created through :meth:`Simulation.spawn`; when the
    generator returns, :attr:`alive` drops and :attr:`result` holds
    its return value.
    """

    def __init__(self, sim: "Simulation", gen: Generator[Any, Any, Any], name: str) -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        self.alive = True
        self.result: Any = None

    def resume(self, _arg: Any = None) -> None:
        """Advance the generator; schedule its next hold."""
        try:
            command = next(self.gen)
        except StopIteration as stop:
            self.alive = False
            self.result = stop.value
            return
        if not isinstance(command, Hold):
            raise SimulationError(
                f"process {self.name!r} yielded unsupported command {command!r}"
            )
        self.sim.schedule(command.delay, self.resume, None)


class Simulation:
    """Event calendar, simulation clock, and process scheduler.

    The calendar is a binary heap of ``(time, sequence, callback,
    argument)`` entries.  The sequence number makes scheduling stable:
    two callbacks scheduled for the same instant run in the order they
    were scheduled.  Delays are never negative, so the clock never
    runs backwards.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        self._sequence = 0
        self._process_count = 0
        self._running = False

    def schedule(self, delay: float, callback: Callable[..., None], arg: Any = None) -> None:
        """Run ``callback(arg)`` at ``now + delay``."""
        _check_delay(delay)
        self._sequence += 1
        heapq.heappush(self._heap, (self.now + delay, self._sequence, callback, arg))

    def spawn(self, gen: Iterator[Any], name: str = "") -> Process:
        """Create and start a process from generator ``gen``.

        The process takes its first step at the current simulation
        time (as a zero-delay calendar entry).
        """
        if not hasattr(gen, "send"):
            raise SimulationError(
                "spawn() expects a generator; did you forget to call the "
                "process function?"
            )
        self._process_count += 1
        proc = Process(self, gen, name or f"process-{self._process_count}")  # type: ignore[arg-type]
        self.schedule(0.0, proc.resume, None)
        return proc

    def run(self) -> float:
        """Run until the calendar drains.  Returns the final clock."""
        if self._running:
            raise SimulationError("Simulation.run() is not re-entrant")
        self._running = True
        heap = self._heap
        try:
            while heap:
                self.now, _seq, callback, arg = heapq.heappop(heap)
                callback(arg)
        finally:
            self._running = False
        return self.now
