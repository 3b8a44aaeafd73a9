"""The simulation kernel: clock, event calendar, and processes.

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
callers, Algorithm 1's traced delivery (:mod:`repro.core.delivery`)
and the cross-validation engine (:mod:`repro.simulation.des_engine`),
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

    def __repr__(self) -> str:
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"

    def resume(self, _arg: Any = None) -> None:
        """Advance the generator; schedule its next hold."""
        try:
            command = next(self.gen)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        sim = self.sim
        if not isinstance(command, Hold):
            raise SimulationError(
                f"process {self.name!r} yielded unsupported command {command!r}"
            )
        if sim.tracer is not None:
            sim.tracer.instant(
                "hold", self.name, sim.now,
                delay=command.delay, track=self.name,
            )
        sim.schedule(command.delay, self.resume, None)

    def _finish(self, result: Any) -> None:
        self.alive = False
        self.result = result
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.end("process", self.name, self.sim.now, track=self.name)


class Simulation:
    """Event calendar, simulation clock, and process scheduler.

    The calendar is a binary heap of ``(time, sequence, callback,
    argument)`` entries.  The sequence number makes scheduling stable:
    two callbacks scheduled for the same instant run in the order they
    were scheduled.

    Passing a :class:`repro.obs.trace.Tracer` (or assigning
    :attr:`tracer` later) records process starts/stops and holds as
    structured trace events; when ``tracer`` is ``None`` (the default)
    the kernel pays one attribute test per dispatch and nothing more.
    """

    def __init__(self, tracer=None, sanitizer=None) -> None:
        self.now = 0.0
        self.tracer = tracer
        # Optional repro.sim.sanitize.Sanitizer: event-time
        # monotonicity violations are reported to it (tallied in check
        # mode) in addition to the kernel's own hard error below.
        self.sanitizer = sanitizer
        self._heap: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        self._sequence = 0
        self._process_count = 0
        self._running = False

    def __repr__(self) -> str:
        return f"<Simulation t={self.now:.6g} pending={len(self._heap)}>"

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
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
        if self.tracer is not None:
            self.tracer.begin("process", proc.name, self.now, track=proc.name)
        self.schedule(0.0, proc.resume, None)
        return proc

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _advance_to(self, time: float) -> None:
        if self.sanitizer is not None:
            self.sanitizer.note_time("kernel.now", time)
        if time < self.now:
            raise SimulationError(
                f"simulation clock would move backwards: {time} < {self.now}"
            )
        self.now = time

    def step(self) -> bool:
        """Execute the next calendar entry.  Returns False when the
        calendar is empty."""
        if not self._heap:
            return False
        time, _seq, callback, arg = heapq.heappop(self._heap)
        self._advance_to(time)
        callback(arg)
        return True

    def step_cohort(self) -> int:
        """Execute every entry due at the next event time.

        Entries scheduled *during* the cohort for the same instant
        join it: they carry higher sequence numbers, so the heap
        surfaces them in exactly the order repeated :meth:`step` calls
        would.  Returns the number of entries executed (0 when the
        calendar is empty).
        """
        heap = self._heap
        if not heap:
            return 0
        time = heap[0][0]
        self._advance_to(time)
        executed = 0
        while heap and heap[0][0] == time:
            _t, _seq, callback, arg = heapq.heappop(heap)
            callback(arg)
            executed += 1
        return executed

    def peek(self) -> float:
        """Time of the next calendar entry, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else math.inf

    def run(self) -> float:
        """Run until the calendar drains.  Returns the final clock.

        Drains whole same-time cohorts through :meth:`step_cohort`;
        the heap already orders a cohort by sequence number, so the
        execution order is exactly that of repeated :meth:`step` calls.
        """
        if self._running:
            raise SimulationError("Simulation.run() is not re-entrant")
        self._running = True
        try:
            while self._heap:
                self.step_cohort()
        finally:
            self._running = False
        return self.now
