"""The simulation kernel: clock, event calendar, and processes.

Modelling style (mirrors CSIM):

.. code-block:: python

    sim = Simulation()

    def customer(sim, server):
        yield hold(1.5)                    # think for 1.5 s
        yield server.request()             # queue for the facility
        yield hold(0.3)                    # service time
        server.release()

    sim.spawn(customer(sim, server), name="customer-0")
    sim.run(until=100.0)

A *process* is a generator that yields **commands**:

* ``hold(delay)`` — advance this process ``delay`` simulated seconds.
* ``wait(event)`` — block until a :class:`~repro.sim.events.SimEvent`
  fires; the ``yield`` evaluates to the event's value.
* a :class:`~repro.sim.events.SimEvent` directly — same as ``wait``.
* a *request object* produced by :meth:`Facility.request` or
  :meth:`Store.get` / :meth:`Store.put` — block until granted.
* another :class:`Process` — block until that process terminates; the
  ``yield`` evaluates to its return value.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterator, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.sim.events import Interrupt, ProcessKilled, SimEvent


class Timer:
    """Handle for a cancellable calendar entry.

    Cancellation is *lazy*: the heap entry stays where it is and is
    discarded when it reaches the front (O(1) per cancel instead of an
    O(n) remove + re-heapify).  The calendar compacts itself when
    cancelled entries pile up, so a workload that cancels most of its
    timers never scans dead weight.
    """

    __slots__ = ("_sim", "_seq", "time", "cancelled")

    def __init__(self, sim: "Simulation", seq: int, time: float) -> None:
        self._sim = sim
        self._seq = seq
        self.time = time
        self.cancelled = False

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<Timer t={self.time:.6g} {state}>"

    def cancel(self) -> None:
        """Invalidate the entry; a no-op if already cancelled.

        Must not be called after the entry has fired (the owner is
        expected to drop its handle on fire — see ``Process.resume``);
        a fired sequence number would linger in the tombstone set
        until the next compaction.
        """
        if not self.cancelled:
            self.cancelled = True
            self._sim._cancel_entry(self._seq)


@dataclass(frozen=True)
class Hold:
    """Command: advance the issuing process by ``delay`` seconds."""

    delay: float


@dataclass(frozen=True)
class Wait:
    """Command: block the issuing process until ``event`` fires."""

    event: SimEvent


def hold(delay: float) -> Hold:
    """Return a command that suspends the caller ``delay`` seconds."""
    if delay < 0 or math.isnan(delay):
        raise SimulationError(f"cannot hold for negative/NaN delay {delay!r}")
    return Hold(float(delay))


def wait(event: SimEvent) -> Wait:
    """Return a command that blocks the caller on ``event``."""
    return Wait(event)


class Process:
    """A running simulation process wrapping a generator.

    Processes are created through :meth:`Simulation.spawn`; user code
    only interacts with them to wait on completion (``yield process``)
    or to :meth:`interrupt` / :meth:`kill` them.
    """

    def __init__(self, sim: "Simulation", gen: Generator[Any, Any, Any], name: str) -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        self.alive = True
        self.result: Any = None
        self.done_event = SimEvent(sim, name=f"{name}.done")
        self._waiting_on: Optional[SimEvent] = None
        self._hold_timer: Optional[Timer] = None

    def __repr__(self) -> str:
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"

    def resume(self, value: Any = None) -> None:
        """Advance the generator with ``value``; dispatch its next command."""
        if not self.alive:
            return
        self._waiting_on = None
        self._hold_timer = None
        try:
            command = self.gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._dispatch(command)

    def throw(self, exc: BaseException) -> None:
        """Throw ``exc`` into the generator at its current yield point."""
        if not self.alive:
            return
        if self._waiting_on is not None:
            self._waiting_on.remove_waiter(self)
            self._waiting_on = None
        if self._hold_timer is not None:
            # The process was mid-hold: cancel its pending resume, or
            # the stale entry would fire later and advance the
            # generator a second time at the wrong instant.
            self._hold_timer.cancel()
            self._hold_timer = None
        try:
            command = self.gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except ProcessKilled:
            self._finish(None)
            return
        self._dispatch(command)

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process: it receives :class:`Interrupt` at its yield."""
        self.sim.schedule(0.0, self.throw, Interrupt(cause))

    def kill(self) -> None:
        """Terminate the process unconditionally."""
        self.sim.schedule(0.0, self.throw, ProcessKilled())

    def _finish(self, result: Any) -> None:
        self.alive = False
        self.result = result
        self.gen.close()
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.end("process", self.name, self.sim.now, track=self.name)
        self.done_event.fire(result)

    def _dispatch(self, command: Any) -> None:
        sim = self.sim
        if isinstance(command, Hold):
            if sim.tracer is not None:
                sim.tracer.instant(
                    "hold", self.name, sim.now,
                    delay=command.delay, track=self.name,
                )
            self._hold_timer = sim.schedule_cancellable(
                command.delay, self.resume, None
            )
        elif isinstance(command, Wait):
            self._block_on(command.event)
        elif isinstance(command, SimEvent):
            self._block_on(command)
        elif isinstance(command, Process):
            self._block_on(command.done_event)
        elif hasattr(command, "bind"):
            # Resource-style request objects (Facility.request, Store.get...)
            command.bind(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported command {command!r}"
            )

    def _block_on(self, event: SimEvent) -> None:
        if event.add_waiter(self):
            self._waiting_on = event
        else:
            # Event already set: resume immediately with its value.
            self.sim.schedule(0.0, self.resume, event.value)


class Simulation:
    """Event calendar, simulation clock, and process scheduler.

    The calendar is a binary heap of ``(time, sequence, callback,
    argument)`` entries.  The sequence number makes scheduling stable:
    two callbacks scheduled for the same instant run in the order they
    were scheduled.

    Passing a :class:`repro.obs.trace.Tracer` (or assigning
    :attr:`tracer` later) records process starts/stops, holds, and
    facility queueing as structured trace events; when ``tracer`` is
    ``None`` (the default) the kernel pays one attribute test per
    dispatch and nothing more.
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
        # Sequence numbers of lazily-cancelled entries (tombstones);
        # entries are discarded as they surface, and the heap is
        # rebuilt without them once they outnumber the live entries.
        self._cancelled_seqs: Set[int] = set()

    def __repr__(self) -> str:
        return f"<Simulation t={self.now:.6g} pending={len(self._heap)}>"

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], arg: Any = None) -> None:
        """Run ``callback(arg)`` at ``now + delay``."""
        if delay < 0 or math.isnan(delay):
            raise SimulationError(f"cannot schedule at negative/NaN delay {delay!r}")
        self._sequence += 1
        heapq.heappush(self._heap, (self.now + delay, self._sequence, callback, arg))

    def schedule_cancellable(
        self, delay: float, callback: Callable[..., None], arg: Any = None
    ) -> Timer:
        """Like :meth:`schedule`, returning a :class:`Timer` whose
        :meth:`~Timer.cancel` invalidates the entry in O(1)."""
        if delay < 0 or math.isnan(delay):
            raise SimulationError(f"cannot schedule at negative/NaN delay {delay!r}")
        self._sequence += 1
        time = self.now + delay
        heapq.heappush(self._heap, (time, self._sequence, callback, arg))
        return Timer(self, self._sequence, time)

    def _cancel_entry(self, seq: int) -> None:
        self._cancelled_seqs.add(seq)
        # Compact once tombstones dominate: one O(n) rebuild amortised
        # over >= n/2 O(1) cancels, and never for the common workload
        # that cancels only a handful of timers.
        if (
            len(self._cancelled_seqs) > 64
            and 2 * len(self._cancelled_seqs) > len(self._heap)
        ):
            cancelled = self._cancelled_seqs
            self._heap = [e for e in self._heap if e[1] not in cancelled]
            heapq.heapify(self._heap)
            cancelled.clear()

    def event(self, name: str = "") -> SimEvent:
        """Create a new :class:`SimEvent` owned by this simulation."""
        return SimEvent(self, name=name)

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
    def step(self) -> bool:
        """Execute the next live calendar entry.  Returns False when no
        live entry remains (cancelled tombstones are discarded)."""
        heap = self._heap
        cancelled = self._cancelled_seqs
        while heap:
            time, seq, callback, arg = heapq.heappop(heap)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            if self.sanitizer is not None:
                self.sanitizer.note_time("kernel.now", time)
            if time < self.now:
                raise SimulationError(
                    f"simulation clock would move backwards: {time} < {self.now}"
                )
            self.now = time
            callback(arg)
            return True
        return False

    def step_cohort(self) -> int:
        """Execute every live entry due at the next event time.

        Entries scheduled *during* the cohort for the same instant
        join it: they carry higher sequence numbers, so the heap
        surfaces them in exactly the order repeated :meth:`step` calls
        would.  Returns the number of entries executed (0 when the
        calendar is empty).
        """
        time = self.peek()
        if time == math.inf:
            return 0
        if self.sanitizer is not None:
            self.sanitizer.note_time("kernel.now", time)
        if time < self.now:
            raise SimulationError(
                f"simulation clock would move backwards: {time} < {self.now}"
            )
        self.now = time
        heap = self._heap
        cancelled = self._cancelled_seqs
        executed = 0
        while heap and heap[0][0] == time:
            _t, seq, callback, arg = heapq.heappop(heap)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            callback(arg)
            executed += 1
        return executed

    def peek(self) -> float:
        """Time of the next live calendar entry, or ``inf`` if none."""
        heap = self._heap
        cancelled = self._cancelled_seqs
        while heap and cancelled and heap[0][1] in cancelled:
            cancelled.discard(heap[0][1])
            heapq.heappop(heap)
        return heap[0][0] if heap else math.inf

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the calendar drains, ``until`` is reached, or
        ``max_events`` entries have executed.  Returns the final clock.
        """
        if self._running:
            raise SimulationError("Simulation.run() is not re-entrant")
        self._running = True
        # run() drains whole same-time cohorts through step_cohort()
        # instead of re-entering the loop per entry.  Execution order is
        # identical (the heap already orders a cohort by sequence
        # number), so this removes only loop and bounds-check overhead.
        # Cohort draining needs no per-entry budget check, so it only
        # serves the (dominant) unbounded case.
        use_cohorts = max_events is None
        executed = 0
        try:
            while self._heap:
                if until is not None and self.peek() > until:
                    self.now = until
                    break
                if use_cohorts:
                    executed += self.step_cohort()
                elif max_events is not None and executed >= max_events:
                    break
                elif self.step():
                    executed += 1
            else:
                if until is not None and self.now < until:
                    self.now = until
        finally:
            self._running = False
        return self.now
