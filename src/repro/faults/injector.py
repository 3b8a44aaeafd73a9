"""Deterministic disk failure/repair scheduling.

The injector owns the *fault clock*: a heap of pending fail/repair
events, fed by two sources —

* **scripted** scenarios: explicit ``(disk, interval)`` pairs, the
  reproducible single-failure experiments of the test suite and CI;
* **stochastic** lifetimes: per-drive exponential MTTF/MTTR draws.

Every drive draws from its **own** named RNG substream
(``substream("disk-<i>")`` of the injector's stream), so the schedule
of one drive never depends on how many draws another drive has made —
the whole schedule is a pure function of ``(seed, mttf, mttr,
fail_at)``.  Times are in *intervals*, the striping protocol's natural
clock.

The injector is policy-agnostic: it only says *when* drives fail and
recover.  The coordinators (:mod:`repro.faults.coordinator`) decide
what that does to slots, displays, and rebuilds.  Both engines (the
interval-stepped loop and the DES oracle in ``tests/oracles/``) reach
the schedule only through a coordinator, which reads
:meth:`FaultInjector.peek` once per interval and calls
:meth:`FaultInjector.pop_due` when an event is due.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.rng import RandomStream

#: Event kinds.
FAIL = "fail"
REPAIR = "repair"


@dataclass(frozen=True)
class FaultEvent:
    """One drive state transition, at a whole interval boundary."""

    interval: int
    disk: int
    kind: str  # FAIL | REPAIR

    def __str__(self) -> str:
        return f"{self.kind} disk {self.disk} at interval {self.interval}"


class FaultInjector:
    """The deterministic failure/repair schedule for ``D`` drives."""

    def __init__(
        self,
        num_disks: int,
        stream: RandomStream,
        mttf: Optional[float] = None,
        mttr: Optional[float] = None,
        fail_at: Iterable[Tuple[int, int]] = (),
    ) -> None:
        if num_disks < 1:
            raise ConfigurationError(f"num_disks must be >= 1, got {num_disks}")
        if mttf is not None and mttf <= 0:
            raise ConfigurationError(f"mttf must be > 0 intervals, got {mttf}")
        if mttr is not None and mttr <= 0:
            raise ConfigurationError(f"mttr must be > 0 intervals, got {mttr}")
        self.num_disks = num_disks
        self.mttf = mttf
        self.mttr = mttr
        # One independent substream per drive: a drive's lifetime draws
        # are a function of (seed, disk) alone, never of event order.
        self._streams = [
            stream.substream(f"disk-{disk}") for disk in range(num_disks)
        ]
        self._down = [False] * num_disks
        self._heap: List[Tuple[int, int, int, str]] = []  # (t, seq, disk, kind)
        self._seq = 0
        for disk, interval in fail_at:
            if not 0 <= int(disk) < num_disks:
                raise ConfigurationError(
                    f"fail_at disk {disk} outside 0..{num_disks - 1}"
                )
            self._push(int(interval), int(disk), FAIL)
        if mttf is not None:
            for disk in range(num_disks):
                self._push(self._delay(disk, mttf), disk, FAIL)

    def __repr__(self) -> str:
        return (
            f"<FaultInjector D={self.num_disks} mttf={self.mttf} "
            f"mttr={self.mttr} pending={len(self._heap)}>"
        )

    def _push(self, interval: int, disk: int, kind: str) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (interval, self._seq, disk, kind))

    def _delay(self, disk: int, mean: float) -> int:
        """An exponential lifetime/repair delay, at least one interval."""
        return max(1, math.ceil(self._streams[disk].exponential(mean)))

    def peek(self) -> Optional[int]:
        """Interval of the next pending event (``None`` when exhausted)."""
        return self._heap[0][0] if self._heap else None

    def is_down(self, disk: int) -> bool:
        """True between a drive's fail event and its repair event."""
        return self._down[disk]

    def pop_due(self, interval: int) -> List[FaultEvent]:
        """All state transitions due at or before ``interval``.

        Applies the transitions (a drive failing twice — scripted plus
        stochastic — collapses to one) and schedules the follow-on:
        a repair after MTTR when one is configured, the next failure
        after MTTF once repaired.  Scripted failures with ``mttr=None``
        leave the drive down for the rest of the run.
        """
        fired: List[FaultEvent] = []
        while self._heap and self._heap[0][0] <= interval:
            when, _seq, disk, kind = heapq.heappop(self._heap)
            if kind == FAIL:
                if self._down[disk]:
                    continue  # overlapping sources; already down
                self._down[disk] = True
                if self.mttr is not None:
                    self._push(when + self._delay(disk, self.mttr), disk, REPAIR)
            else:
                if not self._down[disk]:
                    continue
                self._down[disk] = False
                if self.mttf is not None:
                    self._push(when + self._delay(disk, self.mttf), disk, FAIL)
            fired.append(FaultEvent(interval=when, disk=disk, kind=kind))
        return fired
