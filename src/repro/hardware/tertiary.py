"""The tertiary storage device.

The paper's architecture keeps the whole database on one tertiary
device (40 mbps in Table 3) and materialises objects onto the disk
array on demand.  §3.2.4 characterises the device by two quantities:

* a sustained **bandwidth** ``B_tertiary``;
* a **reposition time** paid whenever the read head must move to a
  non-adjacent position — which happens once per subobject when the
  tape layout is *sequential* (object order) rather than the
  *fragment-ordered* layout the paper proposes.

The device serves one materialisation at a time from a FIFO queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Hashable, Optional

from repro import units
from repro.errors import ConfigurationError, SimulationError
from repro.obs.metrics import Tally


@dataclass
class TertiaryRequest:
    """One pending materialisation.

    Parameters
    ----------
    object_id:
        The object to materialise.
    size:
        Object size in megabits.
    service_time:
        Total device time needed (computed by the caller from the
        tape layout; see :mod:`repro.media.tape_layout`).
    enqueued_at:
        Simulation time the request joined the queue.
    """

    object_id: Hashable
    size: float
    service_time: float
    enqueued_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting before service began."""
        if self.started_at is None:
            raise SimulationError("request has not started service")
        return self.started_at - self.enqueued_at


class TertiaryDevice:
    """A single tertiary store with a FIFO materialisation queue.

    The device is *driven* by the caller (the simulation engine polls
    it with the current time), which keeps it usable from both the
    interval-stepped engine and the DES oracle in ``tests/oracles/``.
    """

    def __init__(
        self,
        bandwidth: float = units.mbps(40.0),
        reposition_time: float = units.seconds(5.0),
        name: str = "tertiary",
    ) -> None:
        if bandwidth <= 0:
            raise ConfigurationError(f"tertiary bandwidth must be > 0, got {bandwidth}")
        if reposition_time < 0:
            raise ConfigurationError(
                f"reposition_time must be >= 0, got {reposition_time}"
            )
        self.bandwidth = bandwidth
        self.reposition_time = reposition_time
        self.name = name
        self.queue: Deque[TertiaryRequest] = deque()
        self.current: Optional[TertiaryRequest] = None
        self._finish_time = 0.0
        self.completed = 0
        self.busy_time = 0.0
        self.queueing_delay = Tally(name=f"{name}.queueing")
        self.service_tally = Tally(name=f"{name}.service")

    def __repr__(self) -> str:
        state = f"serving {self.current.object_id}" if self.current else "idle"
        return f"<TertiaryDevice {self.name} {state} queued={len(self.queue)}>"

    # ------------------------------------------------------------------
    # Service-time models (§3.2.4)
    # ------------------------------------------------------------------
    def transfer_time(self, size: float) -> float:
        """Pure transfer time of ``size`` megabits at full bandwidth."""
        return size / self.bandwidth

    def service_time_fragment_ordered(self, size: float) -> float:
        """Materialisation time with the paper's fragment-ordered tape
        layout: one initial reposition, then streaming at full rate."""
        return self.reposition_time + self.transfer_time(size)

    def service_time_sequential(self, size: float, num_subobjects: int) -> float:
        """Materialisation time with a sequential (object-order) tape
        layout: the bandwidth/layout mismatch forces one reposition per
        subobject (§3.2.4)."""
        if num_subobjects < 1:
            raise ConfigurationError(
                f"num_subobjects must be >= 1, got {num_subobjects}"
            )
        return num_subobjects * self.reposition_time + self.transfer_time(size)

    # ------------------------------------------------------------------
    # Queue discipline
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a materialisation is in service."""
        return self.current is not None

    @property
    def queue_length(self) -> int:
        """Requests waiting (excluding the one in service)."""
        return len(self.queue)

    def enqueue(self, request: TertiaryRequest, now: float) -> None:
        """Add a materialisation request; starts service if idle."""
        self.queue.append(request)
        self._maybe_start(now)

    def is_pending(self, object_id: Hashable) -> bool:
        """True when ``object_id`` is in service or queued."""
        if self.current is not None and self.current.object_id == object_id:
            return True
        return any(r.object_id == object_id for r in self.queue)

    def poll(self, now: float) -> Optional[TertiaryRequest]:
        """Advance the device to ``now``.

        Returns the completed request if the in-service
        materialisation finished at or before ``now``, else ``None``.
        At most one completion is returned per call; call repeatedly
        to drain multiple completions.
        """
        if self.current is None:
            self._maybe_start(now)
            return None
        if now + 1e-12 < self._finish_time:
            return None
        finished = self.current
        finished.finished_at = self._finish_time
        self.completed += 1
        self.busy_time += finished.service_time
        self.service_tally.record(finished.service_time)
        self.current = None
        self._maybe_start(max(now, self._finish_time))
        return finished

    def next_completion(self) -> Optional[float]:
        """Time of the in-service request's completion, if any."""
        return self._finish_time if self.current is not None else None

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the device spent transferring."""
        if elapsed <= 0:
            return 0.0
        in_service = 0.0
        if self.current is not None and self.current.started_at is not None:
            in_service = min(elapsed, self._finish_time) - self.current.started_at
        return min(1.0, (self.busy_time + max(0.0, in_service)) / elapsed)

    def _maybe_start(self, now: float) -> None:
        if self.current is not None or not self.queue:
            return
        request = self.queue.popleft()
        request.started_at = now
        self.queueing_delay.record(request.queueing_delay)
        self.current = request
        self._finish_time = now + request.service_time
