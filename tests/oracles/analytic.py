"""Closed-form queueing ground truth and harness server policies.

The open-workload engine is only trustworthy if it reproduces known
results.  Classical teletraffic theory supplies them (the same
formulas the VoD capacity analyses in PAPERS.md build on —
arXiv:1202.5094 sizes NGN video service by blocking probability,
i.e. Erlang-B):

* :func:`erlang_b` — blocking probability of an ``M/G/c/c`` loss
  system (insensitive to the service distribution beyond its mean);
* :func:`erlang_c` — delay probability of an ``M/M/c`` queue;
* :func:`mmc_mean_wait` — its mean waiting time.

Validating the *full* storage stack against these would confound the
comparison: staggered-striping admission is rotation-aligned, so its
service process is not memoryless.  Instead,
:class:`LossServerPolicy` and :class:`QueueServerPolicy` are minimal
:class:`~repro.simulation.policy.StoragePolicy` implementations — a
bank of ``c`` servers with deterministic or exponential holding times
— that run through the *real* engine, arrival, deadline, and blocking
machinery end to end.  ``tests/workload/test_analytic.py`` drives
them and checks the simulated statistics against the closed forms
within replication confidence intervals.
"""

from __future__ import annotations

import heapq
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.simulation.policy import (
    Completion,
    Request,
    StoragePolicy,
    UtilizationSample,
)
from repro.sim.rng import RandomStream


def erlang_b(servers: int, offered_erlangs: float) -> float:
    """Blocking probability of an ``M/G/c/c`` loss system.

    ``offered_erlangs`` is ``arrival_rate × mean_service_time``.  Uses
    the numerically stable recurrence ``B(0) = 1``, ``B(k) = a·B(k-1)
    / (k + a·B(k-1))``.
    """
    if servers < 1:
        raise ConfigurationError(f"servers must be >= 1, got {servers}")
    if offered_erlangs < 0:
        raise ConfigurationError(
            f"offered load must be >= 0, got {offered_erlangs}"
        )
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = (
            offered_erlangs * blocking / (k + offered_erlangs * blocking)
        )
    return blocking


def erlang_c(servers: int, offered_erlangs: float) -> float:
    """Probability an ``M/M/c`` arrival waits (queue non-empty on
    arrival), via the Erlang-B recurrence.  Requires a stable queue
    (``offered < servers``)."""
    if offered_erlangs >= servers:
        raise ConfigurationError(
            f"M/M/c needs offered < servers for stability, "
            f"got a={offered_erlangs} c={servers}"
        )
    b = erlang_b(servers, offered_erlangs)
    rho = offered_erlangs / servers
    return b / (1.0 - rho + rho * b)


def mmc_mean_wait(
    servers: int, arrival_rate: float, mean_service: float
) -> float:
    """Mean time in queue ``W_q`` of an ``M/M/c`` system (seconds,
    averaged over *all* customers including those served at once)."""
    offered = arrival_rate * mean_service
    waiting_probability = erlang_c(servers, offered)
    return waiting_probability * mean_service / (servers - offered)


class _ServerBankPolicy(StoragePolicy):
    """Shared machinery: ``c`` servers, FIFO queue, interval clock.

    A service admitted at interval ``t`` with holding time ``s``
    occupies its server for intervals ``[t, t+s)`` — the server frees,
    and the completion is reported, in ``advance(t + s)``, mirroring
    the real schedulers' slot semantics.
    """

    def __init__(self, servers: int) -> None:
        if servers < 1:
            raise ConfigurationError(f"servers must be >= 1, got {servers}")
        self.servers = servers
        self.busy = 0
        self._queue: List[Request] = []
        #: Min-heap of (finish_interval, sequence, request, start).
        self._in_service: List = []
        self._seq = 0
        self.admitted = 0
        self.completed = 0
        self.cancelled = 0

    # -- StoragePolicy ------------------------------------------------
    def preload(self, object_ids: List[int]) -> None:
        """Server banks have no storage to warm."""

    def submit(self, request: Request, interval: int) -> None:
        self._queue.append(request)

    def _holding_intervals(self, request: Request) -> int:
        raise NotImplementedError

    def advance(self, interval: int) -> List[Completion]:
        completions: List[Completion] = []
        while self._in_service and self._in_service[0][0] <= interval:
            _finish, _seq, request, start = heapq.heappop(self._in_service)
            self.busy -= 1
            self.completed += 1
            completions.append(
                Completion(
                    request=request,
                    deliver_start=start,
                    finished_at=interval - 1,
                )
            )
        while self._queue and self.busy < self.servers:
            request = self._queue.pop(0)
            holding = self._holding_intervals(request)
            self.busy += 1
            self.admitted += 1
            self._seq += 1
            heapq.heappush(
                self._in_service,
                (interval + holding, self._seq, request, interval),
            )
        return completions

    def try_cancel(self, request: Request, interval: int) -> bool:
        for index, queued in enumerate(self._queue):
            if queued.request_id == request.request_id:
                del self._queue[index]
                self.cancelled += 1
                return True
        return False

    def pending_count(self) -> int:
        return len(self._queue) + self.busy

    def stats(self) -> Dict[str, float]:
        return {
            "servers": float(self.servers),
            "admitted": float(self.admitted),
            "cancelled": float(self.cancelled),
        }

    def utilization_sample(self) -> UtilizationSample:
        return self.busy, self.busy / self.servers


class LossServerPolicy(_ServerBankPolicy):
    """``c`` servers with *deterministic* holding times, no waiting
    room beyond the current interval.

    Driven with Poisson arrivals and ``deadline_intervals=0`` this is
    an ``M/D/c/c`` loss system; by Erlang insensitivity its blocking
    probability is exactly :func:`erlang_b` of the offered load (up to
    the interval quantisation of the clock)."""

    def __init__(self, servers: int, service_intervals: int) -> None:
        super().__init__(servers)
        if service_intervals < 1:
            raise ConfigurationError(
                f"service_intervals must be >= 1, got {service_intervals}"
            )
        self.service_intervals = service_intervals

    def __repr__(self) -> str:
        return (
            f"<LossServerPolicy c={self.servers} busy={self.busy} "
            f"S={self.service_intervals}>"
        )

    def _holding_intervals(self, request: Request) -> int:
        return self.service_intervals


class QueueServerPolicy(_ServerBankPolicy):
    """``c`` servers with *exponential* holding times and an unbounded
    FIFO queue — ``M/M/c`` when driven with Poisson arrivals and no
    deadline.  Holding times are quantised to whole intervals
    (``max(1, round(exp))``), a bias of order one interval the
    analytic suite's tolerances account for."""

    def __init__(
        self,
        servers: int,
        mean_service_intervals: float,
        stream: RandomStream,
    ) -> None:
        super().__init__(servers)
        if mean_service_intervals <= 0:
            raise ConfigurationError(
                f"mean_service_intervals must be > 0, "
                f"got {mean_service_intervals}"
            )
        self.mean_service_intervals = mean_service_intervals
        self.stream = stream

    def __repr__(self) -> str:
        return (
            f"<QueueServerPolicy c={self.servers} busy={self.busy} "
            f"queue={len(self._queue)}>"
        )

    def _holding_intervals(self, request: Request) -> int:
        return max(
            1, round(self.stream.exponential(self.mean_service_intervals))
        )
