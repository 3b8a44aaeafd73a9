"""Display stations: the closed-loop request sources (§4.1).

"We assumed a closed system where once a display station issues a
request, it does not issue another until the first one is serviced.
We also assume a zero think time between the requests."

A station can also be configured with a non-zero think time (in
intervals) for sensitivity experiments beyond the paper's worst-case
setting.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.simulation.policy import NEVER, Request
from repro.workload.access import AccessDistribution
from repro.workload.arrivals import ArrivalProcess


@dataclass
class DisplayStation:
    """One station's closed-loop state."""

    station_id: int
    think_intervals: int = 0
    outstanding: Optional[Request] = None
    next_issue_at: int = 0  # earliest interval the next request may go out
    requests_issued: int = 0
    displays_completed: int = 0

    @property
    def busy(self) -> bool:
        """True while a request is outstanding."""
        return self.outstanding is not None


class StationPool(ArrivalProcess):
    """All display stations plus the shared access distribution.

    The paper's closed workload, expressed as one
    :class:`~repro.workload.arrivals.ArrivalProcess` implementation:
    the population is the fixed station set, nobody ever blocks
    (``is_open`` is ``False``, ``deadline_intervals`` is ``None``),
    and a completed station re-issues after its think time.

    Idle stations sit in a heap keyed by ``next_issue_at``, so an
    interval costs O(ready) instead of a scan over every station.  The
    issue order — and with it every draw from the shared access
    distribution — is the scan's: ready stations issue in ascending
    ``station_id`` whatever their ready times, so the due pops are
    sorted before issuing.
    """

    def __init__(
        self,
        num_stations: int,
        access: AccessDistribution,
        think_intervals: int = 0,
    ) -> None:
        if num_stations < 1:
            raise ConfigurationError(
                f"num_stations must be >= 1, got {num_stations}"
            )
        if think_intervals < 0:
            raise ConfigurationError(
                f"think_intervals must be >= 0, got {think_intervals}"
            )
        self.access = access
        self.stations: List[DisplayStation] = [
            DisplayStation(station_id=i, think_intervals=think_intervals)
            for i in range(num_stations)
        ]
        self._request_seq = 0
        # (next_issue_at, station_id) for every idle station.  The
        # initial list is already heap-ordered.
        self._idle_heap: List[Tuple[int, int]] = [
            (0, i) for i in range(num_stations)
        ]

    def __repr__(self) -> str:
        busy = sum(1 for s in self.stations if s.busy)
        return f"<StationPool {busy}/{len(self.stations)} busy>"

    def __len__(self) -> int:
        return len(self.stations)

    def _issue(self, station: DisplayStation, interval: int) -> Request:
        self._request_seq += 1
        request = Request(
            request_id=self._request_seq,
            station_id=station.station_id,
            object_id=self.access.sample(),
            issued_at=interval,
        )
        station.outstanding = request
        station.requests_issued += 1
        return request

    def ready_requests(self, interval: int) -> List[Request]:
        """Issue a request from every idle station whose think time has
        elapsed."""
        heap = self._idle_heap
        if not heap or heap[0][0] > interval:
            return []
        due: List[int] = []
        while heap and heap[0][0] <= interval:
            due.append(heapq.heappop(heap)[1])
        due.sort()
        return [self._issue(self.stations[i], interval) for i in due]

    def next_ready(self, interval: int) -> int:
        """When the next idle station's think time has elapsed."""
        heap = self._idle_heap
        return heap[0][0] if heap else NEVER

    def verify_skip(self, sanitizer, start: int, stop: int) -> None:
        """No idle station becomes ready in the skipped intervals."""
        ready = min(
            (s.next_issue_at for s in self.stations if not s.busy),
            default=NEVER,
        )
        sanitizer.expect(
            ready >= stop,
            "skip",
            f"a station re-issues at {ready}, inside skipped intervals "
            f"{start}..{stop - 1}",
        )

    def complete(self, request: Request, interval: int) -> None:
        """A station's display finished; it thinks, then re-issues."""
        station = self.stations[request.station_id]
        if station.outstanding is None or (
            station.outstanding.request_id != request.request_id
        ):
            raise ConfigurationError(
                f"completion for {request} does not match station state"
            )
        station.outstanding = None
        station.displays_completed += 1
        station.next_issue_at = interval + 1 + station.think_intervals
        heapq.heappush(
            self._idle_heap, (station.next_issue_at, station.station_id)
        )

    def total_completed(self) -> int:
        """Displays completed across all stations."""
        return sum(s.displays_completed for s in self.stations)
