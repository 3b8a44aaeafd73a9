"""The storage-policy interface the engine drives.

A policy owns everything below the request queue: residency,
placement, admission, the tertiary device, and active displays.  The
engine owns the clock and the (closed-loop) display stations; per
stepped interval it calls :meth:`StoragePolicy.advance` and feeds each
returned :class:`Completion` back into its stations, and it hands the
quiet intervals :meth:`StoragePolicy.next_activity` lets it jump over
to :meth:`StoragePolicy.skip_span`.
"""

from __future__ import annotations

import abc
import sys
from dataclasses import dataclass
from typing import Dict, List

#: What :meth:`StoragePolicy.next_activity` and
#: :meth:`~repro.workload.arrivals.ArrivalProcess.next_ready` return
#: when nothing is scheduled: only another source's event can change
#: the state.
NEVER = sys.maxsize


@dataclass(frozen=True)
class Request:
    """One display request from a station."""

    request_id: int
    station_id: int
    object_id: int
    issued_at: int  # interval index

    def __str__(self) -> str:
        return (
            f"request {self.request_id} (station {self.station_id}, "
            f"object {self.object_id}, t={self.issued_at})"
        )


@dataclass(frozen=True)
class Completion:
    """A finished display, reported by the policy to the engine."""

    request: Request
    deliver_start: int  # interval of the first subobject's delivery
    finished_at: int  # interval of the last subobject's delivery

    @property
    def startup_latency(self) -> int:
        """Intervals from request to first delivery."""
        return self.deliver_start - self.request.issued_at

    @property
    def service_intervals(self) -> int:
        """Intervals of actual delivery."""
        return self.finished_at - self.deliver_start + 1


class StoragePolicy(abc.ABC):
    """What the engine requires of a storage technique."""

    @abc.abstractmethod
    def preload(self, object_ids: List[int]) -> None:
        """Make the given objects disk resident at no cost (warm start)."""

    @abc.abstractmethod
    def submit(self, request: Request, interval: int) -> None:
        """A station's request enters the system."""

    @abc.abstractmethod
    def advance(self, interval: int) -> List[Completion]:
        """Advance one interval; return displays that finished in it."""

    @abc.abstractmethod
    def pending_count(self) -> int:
        """Requests submitted but not yet completed."""

    @abc.abstractmethod
    def stats(self) -> Dict[str, float]:
        """Policy-specific statistics for the result report."""

    def try_cancel(self, request: Request, interval: int) -> bool:
        """Withdraw a request that has not yet been admitted.

        The engine calls this when an open arrival's admission
        deadline expires (see :mod:`repro.workload.arrivals`).  Return
        ``True`` if the request was still waiting and has been fully
        released (queue entry, pins, and any tentatively claimed
        resources) — the request is then *blocked*.  Return ``False``
        if service already started; the display then runs to
        completion.  The default (closed-workload policies never
        cancel) refuses."""
        return False

    def next_activity(self, interval: int) -> int:
        """First interval after ``interval`` at which :meth:`advance`
        could change state, assuming no request is submitted or
        cancelled before then (``NEVER`` when nothing is scheduled).

        The engine calls this right after stepping ``interval`` and
        hands the quiet intervals in between to :meth:`skip_span`
        instead of :meth:`advance`.  Waking early is always safe;
        waking late is never.  The default steps every interval.
        """
        return interval + 1

    def skip_span(self, start: int, stop: int) -> None:
        """Book intervals ``start .. stop - 1``, in which
        :meth:`next_activity` promised nothing happens, exactly as
        :meth:`advance` would have (a policy that skips implements
        both)."""
        raise NotImplementedError

    def utilization_sample(self) -> "UtilizationSample":
        """Instantaneous load snapshot (active displays, fraction of
        the array's bandwidth in use).  Policies may override; the
        default reports nothing."""
        return UtilizationSample(active_displays=0, busy_fraction=0.0)


@dataclass(frozen=True)
class UtilizationSample:
    """One per-interval load observation."""

    active_displays: int
    busy_fraction: float
