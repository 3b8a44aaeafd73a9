"""Open-workload arrival processes.

The paper's experiment (§4.1) is a *closed* system: a fixed pool of
stations, each re-issuing the moment its display completes.  That
cannot express the production target of millions of independent users,
where requests arrive from an effectively infinite population and an
overloaded server *loses* customers instead of merely queueing them.
Large-scale VoD analyses (arXiv:1202.5094) model exactly this regime:
a Poisson or Markov-modulated Poisson request stream, Zipf catalog
skew, diurnal rate curves, flash crowds onto a hot title, and blocking
probability as the first-class quality metric.

This module generalises the request source behind
:class:`~repro.simulation.engine.IntervalEngine` into an
:class:`ArrivalProcess`:

* :class:`~repro.workload.stations.StationPool` (the paper's closed
  loop) satisfies the contract unchanged — closed runs stay
  byte-identical;
* :class:`OpenArrivals` generates open traffic from a continuous-time
  :class:`PoissonSource` or :class:`MMPPSource`, optionally shaped by
  a :class:`RateModulation` (diurnal curve + flash-crowd burst) via
  exact thinning, with every draw on a named RNG substream so runs are
  deterministic and cache/digest-isolated.

Arrival times are generated in *continuous* time (seconds) and only
quantised to intervals when handed to the engine, so interarrival
statistics are exact (see tests/workload/test_arrival_properties.py)
and the same source drives both the interval-stepped engine and the
DES oracle in ``tests/oracles/``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.simulation.policy import Request
from repro.sim.rng import RandomStream
from repro.workload.access import AccessDistribution

#: Station id stamped on open-workload requests: there is no station —
#: the population is unbounded — but :class:`Request` is frozen and
#: shared with the closed path, so open arrivals use a sentinel.
OPEN_STATION_ID = -1


class ArrivalProcess:
    """What the simulation engines require of a request source.

    The contract is exactly the one :class:`StationPool` already
    implements — :meth:`ready_requests`, :meth:`complete`,
    :meth:`total_completed`, ``len()`` — plus three attributes the
    open generalisation adds (their defaults describe a closed
    source, so ``StationPool`` inherits this class unchanged):

    * :attr:`is_open` — ``True`` when the population is unbounded and
      requests may be *blocked* (abandon without service);
    * :attr:`deadline_intervals` — intervals a request may wait for
      admission before the engine blocks it (``None`` = wait forever);
    * :meth:`record_blocked` — notification that a request the source
      issued was blocked.
    """

    is_open: bool = False
    deadline_intervals: Optional[int] = None
    #: Result-row label for the arrival model ("closed", "poisson",
    #: "mmpp"); closed sources inherit the default.
    kind: str = "closed"

    def ready_requests(self, interval: int) -> List[Request]:
        """Requests entering the system during ``interval``."""
        raise NotImplementedError

    def next_ready(self, interval: int) -> int:
        """First interval after ``interval`` whose :meth:`ready_requests`
        may be non-empty (the engine skips the ones before it).  Waking
        early is always safe; the default never skips."""
        return interval + 1

    def complete(self, request: Request, interval: int) -> None:
        """A previously issued request finished service."""
        raise NotImplementedError

    def record_blocked(self, request: Request, interval: int) -> None:
        """A previously issued request was blocked (open sources only)."""

    def total_completed(self) -> int:
        """Requests completed over the source's lifetime."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Closed population size (0 for open sources)."""
        return 0


class PoissonSource:
    """Homogeneous Poisson arrivals at ``rate`` requests/second.

    Generates exact exponential interarrival times on its own stream;
    :meth:`next_time` returns successive absolute arrival times.
    """

    def __init__(self, rate: float, stream: RandomStream) -> None:
        if rate <= 0:
            raise ConfigurationError(f"arrival rate must be > 0, got {rate}")
        self.rate = rate
        self.stream = stream
        self._time = 0.0

    def __repr__(self) -> str:
        return f"<PoissonSource rate={self.rate:g}/s>"

    def next_time(self) -> float:
        """Absolute time of the next arrival (seconds)."""
        self._time += self.stream.exponential(1.0 / self.rate)
        return self._time


class MMPPSource:
    """Markov-modulated Poisson arrivals.

    The source moves through ``len(rates)`` phases in cyclic order;
    phase ``i`` emits Poisson traffic at ``rates[i]`` requests/second
    and holds for an exponential sojourn with mean ``sojourns[i]``
    seconds.  Cyclic switching keeps the chain irreducible with a
    closed-form stationary distribution — phase ``i`` is occupied a
    fraction ``sojourns[i] / sum(sojourns)`` of the time — which the
    property suite checks empirically.

    Arrival generation is exact: a candidate exponential gap at the
    current phase's rate is accepted only if it lands before the phase
    ends; otherwise time advances to the phase boundary and the draw
    restarts in the next phase (memorylessness makes the restart
    distribution-preserving).  Phase transitions draw from their own
    stream so the arrival sequence within a phase is unperturbed by
    sojourn draws.
    """

    def __init__(
        self,
        rates: Sequence[float],
        sojourns: Sequence[float],
        arrival_stream: RandomStream,
        phase_stream: RandomStream,
    ) -> None:
        if len(rates) < 2:
            raise ConfigurationError(
                f"MMPP needs >= 2 phases, got {len(rates)}"
            )
        if len(sojourns) != len(rates):
            raise ConfigurationError(
                f"MMPP needs one sojourn per phase: "
                f"{len(rates)} rates vs {len(sojourns)} sojourns"
            )
        if any(r < 0 for r in rates) or max(rates) <= 0:
            raise ConfigurationError(
                f"MMPP rates must be >= 0 with at least one > 0, got {rates}"
            )
        if any(s <= 0 for s in sojourns):
            raise ConfigurationError(
                f"MMPP sojourns must be > 0 seconds, got {sojourns}"
            )
        self.rates = [float(r) for r in rates]
        self.sojourns = [float(s) for s in sojourns]
        self.arrival_stream = arrival_stream
        self.phase_stream = phase_stream
        self.phase = 0
        self._time = 0.0
        self._phase_end = phase_stream.exponential(self.sojourns[0])
        #: Total time spent in each phase (for occupancy validation).
        self.time_in_phase = [0.0] * len(self.rates)

    def __repr__(self) -> str:
        return (
            f"<MMPPSource phases={len(self.rates)} phase={self.phase} "
            f"rates={self.rates}>"
        )

    def stationary_distribution(self) -> List[float]:
        """Long-run fraction of time in each phase."""
        total = sum(self.sojourns)
        return [s / total for s in self.sojourns]

    def _advance_phase(self) -> None:
        self.time_in_phase[self.phase] += self._phase_end - self._time
        self._time = self._phase_end
        self.phase = (self.phase + 1) % len(self.rates)
        self._phase_end += self.phase_stream.exponential(
            self.sojourns[self.phase]
        )

    def next_time(self) -> float:
        """Absolute time of the next arrival (seconds)."""
        while True:
            rate = self.rates[self.phase]
            if rate <= 0:
                self._advance_phase()
                continue
            candidate = self._time + self.arrival_stream.exponential(
                1.0 / rate
            )
            if candidate <= self._phase_end:
                self.time_in_phase[self.phase] += candidate - self._time
                self._time = candidate
                return candidate
            self._advance_phase()


class RateModulation:
    """Deterministic rate shaping: diurnal curve × flash-crowd burst.

    ``factor(t)`` multiplies the base arrival rate at time ``t``
    seconds:

    * the diurnal component is ``1 + amplitude * sin(2π t / period)``
      (``period`` in seconds), the first-order shape of daily VoD
      demand;
    * the burst component is ``burst_factor`` inside the window
      ``[burst_start, burst_end)`` seconds and 1 outside — a flash
      crowd, optionally concentrated on the hottest title via
      ``burst_hotspot`` (handled by :class:`OpenArrivals`).

    :attr:`peak_factor` bounds ``factor`` from above so sources can
    run at peak rate and arrivals be *thinned* (kept with probability
    ``factor(t) / peak_factor``) — the exact construction of an
    inhomogeneous Poisson process.
    """

    def __init__(
        self,
        diurnal_period: Optional[float] = None,
        diurnal_amplitude: float = 0.0,
        burst_start: Optional[float] = None,
        burst_end: Optional[float] = None,
        burst_factor: float = 1.0,
    ) -> None:
        if diurnal_amplitude and not 0.0 <= diurnal_amplitude <= 1.0:
            raise ConfigurationError(
                f"diurnal amplitude must be in [0, 1], got {diurnal_amplitude}"
            )
        if diurnal_amplitude > 0 and (
            diurnal_period is None or diurnal_period <= 0
        ):
            raise ConfigurationError(
                "diurnal modulation needs a positive period"
            )
        if burst_factor < 0:
            raise ConfigurationError(
                f"burst factor must be >= 0, got {burst_factor}"
            )
        self.diurnal_period = diurnal_period
        self.diurnal_amplitude = diurnal_amplitude
        self.burst_start = burst_start
        self.burst_end = burst_end
        self.burst_factor = burst_factor
        has_burst = (
            burst_start is not None
            and burst_end is not None
            and burst_end > burst_start
        )
        self._has_burst = has_burst
        self.peak_factor = (1.0 + max(0.0, diurnal_amplitude)) * (
            max(1.0, burst_factor) if has_burst else 1.0
        )

    @property
    def is_flat(self) -> bool:
        """True when ``factor`` is identically 1 (no thinning needed)."""
        return self.diurnal_amplitude == 0.0 and not self._has_burst

    def in_burst(self, t: float) -> bool:
        """True while the flash-crowd window covers ``t`` seconds."""
        return bool(
            self._has_burst and self.burst_start <= t < self.burst_end
        )

    def factor(self, t: float) -> float:
        """Rate multiplier at ``t`` seconds (``0 <= factor <= peak``)."""
        value = 1.0
        if self.diurnal_amplitude > 0:
            value *= 1.0 + self.diurnal_amplitude * math.sin(
                2.0 * math.pi * t / self.diurnal_period
            )
        if self.in_burst(t):
            value *= self.burst_factor
        return value


class OpenArrivals(ArrivalProcess):
    """Open traffic: unbounded population, blocking on missed deadline.

    Couples a continuous-time source (:class:`PoissonSource` or
    :class:`MMPPSource`, run at *peak* rate) to the interval clock:
    :meth:`ready_requests` emits every arrival whose time falls inside
    the interval, thinning against the :class:`RateModulation` when
    one is shaped (a separate ``workload.modulation`` substream, so an
    unmodulated run draws nothing from it), and sampling each
    arrival's object from the access distribution — except during a
    flash-crowd window, where a ``burst_hotspot`` fraction of arrivals
    is redirected to the most popular title (its own
    ``workload.burst`` substream).

    ``deadline_intervals`` bounds how long an arrival may wait for
    admission; the engine blocks (cancels) requests that exceed it.
    ``0`` yields a pure loss system — the Erlang-B regime the analytic
    suite validates against.
    """

    is_open = True

    def __init__(
        self,
        source,
        access: AccessDistribution,
        interval_length: float,
        deadline_intervals: Optional[int] = None,
        modulation: Optional[RateModulation] = None,
        burst_hotspot: float = 0.0,
        modulation_stream: Optional[RandomStream] = None,
        burst_stream: Optional[RandomStream] = None,
        kind: str = "open",
    ) -> None:
        if interval_length <= 0:
            raise ConfigurationError(
                f"interval_length must be > 0, got {interval_length}"
            )
        if deadline_intervals is not None and deadline_intervals < 0:
            raise ConfigurationError(
                f"deadline_intervals must be >= 0, got {deadline_intervals}"
            )
        if not 0.0 <= burst_hotspot <= 1.0:
            raise ConfigurationError(
                f"burst_hotspot must be in [0, 1], got {burst_hotspot}"
            )
        self.source = source
        self.access = access
        self.interval_length = interval_length
        self.deadline_intervals = deadline_intervals
        self.modulation = modulation
        self.burst_hotspot = burst_hotspot
        self._modulation_stream = modulation_stream
        self._burst_stream = burst_stream
        if modulation is not None and not modulation.is_flat:
            if modulation_stream is None:
                raise ConfigurationError(
                    "shaped arrivals need a modulation (thinning) stream"
                )
        if burst_hotspot > 0 and burst_stream is None:
            raise ConfigurationError(
                "burst_hotspot needs a dedicated burst stream"
            )
        self.kind = kind
        self._hot_object: Optional[int] = None
        self._next_arrival = source.next_time()
        self._request_seq = 0
        self.offered = 0
        self.blocked = 0
        self.completed = 0

    def __repr__(self) -> str:
        return (
            f"<OpenArrivals {self.source!r} offered={self.offered} "
            f"blocked={self.blocked}>"
        )

    def __len__(self) -> int:
        return 0

    def _object_for(self, t_seconds: float) -> int:
        if (
            self.burst_hotspot > 0
            and self.modulation is not None
            and self.modulation.in_burst(t_seconds)
            and self._burst_stream.uniform() < self.burst_hotspot
        ):
            if self._hot_object is None:
                self._hot_object = self.access.popularity_ranking()[0]
            return self._hot_object
        return self.access.sample()

    def next_ready(self, interval: int) -> int:
        """The interval of the pre-drawn next arrival, thinned or not
        (a thinned arrival still draws from the modulation stream in
        its own interval)."""
        arrival = self._next_arrival
        length = self.interval_length
        index = int(arrival // length)
        # ready_requests(i) takes arrivals before (i + 1) * length;
        # step back past any rounding that would make this late.
        while index > 0 and arrival < index * length:
            index -= 1
        return index

    def verify_skip(self, sanitizer, start: int, stop: int) -> None:
        """The next arrival lands after the skipped intervals."""
        sanitizer.expect(
            self._next_arrival >= stop * self.interval_length,
            "skip",
            f"arrival at {self._next_arrival:.6f} s falls in skipped "
            f"intervals {start}..{stop - 1}",
        )

    def ready_requests(self, interval: int) -> List[Request]:
        """Arrivals whose (continuous) time lands in ``interval``."""
        window_end = (interval + 1) * self.interval_length
        issued: List[Request] = []
        modulation = self.modulation
        thin = modulation is not None and not modulation.is_flat
        while self._next_arrival < window_end:
            t = self._next_arrival
            self._next_arrival = self.source.next_time()
            if thin:
                keep = modulation.factor(t) / modulation.peak_factor
                if self._modulation_stream.uniform() >= keep:
                    continue
            self._request_seq += 1
            self.offered += 1
            issued.append(
                Request(
                    request_id=self._request_seq,
                    station_id=OPEN_STATION_ID,
                    object_id=self._object_for(t),
                    issued_at=interval,
                )
            )
        return issued

    def complete(self, request: Request, interval: int) -> None:
        """An admitted arrival finished its display."""
        self.completed += 1

    def record_blocked(self, request: Request, interval: int) -> None:
        """An arrival missed its admission deadline and left."""
        self.blocked += 1

    def total_completed(self) -> int:
        return self.completed
