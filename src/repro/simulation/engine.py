"""The simulation engine: interval semantics, next-event advance.

The model's clock ticks in ``S(C_i)`` intervals, and a stepped
interval runs four stages:

1. the arrival process issues requests — idle closed-loop stations
   (the paper's §4.1 workload) or open Poisson/MMPP arrivals
   (:mod:`repro.workload.arrivals`);
2. the storage policy advances — lane releases, tertiary progress,
   admissions, completions;
3. completions are fed back to the arrival process (a closed station
   re-issues after its think time);
4. for *open* sources with an admission deadline, requests still
   waiting past it are withdrawn from the policy and counted as
   **blocked** — the loss semantics of an unbounded user population.

Most intervals are quiet: nothing is submitted, claimed, released or
completed.  After each stepped interval the engine asks every source
when it can next change state — the policy's
:meth:`~repro.simulation.policy.StoragePolicy.next_activity`, the
arrival process's ``next_ready``, the deadline-expiry head and, with
telemetry on, the next sampled interval — and jumps straight to the
earliest.  The policy books the skipped span's counters
(:meth:`~repro.simulation.policy.StoragePolicy.skip_span`) and the
engine records the load sample once per skipped interval, so the
result is byte-identical to stepping every interval (the DES oracle in
``tests/oracles/`` still does).  A stepped interval costs
``O(queued requests)``; a skipped one costs one load sample.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.simulation.policy import Completion, StoragePolicy
from repro.simulation.results import SimulationResult
from repro.workload.arrivals import ArrivalProcess


class IntervalEngine:
    """Couples an arrival process to a storage policy over a shared
    clock.

    ``stations`` is any :class:`~repro.workload.arrivals.
    ArrivalProcess` — the closed :class:`~repro.workload.stations.
    StationPool` or open :class:`~repro.workload.arrivals.
    OpenArrivals`.  ``obs`` (a :class:`repro.obs.RunObservation`)
    enables wall-clock phase profiling of each step; the default
    ``None`` keeps the step path untouched.
    """

    def __init__(
        self,
        policy: StoragePolicy,
        stations: ArrivalProcess,
        interval_length: float,
        technique: str = "",
        access_mean: Optional[float] = None,
        obs=None,
        sanitizer=None,
    ) -> None:
        if interval_length <= 0:
            raise ConfigurationError(
                f"interval_length must be > 0, got {interval_length}"
            )
        self.policy = policy
        self.stations = stations
        self.interval_length = interval_length
        self.technique = technique
        self.access_mean = access_mean
        self.interval = 0
        self.obs = obs
        # Optional repro.sim.sanitize.Sanitizer; run() checks every
        # stepped interval and every skipped span, so the step path
        # stays untouched.
        self.sanitizer = sanitizer
        # Telemetry samples every sample_stride-th interval, so those
        # intervals are always stepped.
        self._obs_stride = obs.sample_stride if obs is not None else 0
        # Open-workload state.  `is_open`/`deadline_intervals` default
        # to False/None on closed sources, so the closed path below is
        # byte-for-byte the seed path.
        self._is_open = bool(getattr(stations, "is_open", False))
        self._deadline = getattr(stations, "deadline_intervals", None)
        self.offered_total = 0
        self.blocked_total = 0
        self._waiting: dict = {}
        self._expiries: deque = deque()
        # Arrival intervals of requests blocked since run() last drained
        # this: blocking is attributed to the request's *arrival* time,
        # so windowed blocked/offered counts cover the same cohort.
        self._blocked_issued: List[int] = []
        if self._is_open:
            # Instance-bound dispatch, as with `_step_observed`: the
            # open step carries deadline bookkeeping the closed hot
            # path must not pay for.
            self.step = self._step_open
            if obs is not None:
                registry = obs.registry
                self._c_offered = registry.counter("workload.offered")
                self._c_blocked = registry.counter("workload.blocked")
                self._c_completed = registry.counter("workload.completed")
                obs.add_flusher(self._flush_workload_counters)
        elif obs is not None:
            # Instance-bound dispatch: the uninstrumented `step` stays
            # byte-for-byte the seed path and pays nothing when off.
            self.step = self._step_observed

    def __repr__(self) -> str:
        return f"<IntervalEngine t={self.interval} {self.policy!r}>"

    def step(self) -> List[Completion]:
        """Advance exactly one interval; return its completions."""
        t = self.interval
        for request in self.stations.ready_requests(t):
            self.policy.submit(request, t)
        completions = self.policy.advance(t)
        for completion in completions:
            self.stations.complete(completion.request, t)
        self.interval += 1
        return completions

    def _step_observed(self) -> List[Completion]:
        """`step` with wall-clock phase timing (behaviour identical).

        Timers run on every ``sample_stride``-th interval only, so the
        profile is a uniform sample: per-entry means are unbiased and
        the cost amortises to near zero on long runs.
        """
        t = self.interval
        if t % self._obs_stride:
            for request in self.stations.ready_requests(t):
                self.policy.submit(request, t)
            completions = self.policy.advance(t)
            for completion in completions:
                self.stations.complete(completion.request, t)
            self.interval += 1
            return completions
        profiler = self.obs.profiler
        t0 = perf_counter()
        for request in self.stations.ready_requests(t):
            self.policy.submit(request, t)
        t1 = perf_counter()
        profiler.add("engine.submit", t1 - t0)
        completions = self.policy.advance(t)
        t2 = perf_counter()
        profiler.add("engine.advance", t2 - t1)
        for completion in completions:
            self.stations.complete(completion.request, t)
        profiler.add("engine.complete", perf_counter() - t2)
        self.interval += 1
        return completions

    def _step_open(self) -> List[Completion]:
        """`step` for open arrivals: deadline tracking and blocking.

        Arrivals register an expiry when the source carries an
        admission deadline; an arrival still unadmitted when its
        expiry interval passes is withdrawn from the policy
        (:meth:`~repro.simulation.policy.StoragePolicy.try_cancel`)
        and counted as blocked.  A ``try_cancel`` refusal means the
        display already started — it runs to completion and is simply
        dropped from the tracker.
        """
        t = self.interval
        stations = self.stations
        policy = self.policy
        deadline = self._deadline
        waiting = self._waiting
        for request in stations.ready_requests(t):
            policy.submit(request, t)
            self.offered_total += 1
            if deadline is not None:
                waiting[request.request_id] = request
                self._expiries.append((t + deadline, request.request_id))
        completions = policy.advance(t)
        for completion in completions:
            stations.complete(completion.request, t)
            if deadline is not None:
                waiting.pop(completion.request.request_id, None)
        if deadline is not None:
            expiries = self._expiries
            while expiries and expiries[0][0] <= t:
                _expire_at, request_id = expiries.popleft()
                request = waiting.pop(request_id, None)
                if request is None:
                    continue  # completed in time
                if policy.try_cancel(request, t):
                    self.blocked_total += 1
                    self._blocked_issued.append(request.issued_at)
                    stations.record_blocked(request, t)
                # else: admission won the race; it will complete.
        self.interval += 1
        return completions

    def verify_skip(self, sanitizer, start: int, stop: int) -> None:
        """No admission deadline expires in the skipped intervals."""
        if self._expiries:
            due = self._expiries[0][0]
            sanitizer.expect(
                due >= stop,
                "skip",
                f"admission deadline at {due} falls in skipped intervals "
                f"{start}..{stop - 1}",
            )

    def _flush_workload_counters(self) -> None:
        self._c_offered.value = float(self.offered_total)
        self._c_blocked.value = float(self.blocked_total)
        self._c_completed.value = float(self.stations.total_completed())

    def run(
        self, warmup_intervals: int, measure_intervals: int
    ) -> SimulationResult:
        """Run warmup then a measurement window; return the result.

        Completions during warmup keep the closed loop moving but are
        not counted.
        """
        if warmup_intervals < 0 or measure_intervals < 1:
            raise ConfigurationError(
                "need warmup_intervals >= 0 and measure_intervals >= 1"
            )
        result = SimulationResult(
            technique=self.technique,
            num_stations=len(self.stations),
            access_mean=self.access_mean,
            interval_length=self.interval_length,
            warmup_intervals=warmup_intervals,
            measure_intervals=measure_intervals,
            completed=0,
            arrival=getattr(self.stations, "kind", "closed"),
        )
        end_of_warmup = self.interval + warmup_intervals
        end_of_run = end_of_warmup + measure_intervals
        sanitizer = self.sanitizer
        is_open = self._is_open
        policy = self.policy
        while self.interval < end_of_run:
            in_window = self.interval >= end_of_warmup
            t = self.interval
            if is_open and in_window:
                offered_before = self.offered_total
            for completion in self.step():
                if in_window:
                    result.record(completion)
            if is_open and in_window:
                result.offered += self.offered_total - offered_before
            if is_open and self._blocked_issued:
                # A blocked request counts toward the window iff it
                # *arrived* in the window (same cohort as `offered`,
                # so blocking_probability can never exceed 1).
                result.blocked += sum(
                    1 for issued in self._blocked_issued
                    if issued >= end_of_warmup
                )
                self._blocked_issued.clear()
            if sanitizer is not None:
                sanitizer.check_interval(policy, t)
            if in_window:
                sample = policy.utilization_sample()
                result.record_utilization(
                    sample.active_displays, sample.busy_fraction
                )
            # The policy answers first: while it must step, nothing
            # else is asked.
            wake = policy.next_activity(t)
            if wake > t + 1:
                wake = self._next_wake(t, wake, end_of_run)
                if wake > t + 1:
                    self._skip(t + 1, wake, end_of_warmup, result)
        result.policy_stats = policy.stats()
        return result

    def _next_wake(self, interval: int, wake: int, end_of_run: int) -> int:
        """The first interval after ``interval`` at which any source
        can change state, given the policy's ``wake`` (capped at
        ``end_of_run``)."""
        ready = self.stations.next_ready(interval)
        if ready < wake:
            wake = ready
        if self._expiries and self._expiries[0][0] < wake:
            wake = self._expiries[0][0]
        if self._obs_stride:
            sampled = (interval // self._obs_stride + 1) * self._obs_stride
            if sampled < wake:
                wake = sampled
        return min(wake, end_of_run)

    def _skip(
        self, start: int, stop: int, end_of_warmup: int,
        result: SimulationResult,
    ) -> None:
        """Jump over the quiet intervals ``start .. stop - 1``.

        Nothing changes state in them, so each in the measurement
        window records the load sample the last stepped interval left
        behind (:meth:`SimulationResult.record_utilization_span`).
        """
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.check_skip(
                start, stop, self.policy, self.stations, self
            )
        self.policy.skip_span(start, stop)
        if stop > end_of_warmup:
            sample = self.policy.utilization_sample()
            result.record_utilization_span(
                sample.active_displays, sample.busy_fraction,
                stop - max(start, end_of_warmup),
            )
        self.interval = stop
