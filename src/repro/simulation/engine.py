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
arrival process's ``next_ready`` and the deadline-expiry head — and
jumps straight to the earliest.  The policy books the skipped span's
counters (:meth:`~repro.simulation.policy.StoragePolicy.skip_span`)
and the engine records the load sample once per skipped interval, so the
result is byte-identical to stepping every interval (the DES oracle in
``tests/oracles/`` still does).  A skipped span costs one load sample.

A stepped interval costs one ``step``: the arrival source's ready
check, one :meth:`~repro.simulation.policy.StoragePolicy.advance` and,
in the measurement window, one load sample (a plain tuple).  Inside
``advance`` the staggered policy runs only the stages with due work —
a lane release or completion at its heap's top, a busy or queued
tertiary writer, a deferred placement, a queued request — so an
interval with nothing due costs a handful of attribute tests, and one
with a queue costs its admission pass, ``O(waiting lanes)`` for the
verdicts plus the walk.

Telemetry rides the same clock and forces no step.  ``run`` books a
sample (:meth:`~repro.simulation.policy.StoragePolicy.observe_sample`)
at every ``sample_stride`` multiple from the state its interval left:
the state after its step when the multiple is stepped, else the
skipped span's, which is the state a step would have read (the span is
quiet).  It also times every ``sample_stride``-th stepped interval's
``step`` for the phase profile.  With telemetry off the loop pays one
test per stepped interval.
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
    enables the telemetry samples and the phase profile that
    :meth:`run` books; the default ``None`` books nothing.
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
            if obs is not None:
                registry = obs.registry
                self._c_offered = registry.counter("workload.offered")
                self._c_blocked = registry.counter("workload.blocked")
                self._c_completed = registry.counter("workload.completed")
                obs.add_flusher(self._flush_workload_counters)

    def __repr__(self) -> str:
        return f"<IntervalEngine t={self.interval} {self.policy!r}>"

    def step(self) -> List[Completion]:
        """Advance exactly one interval; return its completions."""
        # Dispatched here, not bound on the instance: a bound method
        # stored on the engine would make it a reference cycle that
        # only the cyclic collector frees.
        if self._is_open:
            return self._step_open()
        t = self.interval
        for request in self.stations.ready_requests(t):
            self.policy.submit(request, t)
        completions = self.policy.advance(t)
        for completion in completions:
            self.stations.complete(completion.request, t)
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
        not counted.  An observed run books each sample point once the
        clock has passed it (:meth:`_book_samples`): nothing changes
        state between one step and the next, so the policy is as the
        point's interval left it.
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
        policy = self.policy
        step = self.step
        record = result.record
        record_utilization = result.record_utilization
        utilization_sample = policy.utilization_sample
        next_activity = policy.next_activity
        obs = self.obs
        if obs is not None:
            stride = obs.sample_stride
            next_sample = self.interval  # sample points before it are booked
            until_timed = 1  # stepped intervals until the next timed one
        # Requests are offered only on stepped intervals, so the window's
        # offered count is the total after the last warmup step subtracted
        # from the total at the end.
        offered_before = self.offered_total
        while self.interval < end_of_run:
            t = self.interval
            if obs is None:
                completions = step()
            else:
                if next_sample < t:
                    next_sample = self._book_samples(next_sample, t)
                until_timed -= 1
                if until_timed:
                    completions = step()
                else:
                    until_timed = stride
                    completions = self._timed_step()
            if t >= end_of_warmup:
                for completion in completions:
                    record(completion)
                record_utilization(*utilization_sample())
            else:
                offered_before = self.offered_total
            if sanitizer is not None:
                sanitizer.check_interval(policy, t)
            # The policy answers first: while it must step, nothing
            # else is asked.
            wake = next_activity(t)
            if wake > t + 1:
                wake = self._next_wake(t, wake, end_of_run)
                if wake > t + 1:
                    self._skip(t + 1, wake, end_of_warmup, result)
        if obs is not None:
            self._book_samples(next_sample, end_of_run)
        result.offered += self.offered_total - offered_before
        if self._blocked_issued:
            # A blocked request counts toward the window iff it
            # *arrived* in the window (same cohort as `offered`, so
            # blocking_probability can never exceed 1).
            result.blocked += sum(
                1 for issued in self._blocked_issued
                if issued >= end_of_warmup
            )
            self._blocked_issued.clear()
        result.policy_stats = policy.stats()
        return result

    def _timed_step(self) -> List[Completion]:
        """One :meth:`step`, charged to the ``engine.step`` phase."""
        start = perf_counter()
        completions = self.step()
        self.obs.profiler.add("engine.step", perf_counter() - start)
        return completions

    def _book_samples(self, start: int, stop: int) -> int:
        """Book the telemetry sample of each ``sample_stride`` multiple
        in ``start .. stop - 1``
        (:meth:`~repro.simulation.policy.StoragePolicy.observe_sample`,
        each charged to the ``engine.observe`` phase); return the first
        multiple at or after ``stop``."""
        stride = self.obs.sample_stride
        profiler = self.obs.profiler
        observe_sample = self.policy.observe_sample
        first = -(-start // stride) * stride
        for interval in range(first, stop, stride):
            begin = perf_counter()
            observe_sample(interval)
            profiler.add("engine.observe", perf_counter() - begin)
        return -(-stop // stride) * stride

    def _next_wake(self, interval: int, wake: int, end_of_run: int) -> int:
        """The first interval after ``interval`` at which any source
        can change state, given the policy's ``wake`` (capped at
        ``end_of_run``)."""
        ready = self.stations.next_ready(interval)
        if ready < wake:
            wake = ready
        if self._expiries and self._expiries[0][0] < wake:
            wake = self._expiries[0][0]
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
            result.record_utilization_span(
                *self.policy.utilization_sample(),
                stop - max(start, end_of_warmup),
            )
        self.interval = stop
