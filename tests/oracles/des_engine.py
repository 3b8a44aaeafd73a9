"""A DES-kernel-driven engine: the per-interval reference.

The production :class:`~repro.simulation.engine.IntervalEngine`
advances the model with a plain loop.  This oracle drives exactly the
same policy and arrival process from the :mod:`tests.oracles.kernel`
instead: one *clock process* does the per-interval work and then holds
for one interval length, the way a process-oriented CSIM model would.
tests/simulation/test_des_engine.py demands that both produce the same
serialized result, byte for byte (DESIGN.md's ablation 1), for closed
and open workloads and under faults, which reach both engines through
the policy's coordinator.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.errors import ConfigurationError
from repro.simulation.policy import Completion, StoragePolicy
from repro.simulation.results import SimulationResult
from repro.workload.arrivals import ArrivalProcess
from tests.oracles.kernel import Simulation, hold


class DESEngine:
    """Drives a storage policy from the process-oriented kernel."""

    def __init__(
        self,
        policy: StoragePolicy,
        stations: ArrivalProcess,
        interval_length: float,
        technique: str = "",
        access_mean: Optional[float] = None,
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
        self.sim = Simulation()
        self.interval = 0
        # Open-workload deadline bookkeeping, mirroring IntervalEngine.
        self._is_open = bool(getattr(stations, "is_open", False))
        self._deadline = getattr(stations, "deadline_intervals", None)
        self._waiting: dict = {}
        self._expiries: deque = deque()

    def _clock_process(
        self, total_intervals: int, on_completion, first_measured: int, result
    ):
        """One generator process that owns the interval cadence."""
        deadline = self._deadline
        waiting = self._waiting
        expiries = self._expiries
        for _ in range(total_intervals):
            interval = self.interval
            in_window = interval >= first_measured
            for request in self.stations.ready_requests(interval):
                self.policy.submit(request, interval)
                # Closed runs report zero offered (results.py).
                if in_window and self._is_open:
                    result.offered += 1
                if deadline is not None:
                    waiting[request.request_id] = request
                    expiries.append((interval + deadline, request.request_id))
            for completion in self.policy.advance(interval):
                self.stations.complete(completion.request, interval)
                if deadline is not None:
                    waiting.pop(completion.request.request_id, None)
                on_completion(interval, completion)
            if deadline is not None:
                while expiries and expiries[0][0] <= interval:
                    _expire_at, request_id = expiries.popleft()
                    request = waiting.pop(request_id, None)
                    if request is None:
                        continue  # completed in time
                    if self.policy.try_cancel(request, interval):
                        self.stations.record_blocked(request, interval)
                        # Attributed to the *arrival* interval so the
                        # windowed blocked/offered counts cover the
                        # same cohort (mirrors IntervalEngine.run).
                        if request.issued_at >= first_measured:
                            result.blocked += 1
            if in_window:
                result.record_utilization(*self.policy.utilization_sample())
            self.interval += 1
            yield hold(self.interval_length)

    def run(
        self, warmup_intervals: int, measure_intervals: int
    ) -> SimulationResult:
        """Run warmup then a measurement window on the DES kernel."""
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
        first_measured = self.interval + warmup_intervals

        def on_completion(interval: int, completion: Completion) -> None:
            if interval >= first_measured:
                result.record(completion)

        total = warmup_intervals + measure_intervals
        self.sim.spawn(
            self._clock_process(total, on_completion, first_measured, result),
            name="interval-clock",
        )
        self.sim.run()
        result.policy_stats = self.policy.stats()
        return result
