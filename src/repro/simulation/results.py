"""Simulation results and derived metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import units
from repro.simulation.policy import Completion


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    Throughput is reported in **displays per hour**, the paper's
    Figure 8 / Table 4 metric.

    When the run was observed (``repro.obs``), :attr:`profile` holds
    the wall-clock phase totals and :attr:`observation` the full
    telemetry snapshot.  Both are deliberately excluded from
    :meth:`summary` so result rows stay byte-identical whether or not
    telemetry was enabled (wall-clock numbers are nondeterministic).
    """

    technique: str
    num_stations: int
    access_mean: float | None
    interval_length: float
    warmup_intervals: int
    measure_intervals: int
    completed: int
    latencies_intervals: List[int] = field(default_factory=list)
    policy_stats: Dict[str, float] = field(default_factory=dict)
    # Open-workload accounting (repro.workload.arrivals).  Closed runs
    # keep the defaults: arrival "closed", zero offered/blocked.
    arrival: str = "closed"
    offered: int = 0
    blocked: int = 0
    # Per-interval load samples over the measurement window.
    concurrency_sum: int = 0
    concurrency_max: int = 0
    busy_fraction_sum: float = 0.0
    samples: int = 0
    # Telemetry (populated only when the run was observed).
    profile: Dict[str, float] = field(default_factory=dict)
    observation: Optional[Dict[str, Any]] = None

    @property
    def measure_seconds(self) -> float:
        """Length of the measurement window in seconds."""
        return self.measure_intervals * self.interval_length

    @property
    def throughput_per_hour(self) -> float:
        """Displays completed per hour of simulated time."""
        if self.measure_seconds <= 0:
            return 0.0
        return units.per_hour(self.completed / self.measure_seconds)

    @property
    def mean_startup_latency_seconds(self) -> float:
        """Mean request-to-first-delivery latency."""
        if not self.latencies_intervals:
            return 0.0
        mean_intervals = sum(self.latencies_intervals) / len(self.latencies_intervals)
        return mean_intervals * self.interval_length

    @property
    def max_startup_latency_seconds(self) -> float:
        """Worst observed startup latency."""
        if not self.latencies_intervals:
            return 0.0
        return max(self.latencies_intervals) * self.interval_length

    def record(self, completion: Completion) -> None:
        """Add one measured completion."""
        self.completed += 1
        self.latencies_intervals.append(completion.startup_latency)

    def record_utilization(self, active_displays: int, busy_fraction: float) -> None:
        """Add one per-interval load sample."""
        self.samples += 1
        self.concurrency_sum += active_displays
        self.busy_fraction_sum += busy_fraction
        if active_displays > self.concurrency_max:
            self.concurrency_max = active_displays

    def record_utilization_span(
        self, active_displays: int, busy_fraction: float, intervals: int
    ) -> None:
        """Add the same load sample for ``intervals`` quiet intervals.

        Byte-identical to ``intervals`` :meth:`record_utilization`
        calls: ``busy_fraction_sum`` is a float sum, so the sample is
        still added once per interval, in order (``n × value`` would
        round differently).
        """
        self.samples += intervals
        self.concurrency_sum += active_displays * intervals
        total = self.busy_fraction_sum
        for _ in range(intervals):
            total += busy_fraction
        self.busy_fraction_sum = total
        if intervals and active_displays > self.concurrency_max:
            self.concurrency_max = active_displays

    @property
    def mean_concurrent_displays(self) -> float:
        """Average simultaneously active displays in the window."""
        return self.concurrency_sum / self.samples if self.samples else 0.0

    @property
    def blocking_probability(self) -> float:
        """Blocked ÷ offered over the measurement window (open runs).

        The quality-of-service metric of a loss system — what
        Erlang-B predicts for a memoryless single resource (see
        ``tests/oracles/analytic.py``)."""
        return self.blocked / self.offered if self.offered else 0.0

    @property
    def carried_load(self) -> float:
        """Mean concurrently served displays, in erlangs.

        The complement of blocking: offered traffic that was actually
        admitted and held service."""
        return self.mean_concurrent_displays

    def wait_percentile_seconds(self, fraction: float) -> float:
        """Nearest-rank percentile of the admission wait (seconds)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if not self.latencies_intervals:
            return 0.0
        ordered = sorted(self.latencies_intervals)
        rank = max(0, math.ceil(fraction * len(ordered)) - 1)
        return ordered[rank] * self.interval_length

    @property
    def wait_p50_seconds(self) -> float:
        """Median admission wait."""
        return self.wait_percentile_seconds(0.50)

    @property
    def wait_p95_seconds(self) -> float:
        """95th-percentile admission wait."""
        return self.wait_percentile_seconds(0.95)

    @property
    def wait_p99_seconds(self) -> float:
        """99th-percentile admission wait."""
        return self.wait_percentile_seconds(0.99)

    @property
    def mean_busy_fraction(self) -> float:
        """Average fraction of array bandwidth in use in the window."""
        return self.busy_fraction_sum / self.samples if self.samples else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form for the result cache and worker transport.

        Only the deterministic simulation outcome is included —
        :attr:`profile` and :attr:`observation` hold wall-clock
        telemetry and are dropped so serial, parallel, cached, and
        observed executions serialise byte-identically.
        """
        return {
            "technique": self.technique,
            "num_stations": self.num_stations,
            "access_mean": self.access_mean,
            "interval_length": self.interval_length,
            "warmup_intervals": self.warmup_intervals,
            "measure_intervals": self.measure_intervals,
            "completed": self.completed,
            "latencies_intervals": list(self.latencies_intervals),
            "policy_stats": dict(self.policy_stats),
            "concurrency_sum": self.concurrency_sum,
            "concurrency_max": self.concurrency_max,
            "busy_fraction_sum": self.busy_fraction_sum,
            "samples": self.samples,
            "arrival": self.arrival,
            "offered": self.offered,
            "blocked": self.blocked,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            technique=data["technique"],
            num_stations=data["num_stations"],
            access_mean=data["access_mean"],
            interval_length=data["interval_length"],
            warmup_intervals=data["warmup_intervals"],
            measure_intervals=data["measure_intervals"],
            completed=data["completed"],
            latencies_intervals=list(data.get("latencies_intervals", [])),
            policy_stats=dict(data.get("policy_stats", {})),
            concurrency_sum=data.get("concurrency_sum", 0),
            concurrency_max=data.get("concurrency_max", 0),
            busy_fraction_sum=data.get("busy_fraction_sum", 0.0),
            samples=data.get("samples", 0),
            arrival=data.get("arrival", "closed"),
            offered=data.get("offered", 0),
            blocked=data.get("blocked", 0),
        )

    def summary(self) -> Dict[str, float]:
        """Flat dict for tabular reports."""
        report = {
            "technique": self.technique,
            "stations": self.num_stations,
            "access_mean": self.access_mean if self.access_mean is not None else 0.0,
            "completed": self.completed,
            "throughput_per_hour": round(self.throughput_per_hour, 2),
            "mean_latency_s": round(self.mean_startup_latency_seconds, 2),
            "max_latency_s": round(self.max_startup_latency_seconds, 2),
            "mean_concurrent": round(self.mean_concurrent_displays, 2),
            "max_concurrent": self.concurrency_max,
            "mean_busy_fraction": round(self.mean_busy_fraction, 3),
        }
        if self.arrival != "closed":
            # Open-workload columns.  Gated on the arrival model so
            # closed rows — including every golden fixture — stay
            # byte-identical to the seed.
            report["arrival"] = self.arrival
            report["offered"] = self.offered
            report["blocked"] = self.blocked
            report["blocking_probability"] = round(
                self.blocking_probability, 4
            )
            report["wait_p50_s"] = round(self.wait_p50_seconds, 2)
            report["wait_p95_s"] = round(self.wait_p95_seconds, 2)
            report["wait_p99_s"] = round(self.wait_p99_seconds, 2)
            report["carried_load"] = round(self.carried_load, 2)
        report.update(
            {k: round(v, 4) if isinstance(v, float) else v
             for k, v in self.policy_stats.items()}
        )
        return report


def improvement_percent(striping: SimulationResult, vdr: SimulationResult) -> float:
    """Table 4's metric: percentage improvement in throughput of
    (simple) striping over virtual data replication."""
    if vdr.throughput_per_hour <= 0:
        return float("inf") if striping.throughput_per_hour > 0 else 0.0
    ratio = striping.throughput_per_hour / vdr.throughput_per_hour
    return (ratio - 1.0) * 100.0
