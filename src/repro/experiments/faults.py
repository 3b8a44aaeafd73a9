"""Availability under drive failures: the fault-injection grid.

The paper's experiments assume an always-healthy array; this grid asks
what each technique gives up when drives die.  It sweeps the per-drive
failure rate (MTTF in intervals) across {simple, staggered, VDR} ×
redundancy scheme, and reports per-policy availability metrics —
failures, hiccups per failure, degraded-interval fraction, rebuild
times, effective bandwidth — alongside throughput.

Like Figure 8, the grid's runs are independent and fan through
:mod:`repro.exec` (``jobs`` workers, content-addressed ``cache``), so
an MTTF sweep is cached, parallel, and byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec import execute, experiment_spec, records_to_results
from repro.experiments.figure8 import base_config
from repro.simulation.config import SimulationConfig
from repro.simulation.results import SimulationResult

#: Grid axes: every technique crossed with every redundancy scheme.
TECHNIQUES = ("simple", "staggered", "vdr")
REDUNDANCY_SCHEMES = ("none", "mirror", "parity")

#: Default failure-rate axis, in intervals of MTTF per drive.  The
#: scaled run lasts a few hundred intervals, so these rates produce
#: from "a failure or two" down to "drives dropping constantly".
DEFAULT_MTTF_VALUES = (2000.0, 500.0, 125.0)


@dataclass(frozen=True)
class FaultsPoint:
    """One cell of the availability grid."""

    technique: str
    redundancy: str
    mttf: float
    throughput_per_hour: float
    failures: float
    hiccups_per_failure: float
    degraded_fraction: float
    rebuilds_completed: float
    mean_rebuild_intervals: float
    effective_bandwidth: float
    aborts: float


def cell_config(
    config: SimulationConfig,
    technique: str,
    redundancy: str,
    mttf: float,
    mttr: Optional[float] = None,
    fail_at: Tuple[Tuple[int, int], ...] = (),
) -> SimulationConfig:
    """The configuration of one (technique, redundancy, mttf) cell."""
    return config.with_(
        technique=technique,
        redundancy=redundancy,
        mttf=mttf,
        mttr=mttr if mttr is not None else max(1.0, mttf / 10.0),
        fail_at=fail_at,
    )


def point_from_result(
    result: SimulationResult, technique: str, redundancy: str, mttf: float
) -> FaultsPoint:
    """One grid point from a finished run."""
    stats = result.policy_stats
    # The coordinator counts degraded intervals across the whole run
    # (warmup included) — normalise by the same span.
    intervals = float(result.warmup_intervals + result.measure_intervals) or 1.0
    return FaultsPoint(
        technique=technique,
        redundancy=redundancy,
        mttf=mttf,
        throughput_per_hour=result.throughput_per_hour,
        failures=stats.get("fault_failures", 0.0),
        hiccups_per_failure=stats.get("fault_hiccups_per_failure", 0.0),
        degraded_fraction=stats.get("fault_degraded_intervals", 0.0) / intervals,
        rebuilds_completed=stats.get("fault_rebuilds_completed", 0.0),
        mean_rebuild_intervals=stats.get("fault_mean_rebuild_intervals", 0.0),
        effective_bandwidth=stats.get("fault_effective_bandwidth", 1.0),
        aborts=stats.get("fault_aborts", 0.0),
    )


def run_faults_grid(
    scale: int = 10,
    mttf_values: Optional[Sequence[float]] = None,
    techniques: Sequence[str] = TECHNIQUES,
    redundancies: Sequence[str] = REDUNDANCY_SCHEMES,
    mttr: Optional[float] = None,
    config: Optional[SimulationConfig] = None,
    obs=None,
    jobs: int = 1,
    cache=None,
    supervision=None,
) -> List[FaultsPoint]:
    """The full availability grid, in cell order.  Every cell varies
    ``config`` (default: :func:`base_config` at ``scale``)."""
    config = config if config is not None else base_config(scale)
    values = list(mttf_values) if mttf_values else list(DEFAULT_MTTF_VALUES)
    cells = [
        (technique, redundancy, mttf)
        for technique in techniques
        for redundancy in redundancies
        for mttf in values
    ]
    specs = [
        experiment_spec(cell_config(config, technique, redundancy, mttf, mttr))
        for technique, redundancy, mttf in cells
    ]
    results = records_to_results(
        execute(specs, jobs=jobs, cache=cache, obs=obs, supervision=supervision)
    )
    return [
        point_from_result(result, technique, redundancy, mttf)
        for (technique, redundancy, mttf), result in zip(cells, results)
    ]


def faults_rows(points: Sequence[FaultsPoint]) -> List[Dict]:
    """Flatten the grid into printable rows."""
    return [
        {
            "technique": point.technique,
            "redundancy": point.redundancy,
            "mttf": point.mttf,
            "displays_per_hour": round(point.throughput_per_hour, 1),
            "failures": point.failures,
            "hiccups_per_failure": round(point.hiccups_per_failure, 2),
            "degraded_frac": round(point.degraded_fraction, 3),
            "rebuilds": point.rebuilds_completed,
            "rebuild_intervals": round(point.mean_rebuild_intervals, 1),
            "effective_bw": round(point.effective_bandwidth, 4),
            "aborts": point.aborts,
        }
        for point in points
    ]
