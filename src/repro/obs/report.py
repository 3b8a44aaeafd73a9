"""Human-readable summaries of a metrics document (``repro obs-report``).

Renders, per recorded run:

* per-disk utilization *heat rows* (a unicode bar per device from the
  ``disk.busy`` utilization matrix);
* queue-depth percentiles for every recorded depth series
  (admission queue, tertiary queue, ...);
* the wall-clock phase profile.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ConfigurationError

PathLike = Union[str, Path]

_BLOCKS = " ▏▎▍▌▋▊▉█"


def load_metrics(path: PathLike) -> Dict[str, Any]:
    """Read a metrics JSON document written by ``--metrics FILE``, or
    the telemetry of a cache record file."""
    from repro.exec.cache import record_telemetry

    target = Path(path)
    try:
        data = target.read_bytes()
    except OSError as error:
        raise ConfigurationError(f"cannot read metrics {target}: {error}") from error
    try:
        document = json.loads(data)
    except ValueError as error:
        # Two JSON lines: a cache record and its telemetry.
        document = record_telemetry(data)
        if document is None:
            raise ConfigurationError(
                f"cannot read metrics {target}: {error}"
            ) from error
    if not isinstance(document, dict) or "runs" not in document:
        raise ConfigurationError(
            f"{target} is not a metrics document (missing 'runs')"
        )
    return document


def heat_bar(fraction: float, width: int = 24) -> str:
    """A ``width``-cell unicode bar filled to ``fraction``."""
    fraction = min(1.0, max(0.0, fraction))
    eighths = round(fraction * width * 8)
    full, rem = divmod(eighths, 8)
    bar = "█" * full + (_BLOCKS[rem] if rem else "")
    return bar.ljust(width)


def utilization_heat_rows(
    metrics: Dict[str, Any], metric: str = "disk.busy"
) -> List[str]:
    """One heat row per device of a utilization matrix."""
    snapshot = metrics.get(metric)
    if not snapshot or snapshot.get("type") != "utilization_matrix":
        return []
    label = metric.split(".", 1)[0]
    rows = []
    for device, fraction in enumerate(snapshot["utilization"]):
        rows.append(
            f"  {label}[{device:>3}] {heat_bar(fraction)} {100 * fraction:6.2f}%"
        )
    return rows


def series_percentile_rows(metrics: Dict[str, Any],
                           suffix: str = "queue_depth") -> List[Dict[str, Any]]:
    """Percentile summary rows for every series named ``*.<suffix>``."""
    rows: List[Dict[str, Any]] = []
    for key in sorted(metrics):
        snapshot = metrics[key]
        base = key.split("{", 1)[0]
        if snapshot.get("type") != "series" or not base.endswith(suffix):
            continue
        rows.append(
            {
                "series": key,
                "mean": round(snapshot.get("mean") or 0.0, 2),
                "p50": snapshot.get("p50"),
                "p90": snapshot.get("p90"),
                "p99": snapshot.get("p99"),
                "max": snapshot.get("max"),
            }
        )
    return rows


def profile_rows(profile: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Flatten a phase-profile report into printable rows."""
    rows = []
    for name, stats in sorted(profile.items()):
        rows.append(
            {
                "phase": name,
                "seconds": round(stats.get("seconds", 0.0), 4),
                "entries": stats.get("entries", 0),
                "mean_us": round(stats.get("mean_us", 0.0), 2),
            }
        )
    return rows


def format_run_report(run: Dict[str, Any]) -> str:
    """The report text for one recorded run."""
    from repro.analysis.reporting import format_table

    metrics = run.get("metrics", {})
    lines: List[str] = [f"run {run.get('index', 0)}: {run.get('label', '')}"]
    heat = utilization_heat_rows(metrics)
    if heat:
        lines.append("per-disk utilization:")
        lines.extend(heat)
    for matrix_key in sorted(metrics):
        snapshot = metrics[matrix_key]
        if (
            snapshot.get("type") == "utilization_matrix"
            and matrix_key != "disk.busy"
        ):
            lines.append(f"{matrix_key} utilization:")
            lines.extend(utilization_heat_rows(metrics, matrix_key))
    depth_rows = series_percentile_rows(metrics)
    if depth_rows:
        lines.append("queue depth percentiles:")
        lines.append(format_table(depth_rows))
    counter_rows = [
        {"counter": key, "value": snapshot["value"]}
        for key, snapshot in sorted(metrics.items())
        if snapshot.get("type") == "counter"
    ]
    if counter_rows:
        lines.append("counters:")
        lines.append(format_table(counter_rows))
    prof = profile_rows(run.get("profile", {}))
    if prof:
        lines.append("wall-clock profile:")
        lines.append(format_table(prof))
    return "\n".join(lines)


def format_report(document: Dict[str, Any],
                  run_index: Optional[int] = None) -> str:
    """The full report for a metrics document (or one run of it)."""
    runs = document.get("runs", [])
    if not runs:
        return "no runs recorded"
    if run_index is not None:
        if not 0 <= run_index < len(runs):
            raise ConfigurationError(
                f"run index {run_index} out of range 0..{len(runs) - 1}"
            )
        runs = [runs[run_index]]
    blocks = [format_run_report(run) for run in runs]
    return ("\n" + "=" * 64 + "\n").join(blocks)
