"""Cross-run metric aggregation and diffing (``repro obs-diff``).

Telemetry is only useful across time: *did the fault grid's
availability metrics regress against last week's sweep?* — *did the
metrics-level overhead grow?*  This module turns
any two telemetry sources into flat ``{metric key: number}`` maps and
reports per-metric deltas against configurable thresholds, so those
questions are one command (and one CI job — breaches exit nonzero).

Accepted sources (auto-detected):

* a **cache record** carrying telemetry
  (``objects/<d[:2]>/<digest>.json`` of an observed sweep's run: its
  second line, verified against the record's ``obs_checksum``) — one
  run's stored telemetry;
* a **metrics document** (``--metrics FILE`` output:
  ``{"level": ..., "runs": [...]}``) — a whole session;
* an **obs-overhead document** (the per-level rows
  ``benchmarks/test_bench_obs_overhead.py`` prints and writes under its
  temporary directory; its < 5 % contract currently fails) — and,
  generically, any JSON list of flat dicts;
* a **sweep id** (when the argument is not a file): resolved through
  the journal beside the result cache, loading the telemetry of every
  digest the sweep settled ok (executed, cached or resumed) from its
  cache record.

Flattening: every numeric leaf of every run snapshot becomes one key,
``<run label>/<metric>.<field>`` (row lists become
``row.<key>.<field>``).  Bulky vector fields (series points,
matrix rows, histogram bin counts) and wall-clock ``profile`` blocks
are excluded by default — deltas over those are either unreadable or
pure noise; summary statistics (mean/p50/p99/utilization) carry the
same information stably.  The executor's own ``sweep-exec[...]`` run
is likewise skipped by default: it tallies host wall-clock, which
differs between byte-identical sweeps.

Threshold semantics (see docs/sweep_observability.md): a key
**breaches** when its relative delta ``|b - a| / max(|a|, |b|)``
exceeds ``threshold`` *and* its absolute delta exceeds ``min_abs``.
The defaults (both 0) make any difference a breach — the right
setting for comparing deterministic sweeps, where the expected delta
is exactly zero.  Keys present on only one side are reported
(added/removed) but do not breach.  A sweep side whose settled runs
lack stored telemetry (record lost, captured unobserved, or
quarantined by its checksum) breaches once per missing artifact: its
runs' keys would otherwise only show up as removed, and a zero-delta
gate would pass.
"""

from __future__ import annotations

import fnmatch
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ConfigurationError

PathLike = Union[str, Path]

#: Diff document schema identifier (``obs-diff --format json``).
DIFF_SCHEMA = "repro-obs-diff/1"

#: Snapshot fields never flattened: bulky vectors whose element-wise
#: deltas are unreadable (their summary stats are flattened instead).
VECTOR_FIELDS = ("points", "rows", "counts")

#: Run labels skipped by default (host wall-clock tallies).
EXEC_RUN_PREFIX = "sweep-exec["


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_number(value: Any) -> Optional[float]:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if _is_number(value):
        return float(value)
    return None


# ----------------------------------------------------------------------
# Flattening
# ----------------------------------------------------------------------
def flatten_snapshot(
    snapshot: Dict[str, Any],
    prefix: str,
    out: Dict[str, float],
) -> None:
    """Flatten one instrument snapshot's numeric fields into ``out``."""
    for field, value in snapshot.items():
        if field == "type" or field in VECTOR_FIELDS:
            continue
        number = _as_number(value)
        if number is not None:
            out[f"{prefix}.{field}"] = number


def flatten_runs(
    runs: List[Dict[str, Any]],
    include_profile: bool = False,
    include_exec: bool = False,
) -> Dict[str, float]:
    """Flatten run snapshots to ``{label/metric.field: value}``.

    Duplicate labels (two runs of the same spec in one session) are
    disambiguated with a ``#<n>`` suffix so both survive.
    """
    out: Dict[str, float] = {}
    seen_labels: Dict[str, int] = {}
    for run in runs:
        if not isinstance(run, dict):
            continue
        label = str(run.get("label") or f"run-{run.get('index', '?')}")
        if not include_exec and label.startswith(EXEC_RUN_PREFIX):
            continue
        count = seen_labels.get(label, 0)
        seen_labels[label] = count + 1
        if count:
            label = f"{label}#{count}"
        metrics = run.get("metrics")
        if isinstance(metrics, dict):
            for name, snapshot in sorted(metrics.items()):
                if isinstance(snapshot, dict):
                    flatten_snapshot(snapshot, f"{label}/{name}", out)
        profile = run.get("profile")
        if include_profile and isinstance(profile, dict):
            for phase, seconds in sorted(profile.items()):
                number = _as_number(seconds)
                if number is not None:
                    out[f"{label}/profile.{phase}"] = number
    return out


def flatten_rows(rows: List[Any], prefix: str = "row") -> Dict[str, float]:
    """Flatten a generic list of flat dicts (obs-overhead style).

    Each row is keyed by its first string-valued field (``level``,
    ``name``, ``label``...), falling back to its position.
    """
    out: Dict[str, float] = {}
    for position, row in enumerate(rows):
        if not isinstance(row, dict):
            continue
        key = None
        for candidate in ("level", "name", "label", "case", "kind"):
            value = row.get(candidate)
            if isinstance(value, str) and value:
                key = value
                break
        if key is None:
            key = str(position)
        for field, value in sorted(row.items()):
            number = _as_number(value)
            if number is not None:
                out[f"{prefix}.{key}.{field}"] = number
    return out


# ----------------------------------------------------------------------
# Source loading
# ----------------------------------------------------------------------
def load_metrics_source(
    source: PathLike,
    cache_root: Optional[PathLike] = None,
    include_profile: bool = False,
) -> Dict[str, Any]:
    """Load one diff side: a telemetry file, or a sweep id.

    Returns ``{"label": ..., "kind": ..., "metrics": {key: value}}``.
    A path that exists is parsed by shape; anything else is treated as
    a sweep id and resolved through the journal + cache records beside
    ``cache_root`` (required in that case).
    """
    path = Path(source)
    if path.is_file():
        from repro.exec.cache import record_telemetry

        try:
            data = path.read_bytes()
        except OSError as error:
            raise ConfigurationError(
                f"cannot read metrics source {path}: {error}"
            ) from error
        try:
            document = json.loads(data)
        except ValueError as error:
            # Two JSON lines: a cache record and its telemetry.
            document = record_telemetry(data)
            if document is None:
                raise ConfigurationError(
                    f"cannot read metrics source {path}: {error}"
                ) from error
            kind = "cache-record"
        else:
            kind = _document_kind(document)
        return {
            "label": str(source),
            "kind": kind,
            "metrics": _flatten_document(document, include_profile),
        }
    if "/" in str(source) or str(source).endswith(".json"):
        raise ConfigurationError(f"metrics source {source!r} does not exist")
    if cache_root is None:
        raise ConfigurationError(
            f"{source!r} is not a file; to diff a sweep id, run with a "
            "result cache (--cache-dir)"
        )
    return _load_sweep(str(source), Path(cache_root), include_profile)


def _document_kind(document: Any) -> str:
    if isinstance(document, dict):
        if isinstance(document.get("runs"), list):
            return "metrics-document"
    if isinstance(document, list):
        return "rows"
    return "unknown"


def _flatten_document(
    document: Any, include_profile: bool
) -> Dict[str, float]:
    kind = _document_kind(document)
    if kind == "metrics-document":
        return flatten_runs(document["runs"], include_profile=include_profile)
    if kind == "rows":
        return flatten_rows(document)
    raise ConfigurationError(
        "unrecognised metrics source: expected a cache record carrying "
        "telemetry, a --metrics document, or a JSON list of rows"
    )


def _load_sweep(
    sweep_id: str, cache_root: Path, include_profile: bool
) -> Dict[str, Any]:
    """Resolve a sweep id to the union of its runs' stored telemetry."""
    from repro.exec.cache import ResultCache
    from repro.exec.journal import find_journal, journal_root

    state = find_journal(journal_root(cache_root), sweep_id)
    cache = ResultCache(cache_root)
    digests = sorted(
        digest
        for digest, row in state.settled.items()
        if row["status"] == "ok"
    )
    runs: List[Dict[str, Any]] = []
    missing = 0
    for digest in digests:
        _, telemetry = cache.get_observed(digest, "metrics")
        if telemetry is None:
            missing += 1
            continue
        runs.extend(telemetry["runs"])
    if not runs:
        raise ConfigurationError(
            f"sweep {state.sweep_id} has no stored telemetry "
            f"({missing} of {len(digests)} runs missing) — re-run it "
            "with --obs-level metrics to store it in its cache records"
        )
    runs.sort(key=lambda run: str(run.get("label", "")))
    source = {
        "label": f"sweep:{state.sweep_id}",
        "kind": "sweep",
        "metrics": flatten_runs(runs, include_profile=include_profile),
    }
    if missing:
        source["missing_artifacts"] = missing
    return source


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
def diff_metrics(
    a: Dict[str, Any],
    b: Dict[str, Any],
    threshold: float = 0.0,
    min_abs: float = 0.0,
    only: Optional[str] = None,
    direction: str = "both",
) -> Dict[str, Any]:
    """Compare two loaded sources; returns the diff document.

    ``only`` is an ``fnmatch`` glob restricting the compared keys
    (e.g. ``'row.*.overhead_pct'``).  ``direction`` limits which sign
    of delta can breach: ``"both"`` (default), ``"increase"`` (b > a),
    or ``"decrease"`` (b < a) — a speedup gate breaches only on
    decreases, since a faster machine is not a regression.  See the
    module docstring for the breach rule.
    """
    if direction not in ("both", "increase", "decrease"):
        raise ConfigurationError(
            f"direction must be both/increase/decrease, got {direction!r}"
        )
    metrics_a = a["metrics"]
    metrics_b = b["metrics"]
    keys_a = set(metrics_a)
    keys_b = set(metrics_b)
    if only:
        keys_a = {key for key in keys_a if fnmatch.fnmatch(key, only)}
        keys_b = {key for key in keys_b if fnmatch.fnmatch(key, only)}
    rows: List[Dict[str, Any]] = []
    missing = {
        "a": a.get("missing_artifacts", 0),
        "b": b.get("missing_artifacts", 0),
    }
    breaches = missing["a"] + missing["b"]
    for key in sorted(keys_a & keys_b):
        value_a = metrics_a[key]
        value_b = metrics_b[key]
        delta = value_b - value_a
        scale = max(abs(value_a), abs(value_b))
        relative = abs(delta) / scale if scale else 0.0
        breach = (
            delta != 0.0
            and relative > threshold
            and abs(delta) >= min_abs
            and (
                direction == "both"
                or (delta > 0 if direction == "increase" else delta < 0)
            )
        )
        breaches += breach
        rows.append(
            {
                "key": key,
                "a": value_a,
                "b": value_b,
                "delta": delta,
                "relative": relative,
                "breach": breach,
            }
        )
    return {
        "schema": DIFF_SCHEMA,
        "a": {"label": a["label"], "kind": a["kind"]},
        "b": {"label": b["label"], "kind": b["kind"]},
        "threshold": threshold,
        "min_abs": min_abs,
        "only": only,
        "direction": direction,
        "compared": len(rows),
        "changed": sum(1 for row in rows if row["delta"] != 0.0),
        "breaches": breaches,
        "missing_artifacts": missing,
        "added": sorted(keys_b - keys_a),
        "removed": sorted(keys_a - keys_b),
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render_diff(
    diff: Dict[str, Any], fmt: str = "table", all_rows: bool = False
) -> str:
    """Render a diff document as ``table``, ``json``, or ``markdown``.

    Table and markdown show changed rows only unless ``all_rows``;
    JSON always carries everything.
    """
    if fmt == "json":
        return json.dumps(diff, indent=2, sort_keys=True)
    rows = diff["rows"] if all_rows else [
        row for row in diff["rows"] if row["delta"] != 0.0
    ]
    header = ["metric", "a", "b", "delta", "rel", ""]
    table = [
        [
            row["key"],
            _format_value(row["a"]),
            _format_value(row["b"]),
            f"{row['delta']:+.6g}",
            f"{row['relative']:.2%}",
            "BREACH" if row["breach"] else "",
        ]
        for row in rows
    ]
    lines: List[str] = []
    if fmt == "markdown":
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join("---" for _ in header) + "|")
        for cells in table:
            lines.append("| " + " | ".join(cells) + " |")
    else:
        widths = [
            max(len(header[i]), *(len(cells[i]) for cells in table))
            if table else len(header[i])
            for i in range(len(header))
        ]
        lines.append(
            "  ".join(header[i].ljust(widths[i]) for i in range(len(header)))
            .rstrip()
        )
        for cells in table:
            lines.append(
                "  ".join(cells[i].ljust(widths[i]) for i in range(len(header)))
                .rstrip()
            )
    if not table:
        lines.append("(no changed metrics)")
    summary = (
        f"{diff['compared']} compared, {diff['changed']} changed, "
        f"{diff['breaches']} breach(es)"
    )
    if diff["added"]:
        summary += f", {len(diff['added'])} only in B"
    if diff["removed"]:
        summary += f", {len(diff['removed'])} only in A"
    for side, count in diff["missing_artifacts"].items():
        if count:
            summary += f", {count} artifact(s) missing in {side.upper()}"
    lines.append("")
    lines.append(
        f"{diff['a']['label']} -> {diff['b']['label']}: {summary}"
    )
    return "\n".join(lines)
