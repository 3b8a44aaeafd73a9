"""Parallel sweep execution with content-addressed result caching.

Every paper experiment is a *sweep*: dozens of independent simulation
runs over a parameter grid.  ``repro.exec`` turns each run into a
picklable :class:`~repro.exec.spec.RunSpec`, fans specs across a
``multiprocessing`` worker pool (``jobs > 1``), and memoises finished
runs in an on-disk :class:`~repro.exec.cache.ResultCache` keyed by a
stable content hash of the spec plus a code-version salt — re-running
a sweep with one changed parameter only simulates the delta.

The hard contract (pinned by tests/exec): serial, parallel, and
cache-hit executions of the same specs produce **byte-identical**
result rows.  See docs/parallel_execution.md.
"""

from __future__ import annotations

from repro.exec.cache import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    cache_status_rows,
    format_bytes,
    resolve_cache_dir,
)
from repro.exec.executor import (
    RunRecord,
    SweepFailure,
    execute,
    records_to_results,
    require_ok,
)
from repro.exec.hashing import canonical, canonical_json, code_salt
from repro.exec.journal import (
    SweepJournal,
    find_journal,
    journal_root,
    journal_status_rows,
    list_journals,
    load_journal,
    sweep_id_for,
)
from repro.exec.retry import RetryPolicy, retry_call
from repro.exec.spec import RunSpec, experiment_spec, spec_digest
from repro.exec.supervisor import Supervision, SupervisedPool

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "RetryPolicy",
    "RunRecord",
    "RunSpec",
    "SupervisedPool",
    "Supervision",
    "SweepFailure",
    "SweepJournal",
    "cache_status_rows",
    "format_bytes",
    "canonical",
    "canonical_json",
    "code_salt",
    "execute",
    "experiment_spec",
    "find_journal",
    "journal_root",
    "journal_status_rows",
    "list_journals",
    "load_journal",
    "records_to_results",
    "require_ok",
    "resolve_cache_dir",
    "retry_call",
    "spec_digest",
    "sweep_id_for",
]
