"""Executor determinism on the batched admission path.

The batched admission/settle path must be invisible to the executor
contract: ``--jobs 1``, ``--jobs N``, and a warm-cache pass over the
same sweep produce byte-identical rows — under ``--sanitize strict``
with faults armed, so every invariant sweep (including the batch
index's own) runs on every interval.
"""

from __future__ import annotations

import os

from repro.exec import ResultCache, canonical_json, execute, experiment_spec
from repro.simulation.config import ScaledConfig

PARALLEL_JOBS = int(os.environ.get("REPRO_EXEC_JOBS", "4"))


def sweep_specs():
    """Staggered (FRAGMENTED) and simple (CONTIGUOUS) admission, with
    mirrored-redundancy faults armed and strict sanitization."""
    base = ScaledConfig(scale=50).with_(access_mean=0.2, sanitize="strict")
    return [
        experiment_spec(base.with_(**point))
        for point in (
            {"technique": "staggered", "num_stations": 8,
             "mttf": 60.0, "mttr": 8.0, "redundancy": "mirror"},
            {"technique": "staggered", "num_stations": 16},
            {"technique": "simple", "num_stations": 8,
             "mttf": 40.0, "mttr": 6.0, "redundancy": "none",
             "on_fault": "abort"},
        )
    ]


def rows_bytes(records) -> str:
    assert all(record.ok for record in records)
    return canonical_json([record.payload for record in records])


class TestBatchedExecutorDeterminism:
    def test_serial_parallel_and_cache_identical(self, tmp_path):
        specs = sweep_specs()
        serial = rows_bytes(execute(specs, jobs=1))
        parallel = rows_bytes(execute(specs, jobs=PARALLEL_JOBS))
        assert parallel == serial

        cache = ResultCache(tmp_path / "cache")
        cold = rows_bytes(execute(specs, jobs=PARALLEL_JOBS, cache=cache))
        warm_records = execute(specs, jobs=PARALLEL_JOBS, cache=cache)
        assert cold == serial
        assert rows_bytes(warm_records) == serial
        assert all(record.cached for record in warm_records)
