"""The executor's hard contract: execution strategy never changes rows.

``--jobs 1``, ``--jobs 4``, and a warm-cache pass over the same sweep
must produce **byte-identical** serialized result rows, and per-run
RNG streams must be independent of submission/scheduling order.  The
CI matrix exercises this file under both executor paths; set
``REPRO_EXEC_JOBS`` to change the parallel width (default 4).
"""

from __future__ import annotations

import json
import os
import random

from repro.cli import main
from repro.exec import (
    ResultCache,
    canonical_json,
    execute,
    experiment_spec,
    spec_digest,
)
from repro.sim.rng import RandomStream
from repro.simulation.config import ScaledConfig

PARALLEL_JOBS = int(os.environ.get("REPRO_EXEC_JOBS", "4"))


def sweep_specs():
    """A small but heterogeneous grid: both techniques, three loads."""
    base = ScaledConfig(scale=50).with_(access_mean=0.2)
    return [
        experiment_spec(base.with_(technique=technique, num_stations=n))
        for technique in ("simple", "vdr")
        for n in (1, 2, 5)
    ]


def rows_bytes(records) -> str:
    """The canonical serialized result rows of a sweep."""
    assert all(record.ok for record in records)
    return canonical_json([record.payload for record in records])


class TestByteIdenticalExecutions:
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
        # The warm pass did no simulation work at all.
        assert all(record.cached for record in warm_records)

    def test_summaries_identical_across_strategies(self, tmp_path):
        """The user-facing rows (summaries), not just raw payloads —
        compared WITHOUT key sorting, so a cache round-trip that
        reorders dict keys (what `--output` would export) fails too."""
        specs = sweep_specs()
        serial = [r.result().summary() for r in execute(specs, jobs=1)]
        cache = ResultCache(tmp_path / "cache")
        execute(specs, jobs=PARALLEL_JOBS, cache=cache)
        warm = [r.result().summary()
                for r in execute(specs, jobs=1, cache=cache)]
        assert json.dumps(serial) == json.dumps(warm)


class TestSchedulingOrderIndependence:
    def test_submission_order_does_not_change_payloads(self):
        """Each run's RNG is derived from its own config, not from any
        shared stream, so shuffling the submission order must leave
        every (digest → payload) pair untouched."""
        specs = sweep_specs()
        shuffled = specs[:]
        random.Random(7).shuffle(shuffled)
        assert [spec_digest(s) for s in shuffled] != [
            spec_digest(s) for s in specs
        ]

        straight = {
            record.digest: record.payload
            for record in execute(specs, jobs=PARALLEL_JOBS)
        }
        reordered = {
            record.digest: record.payload
            for record in execute(shuffled, jobs=PARALLEL_JOBS)
        }
        assert canonical_json(straight) == canonical_json(reordered)

    def test_interleaving_with_other_runs_does_not_perturb(self):
        """A run's payload is the same whether it runs alone or amid a
        sweep (no hidden global RNG coupling between runs)."""
        specs = sweep_specs()
        alone = execute([specs[3]], jobs=1)[0].payload
        amid = execute(specs, jobs=1)[3].payload
        assert canonical_json(alone) == canonical_json(amid)


def derive_seed(base_seed: int, index: int) -> int:
    """Run ``index``'s seed: the stream ``fork(index + 1)`` of the base."""
    return RandomStream(base_seed).fork(index + 1).seed


class TestDerivedSeeds:
    def test_matches_random_stream_fork(self):
        """A fork's seed is ``(base × 1 000 003 + salt) mod 2^63``, a
        function of the two inputs alone."""
        assert derive_seed(42, 0) == (42 * 1_000_003 + 1) & (2**63 - 1)
        assert derive_seed(42, 9) == (42 * 1_000_003 + 10) & (2**63 - 1)

    def test_distinct_indices_distinct_streams(self):
        seeds = {derive_seed(42, index) for index in range(1000)}
        assert len(seeds) == 1000

    def test_deterministic_in_inputs(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(8, 3)

    def test_derived_seed_runs_are_reproducible(self):
        """Two sweeps whose runs use derived seeds agree run-for-run."""
        base = ScaledConfig(scale=50).with_(access_mean=0.2, num_stations=2)
        specs = [
            experiment_spec(base.with_(seed=derive_seed(base.seed, index)))
            for index in range(3)
        ]
        first = rows_bytes(execute(specs, jobs=1))
        second = rows_bytes(execute(specs, jobs=PARALLEL_JOBS))
        assert first == second


class TestCliWarmCache:
    def test_figure8_warm_pass_matches_cold_and_status_counts_runs(
        self, tmp_path, capsys
    ):
        """``repro figure8`` cold and then warm at the parallel width
        writes byte-identical CSVs, and ``sweep-status`` reports one
        cache entry per run, its telemetry inside it."""
        cache_dir = str(tmp_path / "cache")
        outputs = []
        for name in ("cold", "warm"):
            output = tmp_path / f"figure8-{name}.csv"
            assert main([
                "figure8", "--scale", "50", "--jobs", str(PARALLEL_JOBS),
                "--cache-dir", cache_dir, "--obs-level", "metrics",
                "--output", str(output),
            ]) == 0
            outputs.append(output.read_bytes())
        assert outputs[0] == outputs[1]
        runs = len(outputs[0].decode().splitlines()) - 1
        assert runs > 0
        capsys.readouterr()
        assert main(["sweep-status", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert f"({runs} entries," in out
        # Below the header and its rule: one row per kind, "kind runs ...".
        rows = [line.split()[:2] for line in out.splitlines()[3:]]
        assert rows == [["experiment", str(runs)]]
