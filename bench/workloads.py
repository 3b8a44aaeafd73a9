"""The benchmark's workloads: one pass of one workload per interpreter.

Every workload is a closed loop: each cell (or sweep phase) starts when
the previous one returns, and no more than two worker processes run.
``setup_s`` and ``sim_s`` are normalised CPU seconds (see
:class:`NormalisedClock`): the cells are single-threaded and CPU-bound,
so CPU time is what a change to them moves, and normalising it removes
the host's changing speed.  Every other timing is host time
(``time.perf_counter``); everything the simulation reports is simulated
time and exact.

The workloads run at a half (``_s2``: D = 500), a quarter (``_s4``:
D = 250) or a tenth (``_s10``) of Table 3's scale, so that a
30-second run holds several passes; the scaled configurations keep every
ratio the results depend on (DESIGN.md).

Run as a script, this module performs one pass and writes its
measurements as JSON (``bench/run.py`` does this in a fresh interpreter
per pass, so memory, imports and the catalog memo never leak between
passes or workloads)::

    python bench/workloads.py WORKLOAD INPUT TRACE OUT.json [CHROME.json]
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Workload name -> one-line reason it was chosen (mirrored in
#: BENCHMARK.json and README.md).
WORKLOADS = {
    "fig8_s4": "Table 4's three points, simple vs VDR, at D=250: "
    "placement-heavy set-up, VDR-scheduler-heavy simulation",
    "staggered_s2": "staggered striping at D=500 under a ~310-deep admission "
    "queue: scan (batched verdicts) and fcfs (scalar probes)",
    "open_s4": "open Poisson arrivals at D=250, two replications: deadlines, "
    "tertiary staging, eviction, mirrored degraded mode",
    "sweep_s10": "30 small runs through cache, journal, worker pool and "
    "master/agent: the bypass case for every simulation layer",
}

#: The simulation seed of input set 0; input set k uses FIRST_SEED + k.
FIRST_SEED = 1000
#: Table 4's (stations, mean) points, at full scale.
TABLE4_POINTS = ((64, 10.0), (256, 10.0), (256, 43.5))
#: Independent replications of the three open cells in one pass.
OPEN_REPLICATIONS = 2
WARM_REPLAYS = 20
COLD_STARTS = 3
SWEEP_IMPORTS = ("import repro.cluster.agent, repro.cluster.master, "
                 "repro.exec, repro.experiments.figure8")
#: A normalised second is a CPU second on a host where one run of
#: :func:`_reference_loop` takes REFERENCE_S.
REFERENCE_S = 1e-4
SAMPLE_PERIOD_S = 0.02


def _peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0  # Linux reports KiB


def _children_cpu_s() -> float:
    """CPU seconds of every child process waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


def _reference_loop() -> int:
    """A fixed slice of interpreter work: arithmetic, a dict, a branch."""
    total = 0
    table: Dict[int, int] = {}
    for index in range(1000):
        total += index * index % 7
        if total & 1:
            table[index & 63] = total
    return total


class NormalisedClock:
    """CPU seconds of the main thread, corrected for the host's speed.

    On a shared machine busy neighbours slow every instruction for
    seconds to minutes at a time (by up to 2× on the machine of
    bench/results), and CPU time grows with it.  A sampler thread
    therefore wakes every SAMPLE_PERIOD_S, reads the main thread's CPU
    clock, and times one run of a fixed reference loop on its own CPU
    clock.  The main thread's CPU time between two samples is scaled by
    REFERENCE_S ÷ the loop's time there (the median of the five nearest
    samples), so the same work measures about the same whatever the
    host's speed.  The sampler costs about 1 % of a core.

    While the clock runs, the main thread (and the sampler, which
    inherits it) is pinned to one CPU: a sampler woken on another CPU
    would time that CPU's speed, and the host's CPUs are not equally
    busy.
    """

    def __init__(self) -> None:
        self._clock = time.pthread_getcpuclockid(threading.get_ident())
        #: (host time, main-thread CPU time, reference loop seconds)
        self.samples: List[Tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="bench-clock",
                                        daemon=True)
        self._cpus = os.sched_getaffinity(0)

    def __enter__(self) -> "NormalisedClock":
        os.sched_setaffinity(0, {min(self._cpus)})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._cpus)

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            now = perf_counter()
            main = time.clock_gettime(self._clock)
            start = time.thread_time()
            _reference_loop()
            self.samples.append((now, main, time.thread_time() - start))

    def now(self) -> float:
        """The main thread's CPU clock, for :meth:`seconds`."""
        return time.clock_gettime(self._clock)

    def _factors(self) -> List[Tuple[float, float, float]]:
        """(host time, main CPU, REFERENCE_S ÷ smoothed loop time) per sample."""
        samples = list(self.samples)
        loops = [sample[2] for sample in samples]
        return [
            (at, main, REFERENCE_S / statistics.median(loops[max(0, i - 2):i + 3]))
            for i, (at, main, _) in enumerate(samples)
        ]

    def seconds(self, start: float, end: float) -> float:
        """Normalised seconds of main-thread CPU between two :meth:`now`
        readings.  Each sample's factor holds until the next sample; the
        first one's also before it, the last one's also after it."""
        factors = self._factors()
        if not factors:
            return end - start
        total = 0.0
        for index, (_, main, factor) in enumerate(factors):
            low = start if index == 0 else max(start, main)
            high = end if index == len(factors) - 1 else min(end, factors[index + 1][1])
            if high > low:
                total += (high - low) * factor
        return total

    def child_seconds(self, cpu_s: float, begin: float, end: float) -> float:
        """Normalised seconds of ``cpu_s`` spent by child processes
        between host times ``begin`` and ``end``: scaled by the median
        factor of the samples taken meanwhile (or of the latest one)."""
        factors = self._factors()
        if not factors:
            return cpu_s
        during = [factor for at, _, factor in factors if begin <= at <= end]
        return cpu_s * statistics.median(during or [factors[-1][2]])


def _cold_start_s(clock: NormalisedClock) -> float:
    """Normalised CPU seconds for a fresh interpreter to start and import
    the sweep's modules."""
    cpu, begin = _children_cpu_s(), perf_counter()
    subprocess.run([sys.executable, "-c", SWEEP_IMPORTS], check=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return clock.child_seconds(_children_cpu_s() - cpu, begin, perf_counter())


def _error_line() -> str:
    return traceback.format_exc().strip().splitlines()[-1]


class Pass:
    """What one pass measured and checked."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, float] = {}
        self.stats: Dict[str, float] = {}
        self.digests: Dict[str, str] = {}
        self.failures: List[str] = []
        self.attempted = 0
        self.failed_units: set = set()
        #: Median time of one reference loop during the pass: the host's
        #: speed that the normalised timings corrected for.
        self.reference_loop_us = 0.0

    def fail(self, unit: str, check: str) -> None:
        """Record that ``unit`` (a cell or run) failed ``check``."""
        self.failures.append(f"{self.workload}/{unit}: {check}")
        self.failed_units.add(unit)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "metrics": self.metrics,
            "stats": self.stats,
            "digests": self.digests,
            "failures": self.failures,
            "attempted": self.attempted,
            "failed_units": sorted(self.failed_units),
            "reference_loop_us": self.reference_loop_us,
        }


def component_stats(results) -> Dict[str, float]:
    """Exact simulated statistics over a list of SimulationResults."""
    def mean(values):
        return statistics.fmean(values) if values else 0.0

    stats = [result.policy_stats for result in results]
    return {
        "objects.hit_rate": mean([s.get("hit_rate", 0.0) for s in stats]),
        "tertiary.utilization": mean(
            [s.get("tertiary_utilization", 0.0) for s in stats]
        ),
        "disks.busy_fraction": mean([r.mean_busy_fraction for r in results]),
        "queue.mean_length": mean([s.get("mean_queue_length", 0.0) for s in stats]),
        "faults.hiccups": sum(s.get("fault_hiccups", 0.0) for s in stats),
        "displays.completed": float(sum(r.completed for r in results)),
    }


# ----------------------------------------------------------------------
# Simulation workloads: Σ build_engine is set-up, Σ IntervalEngine.run is
# simulation.
# ----------------------------------------------------------------------
def fig8_cells(seed: int) -> List[Tuple[str, Any]]:
    """Simple striping and VDR at Table 4's three points, at a quarter
    of Table 3's scale (D = 250; stations and means quartered)."""
    from repro.experiments import figure8

    base = figure8.base_config(4).with_(seed=seed)
    return [(f"{technique}-{stations}-{mean:g}",
             figure8.point_config(base, technique, mean / 4, stations // 4))
            for stations, mean in TABLE4_POINTS
            for technique in ("simple", "vdr")]


def staggered_cells(seed: int) -> List[Tuple[str, Any]]:
    """Staggered striping at half scale (D = 500, 400 stations, mean 5,
    28 500 measured intervals), under both admission disciplines."""
    from repro.simulation.config import ScaledConfig

    base = ScaledConfig(
        scale=2, seed=seed, technique="staggered", num_stations=400,
        access_mean=5.0, measure_intervals=28500,
    )
    return [
        (f"staggered-400-{discipline}", base.with_(queue_discipline=discipline))
        for discipline in ("scan", "fcfs")
    ]


def open_cells(seed: int) -> List[Tuple[str, Any]]:
    """Poisson arrivals at 0.8 × nominal capacity, geometric mean 10.875
    (43.5 at full scale), deadline 25 intervals, at D = 250: staggered,
    simple, and staggered on mirrored drives with failures, OPEN_REPLICATIONS
    times.

    Each cell draws its own seed.  How much a cell costs depends on how
    often the tertiary store falls behind, which differs widely from seed
    to seed; independent replications average that out, where one seed
    for all cells would make their costs rise and fall together.
    """
    from repro.experiments import open_workload

    base = open_workload.base_config(4).with_(access_mean=43.5 / 4)
    rate = 0.8 * open_workload.nominal_capacity_rate(base)

    def cell(technique):
        return open_workload.cell_config(base, technique, rate, deadline=25,
                                         zipf_s=None)

    cells = [
        (f"{name}-{replication}", config)
        for replication in range(OPEN_REPLICATIONS)
        for name, config in (
            ("staggered", cell("staggered")),
            ("simple", cell("simple")),
            ("mirror", cell("staggered").with_(redundancy="mirror", mttf=100000.0,
                                               mttr=500.0)),
        )
    ]
    return [(name, config.with_(seed=len(cells) * seed + index))
            for index, (name, config) in enumerate(cells)]


def table4_error_pp(results: Dict[str, Any]) -> float:
    """Mean |repro − paper| Table 4 improvement over TABLE4_POINTS, pp."""
    from repro.experiments.table4 import PAPER_TABLE4
    from repro.simulation.results import improvement_percent

    errors = []
    for stations, mean in TABLE4_POINTS:
        improvement = improvement_percent(results[f"simple-{stations}-{mean:g}"],
                                          results[f"vdr-{stations}-{mean:g}"])
        errors.append(abs(improvement - PAPER_TABLE4[(stations, mean)]))
    return statistics.fmean(errors)


def simulate(workload: str, cells, clock: NormalisedClock, tracer=None) -> Pass:
    """Build and run each cell in turn, checking every result."""
    from repro.exec.hashing import digest_document
    from repro.simulation import runner

    import layers

    run = Pass(workload)
    setup_s = sim_s = 0.0
    results = {}
    for cell, config in cells:
        run.attempted += 1
        if tracer is not None:
            tracer.cell = cell
        try:
            start = clock.now()
            engine = runner.build_engine(config)
            built = clock.now()
            if tracer is not None:
                layers.bind_engine(tracer, engine)
            result = engine.run(config.warmup_intervals, config.measure_intervals)
            done = clock.now()
        except Exception:  # noqa: BLE001 — a failed cell is reported, not fatal
            run.fail(cell, f"raised {_error_line()}")
            continue
        setup_s += clock.seconds(start, built)
        sim_s += clock.seconds(built, done)
        results[cell] = result
        run.digests[cell] = digest_document(result.to_dict())
        if result.completed < 1:
            run.fail(cell, "completed no display")
        if config.is_open and not (
            0.0 <= result.blocking_probability <= 1.0
            and result.blocked <= result.offered
        ):
            run.fail(
                cell,
                f"blocking {result.blocked}/{result.offered} outside [0, 1]",
            )
    run.metrics.update(setup_s=setup_s, sim_s=sim_s)
    run.stats = component_stats(list(results.values()))
    if workload == "fig8_s4" and len(results) == len(cells):
        run.metrics["table4_err_pp"] = table4_error_pp(results)
    return run


# ----------------------------------------------------------------------
# The sweep: one grid through every execution path
# ----------------------------------------------------------------------
def sweep(workload: str, seed: int, work: Path, clock: NormalisedClock,
          tracer=None) -> Pass:
    """The scale-10 Figure 8 grid (3 means × 2 techniques × 5 station
    counts): cold jobs=1, cold jobs=2, warm replays, and a loopback master
    with one two-worker agent.

    Set-up is a cold start — a fresh interpreter importing the sweep's
    modules, the median of COLD_STARTS so that one sub-second sample
    does not decide it — plus spec planning and digests, and master and
    agent start.  ``sim_s`` is the normalised CPU time of the cold
    jobs=1 phase, which plans, simulates, caches and journals every run
    in-process.
    """
    from repro.cluster.agent import ClusterAgent
    from repro.cluster.master import ClusterMaster
    from repro.exec import ResultCache, Supervision, executor, experiment_spec
    from repro.exec.hashing import digest_document
    from repro.exec.spec import spec_digest
    from repro.experiments import figure8
    from repro.simulation.results import SimulationResult

    heartbeats = work / "heartbeats"

    def options(**extra) -> Supervision:
        return Supervision(heartbeat_dir=heartbeats, handle_signals=False, **extra)

    def phase(label: str, jobs: int, cache, **extra):
        if tracer is not None:
            tracer.cell = label
        begin = perf_counter()
        records = executor.execute(
            specs, jobs=jobs, cache=cache, supervision=options(**extra)
        )
        return records, perf_counter() - begin

    cold_start = _cold_start_s
    if tracer is not None:
        cold_start = tracer.wrap("setup.imports", cold_start)
    run = Pass(workload)
    # The sampler runs while the in-process parts are measured and stops
    # before any pool forks workers; the master and agent start, timed
    # after that, are scaled at the last speed it sampled.
    with clock:
        setup_s = statistics.median(cold_start(clock) for _ in range(COLD_STARTS))
        start = clock.now()
        specs = [
            experiment_spec(figure8.point_config(
                figure8.base_config(10).with_(seed=seed), technique, mean, count,
            ))
            for mean in figure8.scaled_means(10)
            for technique in ("simple", "vdr")
            for count in figure8.scaled_stations(10)
        ]
        for spec in specs:
            spec_digest(spec)
        setup_s += clock.seconds(start, clock.now())
        run.attempted = len(specs)
        begin = clock.now()
        cold1, jobs1_s = phase("cold-jobs1", 1, ResultCache(work / "cache-jobs1"))
        jobs1_cpu_s = clock.seconds(begin, clock.now())
    cold2, jobs2_s = phase("cold-jobs2", 2, ResultCache(work / "cache-jobs2"))
    warm_s = []
    phases = [("cold-jobs1", cold1), ("cold-jobs2", cold2)]
    for _ in range(WARM_REPLAYS):
        warm, seconds = phase("warm-replay", 2, ResultCache(work / "cache-jobs2"))
        warm_s.append(seconds)
        phases.append(("warm-replay", warm))

    begin = clock.now()
    master = ClusterMaster(
        port=0, cache_dir=str(work / "cache-cluster"), options=options()
    )
    master.start()
    agent = ClusterAgent(
        master.url, agent_id="bench-agent", jobs=2, options=options(),
        handle_signals=False,
    )
    agent_thread = threading.Thread(target=agent.run, name="bench-agent")
    agent_thread.start()
    setup_s += clock.seconds(begin, clock.now())
    try:
        remote, cluster_s = phase("cluster", 1, None, master_url=master.url)
    finally:
        agent.stop()
        agent_thread.join(timeout=60.0)
        master.stop()
    if agent_thread.is_alive():
        run.fail("cluster", "agent did not stop within 60 s")

    phases.append(("cluster", remote))
    for label, records in phases:
        for index, record in enumerate(records):
            unit = f"run-{index}"
            if not record.ok:
                run.fail(unit, f"{label} failed: {(record.error or '').strip()[-200:]}")
            elif record.payload != cold1[index].payload:
                run.fail(unit, f"{label} payload differs from cold jobs=1")
            elif label == "warm-replay" and not record.cached:
                run.fail(unit, "warm replay missed the cache")
    results = []
    for index, record in enumerate(cold1):
        if record.ok:
            results.append(SimulationResult.from_dict(record.payload))
            if results[-1].completed < 1:
                run.fail(f"run-{index}", "completed no display")
    run.digests["payloads"] = digest_document([r.payload for r in cold1])
    run.stats = component_stats(results)
    run.stats["exec.worker_run_s"] = sum(record.duration_s for record in cold2)
    run.metrics.update(
        setup_s=setup_s,
        sim_s=jobs1_cpu_s,
        sweep_jobs1_s=jobs1_s,
        sweep_jobs2_s=jobs2_s,
        parallel_speedup=jobs1_s / jobs2_s,
        warm_replay_s=statistics.median(warm_s),
        cluster_s=cluster_s,
    )
    return run


CELLS: Dict[str, Callable[[int], List[Tuple[str, Any]]]] = {
    "fig8_s4": fig8_cells,
    "staggered_s2": staggered_cells,
    "open_s4": open_cells,
}


def run_pass(workload: str, inputs: int, work: Path, tracer=None) -> Pass:
    """One pass of ``workload`` on input set ``inputs``; ``tracer`` must
    already be installed."""
    clock = NormalisedClock()
    if workload == "sweep_s10":
        run = sweep(workload, FIRST_SEED + inputs, work, clock, tracer)
    else:
        with clock:
            run = simulate(workload, CELLS[workload](FIRST_SEED + inputs), clock,
                           tracer)
    if clock.samples:
        run.reference_loop_us = 1e6 * statistics.median(
            loop for _, _, loop in clock.samples)
    run.metrics["peak_rss_mb"] = _peak_rss_mb()
    return run


def main(argv: List[str]) -> int:
    workload, inputs, traced, out = argv[:4]
    chrome: Optional[str] = argv[4] if len(argv) > 4 else None
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    work = Path(out).parent
    if traced == "1":
        import layers
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed(layers.install):
            start = perf_counter()
            run = run_pass(workload, int(inputs), work, tracer)
            body_s = perf_counter() - start
        document = run.to_dict()
        document["layers"] = tracer.layer_table()
        document["ratios"] = tracer.ratio_values()
        document["unattributed_s"] = body_s - tracer.main_top_s
        if chrome:
            tracer.write_chrome_trace(chrome)
    else:
        document = run_pass(workload, int(inputs), work).to_dict()
    with open(out, "w") as handle:
        json.dump(document, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
