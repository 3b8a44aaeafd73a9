"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``          derived quantities of a configuration (Table 3 arithmetic)
``run``           one experiment (technique × stations × skew)
``sweep``         a station sweep for one technique
``figure8``       the Figure 8 grid (both techniques, all skews)
``table4``        the Table 4 improvement matrix
``faults``        availability grid: MTTF sweep × technique × redundancy
``open-workload`` open-arrival grid: blocking probability and wait
                  percentiles vs offered load (docs/workloads.md)
``sweep-status``  summarise the on-disk result cache (``--journal``:
                  every sweep journal; ``<sweep_id> --follow``: live
                  progress replayed from the sweep's journal, without
                  an id every in-flight sweep; ``--json``: the same
                  snapshot for scripts)
``sweep-resume``  resume an interrupted sweep from its journal
``master``        run the distributed-sweep control plane (leases rows
                  to agents over HTTP; docs/distributed_execution.md)
``agent``         run one execution agent against a master
``obs-report``    summarise a ``--metrics`` file (or convert a trace)
``obs-diff``      per-metric deltas between two telemetry sources
                  (cache records, sweeps, ``--metrics`` documents,
                  JSON row lists); nonzero exit on threshold breach

All simulation commands accept ``--scale`` (1 = the paper's full
parameters) and ``--output FILE.csv|FILE.json`` to export the rows,
the execution flags ``--jobs N`` (worker processes), ``--cache-dir
DIR`` and ``--no-cache`` (content-addressed result cache, see
docs/parallel_execution.md), ``--run-timeout SECONDS`` (supervised
execution, see docs/resilient_execution.md), ``--sanitize
{off,check,strict}`` (runtime invariant checks), plus the telemetry
flags ``--obs-level {off,metrics,trace}``, ``--metrics FILE.json``
and ``--trace FILE.jsonl`` (see docs/observability.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro import failpoints
from repro.analysis.reporting import format_table
from repro.errors import ConfigurationError, ReproError, SweepInterrupted
from repro.exec import (
    ResultCache,
    Supervision,
    cache_status_rows,
    code_salt,
    execute,
    experiment_spec,
    find_journal,
    format_bytes,
    journal_root,
    journal_status_rows,
    list_journals,
    records_to_results,
    resolve_cache_dir,
)
from repro.experiments.faults import (
    DEFAULT_MTTF_VALUES,
    faults_rows,
    run_faults_grid,
)
from repro.experiments.figure8 import (
    base_config,
    figure8_rows,
    run_figure8,
    scaled_means,
    scaled_stations,
)
from repro.experiments.open_workload import (
    DEFAULT_DEADLINE,
    DEFAULT_UTILISATIONS,
    DEFAULT_ZIPF_S,
    open_workload_rows,
    run_open_workload,
)
from repro.experiments.table4 import run_table4, scaled_table4_stations
from repro.obs import Observability, convert_jsonl_to_chrome
from repro.obs.events import render_progress
from repro.obs.report import format_report, load_metrics
from repro.simulation.config import SimulationConfig
from repro.sim import sanitize
from repro.simulation.export import write_csv, write_json
from repro.simulation.runner import run_sweep, sweep_table


def _output_path(value: str) -> str:
    """Validate ``--output`` up front so runs never end in an export
    error after minutes of simulation."""
    if not value.endswith((".csv", ".json")):
        raise argparse.ArgumentTypeError(
            f"output must end in .csv or .json, got {value!r}"
        )
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=int, default=10,
                        help="linear scale divisor (1 = full paper scale)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--output", type=_output_path, default=None,
                        help="export rows to FILE.csv or FILE.json")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sweep runs (default: 1)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache directory (default: "
                             "$REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache for this invocation")
    parser.add_argument("--run-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock bound per run; a worker over it is "
                             "killed and the run retried (default: "
                             "$REPRO_RUN_TIMEOUT or unbounded)")
    parser.add_argument("--master-url", default=None, metavar="URL",
                        help="submit sweeps to a running `repro master` "
                             "instead of executing locally; the master owns "
                             "the cache and journal "
                             "(docs/distributed_execution.md)")
    parser.add_argument("--sanitize", default=None,
                        choices=["off", "check", "strict"],
                        help="runtime invariant checks: tally (check) or "
                             "fail fast (strict) on conservation violations "
                             "(default: off, zero overhead)")
    parser.add_argument("--failpoints", default=None, metavar="SPEC",
                        help="arm deterministic fault-injection sites, "
                             "e.g. 'journal.append.pre_write=torn:9' "
                             "(default: $REPRO_FAILPOINTS; see "
                             "docs/chaos_testing.md)")
    parser.add_argument("--obs-level", default="off",
                        choices=["off", "metrics", "trace"],
                        help="telemetry level (default: off, zero overhead)")
    parser.add_argument("--metrics", default=None, metavar="FILE",
                        help="write per-run metrics JSON (implies "
                             "--obs-level metrics)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="stream a JSONL event trace (implies "
                             "--obs-level trace)")


def _apply_sanitize(args) -> None:
    """Install ``--sanitize`` for this invocation (and its workers).

    The mode travels via the ``REPRO_SANITIZE`` environment variable —
    worker processes inherit it, grid commands that build many configs
    pick it up without per-config plumbing, and because the mode is
    excluded from cache keys it cannot fork the result cache.
    """
    if getattr(args, "sanitize", None) is not None:
        os.environ[sanitize.SANITIZE_ENV] = args.sanitize


def _apply_failpoints(args) -> None:
    """Arm ``--failpoints`` for this invocation (and its workers).

    Like ``--sanitize``, the spec travels via the environment
    (``REPRO_FAILPOINTS``) so forked workers and spawned agents
    inherit it, then re-arms the already-imported registry in this
    process.
    """
    if getattr(args, "failpoints", None) is not None:
        os.environ[failpoints.FAILPOINTS_ENV] = args.failpoints
        failpoints.install_from_env()


def _cache(args) -> Optional[ResultCache]:
    """The result cache for this invocation, or ``None`` with --no-cache."""
    if getattr(args, "no_cache", False):
        return None
    return ResultCache(resolve_cache_dir(getattr(args, "cache_dir", None)))


def _supervision(args) -> Supervision:
    """Supervision options for this invocation.

    Records the original command line so ``repro sweep-resume`` can
    replay it from the journal after a crash or interrupt.
    """
    return Supervision(
        run_timeout=getattr(args, "run_timeout", None),
        argv=getattr(args, "_argv", None),
        master_url=getattr(args, "master_url", None),
    )


def _observability(args) -> Optional[Observability]:
    """A telemetry session for the run, or ``None`` when off."""
    obs = Observability(
        level=getattr(args, "obs_level", "off"),
        trace_path=getattr(args, "trace", None),
        metrics_path=getattr(args, "metrics", None),
    )
    return obs if obs.enabled else None


def _finish_obs(obs: Optional[Observability]) -> None:
    """Flush the session; print paths or an inline report."""
    if obs is None:
        return
    document = obs.metrics_document()
    written = obs.finish()
    for path in written:
        print(f"wrote {path}")
    if obs.metrics_path is None and document["runs"]:
        print()
        print(format_report(document))


def _add_workload(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--technique", default="simple",
                        choices=["simple", "staggered", "vdr"])
    parser.add_argument("--stations", type=int, default=16)
    parser.add_argument("--mean", type=float, default=None,
                        help="geometric access mean (omit for the scaled "
                             "default of the paper's 'highly skewed')")
    parser.add_argument("--uniform", action="store_true",
                        help="uniform access over the whole database")
    parser.add_argument("--stride", type=int, default=None)
    group = parser.add_argument_group(
        "open workload (docs/workloads.md)"
    )
    group.add_argument("--arrival", default=None,
                       choices=["closed", "poisson", "mmpp"],
                       help="arrival model (default: closed station loop)")
    group.add_argument("--rate", type=float, default=None, metavar="PER_S",
                       help="offered arrival rate, requests/second "
                            "(poisson)")
    group.add_argument("--zipf-s", type=float, default=None, metavar="S",
                       help="Zipf catalog-skew exponent (overrides the "
                            "geometric access distribution)")
    group.add_argument("--deadline", type=int, default=None,
                       metavar="INTERVALS",
                       help="admission deadline; an open request waiting "
                            "longer is blocked (default: wait forever)")
    group.add_argument("--mmpp-rates", type=float, nargs="+", default=None,
                       metavar="PER_S",
                       help="per-phase arrival rates, requests/second")
    group.add_argument("--mmpp-sojourn", type=float, nargs="+", default=None,
                       metavar="INTERVALS",
                       help="per-phase mean sojourn times, intervals")
    group.add_argument("--diurnal-period", type=float, default=None,
                       metavar="INTERVALS",
                       help="diurnal rate-curve period, intervals")
    group.add_argument("--diurnal-amplitude", type=float, default=None,
                       metavar="FRACTION",
                       help="diurnal swing in [0, 1] (default: 0 = flat)")
    group.add_argument("--burst-at", type=int, default=None,
                       metavar="INTERVAL",
                       help="flash-crowd start interval")
    group.add_argument("--burst-duration", type=int, default=None,
                       metavar="INTERVALS",
                       help="flash-crowd length (default: 0)")
    group.add_argument("--burst-factor", type=float, default=None,
                       metavar="X",
                       help="rate multiplier inside the burst (default: 1)")
    group.add_argument("--burst-hotspot", type=float, default=None,
                       metavar="FRACTION",
                       help="fraction of burst arrivals aimed at the "
                            "hottest title (default: 0)")


def _fail_at_pair(value: str) -> tuple:
    """Parse one ``--fail-at DISK:INTERVAL`` operand."""
    disk, sep, interval = value.partition(":")
    if not sep or not disk.isdigit() or not interval.isdigit():
        raise argparse.ArgumentTypeError(
            f"fail-at must look like DISK:INTERVAL, got {value!r}"
        )
    return (int(disk), int(interval))


def _add_faults(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("fault tolerance")
    group.add_argument("--mttf", type=float, default=None, metavar="INTERVALS",
                       help="mean time to failure per drive (intervals; "
                            "omit for a fault-free run)")
    group.add_argument("--mttr", type=float, default=None, metavar="INTERVALS",
                       help="mean time to repair (intervals; omit to leave "
                            "failed drives down)")
    group.add_argument("--redundancy", default=None,
                       choices=["none", "mirror", "parity"],
                       help="scheme degraded reads reconstruct from "
                            "(default: none)")
    group.add_argument("--parity-group", type=int, default=None, metavar="G",
                       help="drives per parity group (default: 4)")
    group.add_argument("--rebuild-rate", type=int, default=None, metavar="H",
                       help="half-slots/interval the online rebuild may "
                            "claim (default: 1)")
    group.add_argument("--on-fault", default=None,
                       choices=["hiccup", "abort"],
                       help="unreconstructable read: tally a hiccup or "
                            "abort the display (default: hiccup)")
    group.add_argument("--fail-at", type=_fail_at_pair, nargs="*",
                       default=None, metavar="DISK:INTERVAL",
                       help="scripted failures, e.g. --fail-at 3:100 7:250")


def _base_config(args) -> SimulationConfig:
    """The configuration every subcommand starts from: the scaled
    base with ``--seed``.  The experiment grids vary their cells on
    top of it; ``run``/``sweep``/``info`` add their overrides."""
    return base_config(args.scale).with_(seed=args.seed)


def _config(args) -> SimulationConfig:
    # Overrides are collected and applied in ONE with_() call:
    # validation runs on the complete combination, not on partially
    # assembled ones (e.g. --arrival poisson is only valid together
    # with its --rate).
    changes: Dict = {}
    if getattr(args, "technique", None):
        changes["technique"] = args.technique
    if getattr(args, "stride", None) is not None:
        changes["stride"] = args.stride
    if getattr(args, "stations", None) is not None:
        changes["num_stations"] = args.stations
    if getattr(args, "uniform", False):
        changes["access_mean"] = None
    elif getattr(args, "mean", None) is not None:
        changes["access_mean"] = args.mean
    for flag, field in (
        ("arrival", "arrival"),
        ("rate", "arrival_rate"),
        ("zipf_s", "zipf_s"),
        ("deadline", "deadline_intervals"),
        ("mmpp_rates", "mmpp_rates"),
        ("mmpp_sojourn", "mmpp_sojourn"),
        ("diurnal_period", "diurnal_period"),
        ("diurnal_amplitude", "diurnal_amplitude"),
        ("burst_at", "burst_at"),
        ("burst_duration", "burst_duration"),
        ("burst_factor", "burst_factor"),
        ("burst_hotspot", "burst_hotspot"),
        ("mttf", "mttf"),
        ("mttr", "mttr"),
        ("redundancy", "redundancy"),
        ("parity_group", "parity_group"),
        ("rebuild_rate", "rebuild_rate"),
        ("on_fault", "on_fault"),
        ("fail_at", "fail_at"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            if field in ("fail_at", "mmpp_rates", "mmpp_sojourn"):
                value = tuple(value)
            changes[field] = value
    return _base_config(args).with_(**changes)


def _emit(rows: List[Dict], output: Optional[str]) -> None:
    print(format_table(rows))
    if output:
        if output.endswith(".json"):
            path = write_json(rows, output)
        else:
            path = write_csv(rows, output)
        print(f"\nwrote {path}")


def cmd_info(args) -> int:
    config = _config(args)
    rows = [
        {"quantity": "technique", "value": config.technique},
        {"quantity": "disks (D)", "value": config.num_disks},
        {"quantity": "degree of declustering (M)", "value": config.degree},
        {"quantity": "clusters (R)", "value": config.num_clusters},
        {"quantity": "stride (k)",
         "value": "n/a" if config.technique == "vdr"
         else config.effective_stride},
        {"quantity": "B_disk (mbps)", "value": round(config.disk_bandwidth, 3)},
        {"quantity": "interval S(C_i) (ms)",
         "value": round(config.interval_length * 1000, 2)},
        {"quantity": "objects", "value": config.num_objects},
        {"quantity": "subobjects/object", "value": config.num_subobjects},
        {"quantity": "object size (mbit)", "value": round(config.object_size, 1)},
        {"quantity": "display time (s)", "value": round(config.display_time, 1)},
        {"quantity": "disk-resident objects",
         "value": config.max_resident_objects},
        {"quantity": "database / disk capacity",
         "value": round(config.database_size / config.disk_capacity, 2)},
    ]
    _emit(rows, args.output)
    return 0


def cmd_run(args) -> int:
    config = _config(args)
    print(f"running: {config.describe()}")
    obs = _observability(args)
    records = execute(
        [experiment_spec(config)], jobs=1, cache=_cache(args), obs=obs,
        supervision=_supervision(args),
    )
    if records[0].cached:
        print("(cache hit — no simulation work)")
    result = records_to_results(records)[0]
    _emit([result.summary()], args.output)
    _finish_obs(obs)
    return 0


def cmd_sweep(args) -> int:
    config = _config(args)
    stations = args.values or scaled_stations(args.scale)
    obs = _observability(args)
    results = run_sweep(
        config, "num_stations", stations, obs=obs,
        jobs=args.jobs, cache=_cache(args), supervision=_supervision(args),
    )
    _emit(sweep_table(results), args.output)
    _finish_obs(obs)
    return 0


def cmd_figure8(args) -> int:
    stations = args.values or scaled_stations(args.scale)
    obs = _observability(args)
    curves = run_figure8(
        scale=args.scale, stations=stations, means=scaled_means(args.scale),
        config=_base_config(args),
        obs=obs, jobs=args.jobs, cache=_cache(args),
        supervision=_supervision(args),
    )
    _emit(figure8_rows(curves), args.output)
    _finish_obs(obs)
    return 0


def cmd_table4(args) -> int:
    obs = _observability(args)
    rows = run_table4(
        scale=args.scale,
        stations=args.values or scaled_table4_stations(args.scale),
        means=scaled_means(args.scale),
        config=_base_config(args),
        obs=obs, jobs=args.jobs, cache=_cache(args),
        supervision=_supervision(args),
    )
    _emit(rows, args.output)
    _finish_obs(obs)
    return 0


def cmd_open_workload(args) -> int:
    obs = _observability(args)
    curves = run_open_workload(
        scale=args.scale,
        rates=args.values,
        utilisations=args.utilisation or DEFAULT_UTILISATIONS,
        techniques=tuple(args.techniques),
        deadline=args.deadline if args.deadline is not None
        else DEFAULT_DEADLINE,
        zipf_s=args.zipf_s if args.zipf_s is not None else DEFAULT_ZIPF_S,
        config=_base_config(args),
        obs=obs, jobs=args.jobs, cache=_cache(args),
        supervision=_supervision(args),
    )
    _emit(open_workload_rows(curves), args.output)
    _finish_obs(obs)
    return 0


def cmd_faults(args) -> int:
    obs = _observability(args)
    points = run_faults_grid(
        scale=args.scale,
        mttf_values=args.values or None,
        mttr=args.mttr,
        config=_base_config(args),
        obs=obs, jobs=args.jobs, cache=_cache(args),
        supervision=_supervision(args),
    )
    _emit(faults_rows(points), args.output)
    _finish_obs(obs)
    return 0


def _print_frame(text: str, previous: Optional[str]) -> None:
    """One live-view frame: clear-and-redraw on a TTY, append-only
    (and deduplicated) when piped."""
    if sys.stdout.isatty():
        print("\x1b[2J\x1b[H" + text, flush=True)
    elif text != previous:
        print(text, flush=True)
        print(flush=True)


def _follow(root, sweep_id: Optional[str], interval: float) -> int:
    """Re-render until the followed sweep ends (Ctrl-C stops).

    With an id, one sweep: it ends on ``complete``, or on
    ``interrupted`` once it has moved since the first frame (following
    an interrupted sweep waits for its resume).  Without an id, every
    in-flight sweep, each to its last frame; returns once none is in
    flight.
    """
    previous: Optional[str] = None
    first_seen: Optional[float] = None
    watched: set = set()
    try:
        while True:
            if sweep_id is None:
                states = sorted(
                    (
                        state for state in list_journals(root)
                        if state.status == "in-flight"
                        or state.sweep_id in watched
                    ),
                    key=lambda state: state.sweep_id,
                )
                watched = {
                    state.sweep_id for state in states
                    if state.status == "in-flight"
                }
                text = "\n\n".join(
                    render_progress(state.to_dict()) for state in states
                ) or f"no in-flight sweeps under {root}"
                done = not watched
            else:
                try:
                    state = find_journal(root, sweep_id)
                except ConfigurationError:
                    # The sweep may not have started yet (e.g. following
                    # a sweep the moment it is launched): keep waiting.
                    _print_frame(
                        f"waiting for sweep {sweep_id} under {root} ...",
                        previous,
                    )
                    previous = None
                    time.sleep(interval)
                    continue
                if first_seen is None:
                    first_seen = state.updated_at
                text = render_progress(state.to_dict())
                done = state.status == "complete" or (
                    state.status == "interrupted"
                    and state.updated_at > first_seen
                )
            _print_frame(text, previous)
            previous = text
            if done:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 130


def cmd_sweep_status(args) -> int:
    cache = ResultCache(resolve_cache_dir(args.cache_dir))
    root = journal_root(cache.root)
    if args.follow:
        return _follow(root, args.sweep_id, args.interval)
    if args.json_out or args.sweep_id:
        snapshot = find_journal(root, args.sweep_id).to_dict()
        if args.json_out:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            print(render_progress(snapshot))
        return 0
    if args.journal:
        rows = journal_status_rows(root)
        if not rows:
            print(f"no sweep journals under {root}")
            return 0
        print(format_table(rows))
        interrupted = [row for row in rows if row["status"] == "interrupted"]
        for row in interrupted:
            print(f"resume with: repro sweep-resume {row['sweep_id']}")
        return 0
    entries = len(cache)
    print(
        f"cache: {cache.root} ({entries} entries, "
        f"{format_bytes(cache.size_bytes())} on disk)"
    )
    if entries:
        print(format_table(cache_status_rows(cache)))
    if args.clear:
        print(f"cleared {cache.clear()} entries")
    return 0


def cmd_sweep_resume(args) -> int:
    """Replay an interrupted sweep's recorded command line.

    Settled rows come back instantly from the journal/cache; only the
    pending remainder simulates.
    """
    root = journal_root(resolve_cache_dir(args.cache_dir))
    state = find_journal(root, args.sweep_id)
    if not state.argv:
        print(
            f"sweep-resume: journal {state.sweep_id} predates command "
            "recording; re-run the original command instead",
            file=sys.stderr,
        )
        return 2
    salt = code_salt()
    if state.code_salt and state.code_salt != salt:
        # The replay would key every row with the new salt: a different
        # sweep, leaving this one interrupted for good.
        print(
            f"sweep-resume: journal {state.sweep_id} was recorded under code "
            f"salt {state.code_salt}, this code's salt is {salt}; re-run the "
            "original command to start the sweep afresh",
            file=sys.stderr,
        )
        return 2
    print(
        f"resuming sweep {state.sweep_id}: {state.completed}/{state.total} "
        f"rows done, {state.outstanding} pending, {state.poisoned} poisoned"
    )
    print(f"replaying: repro {' '.join(state.argv)}")
    return main(state.argv)


def cmd_master(args) -> int:
    """Run the sweep control plane (lazy import: the cluster package
    costs local-only users nothing)."""
    from repro.cluster.master import ClusterMaster

    options = Supervision(
        run_timeout=args.run_timeout,
        heartbeat_timeout=args.heartbeat_timeout,
        heartbeat_interval=min(1.0, args.heartbeat_timeout / 4),
        argv=args._argv,
    )
    master = ClusterMaster(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        options=options,
        lease_batch=args.batch,
    )
    print(f"repro master listening on {master.url}")
    print(f"cache: {master.cache.root}")
    print(
        "point agents at it with "
        f"`repro agent --master-url {master.url}` and submit sweeps "
        f"with `--master-url {master.url}`"
    )
    master.serve_until_stopped()
    return 0


def cmd_agent(args) -> int:
    """Run one execution agent against a master."""
    from repro.cluster.agent import ClusterAgent

    options = Supervision(
        run_timeout=args.run_timeout,
        heartbeat_timeout=args.heartbeat_timeout,
        heartbeat_interval=min(1.0, args.heartbeat_timeout / 4),
        argv=args._argv,
    )
    agent = ClusterAgent(
        args.master_url,
        agent_id=args.id,
        jobs=args.jobs,
        options=options,
        max_batch=args.batch,
    )
    print(f"repro agent {agent.agent_id} -> {args.master_url}")
    executed = agent.run(max_idle_s=args.max_idle)
    print(f"agent {agent.agent_id}: {executed} rows executed")
    return 0


def cmd_obs_report(args) -> int:
    if args.chrome:
        if not args.trace:
            print("obs-report: --chrome requires --trace FILE.jsonl",
                  file=sys.stderr)
            return 2
        path = convert_jsonl_to_chrome(args.trace, args.chrome)
        print(f"wrote {path}")
    if args.metrics_file:
        document = load_metrics(args.metrics_file)
        print(format_report(document, run_index=args.run))
    elif not args.chrome:
        print("obs-report: nothing to do (pass a metrics file and/or "
              "--trace/--chrome)", file=sys.stderr)
        return 2
    return 0


def cmd_obs_diff(args) -> int:
    """Per-metric deltas between two telemetry sources.  Exit 0 when
    every delta is within the threshold, 3 when any metric breaches it
    or a sweep side lacks a run's stored telemetry (the CI gate's
    contract)."""
    from repro.obs.aggregate import (
        diff_metrics,
        load_metrics_source,
        render_diff,
    )

    root = resolve_cache_dir(args.cache_dir)
    root_b = (
        resolve_cache_dir(args.cache_dir_b)
        if args.cache_dir_b is not None
        else root
    )
    side_a = load_metrics_source(
        args.a, cache_root=root, include_profile=args.include_profile
    )
    side_b = load_metrics_source(
        args.b, cache_root=root_b, include_profile=args.include_profile
    )
    diff = diff_metrics(
        side_a,
        side_b,
        threshold=args.threshold,
        min_abs=args.min_abs,
        only=args.only,
        direction=args.direction,
    )
    print(render_diff(diff, fmt=args.format, all_rows=args.all))
    if diff["breaches"]:
        missing = sum(diff["missing_artifacts"].values())
        print(
            f"obs-diff: {diff['breaches'] - missing} metric(s) beyond "
            f"threshold {args.threshold:g}, {missing} missing artifact(s)",
            file=sys.stderr,
        )
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Staggered-striping multimedia-server simulator "
                    "(SIGMOD '94 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser(
        "info",
        help="derived configuration quantities",
        epilog="The configuration model and scaling rules are covered in "
               "docs/architecture.md (module map) and DESIGN.md (Table 3 "
               "substitutions).",
    )
    _add_common(p_info)
    _add_workload(p_info)
    p_info.set_defaults(func=cmd_info)

    p_run = sub.add_parser(
        "run",
        help="run one experiment",
        epilog="What happens inside a run — admission, delivery, "
               "validation — is walked through in docs/architecture.md; "
               "telemetry flags in docs/observability.md; fault flags in "
               "docs/fault_tolerance.md; the admission kernel and its "
               "array layouts in docs/performance.md.",
    )
    _add_common(p_run)
    _add_workload(p_run)
    _add_faults(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep",
        help="sweep station counts",
        epilog="Sweeps fan out with --jobs and bank rows in the result "
               "cache (docs/parallel_execution.md); --run-timeout and the "
               "resumable journal are in docs/resilient_execution.md.",
    )
    _add_common(p_sweep)
    _add_workload(p_sweep)
    _add_faults(p_sweep)
    p_sweep.add_argument("--values", type=int, nargs="*", default=None,
                         help="station counts (default: Figure 8's axis)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_faults = sub.add_parser(
        "faults",
        help="availability grid: MTTF sweep × technique × redundancy",
        epilog="Failure injection, degraded-mode service, and online "
               "rebuild are documented in docs/fault_tolerance.md.",
    )
    _add_common(p_faults)
    p_faults.add_argument("--values", type=float, nargs="*", default=None,
                          help="MTTF values in intervals (default: "
                               f"{', '.join(str(v) for v in DEFAULT_MTTF_VALUES)})")
    p_faults.add_argument("--mttr", type=float, default=None,
                          metavar="INTERVALS",
                          help="mean time to repair (default: mttf/10)")
    p_faults.set_defaults(func=cmd_faults)

    p_open = sub.add_parser(
        "open-workload",
        help="open-arrival grid: blocking and wait percentiles vs "
             "offered load",
        epilog="Arrival models, blocking semantics, and the analytic "
               "validation methodology are documented in "
               "docs/workloads.md; the grid parallelises with --jobs "
               "and is cached across invocations "
               "(docs/parallel_execution.md).",
    )
    _add_common(p_open)
    p_open.add_argument("--values", type=float, nargs="*", default=None,
                        metavar="PER_S",
                        help="offered arrival rates, requests/second "
                             "(default: derived from --utilisation)")
    p_open.add_argument("--utilisation", type=float, nargs="*", default=None,
                        metavar="FRACTION",
                        help="offered load as fractions of nominal array "
                             "capacity (default: "
                             f"{', '.join(str(u) for u in DEFAULT_UTILISATIONS)})")
    p_open.add_argument("--techniques", nargs="+",
                        default=["simple", "staggered"],
                        choices=["simple", "staggered", "vdr"],
                        help="storage techniques to sweep")
    p_open.add_argument("--deadline", type=int, default=None,
                        metavar="INTERVALS",
                        help="admission deadline before an arrival is "
                             f"blocked (default: {DEFAULT_DEADLINE})")
    p_open.add_argument("--zipf-s", type=float, default=None, metavar="S",
                        help="Zipf catalog-skew exponent "
                             f"(default: {DEFAULT_ZIPF_S})")
    p_open.set_defaults(func=cmd_open_workload)

    p_fig8 = sub.add_parser(
        "figure8",
        help="reproduce Figure 8",
        epilog="The grid parallelises with --jobs and is cached across "
               "invocations (docs/parallel_execution.md); golden fixtures "
               "pin its rows in CI.",
    )
    _add_common(p_fig8)
    p_fig8.add_argument("--values", type=int, nargs="*", default=None)
    p_fig8.set_defaults(func=cmd_figure8)

    p_tab4 = sub.add_parser(
        "table4",
        help="reproduce Table 4",
        epilog="The grid parallelises with --jobs and is cached across "
               "invocations (docs/parallel_execution.md); golden fixtures "
               "pin its rows in CI.",
    )
    _add_common(p_tab4)
    p_tab4.add_argument("--values", type=int, nargs="*", default=None)
    p_tab4.set_defaults(func=cmd_table4)

    p_master = sub.add_parser(
        "master",
        help="run the distributed-sweep control plane",
        epilog="The master owns the cache, journal, and event bus; "
               "agents lease rows over HTTP and push results back.  "
               "Protocol, lease lifecycle, and failure attribution are "
               "documented in docs/distributed_execution.md.",
    )
    p_master.add_argument("--host", default="127.0.0.1",
                          help="bind address (default: 127.0.0.1)")
    p_master.add_argument("--port", type=int, default=7077,
                          help="bind port; 0 picks a free one "
                               "(default: 7077)")
    p_master.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="authoritative result cache (default: "
                               "$REPRO_CACHE_DIR or .repro-cache)")
    p_master.add_argument("--run-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="per-run wall-clock bound enforced by "
                               "agents (default: $REPRO_RUN_TIMEOUT)")
    p_master.add_argument("--heartbeat-timeout", type=float, default=15.0,
                          metavar="SECONDS",
                          help="an agent silent this long is declared dead "
                               "and its leases requeue (default: 15)")
    p_master.add_argument("--batch", type=int, default=2, metavar="N",
                          help="rows per lease batch (default: 2)")
    p_master.set_defaults(func=cmd_master)

    p_agent = sub.add_parser(
        "agent",
        help="run one distributed-sweep execution agent",
        epilog="Agents run leased rows through the same supervised "
               "retry/poison machinery as local sweeps and push results "
               "back to the master — see docs/distributed_execution.md.",
    )
    p_agent.add_argument("--master-url", required=True, metavar="URL",
                         help="the `repro master` to lease work from")
    p_agent.add_argument("--id", default=None,
                         help="agent id (default: host-pid-random)")
    p_agent.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes per batch (default: 1)")
    p_agent.add_argument("--batch", type=int, default=None, metavar="N",
                         help="max rows per lease (default: the master's)")
    p_agent.add_argument("--run-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-run wall-clock bound (default: "
                              "$REPRO_RUN_TIMEOUT)")
    p_agent.add_argument("--heartbeat-timeout", type=float, default=15.0,
                         metavar="SECONDS",
                         help="local supervision heartbeat bound "
                              "(default: 15)")
    p_agent.add_argument("--max-idle", type=float, default=None,
                         metavar="SECONDS",
                         help="exit after polling an idle master this long "
                              "(default: poll forever)")
    p_agent.set_defaults(func=cmd_agent)

    p_status = sub.add_parser(
        "sweep-status",
        help="summarise the result cache, or follow a sweep live",
        epilog="The result cache and sweep journals are documented in "
               "docs/parallel_execution.md (cache layout, content "
               "addressing) and docs/resilient_execution.md (journals, "
               "poisoned rows, sweep-resume); the progress events "
               "behind --follow/--json are in docs/sweep_observability.md.",
    )
    p_status.add_argument("sweep_id", nargs="?", default=None,
                          help="sweep id (or unique prefix) to report "
                               "progress for (from `--journal`; omit to "
                               "pick the most recently active sweep, or "
                               "with --follow to watch every in-flight "
                               "sweep)")
    p_status.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="cache directory (default: $REPRO_CACHE_DIR "
                               "or .repro-cache)")
    p_status.add_argument("--clear", action="store_true",
                          help="delete every cached entry (telemetry "
                               "included) after reporting")
    p_status.add_argument("--journal", action="store_true",
                          help="list sweep journals instead: completed / "
                               "pending / poisoned counts per sweep")
    p_status.add_argument("--follow", action="store_true",
                          help="live progress view replayed from the "
                               "sweep's journal; re-renders until it ends "
                               "(without an id: every in-flight sweep, "
                               "until none is in flight)")
    p_status.add_argument("--json", dest="json_out", action="store_true",
                          help="emit the progress snapshot as JSON (schema "
                               "repro-sweep-progress/2 — the exact document "
                               "the --follow renderer consumes; includes "
                               "per-agent rows for cluster sweeps)")
    p_status.add_argument("--interval", type=float, default=2.0,
                          metavar="SECONDS",
                          help="--follow refresh interval (default: 2)")
    p_status.set_defaults(func=cmd_sweep_status)

    p_resume = sub.add_parser(
        "sweep-resume",
        help="resume an interrupted sweep from its journal",
        epilog="Resumed sweeps replay the journalled invocation and "
               "produce rows byte-identical to an uninterrupted run — "
               "see docs/resilient_execution.md.",
    )
    p_resume.add_argument("sweep_id",
                          help="sweep id (or unique prefix) from "
                               "`repro sweep-status --journal`")
    p_resume.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="cache directory whose journals to search "
                               "(default: $REPRO_CACHE_DIR or .repro-cache)")
    p_resume.set_defaults(func=cmd_sweep_resume)

    p_obs = sub.add_parser(
        "obs-report",
        help="summarise a metrics file / convert a trace to Chrome format",
        epilog="Metric families, the trace format, and the Chrome/Perfetto "
               "workflow are documented in docs/observability.md.",
    )
    p_obs.add_argument("metrics_file", nargs="?", default=None,
                       help="metrics JSON written by --metrics, or a "
                            "cache record carrying telemetry")
    p_obs.add_argument("--run", type=int, default=None,
                       help="report only this run index")
    p_obs.add_argument("--trace", default=None, metavar="FILE",
                       help="JSONL trace to convert (with --chrome)")
    p_obs.add_argument("--chrome", default=None, metavar="FILE",
                       help="write a chrome://tracing JSON file from --trace")
    p_obs.set_defaults(func=cmd_obs_report)

    p_diff = sub.add_parser(
        "obs-diff",
        help="per-metric deltas between two telemetry sources",
        epilog="A and B may each be a cache record carrying telemetry "
               "(objects/<d[:2]>/<digest>.json of an observed sweep), a "
               "--metrics document, any "
               "JSON list of rows (e.g. the rows the telemetry overhead "
               "check prints; its < 5 % contract currently fails), or "
               "a sweep id resolved through the journal and cache records "
               "in --cache-dir (B uses --cache-dir-b when "
               "given).  Exit 3 when any delta breaches the threshold — "
               "the CI regression contract.  Flattening rules and "
               "threshold semantics are in docs/sweep_observability.md.",
    )
    p_diff.add_argument("a", help="baseline source (file or sweep id)")
    p_diff.add_argument("b", help="comparison source (file or sweep id)")
    p_diff.add_argument("--format", default="table",
                        choices=["table", "json", "markdown"],
                        help="output format (default: table)")
    p_diff.add_argument("--threshold", type=float, default=0.0,
                        metavar="FRACTION",
                        help="allowed relative delta per metric; 0 means "
                             "any difference breaches (default: 0)")
    p_diff.add_argument("--min-abs", type=float, default=0.0,
                        metavar="VALUE",
                        help="ignore deltas smaller than this absolute "
                             "value (default: 0)")
    p_diff.add_argument("--only", default=None, metavar="GLOB",
                        help="restrict compared keys to an fnmatch "
                             "pattern, e.g. 'row.*.overhead_pct'")
    p_diff.add_argument("--direction", default="both",
                        choices=["both", "increase", "decrease"],
                        help="which delta sign can breach (default: both; "
                             "'decrease' gates speedup regressions without "
                             "failing on improvements)")
    p_diff.add_argument("--all", action="store_true",
                        help="list unchanged metrics too (table/markdown)")
    p_diff.add_argument("--include-profile", action="store_true",
                        help="include wall-clock profile phases "
                             "(excluded by default: pure noise between "
                             "byte-identical sweeps)")
    p_diff.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache whose journals/records resolve "
                             "sweep-id sources (default: $REPRO_CACHE_DIR "
                             "or .repro-cache)")
    p_diff.add_argument("--cache-dir-b", default=None, metavar="DIR",
                        help="separate cache for source B (diff the same "
                             "sweep id across two caches)")
    p_diff.set_defaults(func=cmd_obs_diff)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv)
    # Recorded in the sweep journal so `repro sweep-resume` can replay
    # this exact invocation.
    args._argv = argv
    _apply_sanitize(args)
    try:
        # Inside the handler: a malformed --failpoints spec is a user
        # error (one line, exit 2), not a traceback.
        _apply_failpoints(args)
        return args.func(args)
    except SweepInterrupted as interrupt:
        # Graceful shutdown: completed rows are flushed; tell the user
        # exactly how to pick the sweep back up.  130 = 128 + SIGINT,
        # the conventional "terminated by Ctrl-C" exit code.
        print(f"\nrepro {args.command}: {interrupt}", file=sys.stderr)
        return 130
    except (ReproError, OSError) as error:
        # Library failures and file-system errors (unwritable --trace /
        # --metrics / --output paths, unreadable inputs) are user
        # errors, not crashes: one line on stderr, exit 2.
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
