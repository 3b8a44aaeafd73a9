"""The layer map of the traced pass.

Each :class:`Layer` names, written down before any optimisation is
measured, the end-to-end metrics a change to that layer should move and
the workloads on which it should move them; :func:`install` wraps its
public functions (README.md explains how to read the resulting table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

SIM = ("fig8_s4", "staggered_s2", "open_s4")
SWEEP = ("sweep_s10",)


@dataclass(frozen=True)
class Layer:
    name: str
    moves: Tuple[str, ...]
    workloads: Tuple[str, ...]
    ratio: str = ""


LAYERS: Tuple[Layer, ...] = (
    Layer("setup.engine", ("setup_s", "peak_rss_mb"), SIM),
    Layer("setup.catalog", ("setup_s", "peak_rss_mb"), SIM),
    Layer("setup.policy", ("setup_s", "peak_rss_mb"), SIM),
    Layer("setup.preload", ("setup_s", "peak_rss_mb"), SIM),
    Layer("placement.place", ("setup_s", "sim_s"), SIM),
    Layer("placement.evict", ("sim_s",), ("open_s4",)),
    Layer("engine.run", ("sim_s",), SIM),
    Layer("engine.step", ("sim_s",), SIM),
    Layer("workload.ready", ("sim_s",), ("open_s4",)),
    Layer("workload.complete", ("sim_s",), ("open_s4",)),
    Layer("scheduler.submit", ("sim_s",), ("staggered_s2",)),
    Layer("scheduler.advance", ("sim_s",), ("staggered_s2",)),
    Layer("scheduler.cancel", ("sim_s",), ("open_s4",)),
    Layer("vdr.submit", ("sim_s",), ("fig8_s4",)),
    Layer("vdr.advance", ("sim_s",), ("fig8_s4",)),
    Layer("lanes.release", ("sim_s",), ("staggered_s2",)),
    Layer("batch.verdicts", ("sim_s",), ("staggered_s2",),
          ratio="batch.verdicts.true_ratio"),
    Layer("admission.probe", ("sim_s",), ("staggered_s2",),
          ratio="admission.probe.useful_ratio"),
    Layer("tertiary.advance", ("sim_s",), ("open_s4",)),
    Layer("objects.access", ("sim_s",), ("open_s4",)),
    Layer("objects.make_room", ("sim_s",), ("open_s4",)),
    Layer("faults.begin", ("sim_s",), ("open_s4",)),
    Layer("faults.settle", ("sim_s",), ("open_s4",)),
    Layer("setup.imports", ("setup_s",), SWEEP),
    Layer("exec.execute", ("setup_s", "sim_s", "sweep_jobs1_s", "sweep_jobs2_s"),
          SWEEP),
    Layer("exec.digest", ("setup_s", "sim_s", "sweep_jobs1_s", "sweep_jobs2_s"),
          SWEEP),
    Layer("exec.cache.get", ("warm_replay_s", "sim_s", "sweep_jobs2_s"), SWEEP,
          ratio="exec.cache.hit_ratio"),
    Layer("exec.cache.put", ("sim_s", "sweep_jobs1_s", "sweep_jobs2_s"), SWEEP),
    Layer("exec.journal", ("sim_s", "sweep_jobs1_s", "sweep_jobs2_s"), SWEEP),
    Layer("exec.events", ("sim_s", "sweep_jobs2_s", "warm_replay_s"), SWEEP),
    Layer("exec.persist", ("sim_s", "sweep_jobs1_s", "sweep_jobs2_s"), SWEEP),
    Layer("exec.pool_wait", ("sweep_jobs2_s", "parallel_speedup"), SWEEP),
    Layer("cluster.lease", ("cluster_s",), SWEEP,
          ratio="cluster.lease.useful_ratio"),
    Layer("cluster.result", ("cluster_s",), SWEEP),
    Layer("cluster.poll", ("cluster_s",), SWEEP),
    Layer("cluster.heartbeat", ("cluster_s",), SWEEP),
    Layer("cluster.control", ("cluster_s",), SWEEP),
    Layer("cluster.master.lease", ("cluster_s",), SWEEP),
    Layer("cluster.master.result", ("cluster_s",), SWEEP),
)

#: Exact simulated statistics each workload reports beside its layers
#: (name -> (unit, better)).  They are untimed: a change that only speeds
#: up the simulator must leave every one of them identical.
COMPONENT_STATS = {
    "objects.hit_rate": ("ratio", "higher"),
    "tertiary.utilization": ("ratio", "higher"),
    "disks.busy_fraction": ("ratio", "higher"),
    "queue.mean_length": ("count", "lower"),
    "faults.hiccups": ("count", "lower"),
    "displays.completed": ("count", "higher"),
}

#: Traced-pass quantities that are not a single layer's.
TRACE_TOTALS = {
    "exec.worker_run_s": ("s", "lower"),
    "unattributed_s": ("s", "lower"),
    "trace_overhead_pct": ("%", "lower"),
}


def _cluster_layer(args: tuple) -> str:
    endpoint = str(args[1])
    if endpoint in ("lease", "result", "heartbeat"):
        return f"cluster.{endpoint}"
    if endpoint.startswith("sweeps/") and endpoint.count("/") == 1:
        return "cluster.poll"
    return "cluster.control"


def _lease_outcome(tracer, args, reply) -> None:
    if str(args[1]) == "lease":
        tracer.count("cluster.lease.useful_ratio", int(bool(reply.get("rows"))))


def _verdict_outcome(tracer, args, verdicts) -> None:
    tracer.count("batch.verdicts.true_ratio", int(verdicts.sum()), len(verdicts))


def _probe_outcome(tracer, args, plan) -> None:
    tracer.count("admission.probe.useful_ratio", int(bool(plan.claimed_now)))


def _cache_outcome(tracer, args, record) -> None:
    tracer.count("exec.cache.hit_ratio", int(record is not None))


def install(tracer) -> None:
    """Wrap every layer's public functions (see :data:`LAYERS`)."""
    from repro.cluster import master, protocol
    from repro.core import (
        admission, batch, disk_manager, object_manager, scheduler,
        tertiary_manager, virtual_disks,
    )
    from repro.exec import cache, executor, journal, spec, supervisor
    from repro.faults import coordinator
    from repro.obs import events
    from repro.simulation import engine, runner
    from repro.vdr import scheduler as vdr
    from repro.workload import arrivals, stations

    tracer.patch_function(runner, "build_engine", "setup.engine")
    tracer.patch_function(runner, "cached_catalog", "setup.catalog")
    tracer.patch_function(runner, "build_policy", "setup.policy")
    tracer.patch_class(scheduler.StaggeredStripingPolicy, "preload", "setup.preload")
    tracer.patch_class(vdr.VirtualReplicationPolicy, "preload", "setup.preload")
    tracer.patch_class(disk_manager.DiskManager, "place_object", "placement.place")
    tracer.patch_class(disk_manager.DiskManager, "evict_object", "placement.evict")
    tracer.patch_class(engine.IntervalEngine, "run", "engine.run")
    tracer.patch_class(engine.IntervalEngine, "step", "engine.step")
    for source in (arrivals.OpenArrivals, stations.StationPool):
        tracer.patch_class(source, "ready_requests", "workload.ready")
        tracer.patch_class(source, "complete", "workload.complete")
    policy = scheduler.StaggeredStripingPolicy
    tracer.patch_class(policy, "submit", "scheduler.submit")
    tracer.patch_class(policy, "advance", "scheduler.advance")
    tracer.patch_class(policy, "try_cancel", "scheduler.cancel")
    tracer.patch_class(vdr.VirtualReplicationPolicy, "submit", "vdr.submit")
    tracer.patch_class(vdr.VirtualReplicationPolicy, "advance", "vdr.advance")
    tracer.patch_class(virtual_disks.SlotPool, "release", "lanes.release")
    tracer.patch_class(batch.BatchAdmissionIndex, "pass_verdicts", "batch.verdicts",
                       outcome=_verdict_outcome)
    tracer.patch_class(admission.Admitter, "try_claim", "admission.probe",
                       outcome=_probe_outcome)
    tracer.patch_class(tertiary_manager.TertiaryManager, "advance", "tertiary.advance")
    tracer.patch_class(object_manager.ObjectManager, "record_access", "objects.access")
    tracer.patch_class(object_manager.ObjectManager, "make_room", "objects.make_room")
    for kind in (coordinator.FaultCoordinator, coordinator.ClusterFaultCoordinator):
        tracer.patch_class(kind, "begin_interval", "faults.begin")
        tracer.patch_class(kind, "settle", "faults.settle")
    tracer.patch_function(executor, "execute", "exec.execute")
    tracer.patch_function(spec, "spec_digest", "exec.digest")
    tracer.patch_class(cache.ResultCache, "get", "exec.cache.get",
                       outcome=_cache_outcome)
    tracer.patch_class(cache.ResultCache, "put", "exec.cache.put")
    tracer.patch_class(journal.SweepJournal, "record_run", "exec.journal")
    tracer.patch_class(events.SweepEventBus, "emit", "exec.events")
    tracer.patch_function(executor, "persist_outcome", "exec.persist")
    tracer.patch_generator(supervisor.SupervisedPool, "run", "exec.pool_wait")
    tracer.patch_class(protocol.MasterClient, "call", "cluster.control",
                       outcome=_lease_outcome, layer=_cluster_layer)
    tracer.patch_class(master.ClusterMaster, "api_lease", "cluster.master.lease")
    tracer.patch_class(master.ClusterMaster, "api_result", "cluster.master.result")


def bind_engine(tracer, engine) -> None:
    """Trace the step an open engine bound on itself at build time."""
    if "step" in vars(engine):
        tracer.patch_instance(engine, "step", "engine.step")


def metric_definitions() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric the traced pass reports, in table order:
    name -> (unit, better).  Ratios count useful outcomes per attempt."""
    definitions: Dict[str, Tuple[str, str]] = {}
    for layer in LAYERS:
        definitions[f"{layer.name}.calls"] = ("count", "lower")
        definitions[f"{layer.name}.self_s"] = ("s", "lower")
        if layer.ratio:
            definitions[layer.ratio] = ("ratio", "higher")
    definitions.update(TRACE_TOTALS)
    definitions.update(COMPONENT_STATS)
    return definitions
