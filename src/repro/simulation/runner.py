"""Experiment runner: build a configured system and run it.

:func:`run_experiment` assembles the catalog, hardware, workload, and
the configured storage policy (simple striping, staggered striping, or
VDR) and runs warmup + measurement, returning a
:class:`~repro.simulation.results.SimulationResult`.
:func:`run_sweep` varies one field (typically ``num_stations``) across
a list of values — the shape of the paper's Figure 8 — and fans the
runs through :mod:`repro.exec` (``jobs``/``cache`` keywords).

Catalogs are deterministic functions of a handful of config fields
and are immutable after build, so :func:`cached_catalog` memoises
them per process: a sweep varying ``num_stations`` builds its catalog
once instead of once per run, in the parent and in every worker.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.admission import AdmissionMode
from repro.core.disk_manager import DiskManager
from repro.core.object_manager import ObjectManager, ReplacementPolicy
from repro.core.scheduler import StaggeredStripingPolicy
from repro.core.tertiary_manager import TertiaryManager
from repro.errors import ConfigurationError
from repro.hardware.disk_array import DiskArray
from repro.hardware.tertiary import TertiaryDevice
from repro.media.catalog import Catalog, build_uniform_catalog
from repro.media.objects import MediaType
from repro.media.tape_layout import TapeLayout
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import IntervalEngine
from repro.simulation.policy import StoragePolicy
from repro.simulation.results import SimulationResult
from repro.sim import sanitize
from repro.sim.rng import RandomStream
from repro.vdr.clusters import ClusterArray
from repro.vdr.scheduler import VirtualReplicationPolicy
from repro.workload.access import (
    AccessDistribution,
    GeometricAccess,
    UniformAccess,
    ZipfAccess,
)
from repro.workload.arrivals import (
    ArrivalProcess,
    MMPPSource,
    OpenArrivals,
    PoissonSource,
    RateModulation,
)
from repro.workload.stations import StationPool


def build_catalog(config: SimulationConfig) -> Catalog:
    """The configured single-media-type database."""
    media = MediaType(name="video", display_bandwidth=config.display_bandwidth)
    return build_uniform_catalog(
        num_objects=config.num_objects,
        media_type=media,
        num_subobjects=config.num_subobjects,
        degree=config.degree,
        fragment_size=config.fragment_size,
    )


#: Recently built catalogs, keyed by the config fields they depend on.
_CATALOG_MEMO: "OrderedDict[Tuple, Catalog]" = OrderedDict()
_CATALOG_MEMO_CAPACITY = 8


def cached_catalog(config: SimulationConfig) -> Catalog:
    """A (possibly shared) catalog for ``config``.

    Catalogs are immutable after build (residency lives in the Object
    Manager) and fully determined by the key below, so sharing one
    across the runs of a sweep changes nothing but setup cost.
    """
    key = (
        config.num_objects,
        config.num_subobjects,
        config.degree,
        config.fragment_size,
        config.display_bandwidth,
    )
    catalog = _CATALOG_MEMO.get(key)
    if catalog is None:
        catalog = build_catalog(config)
        _CATALOG_MEMO[key] = catalog
        while len(_CATALOG_MEMO) > _CATALOG_MEMO_CAPACITY:
            _CATALOG_MEMO.popitem(last=False)
    else:
        _CATALOG_MEMO.move_to_end(key)
    return catalog


def build_access(
    config: SimulationConfig, catalog: Catalog, stream: RandomStream
) -> AccessDistribution:
    """The configured access distribution over the catalog.

    ``zipf_s`` wins when set (the skew law of large VoD catalogs);
    otherwise the paper's truncated geometric, or uniform when
    ``access_mean`` is ``None``.
    """
    if config.zipf_s is not None:
        return ZipfAccess(catalog.object_ids, config.zipf_s, stream)
    if config.access_mean is None:
        return UniformAccess(catalog.object_ids, stream)
    return GeometricAccess(catalog.object_ids, config.access_mean, stream)


def build_arrivals(
    config: SimulationConfig, access: AccessDistribution, stream: RandomStream
) -> ArrivalProcess:
    """The configured request source.

    Closed configs build the seed's :class:`StationPool` with no extra
    random draws, so pre-open runs stay byte-identical.  Open configs
    build :class:`~repro.workload.arrivals.OpenArrivals` over a
    Poisson or MMPP source; every component draws from its own named
    substream of the run seed (``workload.arrivals``,
    ``workload.mmpp``, ``workload.modulation``, ``workload.burst``) so
    enabling one shaping feature never perturbs the others.
    """
    if not config.is_open:
        return StationPool(
            num_stations=config.num_stations,
            access=access,
            think_intervals=config.think_intervals,
        )
    interval_length = config.interval_length
    modulation = RateModulation(
        diurnal_period=(
            None if config.diurnal_period is None
            else config.diurnal_period * interval_length
        ),
        diurnal_amplitude=config.diurnal_amplitude,
        burst_start=(
            None if config.burst_at is None
            else config.burst_at * interval_length
        ),
        burst_end=(
            None if config.burst_at is None
            else (config.burst_at + config.burst_duration) * interval_length
        ),
        burst_factor=config.burst_factor,
    )
    # Shaped traffic runs the source at peak rate; arrivals are
    # thinned back to the instantaneous rate (exact inhomogeneous
    # construction).  peak_factor is 1 for flat traffic.
    peak = modulation.peak_factor
    if config.arrival == "poisson":
        source = PoissonSource(
            rate=config.arrival_rate * peak,
            stream=stream.substream("workload.arrivals"),
        )
    else:
        source = MMPPSource(
            rates=[r * peak for r in config.mmpp_rates],
            sojourns=[s * interval_length for s in config.mmpp_sojourn],
            arrival_stream=stream.substream("workload.arrivals"),
            phase_stream=stream.substream("workload.mmpp"),
        )
    return OpenArrivals(
        source=source,
        access=access,
        interval_length=interval_length,
        deadline_intervals=config.deadline_intervals,
        modulation=modulation,
        burst_hotspot=config.burst_hotspot,
        modulation_stream=(
            None if modulation.is_flat
            else stream.substream("workload.modulation")
        ),
        burst_stream=(
            stream.substream("workload.burst")
            if config.burst_hotspot > 0 else None
        ),
        kind=config.arrival,
    )


def build_faults(config: SimulationConfig, policy: StoragePolicy, obs=None):
    """Attach the configured fault coordinator to ``policy``.

    A no-op returning ``None`` when :attr:`SimulationConfig.
    faults_enabled` is false — fault-free runs build exactly the
    pre-fault system and stay byte-identical to the seed.  Such a
    run never imports :mod:`repro.faults`.
    """
    if not config.faults_enabled:
        return None
    from repro.faults import build_coordinator

    coordinator = build_coordinator(config, policy, obs=obs)
    if coordinator is not None:
        policy.attach_faults(coordinator)
    return coordinator


def build_policy(
    config: SimulationConfig, catalog: Catalog, obs=None
) -> StoragePolicy:
    """The configured storage policy, fully wired.

    ``obs`` is an optional :class:`repro.obs.RunObservation`; when set
    the policy and its managers register telemetry instruments.
    """
    device = TertiaryDevice(
        bandwidth=config.tertiary_bandwidth,
        reposition_time=config.tertiary_reposition,
    )
    tape = TapeLayout(order=config.tape_order)
    if config.technique == "vdr":
        cluster_capacity = max(
            1,
            int(
                (config.degree * config.disk.capacity * config.fill_factor)
                / config.object_size
                + 1e-9
            ),
        )
        clusters = ClusterArray(
            num_disks=config.num_disks,
            degree=config.degree,
            capacity_objects=cluster_capacity,
        )
        policy: StoragePolicy = VirtualReplicationPolicy(
            catalog=catalog,
            clusters=clusters,
            device=device,
            tape_layout=tape,
            interval_length=config.interval_length,
            replication_threshold=config.replication_threshold,
            replication_source=config.replication_source,
            obs=obs,
        )
        build_faults(config, policy, obs=obs)
        return policy
    array = DiskArray(model=config.disk, num_disks=config.num_disks)
    # Simple striping places at cluster boundaries; the degenerate
    # k = D stride pins objects to fixed drive groups, which must tile
    # (alignment M) or storage overflows.  Other strides spread
    # placements one drive apart.
    stride = config.effective_stride
    if config.technique == "simple" or stride % config.num_disks == 0:
        alignment = config.degree
    else:
        alignment = 1
    disk_manager = DiskManager(
        array=array,
        stride=config.effective_stride,
        fragment_cylinders=config.fragment_cylinders,
        placement_alignment=alignment,
    )
    object_manager = ObjectManager(
        catalog=catalog,
        capacity=config.disk_capacity,
        policy=(
            ReplacementPolicy.LFU
            if config.replacement == "lfu"
            else ReplacementPolicy.LRU
        ),
    )
    tertiary_manager = TertiaryManager(
        device=device,
        tape_layout=tape,
        interval_length=config.interval_length,
        disk_bandwidth=config.disk_bandwidth,
        obs=obs,
    )
    mode = (
        AdmissionMode.CONTIGUOUS
        if config.technique == "simple"
        else AdmissionMode.FRAGMENTED
    )
    policy = StaggeredStripingPolicy(
        catalog=catalog,
        disk_manager=disk_manager,
        object_manager=object_manager,
        tertiary_manager=tertiary_manager,
        admission_mode=mode,
        queue_discipline=config.queue_discipline,
        obs=obs,
    )
    build_faults(config, policy, obs=obs)
    return policy


def preload_ids(config: SimulationConfig, access: AccessDistribution) -> List[int]:
    """Most-popular objects that fill the disks (warm start)."""
    ranking = access.popularity_ranking()
    if config.technique == "vdr":
        limit = config.num_clusters * max(
            1,
            int(
                (config.degree * config.disk.capacity * config.fill_factor)
                / config.object_size
                + 1e-9
            ),
        )
    else:
        limit = config.max_resident_objects
    return ranking[:limit]


def build_engine(
    config: SimulationConfig,
    obs=None,
    catalog: Optional[Catalog] = None,
    sanitizer=None,
) -> IntervalEngine:
    """Assemble the full system for one run.

    ``catalog`` lets callers supply the (immutable) database; by
    default the per-process memo is used so sweeps that only vary
    workload fields share one build.  ``sanitizer`` (a
    :class:`repro.sim.sanitize.Sanitizer`) enables per-interval
    runtime invariant checks.
    """
    if catalog is None:
        catalog = cached_catalog(config)
    stream = RandomStream(seed=config.seed)
    access = build_access(config, catalog, stream.fork(1))
    policy = build_policy(config, catalog, obs=obs)
    if config.preload:
        policy.preload(preload_ids(config, access))
    stations = build_arrivals(config, access, stream)
    return IntervalEngine(
        policy=policy,
        stations=stations,
        interval_length=config.interval_length,
        technique=config.technique,
        access_mean=config.access_mean,
        obs=obs,
        sanitizer=sanitizer,
    )


def effective_sanitize_mode(config: SimulationConfig) -> str:
    """The sanitize mode a run should actually use.

    The config field wins when set; when it is left at ``"off"`` the
    ``REPRO_SANITIZE`` environment variable may raise it (the test
    suite uses this to run the whole golden suite under ``strict``
    without touching configs — the field is excluded from cache keys,
    so this cannot fork the cache either way).
    """
    if config.sanitize != "off":
        return config.sanitize
    return sanitize.parse_mode(os.environ.get(sanitize.SANITIZE_ENV, "off"))


def run_experiment(config: SimulationConfig, obs=None) -> SimulationResult:
    """Run one configuration to completion.

    ``obs`` is an optional session-level
    :class:`repro.obs.Observability`; when enabled, a fresh
    per-run observation is opened, wired through the whole build, and
    its snapshot attached to the result.
    """
    run_obs = None
    if obs is not None:
        run_obs = obs.begin_run(
            config.describe(),
            expected_intervals=config.warmup_intervals
            + config.measure_intervals,
        )
    sanitizer = sanitize.build_sanitizer(
        effective_sanitize_mode(config), obs=run_obs
    )
    # Activation covers build + run so module-level hooks (RNG
    # substream tracking) see the sanitizer without plumbing it
    # through every constructor.
    with sanitize.activation(sanitizer):
        engine = build_engine(config, obs=run_obs, sanitizer=sanitizer)
        result = engine.run(config.warmup_intervals, config.measure_intervals)
    if run_obs is not None:
        disk_manager = getattr(engine.policy, "disk_manager", None)
        if disk_manager is not None:
            disk_manager.array.observe_storage(run_obs.registry)
        obs.finish_run(run_obs, result)
    return result


def run_sweep(
    base: SimulationConfig,
    field: str,
    values: Sequence,
    obs=None,
    jobs: int = 1,
    cache=None,
    supervision=None,
) -> List[SimulationResult]:
    """Run ``base`` once per value of ``field``.

    ``jobs`` fans the runs across a worker pool and ``cache`` (a
    :class:`repro.exec.ResultCache`) memoises finished runs; both
    leave the returned results byte-identical to a plain serial
    sweep (see docs/parallel_execution.md).  ``supervision`` (a
    :class:`repro.exec.Supervision`) tunes timeouts, retries, and
    journaling (see docs/resilient_execution.md).
    """
    from repro.exec import execute, experiment_spec, records_to_results

    if not values:
        raise ConfigurationError("sweep needs at least one value")
    specs = [
        experiment_spec(base.with_(**{field: value}))
        for value in values
    ]
    records = execute(
        specs, jobs=jobs, cache=cache, obs=obs, supervision=supervision
    )
    return records_to_results(records)


def sweep_table(results: Iterable[SimulationResult]) -> List[Dict[str, float]]:
    """Summaries of a sweep, one row per run."""
    return [result.summary() for result in results]
