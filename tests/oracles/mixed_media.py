"""Mixed media types: staggered striping vs naive widest-cluster design,
and the §5 fairness question.

§3.2's motivation: with media at 120 and 60 mbps, building physical
clusters for the widest type (M = 6) makes a 60 mbps display occupy a
6-drive cluster while using only 3 drives' bandwidth — "sacrificing
50% of the available disk bandwidth".  Staggered striping gives every
display exactly ``M_j`` drives.

This module builds a heterogeneous database (40/60/80/120 mbps), runs
a closed-loop workload under

* **staggered** — stride 1, fragmented admission, per-type degrees;
* **naive** — every object declustered over ``M_max`` drives
  (physical clusters sized for the widest medium);

and reports throughput plus per-class latency.  :func:`fairness_row`
is one queue discipline's run for the paper's §5 fairness question
("Should a small request have priority?").  The spec kinds that run
these rows through :func:`repro.exec.execute` are registered by
``tests/integration/test_mixed_media.py``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.admission import AdmissionMode
from repro.core.disk_manager import DiskManager
from repro.core.object_manager import ObjectManager
from repro.core.scheduler import StaggeredStripingPolicy
from repro.errors import ConfigurationError
from repro.hardware.disk import TABLE3_DISK, DiskModel
from repro.hardware.disk_array import DiskArray
from repro.media.catalog import Catalog
from repro.media.objects import MediaObject, MediaType
from repro.simulation.engine import IntervalEngine
from repro.sim.rng import RandomStream
from repro.workload.access import UniformAccess
from repro.workload.stations import StationPool

#: The default media mix: (name, mbps, objects of that type).
DEFAULT_MIX = (
    ("audio-visual", 40.0, 4),
    ("ntsc", 60.0, 4),
    ("ccir-ish", 80.0, 4),
    ("hdtv-half", 120.0, 4),
)


def build_mixed_system(
    num_disks: int = 60,
    num_subobjects: int = 120,
    mix: Sequence = DEFAULT_MIX,
    naive: bool = False,
    disk: DiskModel = TABLE3_DISK,
    disk_bandwidth: float = 20.0,
):
    """Catalog + policy for the mixed-media comparison.

    With ``naive=True`` every object is declustered across the widest
    type's ``M_max`` drives (cluster-of-the-maximum design): displays
    then hold ``M_max`` drives for their whole duration regardless of
    their own bandwidth — the §3.2 waste.
    """
    degrees = [
        MediaType(name, bandwidth).degree_of_declustering(disk_bandwidth)
        for name, bandwidth, _count in mix
    ]
    max_degree = max(degrees)
    if num_disks % max_degree:
        raise ConfigurationError(
            f"num_disks must be divisible by M_max={max_degree}"
        )
    objects: List[MediaObject] = []
    next_id = 0
    for (name, bandwidth, count), degree in zip(mix, degrees):
        for _ in range(count):
            objects.append(
                MediaObject(
                    object_id=next_id,
                    media_type=MediaType(name, bandwidth),
                    num_subobjects=num_subobjects,
                    degree=max_degree if naive else degree,
                    fragment_size=disk.cylinder_capacity,
                )
            )
            next_id += 1
    catalog = Catalog(objects)
    array = DiskArray(model=disk, num_disks=num_disks)
    disk_manager = DiskManager(
        array=array,
        stride=max_degree if naive else 1,
        placement_alignment=max_degree if naive else 1,
    )
    object_manager = ObjectManager(catalog, capacity=catalog.total_size)
    policy = StaggeredStripingPolicy(
        catalog=catalog,
        disk_manager=disk_manager,
        object_manager=object_manager,
        tertiary_manager=None,
        admission_mode=(
            AdmissionMode.CONTIGUOUS if naive else AdmissionMode.FRAGMENTED
        ),
    )
    policy.preload(catalog.object_ids)
    return catalog, policy


def _measure_by_class(
    engine: IntervalEngine,
    catalog: Catalog,
    measure_intervals: int,
    warmup: int = 300,
) -> tuple:
    """Drive the engine; returns (completions, latencies per class)."""
    latencies_by_class: Dict[str, List[int]] = {}
    completions = 0
    for interval in range(warmup + measure_intervals):
        for completion in engine.step():
            if interval < warmup:
                continue
            completions += 1
            name = catalog.get(completion.request.object_id).media_type.name
            latencies_by_class.setdefault(name, []).append(
                completion.startup_latency
            )
    return completions, latencies_by_class


def mixed_media_row(
    naive: bool,
    num_stations: int = 16,
    measure_intervals: int = 2000,
    num_disks: int = 60,
    seed: int = 7,
    mix: Sequence = DEFAULT_MIX,
    queue_discipline: str = "scan",
) -> Dict:
    """One design's row: throughput + per-class latency."""
    catalog, policy = build_mixed_system(
        num_disks=num_disks, naive=naive, mix=mix
    )
    policy.queue_discipline = queue_discipline
    stations = StationPool(
        num_stations=num_stations,
        access=UniformAccess(catalog.object_ids, RandomStream(seed)),
    )
    engine = IntervalEngine(
        policy=policy,
        stations=stations,
        interval_length=TABLE3_DISK.service_time(1),
        technique="naive" if naive else "staggered",
    )
    completions, latencies_by_class = _measure_by_class(
        engine, catalog, measure_intervals
    )
    seconds = measure_intervals * engine.interval_length
    row: Dict = {
        "design": "naive-Mmax-clusters" if naive else "staggered",
        "displays_per_hour": round(completions / seconds * 3600.0, 1),
    }
    for name, _bandwidth, _count in mix:
        samples = latencies_by_class.get(name, [])
        mean = sum(samples) / len(samples) if samples else float("nan")
        row[f"latency_{name}_ivs"] = round(mean, 1)
    return row


def bandwidth_waste_naive(
    mix: Sequence = DEFAULT_MIX, disk_bandwidth: float = 20.0
) -> float:
    """Fraction of claimed drive bandwidth a naive design wastes,
    weighted by object count (the §3.2 '50%' arithmetic)."""
    degrees = [
        (MediaType(n, b).degree_of_declustering(disk_bandwidth), c)
        for n, b, c in mix
    ]
    max_degree = max(d for d, _ in degrees)
    claimed = sum(max_degree * count for _, count in degrees)
    used = sum(degree * count for degree, count in degrees)
    return (claimed - used) / claimed


def fairness_row(
    discipline: str,
    num_stations: int = 24,
    measure_intervals: int = 2000,
    num_disks: int = 36,
    seed: int = 11,
) -> Dict:
    """One queue discipline's row of the §5 fairness comparison."""
    mix = (("narrow", 40.0, 6), ("wide", 120.0, 6))
    catalog, policy = build_mixed_system(
        num_disks=num_disks, naive=False, mix=mix
    )
    policy.queue_discipline = discipline
    stations = StationPool(
        num_stations=num_stations,
        access=UniformAccess(catalog.object_ids, RandomStream(seed)),
    )
    engine = IntervalEngine(
        policy=policy,
        stations=stations,
        interval_length=TABLE3_DISK.service_time(1),
        technique=f"staggered/{discipline}",
    )
    completions, latencies = _measure_by_class(
        engine, catalog, measure_intervals
    )
    seconds = measure_intervals * engine.interval_length
    return {
        "discipline": discipline,
        "displays_per_hour": round(completions / seconds * 3600.0, 1),
        "narrow_latency_ivs": round(_mean(latencies.get("narrow", [])), 1),
        "wide_latency_ivs": round(_mean(latencies.get("wide", [])), 1),
    }


def _mean(samples: List[int]) -> float:
    return sum(samples) / len(samples) if samples else float("nan")
