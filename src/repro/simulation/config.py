"""Simulation configuration (Table 3 of the paper).

:class:`SimulationConfig` collects every knob of the experiment;
:func:`PaperConfig` returns the paper's exact full-scale parameters
(1000 disks, 2000 objects of 3000 subobjects, 100 mbps media over
20 mbps drives, 40 mbps tertiary) and :func:`ScaledConfig` a
proportionally reduced configuration that preserves every ratio the
results depend on (``D/M``, database ÷ disk capacity = 10, exactly one
object per VDR cluster, working set ÷ capacity) while running ~100×
faster — see DESIGN.md's substitution table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro import units
from repro.errors import ConfigurationError
from repro.hardware.disk import DiskModel, disk_for_effective_bandwidth
from repro.media.objects import MediaType
from repro.media.tape_layout import TapeOrder


def _table3_disk(num_cylinders: int) -> DiskModel:
    """A Table 3 drive with the given cylinder count: 1.512 MB
    cylinders, Sabre seek/latency profile, peak rate solved so the
    effective bandwidth at 1-cylinder fragments is exactly 20 mbps."""
    base = DiskModel(
        transfer_rate=units.mbps(24.19),  # placeholder, solved below
        num_cylinders=num_cylinders,
        cylinder_capacity=units.megabytes(1.512),
        min_seek=units.msec(4.0),
        avg_seek=units.msec(15.0),
        max_seek=units.msec(35.0),
        avg_latency=units.msec(8.33),
        max_latency=units.msec(16.83),
        name=f"table3-{num_cylinders}cyl",
    )
    return disk_for_effective_bandwidth(
        effective_bandwidth=units.mbps(20.0), base=base, fragment_cylinders=1,
        name=base.name,
    )


@dataclass(frozen=True)
class SimulationConfig:
    """Every parameter of one simulation run."""

    # Hardware.
    disk: DiskModel
    num_disks: int
    tertiary_bandwidth: float
    tertiary_reposition: float
    # Database.
    num_objects: int
    num_subobjects: int
    display_bandwidth: float
    fragment_cylinders: int = 1
    # Technique.
    technique: str = "simple"  # "simple" | "staggered" | "vdr"
    stride: Optional[int] = None  # defaults to M for simple, 1 for staggered
    tape_order: TapeOrder = TapeOrder.FRAGMENT_ORDERED
    queue_discipline: str = "scan"
    replacement: str = "lfu"  # "lfu" | "lru"
    replication_threshold: int = 1  # VDR MRT trigger (waiters per copy)
    replication_source: str = "stream"  # VDR replica source: stream | tertiary
    # Workload.
    num_stations: int = 16
    access_mean: Optional[float] = 10.0  # None = uniform
    think_intervals: int = 0
    # Open workload (repro.workload.arrivals).  The defaults describe
    # the paper's closed station loop, so every pre-open config —
    # and its cache digest — is expressed unchanged.
    arrival: str = "closed"  # "closed" | "poisson" | "mmpp"
    arrival_rate: Optional[float] = None  # requests/second (poisson)
    zipf_s: Optional[float] = None  # Zipf exponent; overrides the geometric
    deadline_intervals: Optional[int] = None  # admission deadline; None = wait forever
    mmpp_rates: tuple = ()  # per-phase rates, requests/second
    mmpp_sojourn: tuple = ()  # per-phase mean sojourn, intervals
    diurnal_period: Optional[float] = None  # intervals per diurnal cycle
    diurnal_amplitude: float = 0.0  # 0 = flat, 1 = full swing
    burst_at: Optional[int] = None  # flash-crowd start interval
    burst_duration: int = 0  # flash-crowd length, intervals
    burst_factor: float = 1.0  # rate multiplier inside the burst
    burst_hotspot: float = 0.0  # burst fraction aimed at the hottest title
    # Run control.
    warmup_intervals: int = 600
    measure_intervals: int = 3000
    seed: int = 42
    preload: bool = True
    fill_factor: float = 1.0
    #: Runtime invariant checking (repro.sim.sanitize): "off" |
    #: "check" (tally sanitize.* counters) | "strict" (raise
    #: SanitizeError).  Cannot change simulation results, so it is
    #: excluded from the cache key (see repro.exec.spec.spec_digest).
    sanitize: str = "off"
    # Fault tolerance (repro.faults).  All times are in *intervals*.
    mttf: Optional[float] = None  # mean time to failure per drive; None = no random failures
    mttr: Optional[float] = None  # mean time to repair; None = failed drives stay down
    redundancy: str = "none"  # "none" | "mirror" | "parity"
    parity_group: int = 4  # drives per parity group (redundancy="parity")
    rebuild_rate: int = 1  # half-slots/interval the rebuild may steal
    on_fault: str = "hiccup"  # unreconstructable read: "hiccup" | "abort"
    fail_at: tuple = ()  # scripted ((disk, interval), ...) failures

    def __post_init__(self) -> None:
        if self.technique not in ("simple", "staggered", "vdr"):
            raise ConfigurationError(f"unknown technique {self.technique!r}")
        if self.replication_source not in ("stream", "tertiary"):
            raise ConfigurationError(
                f"unknown replication_source {self.replication_source!r}"
            )
        if self.num_disks < 1 or self.num_objects < 1 or self.num_subobjects < 1:
            raise ConfigurationError("counts must be >= 1")
        if not 0 < self.fill_factor <= 1.0:
            raise ConfigurationError(
                f"fill_factor must be in (0, 1], got {self.fill_factor}"
            )
        if self.degree > self.num_disks:
            raise ConfigurationError(
                f"degree {self.degree} exceeds {self.num_disks} disks"
            )
        if (
            self.technique != "vdr"
            and self.stride is not None
            and not 1 <= self.stride <= self.num_disks
        ):
            raise ConfigurationError(
                f"stride must be in 1..{self.num_disks}, got {self.stride}"
            )
        if self.technique in ("simple", "vdr") and self.num_disks % self.degree:
            raise ConfigurationError(
                f"{self.technique} needs D divisible by M: "
                f"D={self.num_disks}, M={self.degree}"
            )
        if self.sanitize not in ("off", "check", "strict"):
            raise ConfigurationError(
                f"sanitize must be one of off/check/strict, "
                f"got {self.sanitize!r}"
            )
        # Fault-tolerance knobs.
        if self.redundancy not in ("none", "mirror", "parity"):
            raise ConfigurationError(f"unknown redundancy {self.redundancy!r}")
        if self.on_fault not in ("hiccup", "abort"):
            raise ConfigurationError(f"unknown on_fault {self.on_fault!r}")
        if self.mttf is not None and self.mttf <= 0:
            raise ConfigurationError(f"mttf must be > 0 intervals, got {self.mttf}")
        if self.mttr is not None and self.mttr <= 0:
            raise ConfigurationError(f"mttr must be > 0 intervals, got {self.mttr}")
        if self.rebuild_rate < 1:
            raise ConfigurationError(
                f"rebuild_rate must be >= 1 half-slot/interval, got {self.rebuild_rate}"
            )
        if self.redundancy == "parity" and not 2 <= self.parity_group <= self.num_disks:
            raise ConfigurationError(
                f"parity_group must be in 2..{self.num_disks}, got {self.parity_group}"
            )
        if self.redundancy == "mirror" and self.num_disks % 2:
            raise ConfigurationError(
                f"mirroring pairs drives; D must be even, got {self.num_disks}"
            )
        # Open-workload knobs (repro.workload.arrivals).
        if self.arrival not in ("closed", "poisson", "mmpp"):
            raise ConfigurationError(f"unknown arrival {self.arrival!r}")
        if self.arrival == "poisson" and (
            self.arrival_rate is None or self.arrival_rate <= 0
        ):
            raise ConfigurationError(
                f"poisson arrivals need arrival_rate > 0 requests/s, "
                f"got {self.arrival_rate}"
            )
        if self.arrival == "mmpp":
            if len(self.mmpp_rates) < 2:
                raise ConfigurationError(
                    f"mmpp needs >= 2 phase rates, got {self.mmpp_rates}"
                )
            if len(self.mmpp_sojourn) != len(self.mmpp_rates):
                raise ConfigurationError(
                    f"mmpp needs one sojourn per phase: "
                    f"{len(self.mmpp_rates)} rates vs "
                    f"{len(self.mmpp_sojourn)} sojourns"
                )
            if any(r < 0 for r in self.mmpp_rates) or (
                max(self.mmpp_rates) <= 0
            ):
                raise ConfigurationError(
                    f"mmpp rates must be >= 0 requests/s with at least "
                    f"one > 0, got {self.mmpp_rates}"
                )
            if any(s <= 0 for s in self.mmpp_sojourn):
                raise ConfigurationError(
                    f"mmpp sojourns must be > 0 intervals, "
                    f"got {self.mmpp_sojourn}"
                )
        if self.zipf_s is not None and self.zipf_s <= 0:
            raise ConfigurationError(
                f"zipf_s must be > 0, got {self.zipf_s}"
            )
        if self.deadline_intervals is not None and self.deadline_intervals < 0:
            raise ConfigurationError(
                f"deadline_intervals must be >= 0, "
                f"got {self.deadline_intervals}"
            )
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ConfigurationError(
                f"diurnal_amplitude must be in [0, 1], "
                f"got {self.diurnal_amplitude}"
            )
        if self.diurnal_amplitude > 0 and (
            self.diurnal_period is None or self.diurnal_period <= 0
        ):
            raise ConfigurationError(
                "diurnal_amplitude > 0 needs diurnal_period > 0 intervals"
            )
        if self.burst_at is not None and self.burst_at < 0:
            raise ConfigurationError(
                f"burst_at must be >= 0, got {self.burst_at}"
            )
        if self.burst_at is not None and self.burst_duration < 1:
            raise ConfigurationError(
                f"a burst needs burst_duration >= 1 interval, "
                f"got {self.burst_duration}"
            )
        if self.burst_factor < 0:
            raise ConfigurationError(
                f"burst_factor must be >= 0, got {self.burst_factor}"
            )
        if not 0.0 <= self.burst_hotspot <= 1.0:
            raise ConfigurationError(
                f"burst_hotspot must be in [0, 1], got {self.burst_hotspot}"
            )
        # Normalise the MMPP tuples to hashable float tuples.
        object.__setattr__(
            self, "mmpp_rates", tuple(float(r) for r in self.mmpp_rates)
        )
        object.__setattr__(
            self, "mmpp_sojourn", tuple(float(s) for s in self.mmpp_sojourn)
        )
        # Normalise fail_at to a hashable, validated tuple of pairs.
        scripted = []
        for entry in self.fail_at:
            disk, interval = entry
            disk, interval = int(disk), int(interval)
            if not 0 <= disk < self.num_disks:
                raise ConfigurationError(
                    f"fail_at disk {disk} outside 0..{self.num_disks - 1}"
                )
            if interval < 0:
                raise ConfigurationError(f"fail_at interval {interval} is negative")
            scripted.append((disk, interval))
        object.__setattr__(self, "fail_at", tuple(scripted))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def disk_bandwidth(self) -> float:
        """Effective per-drive bandwidth ``B_disk``."""
        return self.disk.effective_bandwidth(self.fragment_cylinders)

    @property
    def degree(self) -> int:
        """Degree of declustering ``M`` of the configured media type."""
        return MediaType(
            "configured", self.display_bandwidth
        ).degree_of_declustering(self.disk_bandwidth)

    @property
    def effective_stride(self) -> int:
        """The stride actually used: config override, else M for
        simple striping, 1 for staggered (VDR has no stride)."""
        if self.stride is not None:
            return self.stride
        return self.degree if self.technique == "simple" else 1

    @property
    def num_clusters(self) -> int:
        """``R = D / M`` (meaningful for simple striping and VDR)."""
        return self.num_disks // self.degree

    @property
    def interval_length(self) -> float:
        """``S(C_i)`` in seconds."""
        return self.disk.service_time(self.fragment_cylinders)

    @property
    def fragment_size(self) -> float:
        """Fragment size in megabits."""
        return self.disk.fragment_size(self.fragment_cylinders)

    @property
    def object_size(self) -> float:
        """Size of one object in megabits."""
        return self.num_subobjects * self.degree * self.fragment_size

    @property
    def display_time(self) -> float:
        """Seconds to display one object."""
        return self.object_size / self.display_bandwidth

    @property
    def disk_capacity(self) -> float:
        """Usable aggregate disk storage in megabits."""
        return self.num_disks * self.disk.capacity * self.fill_factor

    @property
    def max_resident_objects(self) -> int:
        """Objects that fit on disk simultaneously."""
        return int(self.disk_capacity / self.object_size + 1e-9)

    @property
    def database_size(self) -> float:
        """Total database size in megabits."""
        return self.num_objects * self.object_size

    @property
    def faults_enabled(self) -> bool:
        """True when any failure source is configured."""
        return self.mttf is not None or bool(self.fail_at)

    @property
    def is_open(self) -> bool:
        """True when the workload is an open arrival stream."""
        return self.arrival != "closed"

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        if self.zipf_s is not None:
            mean = f"zipf({self.zipf_s:g})"
        elif self.access_mean is None:
            mean = "uniform"
        else:
            mean = f"{self.access_mean:g}"
        if self.is_open:
            if self.arrival == "mmpp":
                rate = "/".join(f"{r:g}" for r in self.mmpp_rates)
            else:
                rate = f"{self.arrival_rate:g}"
            deadline = (
                "inf" if self.deadline_intervals is None
                else str(self.deadline_intervals)
            )
            workload = (
                f"arrival={self.arrival} rate={rate}/s "
                f"deadline={deadline} mean={mean}"
            )
            if self.burst_at is not None:
                workload += (
                    f" burst@{self.burst_at}+{self.burst_duration}"
                    f"x{self.burst_factor:g}"
                )
        else:
            workload = f"stations={self.num_stations} mean={mean}"
        line = (
            f"{self.technique} D={self.num_disks} M={self.degree} "
            f"k={'n/a' if self.technique == 'vdr' else self.effective_stride} "
            f"objects={self.num_objects}x{self.num_subobjects} "
            f"{workload}"
        )
        if self.faults_enabled:
            mttf = "scripted" if self.mttf is None else f"{self.mttf:g}"
            mttr = "never" if self.mttr is None else f"{self.mttr:g}"
            line += (
                f" faults(mttf={mttf} mttr={mttr} "
                f"redundancy={self.redundancy} on_fault={self.on_fault})"
            )
        return line

    def with_(self, **changes) -> "SimulationConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


def PaperConfig(**overrides) -> SimulationConfig:
    """The paper's full-scale Table 3 configuration.

    1000 drives of 3000×1.512 MB cylinders (4.54 GB), 2000 objects of
    3000 subobjects at 100 mbps (M = 5, 1814 s displays), one 40 mbps
    tertiary device, stride 5 (simple striping).
    """
    config = SimulationConfig(
        disk=_table3_disk(3000),
        num_disks=1000,
        tertiary_bandwidth=units.mbps(40.0),
        tertiary_reposition=units.seconds(5.0),
        num_objects=2000,
        num_subobjects=3000,
        display_bandwidth=units.mbps(100.0),
        technique="simple",
        num_stations=16,
        access_mean=10.0,
        warmup_intervals=3000,
        measure_intervals=12000,
    )
    return config.with_(**overrides) if overrides else config


def ScaledConfig(scale: int = 10, **overrides) -> SimulationConfig:
    """The paper's configuration shrunk by ``scale`` in every linear
    dimension that does not change the physics:

    * ``D``, object count, subobject count, and station counts divide
      by ``scale``;
    * the access-distribution means divide by ``scale`` so the working
      set ÷ disk capacity ratios (0.5 / 1 / 2) are preserved;
    * drives shrink to ``3000/scale`` cylinders so one VDR cluster
      still holds exactly one object and the database is still 10×
      the disk capacity.

    ``M``, the stride, ``B_disk``, ``B_display``, ``B_tertiary``, and
    the interval length are untouched.
    """
    if scale < 1 or 3000 % scale or 1000 % scale or 2000 % scale:
        raise ConfigurationError(
            f"scale must divide 1000, 2000 and 3000; got {scale}"
        )
    config = SimulationConfig(
        disk=_table3_disk(3000 // scale),
        num_disks=1000 // scale,
        tertiary_bandwidth=units.mbps(40.0),
        tertiary_reposition=units.seconds(5.0),
        num_objects=2000 // scale,
        num_subobjects=3000 // scale,
        display_bandwidth=units.mbps(100.0),
        technique="simple",
        num_stations=16,
        access_mean=10.0 / scale,
        warmup_intervals=2 * (3000 // scale),
        measure_intervals=10 * (3000 // scale),
    )
    return config.with_(**overrides) if overrides else config
