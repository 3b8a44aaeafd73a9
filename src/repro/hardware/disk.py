"""Analytic model of a magnetic disk drive.

The model captures exactly what the paper's protocol depends on:

* geometry — number of cylinders and cylinder capacity;
* a seek-time curve (min / average / max) plus rotational latency;
* the peak transfer rate ``tfr``;
* the derived quantities of §3.1:

  - ``T_switch`` — worst-case head reposition delay (max seek + max
    rotational latency), paid when a display switches clusters;
  - effective bandwidth
    ``B_disk = tfr * size(fragment) / (size(fragment) + T_switch*tfr)``;
  - the cluster service time per activation ``S(C_i)``.

Two ready-made instances are provided: :data:`SABRE_DISK`, the 1.2 GB
IMPRIMIS Sabre drive used for the §3.1 numeric example, and
:data:`TABLE3_DISK`, the 4.5 GB drive of the paper's simulation
(Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import units
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DiskModel:
    """Immutable description of one disk drive.

    Parameters
    ----------
    transfer_rate:
        Peak media transfer rate ``tfr`` in mbps.
    num_cylinders:
        Cylinders per drive.
    cylinder_capacity:
        Capacity of one cylinder in megabits.
    min_seek, avg_seek, max_seek:
        Seek-time curve anchors in seconds (1-cylinder, average, and
        full-stroke seeks).
    avg_latency, max_latency:
        Rotational latency in seconds (average = half revolution,
        maximum = one full revolution).
    name:
        Label for reports.
    """

    transfer_rate: float
    num_cylinders: int
    cylinder_capacity: float
    min_seek: float
    avg_seek: float
    max_seek: float
    avg_latency: float
    max_latency: float
    name: str = "disk"

    def __post_init__(self) -> None:
        if self.transfer_rate <= 0:
            raise ConfigurationError(f"transfer_rate must be > 0, got {self.transfer_rate}")
        if self.num_cylinders < 1:
            raise ConfigurationError(f"num_cylinders must be >= 1, got {self.num_cylinders}")
        if self.cylinder_capacity <= 0:
            raise ConfigurationError(
                f"cylinder_capacity must be > 0, got {self.cylinder_capacity}"
            )
        if not 0 <= self.min_seek <= self.avg_seek <= self.max_seek:
            raise ConfigurationError(
                "seek times must satisfy 0 <= min <= avg <= max, got "
                f"{self.min_seek}/{self.avg_seek}/{self.max_seek}"
            )
        if not 0 <= self.avg_latency <= self.max_latency:
            raise ConfigurationError(
                "latencies must satisfy 0 <= avg <= max, got "
                f"{self.avg_latency}/{self.max_latency}"
            )

    # ------------------------------------------------------------------
    # Derived quantities (§3.1)
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> float:
        """Total drive capacity in megabits."""
        return self.num_cylinders * self.cylinder_capacity

    @property
    def t_switch(self) -> float:
        """Worst-case reposition delay ``T_switch`` (max seek + max latency)."""
        return self.max_seek + self.max_latency

    @property
    def cylinder_read_time(self) -> float:
        """Pure transfer time of one cylinder at the peak rate."""
        return self.cylinder_capacity / self.transfer_rate

    def fragment_size(self, fragment_cylinders: int = 1) -> float:
        """Fragment size in megabits for the given cylinder count."""
        if fragment_cylinders < 1:
            raise ConfigurationError(
                f"fragment_cylinders must be >= 1, got {fragment_cylinders}"
            )
        return fragment_cylinders * self.cylinder_capacity

    def service_time(self, fragment_cylinders: int = 1) -> float:
        """Cluster service time per activation ``S(C_i)``.

        One worst-case reposition (``T_switch``), then the fragment's
        cylinders read back-to-back with a minimum (track-to-track)
        seek between consecutive cylinders.  Reproduces the paper's
        §3.1 numbers: 301.83 ms for 1-cylinder fragments and 555.83 ms
        for 2-cylinder fragments on the Sabre drive.
        """
        cylinders = int(fragment_cylinders)
        if cylinders < 1:
            raise ConfigurationError(f"fragment_cylinders must be >= 1, got {cylinders}")
        transfer = cylinders * self.cylinder_read_time
        inter_cylinder = (cylinders - 1) * self.min_seek
        return self.t_switch + transfer + inter_cylinder

    def effective_bandwidth(self, fragment_cylinders: int = 1) -> float:
        """Effective bandwidth ``B_disk`` for a given fragment size.

        ``B_disk = size(fragment) / S(C_i)`` — the amount of useful
        data moved per activation divided by the worst-case time of
        the activation.  Equal to the paper's
        ``tfr * frag / (frag + T_switch * tfr)`` when fragments are a
        single cylinder.
        """
        fragment = self.fragment_size(fragment_cylinders)
        return fragment / self.service_time(fragment_cylinders)


def disk_for_effective_bandwidth(
    effective_bandwidth: float,
    base: "DiskModel",
    fragment_cylinders: int = 1,
    name: Optional[str] = None,
) -> DiskModel:
    """Derive a disk whose *effective* bandwidth equals a target.

    The paper's Table 3 specifies ``B_disk = 20 mbps`` directly (an
    effective figure).  This helper solves for the peak rate ``tfr``
    that yields the requested effective bandwidth given ``base``'s
    seek/latency profile and fragment size, so interval accounting and
    bandwidth accounting agree.
    """
    if effective_bandwidth <= 0:
        raise ConfigurationError(
            f"effective_bandwidth must be > 0, got {effective_bandwidth}"
        )
    fragment = base.fragment_size(fragment_cylinders)
    overhead = base.t_switch + (fragment_cylinders - 1) * base.min_seek
    transfer_budget = fragment / effective_bandwidth - overhead
    if transfer_budget <= 0:
        raise ConfigurationError(
            "requested effective bandwidth unreachable: overhead "
            f"{overhead:.4f}s exceeds the interval budget"
        )
    tfr = fragment / transfer_budget
    return DiskModel(
        transfer_rate=tfr,
        num_cylinders=base.num_cylinders,
        cylinder_capacity=base.cylinder_capacity,
        min_seek=base.min_seek,
        avg_seek=base.avg_seek,
        max_seek=base.max_seek,
        avg_latency=base.avg_latency,
        max_latency=base.max_latency,
        name=name or f"{base.name}@{effective_bandwidth:g}mbps",
    )


#: The 1.2 GB IMPRIMIS Sabre drive of the §3.1 numeric example
#: [Sab90]: 1635 cylinders of 756 000 bytes, 24.19 mbps peak rate,
#: 4/15/35 ms seeks, 8.33/16.83 ms latency.
SABRE_DISK = DiskModel(
    transfer_rate=units.mbps(24.19),
    num_cylinders=1635,
    cylinder_capacity=units.megabytes(0.756),
    min_seek=units.msec(4.0),
    avg_seek=units.msec(15.0),
    max_seek=units.msec(35.0),
    avg_latency=units.msec(8.33),
    max_latency=units.msec(16.83),
    name="sabre-1.2GB",
)

#: The simulation drive of Table 3: 3000 cylinders of 1.512 MB
#: (4.54 GB), same seek/latency profile as the Sabre, with the peak
#: rate solved so the *effective* bandwidth at 1-cylinder fragments is
#: exactly the table's ``B_disk = 20 mbps``.
TABLE3_DISK = disk_for_effective_bandwidth(
    effective_bandwidth=units.mbps(20.0),
    base=DiskModel(
        transfer_rate=units.mbps(24.19),  # placeholder; solved below
        num_cylinders=3000,
        cylinder_capacity=units.megabytes(1.512),
        min_seek=units.msec(4.0),
        avg_seek=units.msec(15.0),
        max_seek=units.msec(35.0),
        avg_latency=units.msec(8.33),
        max_latency=units.msec(16.83),
        name="table3-4.5GB",
    ),
    fragment_cylinders=1,
    name="table3-4.5GB",
)
