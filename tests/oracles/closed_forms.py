"""§3's closed forms: bandwidth, initiation latency, memory and skew.

The package sizes intervals from :class:`repro.hardware.disk.DiskModel`
and places objects with :func:`repro.media.layout.stride_fragment_counts`;
these are the paper's back-of-envelope formulas built on them, which
the tests check against the paper's numbers and against the simulator:

* effective bandwidth vs fragment size and the Sabre drive's numbers
  (§3.1): 17.2% waste for 1-cylinder fragments, ~10% for 2, with
  diminishing returns beyond;
* worst-case and expected display-initiation latency (§3.1, §3.2.2):
  with ``R`` clusters a new request waits up to ``(R-1) × S(C_i)``,
  about 9 s (1 cylinder) and 16 s (2 cylinders) on 90 drives in 30
  clusters;
* Equation 1's minimum memory and the staging memory of time
  fragmentation and half-disk sharing (§3.1, §3.2.1, §3.2.3);
* the stride / data-skew arithmetic of §3.2.2: an object's subobject
  starts visit the residues ``p + i·k (mod D)``, a coset of size
  ``D / gcd(D, k)``; ``k = 1`` (or any ``k`` prime to ``D``)
  guarantees no skew; with ``k <= M`` an object of ``n`` subobjects
  touches ``min(D, (n-1)·k + M)`` drives (the paper's 25-subobject,
  ``M = 4`` object spans 28 of 100 drives at ``k = 1``, all 100 at
  ``k = M``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.hardware.disk import SABRE_DISK, DiskModel
from repro.media.layout import stride_fragment_counts
from repro.simulation.config import ScaledConfig, SimulationConfig


# ----------------------------------------------------------------------
# Bandwidth vs fragment size (§3.1)
# ----------------------------------------------------------------------
def wasted_fraction(disk: DiskModel, fragment_cylinders: int = 1) -> float:
    """Fraction of an activation spent on seeks and latency."""
    service = disk.service_time(fragment_cylinders)
    overhead = service - fragment_cylinders * disk.cylinder_read_time
    return overhead / service


def paper_formula_bandwidth(disk: DiskModel, fragment_size: float) -> float:
    """The paper's exact closed form (single contiguous read)::

        tfr × frag / (frag + T_switch × tfr)

    Matches :meth:`DiskModel.effective_bandwidth` for 1-cylinder
    fragments; for multi-cylinder fragments the model additionally
    charges the track-to-track seeks between cylinders.
    """
    if fragment_size <= 0:
        raise ConfigurationError(f"fragment_size must be > 0, got {fragment_size}")
    tfr = disk.transfer_rate
    return tfr * fragment_size / (fragment_size + disk.t_switch * tfr)


def bandwidth_table(disk: DiskModel, max_cylinders: int = 8) -> List[Dict[str, float]]:
    """Effective bandwidth / waste / service time per fragment size,
    one row per size from 1 to ``max_cylinders`` cylinders."""
    if max_cylinders < 1:
        raise ConfigurationError(f"max_cylinders must be >= 1, got {max_cylinders}")
    return [
        {
            "fragment_cylinders": float(cylinders),
            "service_time_ms": disk.service_time(cylinders) * 1000.0,
            "effective_bandwidth_mbps": disk.effective_bandwidth(cylinders),
            "wasted_percent": wasted_fraction(disk, cylinders) * 100.0,
        }
        for cylinders in range(1, max_cylinders + 1)
    ]


def marginal_gain(disk: DiskModel, cylinders: int) -> float:
    """Bandwidth gained by growing the fragment one more cylinder —
    quantifies the paper's "diminishing gains beyond 2 cylinders"."""
    if cylinders < 1:
        raise ConfigurationError(f"cylinders must be >= 1, got {cylinders}")
    return disk.effective_bandwidth(cylinders + 1) - disk.effective_bandwidth(
        cylinders
    )


def sabre_numbers(disk: DiskModel = SABRE_DISK) -> Dict[str, float]:
    """§3.1's headline quantities on the 1.2 GB Sabre drive."""
    return {
        "cylinder_read_ms": disk.cylinder_read_time * 1000.0,
        "t_switch_ms": disk.t_switch * 1000.0,
        "service_1cyl_ms": disk.service_time(1) * 1000.0,
        "service_2cyl_ms": disk.service_time(2) * 1000.0,
        "waste_1cyl_pct": wasted_fraction(disk, 1) * 100.0,
        "waste_2cyl_pct": wasted_fraction(disk, 2) * 100.0,
        "delay_90disks_1cyl_s": worst_case_initiation_delay(disk, 90, 3, 1),
        "delay_90disks_2cyl_s": worst_case_initiation_delay(disk, 90, 3, 2),
    }


def fragment_size_tradeoff(
    disk: DiskModel = SABRE_DISK, max_cylinders: int = 6
) -> List[Dict[str, float]]:
    """The fragment-size trade-off rows: bandwidth up, latency up."""
    rows = bandwidth_table(disk, max_cylinders)
    for row in rows:
        row["worst_delay_90disks_s"] = worst_case_initiation_delay(
            disk, 90, 3, int(row["fragment_cylinders"])
        )
    return rows


# ----------------------------------------------------------------------
# Display-initiation latency (§3.1, §3.2.2)
# ----------------------------------------------------------------------
def worst_case_initiation_delay(
    disk: DiskModel, num_disks: int, degree: int, fragment_cylinders: int = 1
) -> float:
    """``(R - 1) × S(C_i)`` seconds for simple striping."""
    if degree < 1 or num_disks < degree:
        raise ConfigurationError(
            f"invalid cluster shape: D={num_disks}, M={degree}"
        )
    clusters = num_disks // degree
    return (clusters - 1) * disk.service_time(fragment_cylinders)


def expected_contiguous_wait(
    num_disks: int, stride: int, interval_length: float
) -> float:
    """Expected rotation wait (seconds) for a *uniformly placed* free
    window to align with a request's start drive.

    A free window realigns every ``D / gcd(D, k)`` intervals, so a
    random phase waits half that on average: display latency grows as
    the stride shrinks (§3.2.2).
    """
    if not 1 <= stride <= num_disks:
        raise ConfigurationError(f"stride must be in 1..{num_disks}, got {stride}")
    if interval_length <= 0:
        raise ConfigurationError(
            f"interval_length must be > 0, got {interval_length}"
        )
    period = num_disks // math.gcd(num_disks, stride)
    return (period - 1) / 2.0 * interval_length


def k_equals_d_blocking_time(object_size: float, display_bandwidth: float) -> float:
    """Worst-case wait with ``k = D`` (virtual-replication placement):
    a colliding request waits a whole display time (§3.2.2's argument
    against large strides)."""
    if object_size <= 0 or display_bandwidth <= 0:
        raise ConfigurationError("object_size and display_bandwidth must be > 0")
    return object_size / display_bandwidth


def k_extremes_analysis(config: Optional[SimulationConfig] = None) -> Dict[str, float]:
    """The paper's k=1 vs k=M vs k=D worst waits."""
    config = config if config is not None else ScaledConfig()
    return {
        "k1_worst_wait_s": (config.num_disks - 1) * config.interval_length,
        "kM_worst_wait_s": (config.num_clusters - 1) * config.interval_length,
        "kD_blocking_s": k_equals_d_blocking_time(
            config.object_size, config.display_bandwidth
        ),
    }


# ----------------------------------------------------------------------
# Memory (Equation 1, §3.2.1, §3.2.3)
# ----------------------------------------------------------------------
def minimum_display_memory(
    effective_bandwidth: float, t_switch: float, t_sector: float
) -> float:
    """Equation 1: ``B_disk × (T_switch + T_sector)`` megabits per
    drive — the floor below which cluster switches cause hiccups."""
    if effective_bandwidth <= 0:
        raise ConfigurationError(
            f"effective_bandwidth must be > 0, got {effective_bandwidth}"
        )
    if t_switch < 0 or t_sector < 0:
        raise ConfigurationError("T_switch and T_sector must be >= 0")
    return effective_bandwidth * (t_switch + t_sector)


def fragmentation_buffer_demand(
    lane_offsets: List[int], fragment_size: float
) -> float:
    """Staging memory (megabits) of a time-fragmented display: lane
    ``j`` holds ``w_offset_j`` fragments at steady state (§3.2.1)."""
    if fragment_size <= 0:
        raise ConfigurationError(f"fragment_size must be > 0, got {fragment_size}")
    if any(offset < 0 for offset in lane_offsets):
        raise ConfigurationError("lane offsets must be >= 0")
    return sum(lane_offsets) * fragment_size


def low_bandwidth_buffer_demand(fragment_size: float, num_sharers: int = 2) -> float:
    """Extra buffering (megabits per drive) of §3.2.3's logical-disk
    sharing: each of the ``num_sharers`` streams keeps up to half a
    fragment staged across the half-interval boundary."""
    if num_sharers < 2:
        raise ConfigurationError(f"num_sharers must be >= 2, got {num_sharers}")
    if fragment_size <= 0:
        raise ConfigurationError(f"fragment_size must be > 0, got {fragment_size}")
    return num_sharers * fragment_size / 2.0


# ----------------------------------------------------------------------
# Stride and data skew (§3.2.2)
# ----------------------------------------------------------------------
def residue_classes(num_disks: int, stride: int) -> int:
    """Distinct start-drive residues: ``D / gcd(D, k)``."""
    _check(num_disks, stride)
    return num_disks // math.gcd(num_disks, stride)


def stride_is_skew_free(num_disks: int, stride: int) -> bool:
    """True when every subobject count balances: ``gcd(D, k) == 1``."""
    _check(num_disks, stride)
    return math.gcd(num_disks, stride) == 1


def is_perfectly_balanced(
    num_disks: int, stride: int, num_subobjects: int, degree: int
) -> bool:
    """The full §3.2.2 GCD rule.

    Load is perfectly balanced across all drives exactly when the
    degree ``M`` is a multiple of ``gcd(D, k)`` *and* the subobject
    count is a multiple of ``D / gcd(D, k)`` (one whole tour of the
    start residues).  ``k = 1`` satisfies the first condition for every
    object — the paper's "a stride of 1 guarantees no data skew".
    """
    g = math.gcd(num_disks, stride)
    return degree % g == 0 and num_subobjects % (num_disks // g) == 0


def disks_used_by_object(
    num_disks: int, stride: int, num_subobjects: int, degree: int
) -> int:
    """Distinct drives an object touches (any start drive)."""
    _check(num_disks, stride)
    if num_subobjects < 1 or degree < 1:
        raise ConfigurationError("num_subobjects and degree must be >= 1")
    counts = stride_fragment_counts(num_disks, stride, num_subobjects, degree, 0)
    return sum(1 for c in counts if c)


def skew_profile(
    num_disks: int, stride: int, num_subobjects: int, degree: int
) -> Dict[str, float]:
    """Per-drive fragment-count statistics for one object: min / max /
    mean over the drives it touches plus the relative skew
    ``(max - min) / mean``.  A start drive only rotates the counts, so
    the profile holds for every start."""
    _check(num_disks, stride)
    counts = stride_fragment_counts(num_disks, stride, num_subobjects, degree, 0)
    touched = [c for c in counts if c > 0]
    mean = sum(touched) / len(touched)
    return {
        "min": float(min(touched)),
        "max": float(max(touched)),
        "mean": mean,
        "relative_skew": (max(touched) - min(touched)) / mean if mean else 0.0,
        "disks_used": float(len(touched)),
    }


def _check(num_disks: int, stride: int) -> None:
    if num_disks < 1:
        raise ConfigurationError(f"num_disks must be >= 1, got {num_disks}")
    if not 1 <= stride <= num_disks:
        raise ConfigurationError(f"stride must be in 1..{num_disks}, got {stride}")
