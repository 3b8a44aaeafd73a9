"""§5 future work: avoiding worst-case seek/latency provisioning.

The protocol of §3.1 sizes every interval for the *worst case*
reposition, ``T_switch = max_seek + max_latency`` (51.83 ms on the
Sabre drive), wasting the gap to the ~23 ms *average* reposition.
The paper asks: "How can we avoid using the maximum seek and latency
times?  We need simulation or analytical results that show how much we
can increase our effective bandwidth by having moderate sized
buffering of a cylinder or so."

This module answers with a Monte-Carlo model.  Provision each
activation with an overhead budget ``h < T_switch`` and keep a small
per-drive playout buffer: an activation whose actual reposition
exceeds ``h`` drains the buffer, a faster one refills it (a reflected
random walk).  A *hiccup* occurs when the buffer underruns.  Binary
search over ``h`` finds the most aggressive provisioning whose hiccup
rate stays below a target, and the achievable effective bandwidth
follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.hardware.disk import DiskModel
from repro.sim.rng import RandomStream


def seek_time(disk: DiskModel, distance: int) -> float:
    """Seek time for a head move of ``distance`` cylinders.

    Linear interpolation anchored at ``min_seek`` for a one-cylinder
    move and ``max_seek`` for a full-stroke move.  ``distance == 0``
    costs nothing.
    """
    if distance < 0:
        raise ConfigurationError(f"seek distance must be >= 0, got {distance}")
    if distance == 0:
        return 0.0
    full_stroke = max(disk.num_cylinders - 1, 1)
    if distance >= full_stroke or full_stroke == 1:
        return disk.max_seek
    span = disk.max_seek - disk.min_seek
    return disk.min_seek + span * (distance - 1) / (full_stroke - 1)


def sample_reposition(disk: DiskModel, stream: RandomStream) -> float:
    """Draw a random reposition delay in ``[min_seek, T_switch]``.

    Uniform random target cylinder plus uniform rotational latency —
    the stochastic counterpart of step 1 of the §3.1 activation
    protocol (which always budgets the worst case, ``T_switch``).
    """
    distance = stream.randint(0, disk.num_cylinders - 1)
    latency = stream.uniform(0.0, disk.max_latency)
    return seek_time(disk, distance) + latency


def provisioned_bandwidth(
    disk: DiskModel, overhead: float, fragment_cylinders: int = 1
) -> float:
    """Effective bandwidth when each activation budgets ``overhead``
    seconds for the reposition (instead of the worst-case
    ``T_switch``)."""
    if overhead < 0:
        raise ConfigurationError(f"overhead must be >= 0, got {overhead}")
    fragment = disk.fragment_size(fragment_cylinders)
    transfer = fragment_cylinders * disk.cylinder_read_time
    inter_cylinder = (fragment_cylinders - 1) * disk.min_seek
    return fragment / (overhead + transfer + inter_cylinder)


def simulate_hiccup_rate(
    disk: DiskModel,
    overhead_budget: float,
    buffer_size: float,
    activations: int,
    stream: RandomStream,
    fragment_cylinders: int = 1,
) -> float:
    """Fraction of activations that underrun the playout buffer.

    ``buffer_size`` is megabits of prefetched data per drive; the
    margin it buys is ``buffer_size / B_provisioned`` seconds.  The
    buffer starts full; each activation adds ``budget − actual``
    seconds of margin (clipped at the buffer ceiling).  An underrun
    counts as a hiccup and the margin resets to zero (the display
    stalls until the drive catches up).
    """
    if activations < 1:
        raise ConfigurationError(f"activations must be >= 1, got {activations}")
    if buffer_size < 0:
        raise ConfigurationError(f"buffer_size must be >= 0, got {buffer_size}")
    bandwidth = provisioned_bandwidth(disk, overhead_budget, fragment_cylinders)
    ceiling = buffer_size / bandwidth
    margin = ceiling
    hiccups = 0
    for _ in range(activations):
        actual = sample_reposition(disk, stream)
        margin = min(ceiling, margin + overhead_budget - actual)
        if margin < 0:
            hiccups += 1
            margin = 0.0
    return hiccups / activations


def max_bandwidth_for_buffer(
    disk: DiskModel,
    buffer_cylinders: float,
    hiccup_target: float = 1e-3,
    activations: int = 20_000,
    seed: int = 2024,
    fragment_cylinders: int = 1,
    search_steps: int = 12,
) -> float:
    """Most aggressive effective bandwidth whose hiccup rate stays
    below ``hiccup_target`` with a ``buffer_cylinders``-cylinder
    buffer.  Returns the bandwidth in mbps.

    The search is monotone in the overhead budget: a larger budget can
    only lower the hiccup rate, so bisection applies.
    """
    if not 0 < hiccup_target < 1:
        raise ConfigurationError(
            f"hiccup_target must be in (0, 1), got {hiccup_target}"
        )
    buffer_size = buffer_cylinders * disk.cylinder_capacity
    low, high = 0.0, disk.t_switch  # budget window
    for step in range(search_steps):
        mid = (low + high) / 2.0
        rate = simulate_hiccup_rate(
            disk,
            overhead_budget=mid,
            buffer_size=buffer_size,
            activations=activations,
            stream=RandomStream(seed + step),
            fragment_cylinders=fragment_cylinders,
        )
        if rate <= hiccup_target:
            high = mid  # budget can shrink further
        else:
            low = mid
    return provisioned_bandwidth(disk, high, fragment_cylinders)


@dataclass(frozen=True)
class BufferingRow:
    """One row of the buffering study."""

    buffer_cylinders: float
    effective_bandwidth_mbps: float
    gain_over_worst_case_pct: float


def buffering_table(
    disk: DiskModel,
    buffer_sizes: Optional[List[float]] = None,
    hiccup_target: float = 1e-3,
    activations: int = 20_000,
    seed: int = 2024,
    fragment_cylinders: int = 1,
) -> List[BufferingRow]:
    """Effective bandwidth vs per-drive buffer size.

    Row 0 (zero buffer) reproduces the worst-case design; the paper's
    "a cylinder or so" shows the available gain.
    """
    if buffer_sizes is None:
        buffer_sizes = [0.0, 0.25, 0.5, 1.0, 2.0]
    worst_case = disk.effective_bandwidth(fragment_cylinders)
    rows: List[BufferingRow] = []
    for cylinders in buffer_sizes:
        if cylinders == 0.0:
            bandwidth = worst_case
        else:
            bandwidth = max_bandwidth_for_buffer(
                disk,
                buffer_cylinders=cylinders,
                hiccup_target=hiccup_target,
                activations=activations,
                seed=seed,
                fragment_cylinders=fragment_cylinders,
            )
        rows.append(
            BufferingRow(
                buffer_cylinders=cylinders,
                effective_bandwidth_mbps=bandwidth,
                gain_over_worst_case_pct=(bandwidth / worst_case - 1.0) * 100.0,
            )
        )
    return rows


def average_overhead_bandwidth(
    disk: DiskModel, fragment_cylinders: int = 1
) -> float:
    """The theoretical ceiling: provision for the *average* reposition
    (average seek + average latency) — achievable only with an
    unbounded buffer."""
    return provisioned_bandwidth(
        disk, disk.avg_seek + disk.avg_latency, fragment_cylinders
    )
