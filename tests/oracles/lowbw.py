"""Figure 7: two half-bandwidth objects sharing one drive (§3.2.3).

The scheduler admits a low-bandwidth display onto logical half-disks
(:func:`repro.core.lowbw.degree_in_halves`); this oracle spells out the
half-interval schedule the paper draws for two such objects and checks
that both streams are delivered continuously, and gives the rounding
waste of whole-drive vs half-drive allocation (§3.2.3's 25% → 0%
example).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class HalfIntervalAction:
    """One half-interval of a shared drive's schedule (Figure 7).

    ``half`` counts half-intervals from 0; drive index is implied by
    the staggered shift (interval ``t`` uses drive ``t·k`` offset).
    """

    half: int
    reads: tuple  # fragment labels read this half-interval
    transmits: tuple  # half-fragment labels transmitted


def figure7_schedule(num_subobjects: int) -> List[HalfIntervalAction]:
    """Generate the Figure 7 schedule for two half-bandwidth objects.

    Two objects ``X`` and ``Y``, each with ``B_display = B_disk / 2``,
    share one drive per interval.  Per interval ``t``:

    * first half: read ``X_t`` in full; transmit ``Xta`` (pipelined)
      and ``Y(t-1)b`` (from buffer);
    * second half: read ``Y_t`` in full; transmit ``Xtb`` (from
      buffer) and ``Yta`` (pipelined).

    Labels follow the paper: ``X0a`` is the first half of subobject
    ``X_0``.  The very first half-interval transmits only ``X0a``
    (nothing of ``Y`` is buffered yet) and trailing half-intervals
    drain the last buffers.
    """
    if num_subobjects < 1:
        raise ConfigurationError(
            f"num_subobjects must be >= 1, got {num_subobjects}"
        )
    actions: List[HalfIntervalAction] = []
    n = num_subobjects
    for t in range(n):
        first_xmit = [f"X{t}a"]
        if t > 0:
            first_xmit.append(f"Y{t - 1}b")
        actions.append(
            HalfIntervalAction(
                half=2 * t, reads=(f"X{t}",), transmits=tuple(first_xmit)
            )
        )
        actions.append(
            HalfIntervalAction(
                half=2 * t + 1, reads=(f"Y{t}",), transmits=(f"X{t}b", f"Y{t}a")
            )
        )
    # Drain the final buffered half of Y.
    actions.append(
        HalfIntervalAction(half=2 * n, reads=(), transmits=(f"Y{n - 1}b",))
    )
    return actions


def validate_figure7_schedule(actions: List[HalfIntervalAction]) -> None:
    """Assert the schedule delivers both streams continuously.

    Checks: every half-fragment of each stream is transmitted exactly
    once, in order, in consecutive half-intervals (offset by one
    half-interval between the streams), and no half-interval reads
    more than one full subobject or transmits more than two
    half-fragments (the drive + one buffer).
    """
    transmissions = {}
    for action in actions:
        if len(action.reads) > 1:
            raise ConfigurationError(
                f"half-interval {action.half} reads {len(action.reads)} subobjects"
            )
        if len(action.transmits) > 2:
            raise ConfigurationError(
                f"half-interval {action.half} transmits {len(action.transmits)} halves"
            )
        for label in action.transmits:
            if label in transmissions:
                raise ConfigurationError(f"{label} transmitted twice")
            transmissions[label] = action.half
    for stream, offset in (("X", 0), ("Y", 1)):
        halves = sorted(
            (half for label, half in transmissions.items() if label[0] == stream),
        )
        expected = list(range(offset, offset + len(halves)))
        if halves != expected:
            raise ConfigurationError(
                f"stream {stream} is not continuous: {halves[:6]}..."
            )


def whole_disk_waste(display_bandwidth: float, disk_bandwidth: float) -> float:
    """Fraction of the claimed drives' bandwidth wasted when the
    request must use an integral number of *whole* drives.

    The paper's example: 30 mbps over 20 mbps drives claims 2 drives
    (40 mbps) and wastes 25%.
    """
    if display_bandwidth <= 0 or disk_bandwidth <= 0:
        raise ConfigurationError("bandwidths must be > 0")
    drives = math.ceil(display_bandwidth / disk_bandwidth - 1e-9)
    allocated = drives * disk_bandwidth
    return (allocated - display_bandwidth) / allocated


def half_disk_waste(display_bandwidth: float, disk_bandwidth: float) -> float:
    """Waste with an integral number of *logical half-disks*.

    The paper's example: ``B_display = 3/2 B_disk`` fits exactly in 3
    half-disks with no rounding loss.
    """
    if display_bandwidth <= 0 or disk_bandwidth <= 0:
        raise ConfigurationError("bandwidths must be > 0")
    half = disk_bandwidth / 2.0
    halves = math.ceil(display_bandwidth / half - 1e-9)
    allocated = halves * half
    return (allocated - display_bandwidth) / allocated


def rounding_waste_rows(
    disk_bandwidth: float = 20.0,
    bandwidths: Sequence[float] = (5.0, 10.0, 30.0, 45.0, 50.0, 70.0, 100.0),
) -> List[Dict]:
    """Whole-drive vs half-drive allocation waste per display rate."""
    return [
        {
            "display_mbps": display,
            "whole_disks": math.ceil(display / disk_bandwidth - 1e-9),
            "whole_disk_waste_pct": round(
                whole_disk_waste(display, disk_bandwidth) * 100.0, 2
            ),
            "half_disks": math.ceil(display / (disk_bandwidth / 2) - 1e-9),
            "half_disk_waste_pct": round(
                half_disk_waste(display, disk_bandwidth) * 100.0, 2
            ),
        }
        for display in bandwidths
    ]
