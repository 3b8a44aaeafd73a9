"""Unit conventions and conversion helpers.

The paper mixes units freely (megabits per second, megabytes per
cylinder, milliseconds of seek time).  Internally this library uses a
single canonical system:

* **time** — seconds (float)
* **data** — megabits (float); 1 megabyte = 8 megabits
* **bandwidth** — megabits per second (mbps)

The helpers below make call sites read like the paper ("20 mbps",
"1.512 megabyte cylinders", "35 msec seeks") while keeping arithmetic
in canonical units.
"""

from __future__ import annotations

#: Megabits per megabyte.
MEGABITS_PER_MEGABYTE = 8.0

#: Seconds per millisecond.
SECONDS_PER_MSEC = 1e-3


def megabytes(mb: float) -> float:
    """Convert megabytes to canonical megabits."""
    return mb * MEGABITS_PER_MEGABYTE


def msec(milliseconds: float) -> float:
    """Convert milliseconds to canonical seconds."""
    return milliseconds * SECONDS_PER_MSEC


def seconds(s: float) -> float:
    """Identity helper so call sites can state their unit explicitly."""
    return float(s)


def mbps(rate: float) -> float:
    """Identity helper for megabit-per-second bandwidths."""
    return float(rate)


def per_hour(per_second: float) -> float:
    """Convert a per-second rate to a per-hour rate."""
    return per_second * 3600.0
