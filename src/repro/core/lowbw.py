"""Low-bandwidth objects and logical half-disks (§3.2.3, Figure 7).

Objects with ``B_display < B_disk`` (audio, slow-scan video) or with a
requirement that is not an exact multiple of ``B_disk`` waste
bandwidth when forced to claim whole drives: an object at 30 mbps over
20 mbps drives wastes 25% of its two drives.  The paper's fix divides
each drive into **two logical disks of half the bandwidth**: two
subobjects of two low-bandwidth objects are read in a single time
interval, with one extra buffer each to smooth delivery across the
half-interval boundary (Figure 7).

This module provides :func:`degree_in_halves`, which the scheduler
uses to admit low-bandwidth displays onto half-slots.  The
rounding-waste arithmetic behind the §3.2.3 examples, Figure 7's
schedule generator and its continuity validator are a test oracle
(``tests/oracles/lowbw.py``).
"""

from __future__ import annotations

import math
from repro.errors import ConfigurationError


def degree_in_halves(display_bandwidth: float, disk_bandwidth: float) -> int:
    """Logical half-disks needed: ``ceil(B_display / (B_disk / 2))``."""
    if display_bandwidth <= 0 or disk_bandwidth <= 0:
        raise ConfigurationError("bandwidths must be > 0")
    return max(1, math.ceil(display_bandwidth / (disk_bandwidth / 2.0) - 1e-9))
