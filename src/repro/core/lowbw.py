"""Low-bandwidth objects and logical half-disks (§3.2.3, Figure 7).

Objects with ``B_display < B_disk`` (audio, slow-scan video) or with a
requirement that is not an exact multiple of ``B_disk`` waste
bandwidth when forced to claim whole drives: an object at 30 mbps over
20 mbps drives wastes 25% of its two drives.  The paper's fix divides
each drive into **two logical disks of half the bandwidth**: two
subobjects of two low-bandwidth objects are read in a single time
interval, with one extra buffer each to smooth delivery across the
half-interval boundary (Figure 7).

This module provides:

* the rounding-waste arithmetic (:func:`whole_disk_waste`,
  :func:`half_disk_waste`) behind the §3.2.3 examples;
* :func:`degree_in_halves` used by the scheduler to admit
  low-bandwidth displays onto half-slots.

Figure 7's schedule generator and its continuity validator are a test
oracle (``tests/oracles/lowbw.py``).
"""

from __future__ import annotations

import math
from repro.errors import ConfigurationError


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


def degree_in_halves(display_bandwidth: float, disk_bandwidth: float) -> int:
    """Logical half-disks needed: ``ceil(B_display / (B_disk / 2))``."""
    if display_bandwidth <= 0 or disk_bandwidth <= 0:
        raise ConfigurationError("bandwidths must be > 0")
    return max(1, math.ceil(display_bandwidth / (disk_bandwidth / 2.0) - 1e-9))
