"""Hardware models: magnetic disks, the disk array, tertiary storage
and buffer memory.  The delivery network is assumed sufficient, as in
the paper, and is not modelled.

All devices are parameterised analytic models — the paper itself only
characterises hardware through bandwidths, seek/latency bounds, and
cylinder capacities (its Table 3), so these models reproduce exactly
the quantities the paper's simulation depends on.
"""

from repro.hardware.disk import DiskModel, SABRE_DISK, TABLE3_DISK
from repro.hardware.disk_array import DiskArray
from repro.hardware.memory import minimum_display_memory
from repro.hardware.tertiary import TertiaryDevice

__all__ = [
    "DiskArray",
    "DiskModel",
    "SABRE_DISK",
    "TABLE3_DISK",
    "TertiaryDevice",
    "minimum_display_memory",
]
