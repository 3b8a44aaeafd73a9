"""Tertiary (tape) layouts and their materialisation cost (§3.2.4).

The paper contrasts two ways to record an object on tertiary store:

* **sequential** — the object's bytes in display order.  Because the
  disk layout is *not* sequential (the write target shifts ``k``
  drives every interval while the tertiary produces only
  ``B_tertiary / B_display`` of a subobject per interval), the device
  repositions its head once per subobject, wasting most of its time.
* **fragment-ordered** — fragments recorded in exactly the order the
  disks consume them (``X_{0.0}, X_{0.1}, X_{1.0}, …``), so the device
  streams with a single initial reposition.  The cost: the recording
  depends on the disk/tertiary bandwidth ratio, so changing either
  device requires re-recording the tape.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.tertiary import TertiaryDevice
from repro.media.objects import MediaObject


class TapeOrder(enum.Enum):
    """How an object's data is ordered on the tertiary medium."""

    SEQUENTIAL = "sequential"
    FRAGMENT_ORDERED = "fragment_ordered"


@dataclass(frozen=True)
class TapeLayout:
    """The recording order of one object on tertiary store."""

    order: TapeOrder

    def service_time(self, obj: MediaObject, device: TertiaryDevice) -> float:
        """Total device time to materialise ``obj``."""
        if self.order is TapeOrder.FRAGMENT_ORDERED:
            return device.service_time_fragment_ordered(obj.size)
        return device.service_time_sequential(obj.size, obj.num_subobjects)

    def effective_bandwidth(self, obj: MediaObject, device: TertiaryDevice) -> float:
        """Useful mbps delivered during a materialisation of ``obj``."""
        return obj.size / self.service_time(obj, device)


def materialization_write_degree(
    tertiary_bandwidth: float, disk_bandwidth: float
) -> int:
    """Drives employed per interval while writing a materialisation.

    The tertiary produces ``B_tertiary / B_display`` of a subobject per
    interval; with the fragment-ordered layout it writes
    ``ceil(B_tertiary / B_disk)`` fragments (drives) per time interval
    — 2 drives for the paper's 40 mbps tertiary and 20 mbps disks.
    """
    if tertiary_bandwidth <= 0 or disk_bandwidth <= 0:
        raise ConfigurationError("bandwidths must be > 0")
    import math

    return max(1, math.ceil(tertiary_bandwidth / disk_bandwidth - 1e-9))
