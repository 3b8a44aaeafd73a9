"""The tertiary storage device.

The paper's architecture keeps the whole database on one tertiary
device (40 mbps in Table 3) and materialises objects onto the disk
array on demand.  §3.2.4 characterises the device by two quantities:

* a sustained **bandwidth** ``B_tertiary``;
* a **reposition time** paid whenever the read head must move to a
  non-adjacent position — which happens once per subobject when the
  tape layout is *sequential* (object order) rather than the
  *fragment-ordered* layout the paper proposes.

This module models only those two quantities and the service times
they imply.  The materialisation queue lives with its owner:
:class:`repro.core.tertiary_manager.TertiaryManager` for striping and
the VDR scheduler's own FIFO for the baseline.
"""

from __future__ import annotations

from repro import units
from repro.errors import ConfigurationError


class TertiaryDevice:
    """A single tertiary store: its bandwidth and reposition time."""

    def __init__(
        self,
        bandwidth: float = units.mbps(40.0),
        reposition_time: float = units.seconds(5.0),
    ) -> None:
        if bandwidth <= 0:
            raise ConfigurationError(f"tertiary bandwidth must be > 0, got {bandwidth}")
        if reposition_time < 0:
            raise ConfigurationError(
                f"reposition_time must be >= 0, got {reposition_time}"
            )
        self.bandwidth = bandwidth
        self.reposition_time = reposition_time

    def transfer_time(self, size: float) -> float:
        """Pure transfer time of ``size`` megabits at full bandwidth."""
        return size / self.bandwidth

    def service_time_fragment_ordered(self, size: float) -> float:
        """Materialisation time with the paper's fragment-ordered tape
        layout: one initial reposition, then streaming at full rate."""
        return self.reposition_time + self.transfer_time(size)

    def service_time_sequential(self, size: float, num_subobjects: int) -> float:
        """Materialisation time with a sequential (object-order) tape
        layout: the bandwidth/layout mismatch forces one reposition per
        subobject (§3.2.4)."""
        if num_subobjects < 1:
            raise ConfigurationError(
                f"num_subobjects must be >= 1, got {num_subobjects}"
            )
        return num_subobjects * self.reposition_time + self.transfer_time(size)
