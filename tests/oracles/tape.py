"""§3.2.4's recording example: fragment-ordered tape write batches.

With the fragment-ordered tape layout the device writes
``write_degree`` consecutive fragments per interval
(:func:`repro.media.tape_layout.materialization_write_degree`).  The
materialisation path charges the device time in closed form
(:meth:`repro.media.tape_layout.TapeLayout.service_time`); this oracle
spells out the batches so the tests can check the paper's example,
and counts the repositions and the wasted device time of each order.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigurationError
from repro.hardware.tertiary import TertiaryDevice
from repro.media.objects import FragmentAddress, MediaObject
from repro.media.tape_layout import TapeLayout, TapeOrder


def repositions(layout: TapeLayout, obj: MediaObject) -> int:
    """Head repositions incurred while materialising ``obj``: one for a
    fragment-ordered recording, one per subobject for a sequential one."""
    if layout.order is TapeOrder.FRAGMENT_ORDERED:
        return 1
    return obj.num_subobjects


def wasted_fraction(
    layout: TapeLayout, obj: MediaObject, device: TertiaryDevice
) -> float:
    """Fraction of device time spent repositioning (wasteful work)."""
    total = layout.service_time(obj, device)
    useful = device.transfer_time(obj.size)
    return (total - useful) / total if total > 0 else 0.0


def recording_schedule(
    obj: MediaObject, write_degree: int
) -> List[List[FragmentAddress]]:
    """Group tape fragments into per-interval write batches.

    With the fragment-ordered layout the device writes ``write_degree``
    consecutive fragments per time interval, shifting ``k`` drives to
    the right between intervals exactly like a display (§3.2.4's
    example: ``X_{0.0}, X_{0.1}`` in interval one, ``X_{1.0}, X_{1.1}``
    in interval two for an 80 mbps object over a 40 mbps tertiary).
    """
    if write_degree < 1:
        raise ConfigurationError(f"write_degree must be >= 1, got {write_degree}")
    batches: List[List[FragmentAddress]] = []
    current: List[FragmentAddress] = []
    for address in obj.fragments():
        current.append(address)
        if len(current) == write_degree:
            batches.append(current)
            current = []
    if current:
        batches.append(current)
    return batches
