"""Media types, objects, and fragment addressing (Table 2 of the paper)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MediaType:
    """A media type with a constant display-bandwidth requirement.

    Examples from the paper: "network-quality" NTSC video at 45 mbps,
    CCIR 601 video at 216 mbps, HDTV at ~800 mbps, and audio types
    below a single disk's bandwidth.
    """

    name: str
    display_bandwidth: float

    def __post_init__(self) -> None:
        if self.display_bandwidth <= 0:
            raise ConfigurationError(
                f"display_bandwidth must be > 0, got {self.display_bandwidth}"
            )

    def degree_of_declustering(self, disk_bandwidth: float) -> int:
        """``M = ceil(B_display / B_disk)`` for this media type."""
        if disk_bandwidth <= 0:
            raise ConfigurationError(
                f"disk_bandwidth must be > 0, got {disk_bandwidth}"
            )
        return max(1, math.ceil(self.display_bandwidth / disk_bandwidth - 1e-9))


@dataclass(frozen=True)
class MediaObject:
    """An object of the database.

    Parameters
    ----------
    object_id:
        Stable integer identifier.
    media_type:
        The object's media type (fixes its bandwidth requirement).
    num_subobjects:
        ``n`` — how many stripes the object comprises.
    degree:
        ``M`` — fragments per subobject, fixed when the catalog is
        built against a specific disk bandwidth.
    fragment_size:
        Fragment size in megabits (identical across all objects in a
        system; a configuration-time constant).
    """

    object_id: int
    media_type: MediaType
    num_subobjects: int
    degree: int
    fragment_size: float

    def __post_init__(self) -> None:
        if self.num_subobjects < 1:
            raise ConfigurationError(
                f"num_subobjects must be >= 1, got {self.num_subobjects}"
            )
        if self.degree < 1:
            raise ConfigurationError(f"degree must be >= 1, got {self.degree}")
        if self.fragment_size <= 0:
            raise ConfigurationError(
                f"fragment_size must be > 0, got {self.fragment_size}"
            )

    @property
    def display_bandwidth(self) -> float:
        """``B_display`` of the object's media type (mbps)."""
        return self.media_type.display_bandwidth

    @property
    def subobject_size(self) -> float:
        """``M × size(fragment)`` in megabits."""
        return self.degree * self.fragment_size

    @property
    def size(self) -> float:
        """Total object size in megabits."""
        return self.num_subobjects * self.subobject_size

    @property
    def display_time(self) -> float:
        """Seconds to display the whole object at ``B_display``."""
        return self.size / self.display_bandwidth

    def fragments(self) -> Iterator["FragmentAddress"]:
        """Iterate all fragment addresses in subobject-major order."""
        for subobject in range(self.num_subobjects):
            for fragment in range(self.degree):
                yield FragmentAddress(self.object_id, subobject, fragment)


@dataclass(frozen=True, order=True)
class FragmentAddress:
    """Identifies fragment ``X_{i.j}``: object X, subobject i, fragment j."""

    object_id: int
    subobject: int
    fragment: int

    def __str__(self) -> str:
        return f"{self.object_id}:{self.subobject}.{self.fragment}"
