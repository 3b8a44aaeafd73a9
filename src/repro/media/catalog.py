"""The object catalog: the database's metadata.

A :class:`Catalog` holds every object's immutable description (media
type, degree of declustering, sizes).  Residency — which objects are
currently disk resident — is tracked separately by the Object Manager
(:mod:`repro.core.object_manager`); the catalog itself matches the
paper's "database resides permanently on the tertiary storage device".
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

from repro.errors import ConfigurationError
from repro.media.objects import MediaObject, MediaType


class Catalog:
    """An immutable-after-build collection of media objects."""

    def __init__(self, objects: Sequence[MediaObject]) -> None:
        self._objects: Dict[int, MediaObject] = {}
        for obj in objects:
            if obj.object_id in self._objects:
                raise ConfigurationError(
                    f"duplicate object_id {obj.object_id} in catalog"
                )
            self._objects[obj.object_id] = obj

    def __repr__(self) -> str:
        return f"<Catalog objects={len(self._objects)} size={self.total_size:.4g}mbit>"

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects

    def __iter__(self) -> Iterator[MediaObject]:
        return iter(self._objects.values())

    def get(self, object_id: int) -> MediaObject:
        """Look up one object (KeyError if absent)."""
        return self._objects[object_id]

    @property
    def object_ids(self) -> List[int]:
        """All object identifiers in insertion order."""
        return list(self._objects)

    @property
    def total_size(self) -> float:
        """Aggregate database size in megabits."""
        return sum(obj.size for obj in self._objects.values())


def build_uniform_catalog(
    num_objects: int,
    media_type: MediaType,
    num_subobjects: int,
    degree: int,
    fragment_size: float,
    first_id: int = 0,
) -> Catalog:
    """Build the paper's single-media-type database (Table 3): every
    object equi-sized with the same degree of declustering."""
    if num_objects < 1:
        raise ConfigurationError(f"num_objects must be >= 1, got {num_objects}")
    objects = [
        MediaObject(
            object_id=first_id + i,
            media_type=media_type,
            num_subobjects=num_subobjects,
            degree=degree,
            fragment_size=fragment_size,
        )
        for i in range(num_objects)
    ]
    return Catalog(objects)
