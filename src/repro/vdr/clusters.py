"""Physical disk clusters for virtual data replication."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import CapacityError, ConfigurationError


@dataclass
class Cluster:
    """One physical cluster of ``M`` drives.

    A cluster is either idle or busy with exactly one activity —
    displaying an object, receiving a materialisation from tertiary,
    or receiving a replica clone — because every activity consumes the
    cluster's aggregate bandwidth (a display needs all ``M`` drives;
    writes target the drives the display would read from).
    """

    index: int
    first_disk: int
    num_disks: int
    capacity_objects: int
    resident: Set[int] = field(default_factory=set)
    busy_until: int = 0  # first interval the cluster is free again
    activity: Optional[str] = None  # "display" | "materialize" | "clone"
    active_object: Optional[int] = None
    #: False while a member drive is down with no redundancy to cover
    #: it (see repro.faults) — the cluster can start nothing.
    available: bool = True

    def is_free(self, interval: int) -> bool:
        """True when the cluster can start a new activity."""
        return self.available and interval >= self.busy_until

    @property
    def has_space(self) -> bool:
        """True when another object fits without eviction."""
        return len(self.resident) < self.capacity_objects

    def occupy(
        self, interval: int, duration: int, activity: str, object_id: int
    ) -> None:
        """Mark the cluster busy for ``duration`` intervals."""
        if not self.is_free(interval):
            raise CapacityError(
                f"cluster {self.index} busy until {self.busy_until}, "
                f"cannot start {activity} at {interval}"
            )
        if duration < 1:
            raise ConfigurationError(f"duration must be >= 1, got {duration}")
        self.busy_until = interval + duration
        self.activity = activity
        self.active_object = object_id

    def finish(self) -> None:
        """Clear the activity (called when ``busy_until`` passes)."""
        self.activity = None
        self.active_object = None


class ClusterArray:
    """All ``R`` clusters plus the copy directory."""

    def __init__(
        self, num_disks: int, degree: int, capacity_objects: int
    ) -> None:
        if degree < 1 or num_disks < degree:
            raise ConfigurationError(
                f"invalid cluster shape: D={num_disks}, M={degree}"
            )
        if num_disks % degree:
            raise ConfigurationError(
                f"VDR needs D divisible by M: D={num_disks}, M={degree}"
            )
        if capacity_objects < 1:
            raise ConfigurationError(
                f"capacity_objects must be >= 1, got {capacity_objects}"
            )
        self.degree = degree
        self.clusters: List[Cluster] = [
            Cluster(
                index=i,
                first_disk=i * degree,
                num_disks=degree,
                capacity_objects=capacity_objects,
            )
            for i in range(num_disks // degree)
        ]
        # object id -> clusters holding a copy
        self.copies: Dict[int, Set[int]] = {}

    def __repr__(self) -> str:
        held = sum(len(c.resident) for c in self.clusters)
        return f"<ClusterArray R={len(self.clusters)} copies={held}>"

    def __len__(self) -> int:
        return len(self.clusters)

    @property
    def num_disks(self) -> int:
        """Total physical drives across all clusters (``R × M``)."""
        return len(self.clusters) * self.degree

    # ------------------------------------------------------------------
    # Copy directory
    # ------------------------------------------------------------------
    def copy_count(self, object_id: int) -> int:
        """Resident replicas of the object."""
        return len(self.copies.get(object_id, ()))

    def holders(self, object_id: int) -> List[Cluster]:
        """Clusters holding a copy of the object."""
        return [self.clusters[i] for i in self.copies.get(object_id, ())]

    def add_copy(self, object_id: int, cluster_index: int) -> None:
        """Record a new replica on ``cluster_index``."""
        cluster = self.clusters[cluster_index]
        if not cluster.has_space:
            raise CapacityError(
                f"cluster {cluster_index} is full "
                f"({len(cluster.resident)}/{cluster.capacity_objects})"
            )
        cluster.resident.add(object_id)
        self.copies.setdefault(object_id, set()).add(cluster_index)

    def remove_copy(self, object_id: int, cluster_index: int) -> None:
        """Drop a replica from ``cluster_index``."""
        cluster = self.clusters[cluster_index]
        cluster.resident.discard(object_id)
        holders = self.copies.get(object_id)
        if holders is not None:
            holders.discard(cluster_index)
            if not holders:
                del self.copies[object_id]

    def evict_all(self, cluster_index: int) -> List[int]:
        """Drop every replica on the cluster (to make room for a
        materialisation or clone); returns the evicted ids."""
        cluster = self.clusters[cluster_index]
        evicted = list(cluster.resident)
        for object_id in evicted:
            self.remove_copy(object_id, cluster_index)
        return evicted

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def free_holder(self, object_id: int, interval: int) -> Optional[Cluster]:
        """A free cluster holding the object, lowest index first."""
        clusters = self.clusters
        for index in sorted(self.copies.get(object_id, ())):
            cluster = clusters[index]
            # Cluster.is_free, inlined: this runs per queued request
            # per interval.
            if cluster.available and interval >= cluster.busy_until:
                return cluster
        return None

    def free_clusters(self, interval: int) -> List[Cluster]:
        """All clusters free this interval."""
        return [c for c in self.clusters if c.is_free(interval)]
