"""The MRT dynamic-replication policy for VDR.

The paper configures VDR "with the Minimum Response Time (MRT) state
transition diagram [GS93]": detect objects whose cluster is a
bottleneck and replicate them onto other clusters; let the extra
copies of cooled-down objects be reclaimed later.  The full [GS93]
diagram is not reproduced in this paper, so we implement its essential
transitions:

* **replicate** — when a display of ``X`` starts and at least
  ``threshold`` further requests for ``X`` are still waiting per
  existing copy, mirror the display's stream onto an idle *victim*
  cluster (the "virtual replica": no tertiary involvement, the target
  cluster is busy for the display's duration and then holds a copy);
* **victim choice** — the idle cluster whose content is least
  valuable, where a copy's value is its object's access frequency
  divided by its replica count (so surplus replicas of cooling
  objects are reclaimed first) and pinned last copies are protected.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.vdr.clusters import Cluster, ClusterArray


class MRTReplication:
    """Replication trigger + victim selection.

    Parameters
    ----------
    clusters:
        The cluster array (provides the copy directory).
    frequencies:
        Object id -> access count (absent = 0), owned and updated by
        the VDR policy.
    pins:
        Object id -> pin count (absent = 0); an object pinned at least
        once must keep >= 1 copy.
    threshold:
        Waiting requests per existing copy needed to trigger a new
        replica (1 = replicate whenever any request would still wait).
    """

    def __init__(
        self,
        clusters: ClusterArray,
        frequencies: Dict[int, int],
        pins: Dict[int, int],
        threshold: int = 1,
    ) -> None:
        if threshold < 1:
            raise ConfigurationError(f"threshold must be >= 1, got {threshold}")
        self.clusters = clusters
        self.frequencies = frequencies
        self.pins = pins
        self.threshold = threshold
        self.replicas_created = 0

    def __repr__(self) -> str:
        return f"<MRTReplication threshold={self.threshold} created={self.replicas_created}>"

    # ------------------------------------------------------------------
    # Trigger
    # ------------------------------------------------------------------
    def should_replicate(self, object_id: int, still_waiting: int) -> bool:
        """MRT trigger: enough demand per existing copy?"""
        copies = max(1, self.clusters.copy_count(object_id))
        return still_waiting >= self.threshold * copies

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------
    def copy_value(self, object_id: int) -> float:
        """Value of one replica: frequency spread over its copies."""
        copies = max(1, self.clusters.copy_count(object_id))
        return self.frequencies.get(object_id, 0) / copies

    def cluster_value(self, cluster: Cluster) -> float:
        """Value of a cluster's content (max over its copies)."""
        if not cluster.resident:
            return -1.0  # empty clusters are the cheapest victims
        return max(self.copy_value(oid) for oid in cluster.resident)

    def _evictable(self, cluster: Cluster) -> bool:
        """A cluster is evictable when dropping its content never
        removes the last copy of a pinned object."""
        for object_id in cluster.resident:
            if (
                self.clusters.copy_count(object_id) <= 1
                and self.pins.get(object_id, 0) > 0
            ):
                return False
        return True

    def choose_victim(
        self, interval: int, protect_object: Optional[int] = None
    ) -> Optional[Cluster]:
        """The least-valuable idle, evictable cluster (None if none).

        ``protect_object``'s copies are never chosen as victims (no
        point replacing the object with itself).
        """
        best: Optional[Cluster] = None
        best_value = float("inf")
        for cluster in self.clusters.free_clusters(interval):
            if protect_object is not None and protect_object in cluster.resident:
                continue
            if not self._evictable(cluster):
                continue
            value = self.cluster_value(cluster)
            if value < best_value:
                best, best_value = cluster, value
        return best
