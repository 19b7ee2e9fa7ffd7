"""Replication policy: how many copies of each table shard live where.

A :class:`ReplicationSpec` extends a table-wise sharding plan with k-way
shard replication: every table keeps its primary owner from the plan plus
``k - 1`` replicas on distinct devices, chosen by a deterministic
placement rule.  The spec also carries the failure-detector cadence
(heartbeat interval × miss threshold = detection latency) and the
bandwidth share the background re-replication stream may consume.

Placements
----------
``spread``
    Replicas stride through the non-primary devices starting at a
    table-dependent offset, so the replica load of any one primary is
    spread over the whole cluster (losing a device adds a roughly even
    sliver of work everywhere).
``ring``
    Replica *j* of every table lives on ``(primary + j) mod G`` — chained
    successors, the classic consistent-placement scheme.  Cheap to reason
    about, but a failed device's whole load lands on its successor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..checks import check_finite_fields
from ..simgpu.units import MiB, us

__all__ = ["PLACEMENTS", "ReplicationSpec"]

#: supported replica placement rules
PLACEMENTS = ("spread", "ring")


@dataclass(frozen=True)
class ReplicationSpec:
    """Policy knobs of the high-availability layer.

    Attributes
    ----------
    k:
        Total copies of every shard (primary included).  ``k = 1`` keeps
        only the primary — the wrapper is then a pure passthrough with no
        monitor, no replica memory, and no failover capability.
    placement:
        Replica placement rule, one of :data:`PLACEMENTS`.
    recovery_bandwidth_share:
        Fraction of link bandwidth the background re-replication stream
        may consume, in ``(0, 1]``.  Recovery chunks pace themselves so
        foreground retrieval traffic keeps the rest.
    heartbeat_interval_ns:
        Failure-detector probe period.
    miss_threshold:
        Consecutive missed heartbeats before a device is declared failed;
        detection latency is bounded by ``interval * miss_threshold``.
    recovery_chunk_bytes:
        Granularity of the re-replication transfers (pacing quantum).
    """

    k: int = 1
    placement: str = "spread"
    recovery_bandwidth_share: float = 0.25
    heartbeat_interval_ns: float = 50 * us
    miss_threshold: int = 2
    recovery_chunk_bytes: int = 4 * MiB

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"replication factor k must be >= 1, got {self.k}")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; one of {PLACEMENTS}"
            )
        if not (0.0 < self.recovery_bandwidth_share <= 1.0):
            raise ValueError(
                f"recovery_bandwidth_share must be in (0, 1], "
                f"got {self.recovery_bandwidth_share}"
            )
        check_finite_fields(self, "heartbeat_interval_ns")
        if self.heartbeat_interval_ns <= 0:
            raise ValueError("heartbeat_interval_ns must be positive")
        if self.miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        if self.recovery_chunk_bytes <= 0:
            raise ValueError("recovery_chunk_bytes must be positive")

    def replicas_for(self, owner: int, table_index: int, n_devices: int) -> Tuple[int, ...]:
        """Holder devices of one table: ``(primary, replica_1, ...)``.

        All ``k`` devices are distinct; raises when the cluster is too
        small to place ``k`` copies on distinct devices.
        """
        if not (0 <= owner < n_devices):
            raise ValueError(f"owner {owner} out of range for {n_devices} devices")
        if table_index < 0:
            raise ValueError(f"table_index must be >= 0, got {table_index}")
        if self.k > n_devices:
            raise ValueError(
                f"replication factor k={self.k} needs at least {self.k} devices, "
                f"cluster has {n_devices}"
            )
        if self.k == 1:
            return (owner,)
        if self.placement == "ring":
            return tuple((owner + j) % n_devices for j in range(self.k))
        # spread: stride through the G-1 non-primary devices starting at a
        # table-dependent offset; consecutive residues mod (G-1) are
        # distinct for k-1 <= G-1, so all holders are distinct.
        offsets = [(table_index + j) % (n_devices - 1) for j in range(self.k - 1)]
        return (owner,) + tuple((owner + 1 + off) % n_devices for off in offsets)
