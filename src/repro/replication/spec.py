"""Replication policy: how many copies of each table shard live where.

A :class:`ReplicationSpec` extends a table-wise sharding plan with k-way
shard replication: every table keeps its primary owner from the plan plus
``k - 1`` replicas on distinct devices, chosen by a deterministic
*spread* placement: replicas stride through the non-primary devices
starting at a table-dependent offset, so the replica load of any one
primary is spread over the whole cluster (losing a device adds a roughly
even sliver of work everywhere).  The spec also carries the
failure-detector cadence (``heartbeat_interval_ns``); the miss threshold
and the re-replication stream's pacing are constants of
:mod:`repro.replication.retrieval`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..checks import check_finite_fields
from ..simgpu.units import us

__all__ = ["ReplicationSpec"]


@dataclass(frozen=True)
class ReplicationSpec:
    """Policy knobs of the high-availability layer.

    Attributes
    ----------
    k:
        Total copies of every shard (primary included).  ``k = 1`` keeps
        only the primary — the wrapper is then a pure passthrough with no
        monitor, no replica memory, and no failover capability.
    heartbeat_interval_ns:
        Failure-detector probe period.
    """

    k: int = 1
    heartbeat_interval_ns: float = 50 * us

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"replication factor k must be >= 1, got {self.k}")
        check_finite_fields(self, "heartbeat_interval_ns")
        if self.heartbeat_interval_ns <= 0:
            raise ValueError("heartbeat_interval_ns must be positive")

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
        # Stride through the G-1 non-primary devices starting at a
        # table-dependent offset; consecutive residues mod (G-1) are
        # distinct for k-1 <= G-1, so all holders are distinct.
        offsets = [(table_index + j) % (n_devices - 1) for j in range(self.k - 1)]
        return (owner,) + tuple((owner + 1 + off) % n_devices for off in offsets)
