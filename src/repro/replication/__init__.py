"""High-availability layer: shard replication, failover, online recovery.

The PGAS fused-retrieval path (and the collective baseline) assume every
owner GPU stays reachable; the fault layer's transient windows are
survivable by retrying, but a permanent ``device_down`` failure takes a
device's table shards with it.  This package adds the production answer —
k-way shard replication with failover routing and bandwidth-charged
re-replication:

* :mod:`repro.replication.spec` — the frozen :class:`ReplicationSpec`
  (replication factor, failure-detector cadence) and its deterministic
  per-table spread placement;
* :mod:`repro.replication.retrieval` — :class:`ReplicatedRetrieval`,
  which fronts either base backend: a heartbeat monitor on the engine
  clock detects ``device_down`` failures, lookup blocks of a dead
  primary re-home to the nearest live replica on both comm paths, and a
  background copy stream re-replicates the lost shards over the real
  interconnect, stamping ``availability.*`` counters and per-link
  recovery bytes into traces.

Importing this package defines :class:`ReplicatedRetrieval`, the class
the ``"pgas+replicated"`` and ``"baseline+replicated"`` backends resolve to, so

>>> from repro import DistributedEmbedding, FeatureSpec, ReplicationSpec, WorkloadConfig
>>> cfg = WorkloadConfig(num_tables=8, rows_per_table=256, dim=8, batch_size=64)
>>> emb = DistributedEmbedding(cfg, n_devices=4, backend="pgas+replicated",
...                            features=FeatureSpec(replication=ReplicationSpec(k=2)))
>>> type(emb.backend_adapter()).__name__
'ReplicatedRetrieval'

works exactly like the unreplicated backends (``repro`` imports it for
you).
"""

from __future__ import annotations

from .retrieval import (
    BATCH_LOOKUPS_COUNTER,
    DETECTION_COUNTER,
    FAILOVER_COUNTER,
    FAILURES_COUNTER,
    RECOVERY_COUNTER,
    REPROTECT_COUNTER,
    AvailabilityLedger,
    ReplicatedRetrieval,
)
from .spec import ReplicationSpec

__all__ = [
    "AvailabilityLedger",
    "BATCH_LOOKUPS_COUNTER",
    "DETECTION_COUNTER",
    "FAILOVER_COUNTER",
    "FAILURES_COUNTER",
    "RECOVERY_COUNTER",
    "REPROTECT_COUNTER",
    "ReplicatedRetrieval",
    "ReplicationSpec",
]
