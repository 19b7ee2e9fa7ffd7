"""Topology-aware hierarchical communication: the ``"+hier"`` backends.

Flat routing sends every device→device payload point-to-point, so a
multi-node cluster of ``N`` nodes × ``P`` GPUs pays ``(N·P)²`` NIC message
streams where ``N²`` coalesced ones would do.  The two-level routing
layer of :mod:`repro.comm.hier` plugs into either base engine:

* ``baseline+hier`` — the all-to-all runs through
  :class:`~repro.comm.hier.TwoLevelAllToAll`: intra-node gather of
  per-destination-node payloads to a node leader over NVLink, one
  coalesced NIC transfer per ordered node pair, intra-node scatter and
  unpack on the far side;
* ``pgas+hier`` — off-node one-sided writes route through the
  :class:`~repro.comm.hier.NodeStagingRouter`: forwarded to the node
  leader, staged per destination node, and flushed across the NIC as one
  aggregated message stream per node pair.

Routing changes **timing only** — functional outputs stay bit-identical
to the flat backends, and an inactive
:class:`~repro.comm.hier.HierSpec` (``devices_per_node == 1`` or a
single node) leaves the flat path event-identical.

A ``"+hier"`` backend resolves to
:class:`~repro.core.retrieval.HierRetrieval`, the base adapter with a
:class:`~repro.comm.hier.HierSpec` attached, defined in
:mod:`repro.core.retrieval` itself, so

>>> from repro import DistributedEmbedding, FeatureSpec, HierSpec, WorkloadConfig
>>> cfg = WorkloadConfig(num_tables=8, rows_per_table=256, dim=8, batch_size=64)
>>> emb = DistributedEmbedding(cfg, n_devices=8, backend="pgas+hier",
...                            features=FeatureSpec(hier=HierSpec(devices_per_node=4)))
>>> type(emb.backend_adapter()).__name__
'HierRetrieval'

works exactly like the flat backends; with no cluster given, a matching
multi-node cluster is built from the spec's node geometry.  This package
re-exports the routing layer's public names.
"""

from __future__ import annotations

from ..comm.hier import (
    FWD_COUNTER,
    NIC_COUNTER,
    SCATTER_COUNTER,
    HierSpec,
    NodeStagingRouter,
    TwoLevelAllToAll,
    inter_node_message_count,
    inter_node_wire_bytes,
)

__all__ = [
    "FWD_COUNTER",
    "HierSpec",
    "NIC_COUNTER",
    "NodeStagingRouter",
    "SCATTER_COUNTER",
    "TwoLevelAllToAll",
    "inter_node_message_count",
    "inter_node_wire_bytes",
]
