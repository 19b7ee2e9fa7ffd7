"""``repro.comm`` — communication substrates.

:mod:`repro.comm.collective` is the NCCL-like bulk-synchronous layer the
baseline uses; :mod:`repro.comm.pgas` is the NVSHMEM-like one-sided layer
the paper's fused retrieval uses; :mod:`repro.comm.hier` is the
topology-aware two-level routing layer the ``"+hier"`` backends lay over
either of them.
"""

from .collective import CollectiveContext, CollectiveSpec, WorkHandle
from .hier import (
    HierSpec,
    NodeStagingRouter,
    TwoLevelAllToAll,
    inter_node_message_count,
    inter_node_wire_bytes,
)
from .pgas import PGASContext, PGASSpec

__all__ = [
    "CollectiveContext",
    "CollectiveSpec",
    "HierSpec",
    "NodeStagingRouter",
    "PGASContext",
    "PGASSpec",
    "TwoLevelAllToAll",
    "WorkHandle",
    "inter_node_message_count",
    "inter_node_wire_bytes",
]
