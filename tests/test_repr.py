"""Every ``__repr__`` in ``src/`` runs.

The debug ``__repr__``\\ s are marked ``pragma: no cover`` and no producer
calls them, so an attribute one of them reads can be deleted without a
test noticing.  Each case builds one instance of a class that defines
``__repr__`` and calls ``repr()`` on it; a new ``__repr__`` without a
case fails :func:`test_every_repr_has_a_case`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.comm.hier import HierSpec, NodeStagingRouter
from repro.comm.pgas import PGASContext
from repro.compress import CompressionSpec
from repro.core.aggregator import AsyncAggregator
from repro.core.factory import FeatureSpec
from repro.core.retrieval import DistributedEmbedding
from repro.core.sharding import RowWiseSharding, TableWiseSharding
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.dlrm.embedding import EmbeddingBagCollection, EmbeddingTable
from repro.dlrm.mlp import MLP, Linear
from repro.dlrm.model import DLRM, DLRMConfig
from repro.faults import FaultInjector, FaultPlan
from repro.reshard import LoadTracker, ReshardSpec
from repro.simgpu import dgx_v100, multinode
from repro.simgpu.stream import StreamPool

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

CFG = WorkloadConfig(num_tables=4, rows_per_table=64, dim=8, batch_size=8, max_pooling=3)


def _emb(backend, **features):
    return DistributedEmbedding(CFG, 2, backend=backend, features=FeatureSpec(**features))


def _device():
    return dgx_v100(2).device(0)


CASES = {
    "AsyncAggregator": lambda: AsyncAggregator(PGASContext(dgx_v100(2))),
    "BaseRetrieval": lambda: _emb("pgas").backend_adapter(),
    "Buffer": lambda: _device().memory.alloc((4,), np.float32, materialize=True),
    "Cluster": lambda: dgx_v100(2),
    "Codec": lambda: CompressionSpec(codec="int8").codec_obj(),
    "Counter": lambda: dgx_v100(2).profiler.counter("x"),
    "DLRM": lambda: DLRM(DLRMConfig(4, 8, CFG.table_configs(), (8,), (8,))),
    "Device": _device,
    "DistributedEmbedding": lambda: _emb("pgas"),
    "EmbeddingBagCollection": lambda: EmbeddingBagCollection.from_configs(CFG.table_configs()),
    "EmbeddingTable": lambda: EmbeddingTable(CFG.table_configs()[0]),
    "Engine": lambda: dgx_v100(2).engine,
    "Event": lambda: dgx_v100(2).engine.event("x"),
    "FaultInjector": lambda: FaultInjector(dgx_v100(2), FaultPlan(())),
    "HotRowCache": lambda: _emb(
        "pgas+cache", cache=CacheConfig(capacity_fraction=0.5)
    ).backend_adapter().caches[0],
    "JaggedField": lambda: SyntheticDataGenerator(CFG).sparse_batch().field("sparse_0"),
    "Linear": lambda: Linear(4, 2),
    "Link": lambda: dgx_v100(2).interconnect.link(0, 1),
    "LoadTracker": lambda: LoadTracker(4),
    "MLP": lambda: MLP((4, 2)),
    "MemoryPool": lambda: _device().memory,
    "NodeStagingRouter": lambda: NodeStagingRouter(
        PGASContext(multinode(2, 2)), HierSpec(devices_per_node=2)
    ),
    "ReshardExecutor": lambda: _emb("pgas+reshard", reshard=ReshardSpec()).backend_adapter().executor,
    "RowWiseSharding": lambda: RowWiseSharding(CFG.table_configs(), 2),
    "SparseBatch": lambda: SyntheticDataGenerator(CFG).sparse_batch(),
    "Stream": lambda: _device().stream("default"),
    "StreamLease": lambda: StreamPool(2).acquire(),
    "StreamOp": lambda: _device().stream("default").submit_delay(1.0),
    "StreamPool": lambda: StreamPool(2),
    "SyntheticDataGenerator": lambda: SyntheticDataGenerator(CFG),
    "TableWiseSharding": lambda: TableWiseSharding(CFG.table_configs(), 2),
}


def _classes_with_repr():
    """Names of the classes under ``src/`` whose body defines ``__repr__``."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "__repr__"
                for item in node.body
            ):
                names.add(node.name)
    return names


def test_every_repr_has_a_case():
    assert _classes_with_repr() == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_runs(name):
    obj = CASES[name]()
    assert name in {cls.__name__ for cls in type(obj).__mro__}
    text = repr(obj)
    assert isinstance(text, str) and text
