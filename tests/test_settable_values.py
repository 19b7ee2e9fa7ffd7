"""The settable values: every field of a ``*Spec`` or ``*Config`` dataclass.

A field is a knob someone can set.  The sorted ``Class.field`` list of
every such dataclass under ``src/`` is pinned here, so a new knob shows in
the diff and has to be argued for, the way a function no producer calls
shows in ``benchmarks/reach.txt``.  A field that every producer leaves at
one value belongs in a module constant instead.
"""

from __future__ import annotations

import dataclasses
import importlib
from pathlib import Path

import repro

ROOT = Path(repro.__file__).resolve().parent

SETTABLE = [
    "CacheConfig.capacity_fraction",
    "CacheConfig.capacity_rows",
    "CollectiveSpec.alltoall_algorithm",
    "CollectiveSpec.chunk_bytes",
    "CompressionSpec.codec",
    "CompressionSpec.error_bound",
    "DLRMConfig.bottom_mlp_sizes",
    "DLRMConfig.embedding_dim",
    "DLRMConfig.num_dense_features",
    "DLRMConfig.table_configs",
    "DLRMConfig.top_mlp_sizes",
    "DeviceSpec.clock_ghz",
    "DeviceSpec.compute_efficiency",
    "DeviceSpec.flops_per_ns",
    "DeviceSpec.kernel_launch_overhead_ns",
    "DeviceSpec.max_blocks_per_sm",
    "DeviceSpec.mem_bandwidth",
    "DeviceSpec.mem_bytes",
    "DeviceSpec.mem_efficiency",
    "DeviceSpec.min_kernel_ns",
    "DeviceSpec.name",
    "DeviceSpec.sm_count",
    "DeviceSpec.sync_overhead_ns",
    "EmbeddingTableConfig.dim",
    "EmbeddingTableConfig.dtype",
    "EmbeddingTableConfig.name",
    "EmbeddingTableConfig.num_rows",
    "FeatureSpec.cache",
    "FeatureSpec.compression",
    "FeatureSpec.hier",
    "FeatureSpec.obs",
    "FeatureSpec.replication",
    "FeatureSpec.reshard",
    "FeatureSpec.resilience",
    "HierSpec.devices_per_node",
    "KernelSpec.block_weights",
    "KernelSpec.bytes_read",
    "KernelSpec.bytes_written",
    "KernelSpec.flops",
    "KernelSpec.min_waves_for_peak",
    "KernelSpec.name",
    "KernelSpec.num_blocks",
    "KernelSpec.stretch_ns",
    "KernelSpec.tail_ns",
    "LinkSpec.bandwidth",
    "LinkSpec.latency_ns",
    "LinkSpec.per_message_ns",
    "PGASSpec.header_bytes",
    "PGASSpec.message_bytes",
    "PipelineConfig.bottom_mlp",
    "PipelineConfig.top_mlp",
    "PipelineConfig.workload",
    "ReplicationSpec.heartbeat_interval_ns",
    "ReplicationSpec.k",
    "ReshardSpec.check_interval_batches",
    "ReshardSpec.imbalance_threshold",
    "ReshardSpec.min_batches",
    "ReshardSpec.window_batches",
    "ResilienceSpec.deadline_ns",
    "ResilienceSpec.seed",
    "RunSpec.backend",
    "RunSpec.bottom_mlp",
    "RunSpec.cache",
    "RunSpec.compression",
    "RunSpec.hier",
    "RunSpec.n_devices",
    "RunSpec.name",
    "RunSpec.obs",
    "RunSpec.replication",
    "RunSpec.reshard",
    "RunSpec.resilience",
    "RunSpec.serving",
    "RunSpec.top_mlp",
    "RunSpec.workload",
    "SchedulerSpec.max_in_flight",
    "ServingSpec.arrival_qps",
    "ServingSpec.batch_window_ns",
    "ServingSpec.deadline_ns",
    "ServingSpec.hedge_after_ns",
    "ServingSpec.max_batch",
    "ServingSpec.queue_limit",
    "ServingSpec.scheduler",
    "ServingSpec.seed",
    "TraceSpec.enabled",
    "TraceSpec.trace_id",
    "WorkloadConfig.batch_size",
    "WorkloadConfig.dim",
    "WorkloadConfig.index_distribution",
    "WorkloadConfig.max_pooling",
    "WorkloadConfig.min_pooling",
    "WorkloadConfig.num_dense_features",
    "WorkloadConfig.num_tables",
    "WorkloadConfig.rows_per_table",
    "WorkloadConfig.seed",
    "WorkloadConfig.table_skew_alpha",
    "WorkloadConfig.zipf_alpha",
]


def _settable_fields():
    found = set()
    for path in sorted(ROOT.rglob("*.py")):
        if path.stem == "__main__":
            continue
        parts = path.relative_to(ROOT.parent).with_suffix("").parts
        module = importlib.import_module(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
        for name, obj in vars(module).items():
            if (
                isinstance(obj, type)
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
                and name.endswith(("Spec", "Config"))
            ):
                found.update(f"{name}.{f.name}" for f in dataclasses.fields(obj))
    return sorted(found)


def test_settable_values_are_pinned():
    assert _settable_fields() == SETTABLE
    assert len(SETTABLE) == 96
