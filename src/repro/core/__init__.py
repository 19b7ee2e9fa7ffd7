"""``repro.core`` — the paper's contribution.

Distributed EMB retrieval with two interchangeable communication backends
(NCCL-style collective baseline, PGAS fused one-sided), the sharding plans
beneath them, derived simulator workloads, and the §V extensions (backward
pass, row-wise sharding, message aggregator).
"""

from .aggregator import AggregatorSpec, AsyncAggregator
from .backward import (
    BaselineBackward,
    PGASFusedBackward,
    RowWiseBaselineBackward,
    RowWisePGASBackward,
    baseline_functional_backward,
    pgas_functional_backward,
    reference_backward,
    rowwise_functional_backward,
    table_row_gradients,
)
from .baseline import BaselineRetrieval, PhaseTiming
from .calibration import (
    EMB_MIN_WAVES_FOR_PEAK,
    EMB_SAMPLES_PER_BLOCK,
    NCCL_ALLTOALL_EFFICIENCY,
    REMOTE_WRITE_KERNEL_DRAG,
    UNPACK_BANDWIDTH,
)
from .factory import (
    CANONICAL_FEATURE_ORDER,
    FeatureSpec,
    build_adapter,
    build_backend,
    parse_backend_name,
)
from .functional import (
    SendBlock,
    ShardedEmbeddingTables,
    baseline_functional_forward,
    pgas_functional_forward,
    reference_forward,
    rowwise_baseline_functional_forward,
    rowwise_functional_forward_partials,
    rowwise_pgas_functional_forward,
)
from .pgas_retrieval import PGASFusedRetrieval
from .pipeline import DLRMInferencePipeline, PipelineConfig, PipelineTiming
from .planner import PlacementError, PlacementReport, min_devices_required, plan_table_wise
from .retrieval import (
    BackendInfo,
    BackendName,
    BackendSpec,
    DistributedEmbedding,
    ForwardResult,
    RetrievalBackend,
    available_backends,
    backend_spec,
    register_backend,
)
from .runspec import PRESETS, RunSpec, preset_runspec
from .serving import InferenceServer, SchedulerSpec, ServingResult, ServingSpec
from .sharding import (
    RowShard,
    RowWiseSharding,
    ShardingError,
    ShardingPlan,
    TableWiseSharding,
    minibatch_bounds,
    sample_owner,
)
from .train_pipeline import DLRMTrainingPipeline, TrainStepTiming
from .verify import VerificationError, VerificationReport, verify_backend_equivalence
from .workload import (
    DeviceWorkload,
    alltoall_split_bytes,
    build_device_workloads,
    build_rowwise_workloads,
    lengths_from_batch,
    unpack_bytes_received,
)

__all__ = [
    "AggregatorSpec",
    "AsyncAggregator",
    "BackendInfo",
    "BackendName",
    "BackendSpec",
    "CANONICAL_FEATURE_ORDER",
    "FeatureSpec",
    "build_adapter",
    "build_backend",
    "parse_backend_name",
    "BaselineBackward",
    "BaselineRetrieval",
    "PGASFusedBackward",
    "baseline_functional_backward",
    "pgas_functional_backward",
    "reference_backward",
    "table_row_gradients",
    "DeviceWorkload",
    "DistributedEmbedding",
    "EMB_MIN_WAVES_FOR_PEAK",
    "EMB_SAMPLES_PER_BLOCK",
    "ForwardResult",
    "NCCL_ALLTOALL_EFFICIENCY",
    "DLRMInferencePipeline",
    "PGASFusedRetrieval",
    "PhaseTiming",
    "PipelineConfig",
    "PipelineTiming",
    "PlacementError",
    "PlacementReport",
    "RowWiseBaselineBackward",
    "RowWisePGASBackward",
    "build_rowwise_workloads",
    "min_devices_required",
    "plan_table_wise",
    "rowwise_baseline_functional_forward",
    "rowwise_functional_backward",
    "rowwise_functional_forward_partials",
    "rowwise_pgas_functional_forward",
    "REMOTE_WRITE_KERNEL_DRAG",
    "RetrievalBackend",
    "RowShard",
    "RowWiseSharding",
    "InferenceServer",
    "PRESETS",
    "RunSpec",
    "SchedulerSpec",
    "available_backends",
    "backend_spec",
    "preset_runspec",
    "register_backend",
    "SendBlock",
    "ServingResult",
    "ServingSpec",
    "ShardedEmbeddingTables",
    "ShardingError",
    "ShardingPlan",
    "TableWiseSharding",
    "DLRMTrainingPipeline",
    "TrainStepTiming",
    "UNPACK_BANDWIDTH",
    "VerificationError",
    "VerificationReport",
    "verify_backend_equivalence",
    "alltoall_split_bytes",
    "baseline_functional_forward",
    "build_device_workloads",
    "lengths_from_batch",
    "minibatch_bounds",
    "pgas_functional_forward",
    "reference_forward",
    "sample_owner",
    "unpack_bytes_received",
]
