"""``repro.dlrm`` — numpy DLRM substrate.

Embedding tables (modulo hash / lookup / sum pool), jagged sparse batches,
dense MLPs, the dot interaction layer, the full reference model, and
synthetic workload generation matching the paper's experimental setup.
"""

from .batch import JaggedField, SparseBatch
from .data import (
    STRONG_SCALING_TOTAL,
    CountsOnlyError,
    InvalidLengthsError,
    LengthsBatch,
    SyntheticDataGenerator,
    WEAK_SCALING_BASE,
    WorkloadConfig,
)
from .embedding import (
    EmbeddingBagCollection,
    EmbeddingTable,
    EmbeddingTableConfig,
    segment_pool,
)
from .hashing import hash_indices
from .heterogeneous import (
    HeterogeneousDataGenerator,
    HeterogeneousWorkload,
    TableProfile,
    criteo_like,
)
from .interaction import dot_interaction, interaction_output_dim
from .mlp import MLP, Linear, relu, sigmoid
from .model import DLRM, DLRMConfig
from .training import DLRMTrainer, TrainStepResult, bce_grad, bce_loss, interaction_backward

__all__ = [
    "DLRM",
    "DLRMConfig",
    "DLRMTrainer",
    "TrainStepResult",
    "bce_grad",
    "bce_loss",
    "interaction_backward",
    "EmbeddingBagCollection",
    "EmbeddingTable",
    "EmbeddingTableConfig",
    "HeterogeneousDataGenerator",
    "HeterogeneousWorkload",
    "TableProfile",
    "criteo_like",
    "CountsOnlyError",
    "InvalidLengthsError",
    "JaggedField",
    "LengthsBatch",
    "Linear",
    "MLP",
    "STRONG_SCALING_TOTAL",
    "SparseBatch",
    "SyntheticDataGenerator",
    "WEAK_SCALING_BASE",
    "WorkloadConfig",
    "dot_interaction",
    "hash_indices",
    "interaction_output_dim",
    "relu",
    "segment_pool",
    "sigmoid",
]
