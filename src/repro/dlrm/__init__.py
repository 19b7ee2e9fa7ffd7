"""``repro.dlrm`` — numpy DLRM substrate.

Embedding tables (hash / lookup / pool), jagged sparse batches, dense MLPs,
the interaction layer, the full reference model, and synthetic workload
generation matching the paper's experimental setup.
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
    PoolingMode,
    segment_pool,
)
from .hashing import HashKind, hash_indices, mod_hash, multiply_shift_hash
from .heterogeneous import (
    HeterogeneousDataGenerator,
    HeterogeneousWorkload,
    TableProfile,
    criteo_like,
)
from .interaction import (
    InteractionMode,
    cat_interaction,
    dot_interaction,
    interact,
    interaction_output_dim,
    sum_interaction,
)
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
    "HashKind",
    "HeterogeneousDataGenerator",
    "HeterogeneousWorkload",
    "TableProfile",
    "criteo_like",
    "InteractionMode",
    "CountsOnlyError",
    "InvalidLengthsError",
    "JaggedField",
    "LengthsBatch",
    "Linear",
    "MLP",
    "PoolingMode",
    "STRONG_SCALING_TOTAL",
    "SparseBatch",
    "SyntheticDataGenerator",
    "WEAK_SCALING_BASE",
    "WorkloadConfig",
    "cat_interaction",
    "dot_interaction",
    "hash_indices",
    "interact",
    "interaction_output_dim",
    "mod_hash",
    "multiply_shift_hash",
    "relu",
    "segment_pool",
    "sigmoid",
    "sum_interaction",
]
