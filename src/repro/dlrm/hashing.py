"""Index hashing for embedding tables.

Sparse-feature cardinalities can be in the billions; a hash function
``H: raw index -> {0, ..., M-1}`` folds them onto the table's ``M`` rows
(paper §II-A).  Collisions are expected and harmless for systems purposes —
two raw indices landing on the same row simply share an embedding vector.

The hash is plain modulo, what the reference DLRM benchmark does and the
natural choice when the generator already produces indices in range.  It is
vectorised over numpy int64 arrays and pure.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hash_indices"]


def hash_indices(indices: np.ndarray, num_rows: int) -> np.ndarray:
    """``index mod M``, mapped to non-negative row ids."""
    if num_rows <= 0:
        raise ValueError(f"num_rows must be positive, got {num_rows}")
    idx = np.asarray(indices, dtype=np.int64)
    return np.mod(idx, num_rows)
