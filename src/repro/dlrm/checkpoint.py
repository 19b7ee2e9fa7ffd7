"""Checkpointing: save/restore embedding tables and MLP weights.

A practical necessity for any trainable model holding gigabytes of
embedding state.  The format is a single ``.npz`` (numpy's zipped archive)
holding every table's weights, every MLP layer's weight/bias, and a small
JSON header with the architecture — enough to validate compatibility on
load rather than silently mis-restoring.

Optimizer state (row-wise Adagrad accumulators) rides along when an
optimizer is supplied, keyed per table, so training resumes bit-exactly.
"""

from __future__ import annotations

import json
import zipfile
from contextlib import contextmanager
from typing import Optional

import numpy as np

from .model import DLRM
from .optim import RowWiseAdagrad

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint"]

_FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """Incompatible or corrupt checkpoint."""


@contextmanager
def _wrap_corruption(path: str):
    """Translate the raw decode errors a damaged ``.npz`` produces into
    :class:`CheckpointError` (truncated archives surface as
    ``zipfile.BadZipFile``, ``EOFError``, ``OSError``, or numpy/json
    ``ValueError``\\ s depending on where the damage lands)."""
    try:
        yield
    except (CheckpointError, FileNotFoundError):
        raise
    except (zipfile.BadZipFile, EOFError, OSError, ValueError, KeyError) as exc:
        raise CheckpointError(
            f"{path}: corrupt or truncated checkpoint ({exc})"
        ) from exc


def _header(model: DLRM) -> dict:
    cfg = model.config
    return {
        "format_version": _FORMAT_VERSION,
        "num_dense_features": cfg.num_dense_features,
        "embedding_dim": cfg.embedding_dim,
        "interaction": cfg.interaction,
        "tables": [
            {"name": t.name, "num_rows": t.num_rows, "dim": t.dim}
            for t in cfg.table_configs
        ],
        "bottom_mlp": list(cfg.bottom_mlp_sizes),
        "top_mlp": list(cfg.top_mlp_sizes),
    }


def save_checkpoint(
    model: DLRM, path: str, optimizer: Optional[RowWiseAdagrad] = None
) -> None:
    """Write the model (and optional optimizer state) to ``path`` (.npz)."""
    arrays = {"__header__": np.frombuffer(
        json.dumps(_header(model)).encode(), dtype=np.uint8
    )}
    for table in model.embeddings.tables:
        arrays[f"emb/{table.name}"] = table.weights
        if optimizer is not None:
            arrays[f"opt/{table.name}"] = optimizer.accumulator(table)
    for prefix, mlp in (("bottom", model.bottom_mlp), ("top", model.top_mlp)):
        for i, layer in enumerate(mlp.layers):
            arrays[f"mlp/{prefix}/{i}/weight"] = layer.weight
            arrays[f"mlp/{prefix}/{i}/bias"] = layer.bias
    np.savez_compressed(path, **arrays)


def load_checkpoint(
    model: DLRM, path: str, optimizer: Optional[RowWiseAdagrad] = None
) -> None:
    """Restore weights (and optimizer state) into ``model`` in place.

    Raises :class:`CheckpointError` if the checkpoint's architecture does
    not match the model's, and for truncated or otherwise corrupt files
    (instead of leaking raw ``zipfile``/numpy decode errors).
    """
    # Open the file here: np.load leaks its own handle when a corrupt
    # archive fails to parse.
    with _wrap_corruption(path), open(path, "rb") as fh, np.load(fh) as data:
        if "__header__" not in data:
            raise CheckpointError(f"{path}: missing header — not a repro checkpoint")
        header = json.loads(bytes(data["__header__"]).decode())
        if header.get("format_version") != _FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: format version {header.get('format_version')} "
                f"!= supported {_FORMAT_VERSION}"
            )
        expect = _header(model)
        for key in ("num_dense_features", "embedding_dim", "tables",
                    "bottom_mlp", "top_mlp", "interaction"):
            if header.get(key) != expect[key]:
                raise CheckpointError(
                    f"{path}: architecture mismatch on {key!r}: "
                    f"checkpoint {header.get(key)} vs model {expect[key]}"
                )
        for table in model.embeddings.tables:
            table.weights[...] = data[f"emb/{table.name}"]
            opt_key = f"opt/{table.name}"
            if optimizer is not None and opt_key in data:
                optimizer.accumulator(table)[...] = data[opt_key]
        for prefix, mlp in (("bottom", model.bottom_mlp), ("top", model.top_mlp)):
            for i, layer in enumerate(mlp.layers):
                layer.weight[...] = data[f"mlp/{prefix}/{i}/weight"]
                layer.bias[...] = data[f"mlp/{prefix}/{i}/bias"]
