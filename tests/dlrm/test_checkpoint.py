"""Tests for model checkpointing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dlrm import DLRM, DLRMConfig, DLRMTrainer, SyntheticDataGenerator, WorkloadConfig
from repro.dlrm.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from repro.dlrm.optim import RowWiseAdagrad


def make_model(F=3, d=8, dense=4, seed=0, interaction="dot"):
    wl = WorkloadConfig(num_tables=F, rows_per_table=30, dim=d, batch_size=8,
                        max_pooling=3, num_dense_features=dense, seed=seed)
    cfg = DLRMConfig(
        num_dense_features=dense, embedding_dim=d, table_configs=wl.table_configs(),
        bottom_mlp_sizes=(8,), top_mlp_sizes=(8,), interaction=interaction,
    )
    return DLRM(cfg, rng=np.random.default_rng(seed)), wl


class TestRoundTrip:
    def test_weights_restored_exactly(self, tmp_path):
        model, _ = make_model(seed=1)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(model, path)
        other, _ = make_model(seed=2)  # different weights
        load_checkpoint(other, path)
        for a, b in zip(model.embeddings.tables, other.embeddings.tables):
            assert np.array_equal(a.weights, b.weights)
        for la, lb in zip(model.bottom_mlp.layers, other.bottom_mlp.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_predictions_identical_after_restore(self, tmp_path):
        model, wl = make_model(seed=3)
        gen = SyntheticDataGenerator(wl)
        dense, sparse = next(gen.batches(1))
        preds = model.forward(dense, sparse)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(model, path)
        other, _ = make_model(seed=9)
        load_checkpoint(other, path)
        assert np.array_equal(other.forward(dense, sparse), preds)

    def test_optimizer_state_roundtrip(self, tmp_path):
        model, wl = make_model(seed=4)
        opt = RowWiseAdagrad(lr=0.2)
        trainer = DLRMTrainer(model, lr=0.2, embedding_optimizer=opt)
        gen = SyntheticDataGenerator(wl)
        dense, sparse = next(gen.batches(1))
        trainer.train_step(dense, sparse, np.ones(8, dtype=np.float32))
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(model, path, optimizer=opt)

        other, _ = make_model(seed=5)
        opt2 = RowWiseAdagrad(lr=0.2)
        load_checkpoint(other, path, optimizer=opt2)
        for a, b in zip(model.embeddings.tables, other.embeddings.tables):
            assert np.array_equal(opt.accumulator(a), opt2.accumulator(b))

    def test_training_resumes_identically(self, tmp_path):
        """Train 2 steps == train 1, checkpoint, restore, train 1."""
        gen_cfg = make_model(seed=6)[1]
        gen = SyntheticDataGenerator(gen_cfg)
        dense, sparse = next(gen.batches(1))
        labels = np.ones(8, dtype=np.float32)

        straight, _ = make_model(seed=6)
        t1 = DLRMTrainer(straight, lr=0.3)
        t1.train_step(dense, sparse, labels)
        t1.train_step(dense, sparse, labels)

        half, _ = make_model(seed=6)
        t2 = DLRMTrainer(half, lr=0.3)
        t2.train_step(dense, sparse, labels)
        path = str(tmp_path / "mid.npz")
        save_checkpoint(half, path)
        resumed, _ = make_model(seed=99)
        load_checkpoint(resumed, path)
        DLRMTrainer(resumed, lr=0.3).train_step(dense, sparse, labels)

        for a, b in zip(straight.embeddings.tables, resumed.embeddings.tables):
            assert np.allclose(a.weights, b.weights, atol=1e-6)


class TestValidation:
    def test_architecture_mismatch_rejected(self, tmp_path):
        model, _ = make_model(F=3)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(model, path)
        wrong, _ = make_model(F=4)
        with pytest.raises(CheckpointError, match="mismatch"):
            load_checkpoint(wrong, path)

    def test_dim_mismatch_rejected(self, tmp_path):
        model, _ = make_model(d=8)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(model, path)
        wrong, _ = make_model(d=16)
        with pytest.raises(CheckpointError):
            load_checkpoint(wrong, path)

    def test_interaction_mismatch_rejected(self, tmp_path):
        model, _ = make_model(interaction="dot")
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(model, path)
        wrong, _ = make_model(interaction="cat")
        with pytest.raises(CheckpointError):
            load_checkpoint(wrong, path)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, stuff=np.arange(3))
        model, _ = make_model()
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(model, path)


class TestCorruption:
    def test_truncated_file_raises_checkpoint_error(self, tmp_path):
        model, _ = make_model(seed=7)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(model, path)
        with open(path, "rb") as f:
            blob = f.read()
        with open(path, "wb") as f:
            f.write(blob[: len(blob) // 2])
        other, _ = make_model(seed=8)
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            load_checkpoint(other, path)

    def test_garbage_bytes_raise_checkpoint_error(self, tmp_path):
        path = str(tmp_path / "garbage.npz")
        with open(path, "wb") as f:
            f.write(b"this is not a zip archive at all")
        model, _ = make_model()
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            load_checkpoint(model, path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        model, _ = make_model()
        with pytest.raises(FileNotFoundError):
            load_checkpoint(model, str(tmp_path / "absent.npz"))
