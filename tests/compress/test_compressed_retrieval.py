"""CompressedRetrieval: passthrough identity, scaled wires, decode charges."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CompressionSpec,
    DistributedEmbedding,
    FeatureSpec,
    SyntheticDataGenerator,
    WorkloadConfig,
)
from repro.compress.retrieval import (
    DECODE_NS_COUNTER,
    ENCODE_NS_COUNTER,
    RAW_COUNTER,
    WIRE_COUNTER,
    CompressedRetrieval,
)
from repro.core.workload import alltoall_split_bytes, lengths_from_batch

CFG = WorkloadConfig(
    num_tables=8, rows_per_table=2000, dim=16, batch_size=512, max_pooling=8
)
WIDE = WorkloadConfig(
    num_tables=8, rows_per_table=2000, dim=64, batch_size=512, max_pooling=8
)


def build(cfg, backend, codec=None, materialize=False, n_devices=2):
    compression = CompressionSpec(codec=codec) if codec else None
    return DistributedEmbedding(
        cfg,
        n_devices,
        backend=backend,
        features=FeatureSpec(compression=compression),
        materialize=materialize,
        rng=np.random.default_rng(0),
    )


def span_tuples(cluster):
    return [
        (s.name, s.category, s.device_id, s.t_start, s.t_end)
        for s in cluster.profiler.spans
    ]


def counter_totals(cluster):
    return {n: c.total for n, c in cluster.profiler.counters.items()}


class TestFP32Passthrough:
    @pytest.mark.parametrize("base", ["pgas", "baseline"])
    def test_event_for_event_identical(self, base):
        """fp32 passthrough reproduces the bare backend's exact record."""
        batch = SyntheticDataGenerator(CFG).sparse_batch()
        lengths = lengths_from_batch(batch)

        ref = build(CFG, base)
        t_ref = ref.forward_timed(lengths)
        comp = build(CFG, f"{base}+compress", codec="fp32")
        t_comp = comp.forward_timed(lengths)

        assert t_comp.as_dict() == t_ref.as_dict()
        assert span_tuples(comp.cluster) == span_tuples(ref.cluster)
        assert counter_totals(comp.cluster) == counter_totals(ref.cluster)
        assert not any(n.startswith("compress.") for n in counter_totals(comp.cluster))

    @pytest.mark.parametrize("base", ["pgas", "baseline"])
    def test_functional_bit_identical(self, base):
        batch = SyntheticDataGenerator(CFG).sparse_batch()
        ref = build(CFG, base, materialize=True)
        comp = build(CFG, f"{base}+compress", codec="fp32", materialize=True)
        out_ref = ref.forward(batch).outputs
        out_comp = comp.forward(batch).outputs
        for a, b in zip(out_ref, out_comp):
            assert np.array_equal(a, b)


class TestScaledWires:
    def test_split_shrinks_by_row_wire_ratio(self):
        emb = build(CFG, "baseline+compress", codec="int8")
        adapter = emb.backend_adapter("baseline+compress")
        lengths = SyntheticDataGenerator(CFG).lengths_batch()
        workloads = emb.build_workloads(lengths)
        scaled = adapter._scaled_workloads(workloads)
        split = alltoall_split_bytes(workloads)
        split_scaled = alltoall_split_bytes(scaled)
        # d=16: (16 + 4) / 64 of the fp32 bytes stay on the wire
        off = split > 0
        assert np.allclose(split_scaled[off], split[off] * 20 / 64)

    def test_local_column_untouched(self):
        emb = build(CFG, "baseline+compress", codec="int8")
        adapter = emb.backend_adapter("baseline+compress")
        workloads = emb.build_workloads(SyntheticDataGenerator(CFG).lengths_batch())
        scaled = adapter._scaled_workloads(workloads)
        for wl, swl in zip(workloads, scaled):
            g = wl.device_id
            assert np.array_equal(
                swl.block_dst_bytes[:, g], wl.block_dst_bytes[:, g]
            )

    def test_pgas_message_bytes_is_row_wire(self):
        emb = build(CFG, "pgas+compress", codec="int8")
        adapter = emb.backend_adapter("pgas+compress")
        assert adapter.base.pgas.spec.message_bytes == 16 + 4

    def test_fused_encode_inflates_kernel_traffic(self):
        emb = build(CFG, "pgas+compress", codec="int8")
        adapter = emb.backend_adapter("pgas+compress")
        workloads = emb.build_workloads(SyntheticDataGenerator(CFG).lengths_batch())
        scaled = adapter._scaled_workloads(workloads)
        for wl, swl in zip(workloads, scaled):
            assert swl.bytes_read == wl.bytes_read + wl.remote_output_bytes
            assert swl.bytes_written > wl.bytes_written - wl.remote_output_bytes

    def test_wire_bytes_for(self):
        emb = build(WIDE, "pgas+compress", codec="int8")
        adapter = emb.backend_adapter("pgas+compress")
        workloads = emb.build_workloads(SyntheticDataGenerator(WIDE).lengths_batch())
        raw, wire = adapter.wire_bytes_for(workloads)
        assert raw == sum(wl.remote_output_bytes for wl in workloads)
        assert wire == pytest.approx(raw * 68 / 256)


class TestTimedPath:
    def test_decode_spans_only_when_lossy(self):
        lengths = SyntheticDataGenerator(CFG).lengths_batch()
        lossy = build(CFG, "pgas+compress", codec="int8")
        lossy.forward_timed(lengths)
        cats = {s.category for s in lossy.cluster.profiler.spans}
        assert "compress" in cats

        exact = build(CFG, "pgas+compress", codec="fp32")
        exact.forward_timed(lengths)
        assert "compress" not in {s.category for s in exact.cluster.profiler.spans}

    def test_counters_match_wire_accounting(self):
        emb = build(CFG, "baseline+compress", codec="int4")
        adapter = emb.backend_adapter("baseline+compress")
        workloads = emb.build_workloads(SyntheticDataGenerator(CFG).lengths_batch())
        raw, wire = adapter.wire_bytes_for(workloads)
        adapter.run_timed(workloads)
        counters = emb.cluster.profiler.counters
        assert counters[WIRE_COUNTER].total == pytest.approx(wire)
        assert counters[RAW_COUNTER].total == pytest.approx(raw)
        assert counters[ENCODE_NS_COUNTER].total > 0
        assert counters[DECODE_NS_COUNTER].total > 0

    def test_baseline_int8_shrinks_comm_time(self):
        lengths = SyntheticDataGenerator(WIDE).lengths_batch()
        ref = build(WIDE, "baseline")
        t_ref = ref.forward_timed(lengths)
        comp = build(WIDE, "baseline+compress", codec="int8")
        t_comp = comp.forward_timed(lengths)
        assert t_comp.comm_ns < t_ref.comm_ns

    def test_pgas_wire_counter_shrinks(self):
        lengths = SyntheticDataGenerator(WIDE).lengths_batch()
        ref = build(WIDE, "pgas")
        ref.forward_timed(lengths)
        comp = build(WIDE, "pgas+compress", codec="int8")
        comp.forward_timed(lengths)
        ref_bytes = ref.cluster.profiler.counter("pgas_bytes").total
        comp_bytes = comp.cluster.profiler.counter("pgas_bytes").total
        assert 0 < comp_bytes < ref_bytes

    def test_decode_extends_total(self):
        lengths = SyntheticDataGenerator(CFG).lengths_batch()
        comp = build(CFG, "pgas+compress", codec="int8")
        t = comp.forward_timed(lengths)
        assert t.sync_unpack_ns > 0
        assert t.total_ns == pytest.approx(
            comp.cluster.engine.now
        )


class TestFunctionalPath:
    def test_int8_outputs_close_and_local_exact(self):
        batch = SyntheticDataGenerator(CFG).sparse_batch()
        ref = build(CFG, "pgas", materialize=True)
        comp = build(CFG, "pgas+compress", codec="int8", materialize=True)
        out_ref = ref.forward(batch).outputs
        out_comp = comp.forward(batch).outputs
        adapter = comp.backend_adapter("pgas+compress")
        stats = adapter.last_batch_errors
        assert stats is not None and stats.n_elements > 0
        for g, (a, b) in enumerate(zip(out_ref, out_comp)):
            delta = np.abs(a.astype(np.float64) - b.astype(np.float64))
            assert delta.max() <= stats.max_abs_error
            local_cols = comp.plan.feature_indices_on(g)
            assert np.array_equal(a[:, local_cols, :], b[:, local_cols, :])

    def test_error_bound_guard_raises(self):
        batch = SyntheticDataGenerator(CFG).sparse_batch()
        emb = DistributedEmbedding(
            CFG,
            2,
            backend="pgas+compress",
            features=FeatureSpec(
                compression=CompressionSpec(codec="int4", error_bound=1e-12)
            ),
            materialize=True,
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ValueError, match="error bound"):
            emb.forward(batch)

    def test_errors_accumulate_across_batches(self):
        gen = SyntheticDataGenerator(CFG)
        emb = build(CFG, "baseline+compress", codec="int8", materialize=True)
        emb.forward(gen.sparse_batch())
        adapter = emb.backend_adapter("baseline+compress")
        first = adapter.errors.n_elements
        emb.forward(gen.sparse_batch())
        assert adapter.errors.n_elements == 2 * first
        assert adapter.errors.rmse > 0

    def test_functional_without_weights_raises(self):
        emb = build(CFG, "pgas+compress", codec="int8")
        adapter = emb.backend_adapter("pgas+compress")
        with pytest.raises(ValueError, match="materialize"):
            adapter.functional_forward(SyntheticDataGenerator(CFG).sparse_batch())


class TestConstruction:
    def test_unknown_base_raises(self):
        emb = build(CFG, "pgas")
        with pytest.raises(ValueError, match="base backend"):
            CompressedRetrieval(emb.cluster, emb.plan, base="nvshmem")

    def test_lossy_requires_uniform_float32_dim(self):
        from repro.dlrm.embedding import EmbeddingTableConfig

        tables = [
            EmbeddingTableConfig(name="a", num_rows=64, dim=8),
            EmbeddingTableConfig(name="b", num_rows=64, dim=16),
        ]
        with pytest.raises(ValueError, match="one dim"):
            DistributedEmbedding(
                tables,
                2,
                backend="pgas+compress",
                features=FeatureSpec(compression=CompressionSpec(codec="int8")),
            ).backend_adapter("pgas+compress")

    def test_fp32_accepts_mixed_dims(self):
        from repro.dlrm.embedding import EmbeddingTableConfig

        tables = [
            EmbeddingTableConfig(name="a", num_rows=64, dim=8),
            EmbeddingTableConfig(name="b", num_rows=64, dim=16),
        ]
        emb = DistributedEmbedding(tables, 2, backend="pgas+compress")
        assert emb.backend_adapter("pgas+compress").passthrough

    def test_backend_info_flags(self):
        from repro.core.factory import parse_backend_name
        from repro.core.retrieval import available_backends

        assert "pgas+compress" in available_backends()
        assert parse_backend_name("pgas+compress")[1] == ("compress",)
        assert "compress" not in parse_backend_name("pgas")[1]
