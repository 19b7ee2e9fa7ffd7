"""Tests for the timed PGAS fused retrieval."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.pgas import PGASContext, PGASSpec
from repro.core import aggregator
from repro.core.baseline import BaselineRetrieval
from repro.core.pgas_retrieval import PGASFusedRetrieval
from repro.core.sharding import TableWiseSharding
from repro.core.workload import build_device_workloads
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.simgpu import dgx_v100, multinode
from repro.simgpu.kernel import kernel_time
from repro.simgpu.units import KiB, us


def make_workloads(n_tables=8, G=2, B=512, dim=16, max_pool=8, seed=5):
    cfg = WorkloadConfig(
        num_tables=n_tables, rows_per_table=1000, dim=dim, batch_size=B,
        max_pooling=max_pool, seed=seed,
    )
    plan = TableWiseSharding(cfg.table_configs(), G)
    lengths = SyntheticDataGenerator(cfg).lengths_batch()
    return build_device_workloads(plan, lengths)


class TestFusedTiming:
    def test_single_phase_accounting(self):
        cl = dgx_v100(2)
        t = PGASFusedRetrieval(cl).run_batch(make_workloads(G=2))
        assert t.comm_ns == 0.0
        assert t.sync_unpack_ns == 0.0
        assert t.compute_ns == t.total_ns

    def test_faster_than_baseline_multi_gpu(self):
        wls = make_workloads(n_tables=16, G=2, B=4096)
        t_base = BaselineRetrieval(dgx_v100(2)).run_batch(wls)
        t_pgas = PGASFusedRetrieval(dgx_v100(2)).run_batch(wls)
        assert t_pgas.total_ns < t_base.total_ns

    def test_single_gpu_no_communication(self):
        cl = dgx_v100(1)
        retr = PGASFusedRetrieval(cl)
        t = retr.run_batch(make_workloads(G=1))
        assert cl.profiler.counters.get(PGASContext.COUNTER) is None

    def test_all_remote_bytes_leave_the_wire(self):
        cl = dgx_v100(3)
        wls = make_workloads(n_tables=9, G=3)
        PGASFusedRetrieval(cl).run_batch(wls)
        total_remote = sum(wl.remote_output_bytes for wl in wls)
        counted = cl.profiler.counter(PGASContext.COUNTER).total
        assert counted == pytest.approx(total_remote)

    def test_puts_spread_over_kernel(self):
        """Messages leave during the kernel, not at its end (Fig. 7).

        Needs a wave-rich launch (64 tables × 16384 samples ⇒ ~13 waves per
        device) so deliveries dot the whole kernel.
        """
        cl = dgx_v100(2)
        wls = make_workloads(n_tables=64, G=2, B=16384)
        t = PGASFusedRetrieval(cl).run_batch(wls)
        counter = cl.profiler.counter(PGASContext.COUNTER)
        # Volume delivered by mid-run should be substantial.
        (mid,) = counter.values_at([t.total_ns * 0.6])
        assert 0.2 * counter.total < mid < counter.total

    def test_drag_increases_kernel_time(self):
        wls = make_workloads(G=2, B=8192, n_tables=16)
        t_no = PGASFusedRetrieval(dgx_v100(2), remote_write_drag=0.0).run_batch(wls)
        t_drag = PGASFusedRetrieval(dgx_v100(2), remote_write_drag=2.0).run_batch(wls)
        assert t_drag.total_ns > t_no.total_ns

    def test_negative_drag_rejected(self):
        with pytest.raises(ValueError):
            PGASFusedRetrieval(dgx_v100(1), remote_write_drag=-0.1)

    def test_workload_validation(self):
        retr = PGASFusedRetrieval(dgx_v100(2))
        with pytest.raises(ValueError):
            retr.run_batch(make_workloads(G=3))
        wls = make_workloads(G=2)
        with pytest.raises(ValueError):
            retr.run_batch(list(reversed(wls)))

    def test_fused_span_recorded(self):
        cl = dgx_v100(2)
        PGASFusedRetrieval(cl).run_batch(make_workloads(G=2))
        assert cl.profiler.spans_by_category("fused")

    def test_repeated_batches_take_equal_time(self):
        wls = make_workloads(G=2)
        single = PGASFusedRetrieval(dgx_v100(2)).run_batch(wls)
        r = PGASFusedRetrieval(dgx_v100(2))
        times = [r.run_batch(wls).total_ns for _ in range(3)]
        assert times == pytest.approx([single.total_ns] * 3, rel=1e-6)


class TestOverlap:
    def test_comm_hidden_when_compute_dominates(self):
        """The headline mechanism: PGAS total ≈ compute-only kernel time."""
        cl = dgx_v100(2)
        wls = make_workloads(n_tables=32, G=2, B=8192, max_pool=64)
        t = PGASFusedRetrieval(cl, remote_write_drag=0.0).run_batch(wls)
        spec = cl.devices[0].spec
        pure = max(kernel_time(wl.kernel_spec(), spec) for wl in wls)
        overhead = t.total_ns - pure
        # exposed cost: launch + quiet + sync + last-wave drain — small.
        assert overhead < 0.15 * pure

    def test_exposed_drain_on_slow_fabric(self):
        """On a NIC-class fabric the same messages cannot hide."""
        wls = make_workloads(n_tables=16, G=2, B=8192, max_pool=4)
        t_nvlink = PGASFusedRetrieval(dgx_v100(2)).run_batch(wls)
        t_nic = PGASFusedRetrieval(multinode(2, devices_per_node=1)).run_batch(wls)
        assert t_nic.total_ns > t_nvlink.total_ns


class TestAggregatorVariant:
    def test_aggregator_reduces_flush_count(self, monkeypatch):
        # ~13 waves/device, each storing ~2.6 MB per destination; a 6 MiB
        # threshold batches several stores into one flush.
        monkeypatch.setattr(aggregator, "FLUSH_BYTES", 6 * 1024 * KiB)
        monkeypatch.setattr(aggregator, "MAX_WAIT_NS", 1e9)
        wls = make_workloads(n_tables=64, G=2, B=16384)
        retr = PGASFusedRetrieval(dgx_v100(2), aggregate=True)
        retr.run_batch(wls)
        assert retr.aggregator is not None
        assert 0 < retr.aggregator.flushes < retr.aggregator.stores

    def test_aggregated_bytes_all_delivered(self):
        cl = dgx_v100(2)
        wls = make_workloads(n_tables=8, G=2)
        retr = PGASFusedRetrieval(cl, aggregate=True)
        retr.run_batch(wls)
        total_remote = sum(wl.remote_output_bytes for wl in wls)
        assert cl.profiler.counter(PGASContext.COUNTER).total == pytest.approx(total_remote)

    def test_aggregator_helps_on_nic_fabric(self):
        """The §V claim: aggregation wins when links are slow/laty."""
        wls = make_workloads(n_tables=16, G=2, B=8192, max_pool=2)
        spec_small = PGASSpec(message_bytes=256, header_bytes=128)
        cl_small = multinode(2, devices_per_node=1)
        t_small = PGASFusedRetrieval(cl_small, pgas_spec=spec_small).run_batch(wls)
        cl_agg = multinode(2, devices_per_node=1)
        t_agg = PGASFusedRetrieval(
            cl_agg, pgas_spec=spec_small,
            aggregate=True,
        ).run_batch(wls)
        assert t_agg.total_ns < t_small.total_ns
