"""Tests for the timed collective baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baseline import BaselineRetrieval, PhaseTiming
from repro.core.sharding import TableWiseSharding
from repro.core.workload import build_device_workloads
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.simgpu import dgx_v100
from repro.simgpu.kernel import kernel_time
from repro.simgpu.units import ms, us


def make_workloads(n_tables=8, G=2, B=512, dim=16, max_pool=8, seed=5):
    cfg = WorkloadConfig(
        num_tables=n_tables, rows_per_table=1000, dim=dim, batch_size=B,
        max_pooling=max_pool, seed=seed,
    )
    plan = TableWiseSharding(cfg.table_configs(), G)
    lengths = SyntheticDataGenerator(cfg).lengths_batch()
    return build_device_workloads(plan, lengths)


class TestPhaseTiming:
    def test_add_accumulates(self):
        a = PhaseTiming(compute_ns=10, comm_ns=5, sync_unpack_ns=2, total_ns=17, batches=1)
        b = PhaseTiming(compute_ns=20, comm_ns=1, sync_unpack_ns=3, total_ns=24, batches=1)
        a.add(b)
        assert a.compute_ns == 30 and a.total_ns == 41 and a.batches == 2

    def test_overhead_is_residual(self):
        t = PhaseTiming(compute_ns=10, comm_ns=5, sync_unpack_ns=2, total_ns=20)
        assert t.overhead_ns == 3

    def test_as_dict(self):
        d = PhaseTiming(total_ns=7, batches=1).as_dict()
        assert d["total_ns"] == 7 and d["batches"] == 1.0


class TestBaselineRetrieval:
    def test_phases_sum_to_total(self):
        cl = dgx_v100(2)
        t = BaselineRetrieval(cl).run_batch(make_workloads(G=2))
        assert t.total_ns == pytest.approx(
            t.compute_ns + t.comm_ns + t.sync_unpack_ns, rel=1e-6
        )

    def test_single_gpu_is_mostly_compute(self):
        cl = dgx_v100(1)
        t = BaselineRetrieval(cl).run_batch(
            make_workloads(n_tables=32, G=1, B=8192, dim=64, max_pool=32)
        )
        assert t.comm_ns == 0.0
        assert t.compute_ns > 0.9 * t.total_ns

    def test_compute_phase_matches_kernel_model(self):
        wls = make_workloads(G=2)
        cl = dgx_v100(2)
        t = BaselineRetrieval(cl).run_batch(wls)
        spec = cl.devices[0].spec
        slowest = max(kernel_time(wl.kernel_spec(), spec) for wl in wls)
        expected = spec.kernel_launch_overhead_ns + slowest + spec.sync_overhead_ns
        assert t.compute_ns == pytest.approx(expected, rel=1e-6)

    def test_multi_gpu_has_comm_and_unpack(self):
        cl = dgx_v100(2)
        t = BaselineRetrieval(cl).run_batch(make_workloads(G=2))
        assert t.comm_ns > 0
        assert t.sync_unpack_ns > 0

    def test_workload_count_validated(self):
        cl = dgx_v100(2)
        with pytest.raises(ValueError, match="workloads"):
            BaselineRetrieval(cl).run_batch(make_workloads(G=3))

    def test_workload_order_validated(self):
        cl = dgx_v100(2)
        wls = make_workloads(G=2)
        with pytest.raises(ValueError, match="device_id"):
            BaselineRetrieval(cl).run_batch(list(reversed(wls)))

    def test_bad_unpack_bandwidth(self):
        with pytest.raises(ValueError):
            BaselineRetrieval(dgx_v100(1), unpack_bandwidth=0.0)

    def test_repeated_batches_take_equal_time(self):
        wls = make_workloads(G=2)
        single = BaselineRetrieval(dgx_v100(2)).run_batch(wls)
        r = BaselineRetrieval(dgx_v100(2))
        times = [r.run_batch(wls).total_ns for _ in range(3)]
        assert times == pytest.approx([single.total_ns] * 3, rel=1e-6)

    def test_spans_recorded(self):
        cl = dgx_v100(2)
        BaselineRetrieval(cl).run_batch(make_workloads(G=2))
        prof = cl.profiler
        assert prof.spans_by_category("compute")
        assert prof.spans_by_category("comm")
        assert prof.spans_by_category("sync_unpack")

    def test_comm_phase_starts_after_compute(self):
        """Bulk-sync semantics: no comm byte moves before the kernels end."""
        cl = dgx_v100(2)
        BaselineRetrieval(cl).run_batch(make_workloads(G=2))
        prof = cl.profiler
        compute_end = max(s.t_end for s in prof.spans_by_category("compute"))
        counter = prof.counter("comm_bytes")
        assert counter.values_at([compute_end]).tolist() == [0.0]
        assert counter.total > 0

    def test_more_devices_shrink_comm_phase(self):
        """Weak-scaling expectation: comm time decreases with GPUs."""
        t2 = BaselineRetrieval(dgx_v100(2)).run_batch(
            make_workloads(n_tables=16, G=2, B=2048)
        )
        t4 = BaselineRetrieval(dgx_v100(4)).run_batch(
            make_workloads(n_tables=32, G=4, B=2048)
        )
        assert t4.comm_ns < t2.comm_ns

    def test_unpack_grows_with_received_bytes(self):
        small = BaselineRetrieval(dgx_v100(2)).run_batch(
            make_workloads(n_tables=8, G=2, B=512)
        )
        big = BaselineRetrieval(dgx_v100(2)).run_batch(
            make_workloads(n_tables=8, G=2, B=4096)
        )
        assert big.sync_unpack_ns > small.sync_unpack_ns
