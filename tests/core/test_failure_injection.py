"""Failure-injection tests: broken substrates must fail loudly, not wrongly.

A simulator that silently produces numbers on a mis-configured system is
worse than one that crashes; these tests check that the retrieval stack
surfaces substrate failures (no peer access, disconnected fabric, OOM,
exceptions in processes) instead of swallowing them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.pgas import PGASContext
from repro.core.backward import BaselineBackward, PGASFusedBackward
from repro.core.pgas_retrieval import PGASFusedRetrieval
from repro.core.baseline import BaselineRetrieval
from repro.core.sharding import RowWiseSharding, TableWiseSharding
from repro.core.workload import build_device_workloads, build_rowwise_workloads
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.simgpu import Cluster, KernelSpec, LinkSpec, Topology, dgx_v100, join
from repro.simgpu.engine import Engine, SimulationError
from repro.simgpu.memory import OutOfDeviceMemory


def make_workloads(G=2, **kw):
    defaults = dict(num_tables=8, rows_per_table=1000, dim=16, batch_size=256,
                    max_pooling=4, seed=1)
    defaults.update(kw)
    cfg = WorkloadConfig(**defaults)
    plan = TableWiseSharding(cfg.table_configs(), G)
    lengths = SyntheticDataGenerator(cfg).lengths_batch()
    return build_device_workloads(plan, lengths)


class TestBrokenFabric:
    def test_pgas_without_peer_access_raises(self):
        cl = dgx_v100(2)
        for dev in cl.devices:
            dev._peers.clear()
        retrieval = PGASFusedRetrieval(cl)
        with pytest.raises(PermissionError, match="peer access"):
            retrieval.run_batch(make_workloads(G=2))

    def test_disconnected_topology_raises(self):
        """A topology with no link between 0 and 1 cannot run a collective."""
        topo = Topology(2, lambda s, d: None, name="islands")
        cl = Cluster(2, topology=topo)
        retrieval = BaselineRetrieval(cl)
        with pytest.raises(ValueError, match="not connected"):
            retrieval.run_batch(make_workloads(G=2))

    def test_pgas_partial_connectivity(self):
        """One-directional fabric: 0→1 exists, 1→0 does not."""
        topo = Topology(
            2,
            lambda s, d: LinkSpec(bandwidth=48.0, latency_ns=700.0) if s == 0 else None,
            name="one-way",
        )
        cl = Cluster(2, topology=topo)
        ctx = PGASContext(cl)
        ctx.put(0, 1, 100.0)  # fine
        # The cluster never mapped 1→0 as peers, so the one-sided write is
        # refused at the peer-access check (before the fabric is consulted).
        with pytest.raises(PermissionError, match="peer access"):
            ctx.put(1, 0, 100.0)

    def test_pgas_forward_over_a_missing_link_is_a_peer_access_error(self):
        """The fused forward's drag model skips a pair with no link, and
        the first write over it fails the peer-access check."""
        topo = Topology(
            2,
            lambda s, d: LinkSpec(bandwidth=48.0, latency_ns=700.0) if s == 0 else None,
            name="one-way",
        )
        retrieval = PGASFusedRetrieval(Cluster(2, topology=topo))
        with pytest.raises(PermissionError, match="peer access"):
            retrieval.run_batch(make_workloads(G=2))


class TestMemoryPressure:
    def test_retrieval_construction_oom_is_loud(self):
        from repro.core.retrieval import DistributedEmbedding
        from repro.simgpu.device import DeviceSpec
        from repro.simgpu.interconnect import nvlink_dgx1
        from repro.simgpu.units import MiB

        tiny = Cluster(2, topology=nvlink_dgx1(2),
                       device_spec=DeviceSpec(mem_bytes=4 * MiB))
        cfg = WorkloadConfig(num_tables=8, rows_per_table=100_000, dim=16,
                             batch_size=64, max_pooling=2)
        with pytest.raises(OutOfDeviceMemory):
            DistributedEmbedding(cfg, 2, cluster=tiny)

    def test_oom_reports_device_and_sizes(self):
        from repro.simgpu.memory import MemoryPool

        pool = MemoryPool(capacity=64, device_id=7)
        with pytest.raises(OutOfDeviceMemory) as ei:
            pool.alloc((1000,), np.uint8)
        assert ei.value.device_id == 7
        assert "device 7" in str(ei.value)


def _delay(eng, delay):
    """An event that fires ``delay`` ns from now."""
    ev = eng.event()
    eng.call_in(delay, ev.succeed)
    return ev


class TestEngineFailures:
    def test_exception_in_host_process_leaves_cluster_run(self):
        cl = dgx_v100(1)

        def host(cluster):
            def fault():
                raise ValueError("host fault")

            cluster.then(5.0, fault)
            return cluster.engine.event()

        with pytest.raises(ValueError, match="host fault"):
            cl.run(host)
        # The run loop was released: the same engine runs again.
        assert cl.engine.now == 5.0
        assert cl.engine.run_until_event(_delay(cl.engine, 1.0)) is None
        assert cl.engine.now == 6.0

    def test_exception_in_child_process_leaves_cluster_run(self):
        cl = dgx_v100(1)
        eng = cl.engine

        def child():
            def fault():
                raise ValueError("child fault")

            cl.then(5.0, fault)
            return eng.event()

        def host(cluster):
            return join(eng, [child(), _delay(eng, 10.0)])

        with pytest.raises(ValueError, match="child fault"):
            cl.run(host)
        assert eng.now == 5.0
        assert eng.run_until_event(_delay(eng, 1.0)) is None
        assert eng.now == 6.0

    def test_exception_inside_on_wave_stops_the_run(self):
        cl = dgx_v100(1)
        dev = cl.device(0)

        def exploding(info):
            raise ValueError("kernel fault")

        kspec = KernelSpec("bad_kernel", num_blocks=1, bytes_read=1e6)
        op = dev.default_stream.launch(dev, kspec, exploding)
        after = dev.default_stream.submit_delay(1.0)

        with pytest.raises(ValueError, match="kernel fault"):
            cl.run(lambda cluster: join(cluster.engine, [op, after]))
        # ``after`` was booked behind the kernel at submit; the run stopped
        # at the kernel's only wave end, before either op ended.
        assert not op.completed and not after.completed
        assert after.started_at == op.finished_at

    def test_simulation_limit_catches_runaway(self):
        eng = Engine()

        def forever():
            eng.call_in(10.0, forever)

        forever()
        with pytest.raises(SimulationError, match="exceeded limit"):
            eng.run_until_event(eng.event(), limit=100.0)


class TestWorkloadValidation:
    def test_mixed_dims_on_one_device_rejected(self):
        from repro.dlrm.embedding import EmbeddingTableConfig

        cfgs = [
            EmbeddingTableConfig("a", 10, 8),
            EmbeddingTableConfig("b", 10, 16),
        ]
        plan = TableWiseSharding(cfgs, 1)
        lengths = {"a": np.ones(4, dtype=np.int64), "b": np.ones(4, dtype=np.int64)}
        with pytest.raises(ValueError, match="mixed embedding dims"):
            build_device_workloads(plan, lengths)
        # Row-wise puts every table on every device, at any device count.
        with pytest.raises(ValueError, match="mixed embedding dims"):
            build_rowwise_workloads(RowWiseSharding(cfgs, 2), lengths)

    def test_wrong_device_count_rejected_by_both_backends(self):
        wls = make_workloads(G=3)
        with pytest.raises(ValueError):
            BaselineRetrieval(dgx_v100(2)).run_batch(wls)
        with pytest.raises(ValueError):
            PGASFusedRetrieval(dgx_v100(2)).run_batch(wls)

    @pytest.mark.parametrize("engine_cls", [
        BaselineRetrieval, PGASFusedRetrieval, BaselineBackward, PGASFusedBackward,
    ])
    @pytest.mark.parametrize("mismatch", ["short", "reversed"])
    def test_every_timed_pass_rejects_mismatched_workloads(self, engine_cls, mismatch):
        wls = make_workloads(G=4)
        wls = wls[:2] if mismatch == "short" else wls[::-1]
        cl = dgx_v100(4)
        with pytest.raises(ValueError, match="workload"):
            engine_cls(cl).run_batch(wls)
        assert cl.engine.now == 0.0
