"""Tests for the NCCL-style collective layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import collective
from repro.comm.collective import CollectiveContext, CollectiveSpec
from repro.simgpu import dgx_v100
from repro.simgpu.interconnect import Interconnect
from repro.simgpu.units import MiB, us


def run_collective(cluster, start_fn):
    """Drive a collective to completion inside a host program."""
    cluster.run(lambda cl: start_fn().wait())


def fast_spec(**kw):
    """A spec for pure-transfer arithmetic (with the ``fast`` fixture)."""
    return CollectiveSpec(**{"chunk_bytes": 4 * MiB, **kw})


class TestSpec:
    def test_defaults_validated(self):
        with pytest.raises(ValueError):
            CollectiveSpec(chunk_bytes=0)

    def test_default_efficiency_is_calibrated(self):
        from repro.core.calibration import NCCL_ALLTOALL_EFFICIENCY

        assert collective.NCCL_ALLTOALL_EFFICIENCY == NCCL_ALLTOALL_EFFICIENCY == 0.1875


@pytest.mark.usefixtures("fast")
class TestAllToAll:
    def test_split_shape_validated(self):
        cl = dgx_v100(2)
        ctx = CollectiveContext(cl)
        with pytest.raises(ValueError, match="split_bytes"):
            ctx.all_to_all_single(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="non-negative"):
            ctx.all_to_all_single(np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_transfer_time_matches_alpha_beta(self):
        cl = dgx_v100(2)
        ctx = CollectiveContext(cl, fast_spec())
        bw = cl.topology.link_spec(0, 1).bandwidth
        lat = cl.topology.link_spec(0, 1).latency_ns
        nbytes = 2 * MiB  # single chunk
        split = np.array([[0.0, nbytes], [0.0, 0.0]])
        run_collective(cl, lambda: ctx.all_to_all_single(split))
        assert cl.engine.now == pytest.approx(nbytes / bw + lat)

    def test_launch_and_wait_overheads_charged(self, fast):
        fast("LAUNCH_OVERHEAD_NS", 30 * us)
        fast("WAIT_OVERHEAD_NS", 8 * us)
        cl = dgx_v100(2)
        ctx = CollectiveContext(cl, fast_spec())
        run_collective(cl, lambda: ctx.all_to_all_single(np.zeros((2, 2))))
        assert cl.engine.now == pytest.approx(38 * us)

    def test_diagonal_is_free(self):
        cl = dgx_v100(2)
        ctx = CollectiveContext(cl, fast_spec())
        split = np.array([[1e9, 0.0], [0.0, 1e9]])  # only local shares
        run_collective(cl, lambda: ctx.all_to_all_single(split))
        assert cl.profiler.counter(Interconnect.COUNTER).total == 0.0

    def test_counter_gets_all_offdiagonal_bytes(self):
        cl = dgx_v100(3)
        ctx = CollectiveContext(cl, fast_spec())
        split = np.arange(9, dtype=np.float64).reshape(3, 3) * 1000
        run_collective(cl, lambda: ctx.all_to_all_single(split))
        expected = split.sum() - np.trace(split)
        assert cl.profiler.counter(Interconnect.COUNTER).total == pytest.approx(expected)

    def test_efficiency_derate_slows_transfer(self, fast):
        nbytes = 4 * MiB
        split = np.array([[0.0, float(nbytes)], [0.0, 0.0]])

        cl_fast = dgx_v100(2)
        run_collective(
            cl_fast, lambda: CollectiveContext(cl_fast, fast_spec()).all_to_all_single(split)
        )
        fast("NCCL_ALLTOALL_EFFICIENCY", 0.25)
        cl_slow = dgx_v100(2)
        run_collective(
            cl_slow, lambda: CollectiveContext(cl_slow, fast_spec()).all_to_all_single(split)
        )
        # 4x less efficient → ~4x the wire time (latency charged once each)
        lat = cl_fast.topology.link_spec(0, 1).latency_ns
        assert (cl_slow.engine.now - lat) == pytest.approx(4 * (cl_fast.engine.now - lat), rel=0.01)

    def test_chunking_produces_progressive_delivery(self):
        cl = dgx_v100(2)
        ctx = CollectiveContext(cl, fast_spec(chunk_bytes=1 * MiB))
        split = np.array([[0.0, float(4 * MiB)], [0.0, 0.0]])
        run_collective(cl, lambda: ctx.all_to_all_single(split))
        counter = cl.profiler.counter(Interconnect.COUNTER)
        # 4 chunks → 4 distinct delivery stamps
        events = counter.events()
        assert len(events) == 4
        times = [t for t, _ in events]
        assert times[0] < times[-1]

    def test_handle_completion_flags(self):
        cl = dgx_v100(2)
        ctx = CollectiveContext(cl, fast_spec())
        split = np.array([[0.0, 1000.0], [1000.0, 0.0]])

        handle = ctx.all_to_all_single(split)
        assert handle.completed_at is None
        cl.run(lambda cluster: handle.wait())
        assert handle.completed_at is not None
        assert handle.completed_at >= handle.issued_at


@pytest.mark.usefixtures("fast")
class TestOtherCollectives:
    def test_all_reduce_ring_volume(self):
        G = 4
        cl = dgx_v100(G)
        ctx = CollectiveContext(cl, fast_spec())
        total = 1000.0 * G  # divisible
        run_collective(cl, lambda: ctx.all_reduce(total))
        # ring: 2 * (G-1) * total/G per rank, G ranks
        expected = 2 * (G - 1) * (total / G) * G
        assert cl.profiler.counter(Interconnect.COUNTER).total == pytest.approx(expected)

    def test_negative_volume_rejected(self):
        ctx = CollectiveContext(dgx_v100(2), fast_spec())
        with pytest.raises(ValueError):
            ctx.all_reduce(-1.0)


@pytest.mark.usefixtures("fast")
class TestAlltoallAlgorithms:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="alltoall_algorithm"):
            CollectiveSpec(alltoall_algorithm="bruck")

    def test_pairwise_moves_same_bytes(self):
        split = np.full((4, 4), 3 * MiB, dtype=float)
        np.fill_diagonal(split, 0.0)
        totals = {}
        for algo in ("direct", "pairwise"):
            cl = dgx_v100(4)
            ctx = CollectiveContext(cl, fast_spec(alltoall_algorithm=algo))
            run_collective(cl, lambda c=ctx: c.all_to_all_single(split))
            totals[algo] = cl.profiler.counter(Interconnect.COUNTER).total
        assert totals["direct"] == pytest.approx(totals["pairwise"])
        assert totals["direct"] == pytest.approx(12 * 3 * MiB)

    def test_pairwise_rounds_serialise(self):
        """Round barriers make pairwise slower than direct on NVLink."""
        split = np.full((4, 4), 8 * MiB, dtype=float)
        np.fill_diagonal(split, 0.0)
        times = {}
        for algo in ("direct", "pairwise"):
            cl = dgx_v100(4)
            ctx = CollectiveContext(cl, fast_spec(alltoall_algorithm=algo))
            run_collective(cl, lambda c=ctx: c.all_to_all_single(split))
            times[algo] = cl.engine.now
        # direct: all 12 transfers on disjoint links in parallel (~1 round);
        # pairwise: 3 synchronised rounds.
        assert times["pairwise"] > 2.5 * times["direct"]

    def test_pairwise_round_structure_in_counter(self):
        """Deliveries cluster into G-1 distinct round instants."""
        split = np.full((3, 3), 2 * MiB, dtype=float)
        np.fill_diagonal(split, 0.0)
        cl = dgx_v100(3)
        ctx = CollectiveContext(cl, fast_spec(alltoall_algorithm="pairwise"))
        run_collective(cl, lambda: ctx.all_to_all_single(split))
        counter = cl.profiler.counter(Interconnect.COUNTER)
        stamps = sorted({t for t, _ in counter.events()})
        assert len(stamps) == 2  # G-1 = 2 rounds, uniform sizes

    def test_pairwise_two_gpus_equals_direct(self):
        split = np.array([[0.0, float(2 * MiB)], [float(2 * MiB), 0.0]])
        times = {}
        for algo in ("direct", "pairwise"):
            cl = dgx_v100(2)
            ctx = CollectiveContext(cl, fast_spec(alltoall_algorithm=algo))
            run_collective(cl, lambda c=ctx: c.all_to_all_single(split))
            times[algo] = cl.engine.now
        assert times["pairwise"] == pytest.approx(times["direct"], rel=1e-6)


@pytest.mark.usefixtures("fast")
class TestBookedChunks:
    """Chunks are booked at issue, one wave per source: a collective
    schedules nothing per chunk, only its launch and its completion."""

    @staticmethod
    def _entries(G, pair_bytes, **kw):
        cl = dgx_v100(G)
        ctx = CollectiveContext(cl, fast_spec(chunk_bytes=MiB, **kw))
        split = np.full((G, G), float(pair_bytes))
        np.fill_diagonal(split, 0.0)
        ctx.all_to_all_single(split)
        cl.engine.run()
        return cl.engine._seq, cl.profiler.counter(Interconnect.COUNTER).total

    def test_multi_chunk_pairs_schedule_no_more_entries(self):
        G = 16
        one, one_bytes = self._entries(G, MiB)
        three, three_bytes = self._entries(G, 3 * MiB - 5)
        assert three == one
        assert three_bytes == G * (G - 1) * (3 * MiB - 5) and one_bytes == G * (G - 1) * MiB

    def test_pairwise_rounds_schedule_one_entry_per_round(self):
        for G in (2, 4, 16):
            for pair_bytes in (MiB, 3 * MiB - 5):
                # The launch, one barrier per round, and the done event.
                assert self._entries(G, pair_bytes, alltoall_algorithm="pairwise")[0] == G + 1

    def test_chunk_order_and_last_header(self, fast):
        """A pair's chunks go out in order, then the next destination's; the
        last, shorter chunk carries its own inefficiency header."""
        fast("PER_CHUNK_HEADER_BYTES", 8)
        fast("NCCL_ALLTOALL_EFFICIENCY", 0.5)
        cl = dgx_v100(3)
        spec = fast_spec(chunk_bytes=1000)
        split = np.array([[0.0, 2500.0, 1000.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        run_collective(cl, lambda: CollectiveContext(cl, spec).all_to_all_single(split))
        pairs = cl.profiler.pair_counters("comm_bytes")
        assert [d for _, d in pairs["comm_bytes.dev0->dev1"].events()] == [1000.0, 1000.0, 500.0]
        assert [d for _, d in pairs["comm_bytes.dev0->dev2"].events()] == [1000.0]
        # Wire bytes: payload plus (8 + size * (1/0.5 - 1)) per chunk.
        assert cl.interconnect.link(0, 1).bytes_carried == 2500.0 + 3 * 8 + 2500.0
        assert cl.interconnect.link(0, 1).transfer_count == 3


class TestNonFiniteBytes:
    """NaN and infinite byte counts fail at the call, naming the entry,
    before anything is scheduled."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_all_to_all_single(self, bad):
        cl = dgx_v100(3)
        split = np.zeros((3, 3))
        split[1, 2] = bad
        with pytest.raises(ValueError, match=r"all_to_all_single: split_bytes\[1, 2\]"):
            CollectiveContext(cl).all_to_all_single(split)
        assert cl.engine._seq == 0

    @pytest.mark.parametrize("op", ["all_reduce"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_ring_collectives(self, op, bad):
        cl = dgx_v100(3)
        with pytest.raises(ValueError, match=f"{op}: total_bytes must be finite"):
            getattr(CollectiveContext(cl), op)(bad)
        assert cl.engine._seq == 0
