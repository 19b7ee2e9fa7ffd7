"""Regression tests: degenerate splits in the collective layer.

All-zero splits must complete after the control path alone (no
zero-length chunks or exchange rounds booked); negative byte counts must
raise instead of reaching the interconnect.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.collective import CollectiveContext, CollectiveSpec, chunk_waves
from repro.simgpu import dgx_v100
from repro.simgpu.interconnect import Interconnect
from repro.simgpu.units import MiB, us


def run_collective(cluster, start_fn):
    """Drive a collective to completion inside a host program."""
    cluster.run(lambda cl: start_fn().wait())


def fast_spec(**kw):
    """A spec for pure-transfer arithmetic (with the ``fast`` fixture)."""
    return CollectiveSpec(**{"chunk_bytes": 4 * MiB, **kw})


@pytest.mark.usefixtures("fast")
class TestAllZeroSplits:
    @pytest.mark.parametrize("algo", ["direct", "pairwise"])
    def test_all_zero_completes_immediately(self, algo):
        cl = dgx_v100(4)
        ctx = CollectiveContext(cl, fast_spec(alltoall_algorithm=algo))
        run_collective(cl, lambda: ctx.all_to_all_single(np.zeros((4, 4))))
        assert cl.engine.now == 0.0
        assert cl.profiler.counter(Interconnect.COUNTER).total == 0.0

    @pytest.mark.parametrize("algo", ["direct", "pairwise"])
    def test_all_zero_still_charges_control_path(self, algo, fast):
        """The call happened: launch + wait overheads are not skipped."""
        fast("LAUNCH_OVERHEAD_NS", 30 * us)
        fast("WAIT_OVERHEAD_NS", 8 * us)
        cl = dgx_v100(2)
        ctx = CollectiveContext(cl, fast_spec(alltoall_algorithm=algo))
        run_collective(cl, lambda: ctx.all_to_all_single(np.zeros((2, 2))))
        assert cl.engine.now == pytest.approx(38 * us)

    def test_all_zero_schedules_no_processes(self):
        """No zero-length chunks or pairwise rounds are ever created."""
        cl = dgx_v100(4)
        ctx = CollectiveContext(cl, fast_spec(alltoall_algorithm="pairwise"))
        run_collective(cl, lambda: ctx.all_to_all_single(np.zeros((4, 4))))
        assert not cl.profiler.counter(Interconnect.COUNTER).events()

    def test_diagonal_only_split_is_equivalent_to_zero(self):
        cl = dgx_v100(2)
        ctx = CollectiveContext(cl, fast_spec())
        split = np.diag([1e9, 1e9])
        run_collective(cl, lambda: ctx.all_to_all_single(split))
        assert cl.profiler.counter(Interconnect.COUNTER).total == 0.0


class TestNegativeBytes:
    def test_all_to_all_negative_entry_raises(self):
        ctx = CollectiveContext(dgx_v100(2))
        with pytest.raises(ValueError, match="non-negative"):
            ctx.all_to_all_single(np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_pair_chunks_negative_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            chunk_waves(fast_spec(), [0], np.array([[1]]), np.array([[-8.0]]))

    def test_pair_chunks_zero_is_empty(self):
        assert chunk_waves(fast_spec(), [0], np.array([[1]]), np.array([[0.0]])) == []
