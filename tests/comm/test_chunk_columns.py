"""Collective chunks come out of one numpy pass per call, as columns.

:func:`repro.comm.collective.chunk_waves` cuts every pair of an
all-to-all, a pairwise round or a ring at once.  Its columns must equal
the sequential split it replaced: ``min(chunk, remaining)`` per chunk,
each with its per-chunk header and, on the collective path, the
algorithm-efficiency derate.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import collective
from repro.comm.collective import CollectiveContext, CollectiveSpec, chunk_waves
from repro.simgpu import dgx_v100
from repro.simgpu.interconnect import Interconnect
from repro.simgpu.units import MiB


def _sequential(spec, header_bytes, efficiency, srcs, dsts, nbytes, derate):
    """The per-pair loop: each pair's chunks in order, ``min(chunk, remaining)``."""
    extra = 1.0 / efficiency - 1.0
    waves = []
    for src, row_dsts, row_bytes in zip(srcs, dsts.tolist(), nbytes.tolist()):
        out_dsts, sizes, headers = [], [], []
        for dst, pair in zip(row_dsts, row_bytes):
            remaining = pair
            for _ in range(math.ceil(pair / spec.chunk_bytes)):
                size = min(spec.chunk_bytes, remaining)
                remaining -= size
                out_dsts.append(dst)
                sizes.append(size)
                header = header_bytes
                if derate:
                    header += int(size * extra)
                headers.append(header)
        if out_dsts:
            waves.append((src, out_dsts, sizes, headers))
    return waves


chunks = st.one_of(st.just(4 * MiB), st.integers(1, 5000))
efficiencies = st.sampled_from([1.0, 0.1875, 0.5, 1.0 / 3.0])


@st.composite
def splits(draw):
    """``(spec, header_bytes, efficiency, S, k, nbytes)``: zero pairs, exact
    multiples of the chunk, fractional byte counts and multi-chunk pairs."""
    spec = CollectiveSpec(chunk_bytes=draw(chunks))
    header_bytes, efficiency = draw(st.integers(0, 512)), draw(efficiencies)
    S, k = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    chunk = spec.chunk_bytes
    pair = st.one_of(
        st.just(0.0),
        st.integers(1, 7).map(lambda n: float(n * chunk)),
        st.floats(min_value=1e-3, max_value=7.0 * chunk, allow_nan=False),
        st.integers(1, 7 * chunk).map(float),
    )
    cells = draw(st.lists(pair, min_size=S * k, max_size=S * k))
    return spec, header_bytes, efficiency, S, k, np.array(cells, dtype=np.float64).reshape(S, k)


@settings(deadline=None, max_examples=200)
@given(case=splits(), derate=st.booleans())
def test_columns_equal_the_sequential_split(case, derate):
    spec, header_bytes, efficiency, S, k, nbytes = case
    srcs = list(range(10, 10 + S))
    dsts = np.arange(S * k).reshape(S, k) % 7
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collective, "PER_CHUNK_HEADER_BYTES", header_bytes)
        mp.setattr(collective, "NCCL_ALLTOALL_EFFICIENCY", efficiency)
        got = chunk_waves(spec, srcs, dsts, nbytes, derate=derate)
    want = _sequential(spec, header_bytes, efficiency, srcs, dsts, nbytes, derate)
    assert got == want
    for _, out_dsts, sizes, headers in got:
        assert all(type(d) is int for d in out_dsts)
        assert all(type(h) is int for h in headers)


def test_default_chunks_of_a_large_pair():
    spec = CollectiveSpec()
    nbytes = np.array([[10 * MiB + 0.5, 8 * MiB, 0.0]])
    ((src, dsts, sizes, headers),) = chunk_waves(spec, [3], np.array([[0, 1, 2]]), nbytes)
    assert src == 3 and dsts == [0, 0, 0, 1, 1]
    assert sizes == [4 * MiB, 4 * MiB, 2 * MiB + 0.5, 4 * MiB, 4 * MiB]
    derate = 1.0 / collective.NCCL_ALLTOALL_EFFICIENCY - 1.0
    assert headers == [collective.PER_CHUNK_HEADER_BYTES + int(s * derate) for s in sizes]


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_bad_split_raises_before_any_link_changes(bad):
    cl = dgx_v100(3)
    split = np.full((3, 3), 100.0)
    split[2, 0] = bad
    with pytest.raises(ValueError, match=r"all_to_all_single: split_bytes\[2, 0\]"):
        CollectiveContext(cl).all_to_all_single(split)
    assert cl.interconnect.links() == [] and cl.engine._seq == 0
    with pytest.raises(ValueError, match="non-negative"):
        chunk_waves(CollectiveSpec(), [0], np.array([[1]]), np.array([[bad]]))


class TestSchedulePins:
    """Multi-chunk pairwise, direct and ring collectives on 1000-byte chunks:
    completion instants and per-link state, captured from the per-pair
    chunk loop."""

    SPLIT = np.arange(16, dtype=float).reshape(4, 4) * 777.7 + 0.25

    @pytest.fixture(autouse=True)
    def _headers(self, monkeypatch):
        monkeypatch.setattr(collective, "PER_CHUNK_HEADER_BYTES", 8)

    def _run(self, op, algo="direct"):
        cl = dgx_v100(4)
        spec = CollectiveSpec(chunk_bytes=1000, alltoall_algorithm=algo)
        ctx = CollectiveContext(cl, spec)
        split = self.SPLIT.copy()
        split[1, 2], split[2, 3] = 3000.0, 0.0
        if op == "all_reduce":
            cl.run(lambda c: ctx.all_reduce(12345.6).wait())
        else:
            cl.run(lambda c: ctx.all_to_all_single(split).wait())
        links = {
            (lk.src, lk.dst): (lk.transfer_count, lk._free_at) for lk in cl.interconnect.links()
        }
        return cl.engine.now, cl.profiler.counter(Interconnect.COUNTER).total, links

    def test_pairwise_rounds(self):
        now, total, links = self._run("all_to_all_single", "pairwise")
        assert (now, total) == (43475.230208333334, 59774.60000000001)
        assert list(links) == [
            (0, 1), (1, 2), (3, 0), (0, 2), (1, 3), (2, 0), (3, 1), (0, 3), (1, 0), (2, 1), (3, 2)
        ]
        assert links[3, 2] == (11, 34775.230208333334)
        assert links[1, 2] == (3, 30333.812499999996)

    def test_direct(self):
        now, total, links = self._run("all_to_all_single")
        assert (now, total) == (39911.54270833332, 59774.600000000006)
        assert links[3, 2] == (11, 31211.54270833332)
        assert links[1, 3] == (6, 30605.85729166666)

    def test_ring_all_reduce(self):
        now, total, links = self._run("all_reduce")
        assert (now, total) == (40761.42499999999, 74073.6)
        assert links == {pair: (24, 32061.42499999999) for pair in [(0, 1), (1, 2), (2, 3), (3, 0)]}
