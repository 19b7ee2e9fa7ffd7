"""The two-level all-to-all books each pair's chunks as one wave.

Its same-node, gather and scatter hops cut every pair with
:func:`repro.comm.collective.chunk_waves` and book the pair's chunks with
one ``book_wave``, with one event at the pair's latest delivery.  The
pins below were captured when every chunk was its own ``transfer`` (168
engine entries at 1000-byte chunks): link state, counters and the
completion instant must not move, and the entries no longer depend on
the chunk count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import collective
from repro.comm.collective import CollectiveSpec
from repro.comm.hier import HierSpec, TwoLevelAllToAll
from repro.simgpu import multinode

TOTALS = {
    "comm_bytes": 23332.0,
    "hier.fwd_bytes": 24887.15,
    "hier.nic_bytes": 41997.55,
    "hier.nic_transfers": 2.0,
    "hier.scatter_bytes": 24887.4,
}


def _run(chunk_bytes):
    cl = multinode(2, 2)
    spec = CollectiveSpec(chunk_bytes=chunk_bytes)
    a2a = TwoLevelAllToAll(cl, spec, HierSpec(devices_per_node=2))
    split = np.arange(16, dtype=float).reshape(4, 4) * 777.7 + 0.25
    split[1, 2] = 0.0
    np.fill_diagonal(split, 0.0)
    cl.run(lambda c: a2a.all_to_all_single(split).wait())
    links = {
        (lk.src, lk.dst): (lk.transfer_count, lk.bytes_carried, lk._free_at)
        for lk in cl.interconnect.links()
    }
    totals = {name: c.total for name, c in cl.profiler.counters.items()}
    return cl.engine.now, cl.engine._seq, links, totals


@pytest.fixture(autouse=True)
def _headers(monkeypatch):
    """The pins were captured with 8-byte chunk headers."""
    monkeypatch.setattr(collective, "PER_CHUNK_HEADER_BYTES", 8)


def test_multi_chunk_pairs_are_pinned():
    now, seq, links, totals = _run(1000)
    assert now == 46954.70388257575
    assert list(links) == [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (2, 0)]
    assert links[0, 1] == (19, 21410.850000000002, 38254.70388257575)
    assert links[3, 2] == (31, 77757.05, 31619.938541666652)
    assert links[2, 0] == (1, 32728.4, 35395.247632575745)
    assert totals == TOTALS
    assert seq == 30


def test_entries_do_not_depend_on_the_chunk_count():
    now, seq, links, totals = _run(10**6)
    assert now == 46947.09971590909
    assert all(count <= 2 for count, _, _ in links.values())
    assert totals == TOTALS
    assert seq == _run(1000)[1]
