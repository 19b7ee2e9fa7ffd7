"""The fabric's per-source link columns book exactly what per-pair links did.

:class:`Interconnect` keeps every link out of a source as one row of
columns and hands out :class:`Link` views of its entries.  The oracle
here is the per-pair design it replaced, kept verbatim: one object per
link, booked by a loop over those objects.  Random programs of waves,
transfers and fault edges run on both must give bit-equal delivery
instants, traced start instants, accumulators, fault state and the same
links in the same first-touch order.
"""

from __future__ import annotations

import math
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.pgas import PGASContext
from repro.simgpu import dgx_v100
from repro.simgpu.engine import Engine
from repro.simgpu.interconnect import Interconnect, LinkSpec, Topology
from repro.simgpu.profiler import Profiler, TraceRef

N = 4

#: Latencies and costs that do not add exactly, so a reordered sum shows.
SPECS = [
    LinkSpec(bandwidth=48.0, latency_ns=700.1),
    LinkSpec(bandwidth=11.0, latency_ns=2500.3, per_message_ns=100.0),
    LinkSpec(bandwidth=12.0 / 7.0, latency_ns=1800.0 / 7.0, per_message_ns=20.0 / 3.0),
]


def _spec(src, dst):
    """Three link kinds over four devices; the pairs 0<->3 are unconnected."""
    if {src, dst} == {0, 3}:
        return None
    return SPECS[(src * N + dst) % len(SPECS)]


class _OracleLink:
    """One directed link as its own object (the design the columns replace)."""

    def __init__(self, spec):
        self.spec = spec
        self._free_at = 0.0
        self.busy_time = 0.0
        self.bytes_carried = 0.0
        self.transfer_count = 0
        self.messages_sent = 0
        self.bandwidth_scale = 1.0
        self.extra_latency_ns = 0.0
        self.down_until = float("-inf")


def _oracle_reserve(now, links, payloads, message_bytes, header_bytes):
    """The per-link reservation loop, as it was: ``(starts, dones)``."""
    headers = header_bytes if isinstance(header_bytes, (list, tuple)) else repeat(header_bytes)
    starts, dones = [], []
    for lk, payload, header in zip(links, payloads, headers):
        if message_bytes > 0:
            n_messages = math.ceil(payload / message_bytes)
        else:
            n_messages = 1 if payload else 0
        wire = payload + n_messages * header
        spec = lk.spec
        start = lk._free_at
        if start < now:
            start = now
        if start < lk.down_until:
            start = lk.down_until
        busy = wire / (spec.bandwidth * lk.bandwidth_scale) + n_messages * spec.per_message_ns
        lk._free_at = free = start + busy
        lk.busy_time += busy
        lk.bytes_carried += wire
        lk.transfer_count += 1
        lk.messages_sent += n_messages
        starts.append(start)
        dones.append(free + spec.latency_ns + lk.extra_latency_ns)
    return starts, dones


class _Oracle:
    """Per-pair links created on first touch, in a dict (creation order)."""

    def __init__(self):
        self.links = {}

    def link(self, src, dst):
        if (src, dst) not in self.links:
            spec = _spec(src, dst) if src != dst else None
            if spec is None:
                raise ValueError("not connected")
            self.links[src, dst] = _OracleLink(spec)
        return self.links[src, dst]

    def book(self, now, src, dsts, payloads, message_bytes, header_bytes):
        links = [self.link(src, dst) for dst in dsts]
        return _oracle_reserve(now, links, payloads, message_bytes, header_bytes)


FIELDS = (
    "_free_at", "busy_time", "bytes_carried", "transfer_count", "messages_sent",
    "bandwidth_scale", "extra_latency_ns", "down_until",
)

pairs = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)).filter(
    lambda p: p[0] != p[1] and _spec(*p) is not None
)
payloads = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=1e7, allow_nan=False, allow_infinity=False),
    st.integers(1, 1 << 22).map(float),
)
messages = st.sampled_from([0, 1, 256, 1000])
headers = st.integers(0, 512)


@st.composite
def waves(draw):
    src = draw(st.integers(0, N - 1))
    dsts = draw(st.lists(
        st.integers(0, N - 1).filter(lambda d, s=src: d != s and _spec(s, d) is not None),
        min_size=1, max_size=6,
    ))
    sizes = draw(st.lists(payloads, min_size=len(dsts), max_size=len(dsts)))
    header = draw(st.one_of(headers, st.lists(headers, min_size=len(dsts), max_size=len(dsts))))
    return ("wave", src, dsts, sizes, draw(messages), header)


ops = st.one_of(
    waves(),
    st.tuples(st.just("transfer"), pairs, payloads, messages, headers),
    st.tuples(
        st.just("degrade"), pairs,
        st.sampled_from([1.0, 0.5, 0.25, 1.0 / 3.0]),
        st.sampled_from([0.0, 0.1, 150.3, 1000.0 / 7.0]),
    ),
    st.tuples(st.just("restore"), pairs),
    st.tuples(st.just("down"), pairs, st.floats(0.0, 5e4)),
)

programs = st.lists(st.tuples(st.floats(0.0, 2e3), ops), min_size=1, max_size=25)


def _run(program, traced):
    """Run ``program`` on a fabric and on the oracle, one op per instant."""
    engine = Engine()
    prof = Profiler()
    if traced:
        prof.active_trace = TraceRef(trace_id=1, batch_id=0)
    ic = Interconnect(engine, Topology(N, _spec), prof)
    oracle = _Oracle()
    got, want = [], []
    degraded = []  # (pair, scale, extra) windows still open

    def step(op):
        now = engine.now
        kind = op[0]
        if kind == "wave":
            _, src, dsts, sizes, message_bytes, header = op
            got.append(ic.book_wave(src, dsts, sizes, message_bytes, header, "c"))
            keep = [i for i, size in enumerate(sizes) if size]
            if isinstance(header, list):
                header = [header[i] for i in keep]
            want.append(oracle.book(
                now, src, [dsts[i] for i in keep], [sizes[i] for i in keep],
                message_bytes, header,
            ))
        elif kind == "transfer":
            _, (src, dst), size, message_bytes, header = op
            ic.transfer(src, dst, size, message_bytes=message_bytes, header_bytes=header)
            got.append(prof.pair_samples(Interconnect.COUNTER).times[-1:].tolist())
            want.append(oracle.book(now, src, [dst], [size], message_bytes, header))
        elif kind == "degrade":
            _, pair, scale, extra = op
            ic.link(*pair).degrade(bandwidth_scale=scale, extra_latency_ns=extra)
            lk = oracle.link(*pair)
            lk.bandwidth_scale *= scale
            lk.extra_latency_ns += extra
            degraded.append((pair, scale, extra))
        elif kind == "restore" and any(p == op[1] for p, _, _ in degraded):
            i = next(i for i, (p, _, _) in enumerate(degraded) if p == op[1])
            pair, scale, extra = degraded.pop(i)
            ic.link(*pair).restore(bandwidth_scale=scale, extra_latency_ns=extra)
            lk = oracle.link(*pair)
            lk.bandwidth_scale /= scale
            lk.extra_latency_ns = max(lk.extra_latency_ns - extra, 0.0)
        elif kind == "down":
            _, pair, until = op
            ic.link(*pair).set_down_until(until)
            lk = oracle.link(*pair)
            lk.down_until = max(lk.down_until, until)

    t = 0.0
    for delay, op in program:
        t += delay
        engine.call_at(t, lambda op=op: step(op))
    engine.run()
    return ic, prof, oracle, got, want


@settings(deadline=None, max_examples=150)
@given(program=programs, traced=st.booleans())
def test_columns_book_what_per_pair_links_booked(program, traced):
    ic, prof, oracle, got, want = _run(program, traced)
    # Delivery instants, bit for bit (a zero-payload transfer still books).
    assert got == [dones for _, dones in want]
    # The same links, touched in the same order, with the same state.
    assert [(lk.src, lk.dst) for lk in ic.links()] == list(oracle.links)
    for lk in ic.links():
        ref = oracle.links[lk.src, lk.dst]
        assert lk.spec is ref.spec
        assert [getattr(lk, f) for f in FIELDS] == [getattr(ref, f) for f in FIELDS]
    assert ic.total_wire_bytes() == sum(lk.bytes_carried for lk in oracle.links.values())
    # A traced booking records each element's start; an untraced one none.
    spans = prof.spans_by_category("link")
    if traced:
        assert [s.t_start for s in spans] == [t for starts, _ in want for t in starts]
        assert [s.t_end for s in spans] == [t for _, dones in want for t in dones]
    else:
        assert spans == []


class TestTouch:
    def test_unreachable_pair_raises_and_books_nothing(self):
        ic = Interconnect(Engine(), Topology(N, _spec), Profiler())
        with pytest.raises(ValueError, match="devices 0 and 3 are not connected"):
            ic.transfer(0, 3, 100.0)
        with pytest.raises(ValueError, match="devices 3 and 0 are not connected"):
            ic.book_wave(3, [0], [100.0], 0, 0, "c")
        with pytest.raises(ValueError, match="not connected"):
            ic.link(0, 3)
        with pytest.raises(ValueError, match="out of range"):
            ic.transfer(0, N, 100.0)
        with pytest.raises(ValueError, match="out of range"):
            ic.transfer(-1, 1, 100.0)
        assert ic.links() == [] and ic.engine._seq == 0

    def test_a_wave_touches_the_pairs_before_an_unreachable_one(self):
        """As a link() call per element would: earlier pairs are touched,
        nothing is booked."""
        ic = Interconnect(Engine(), Topology(N, _spec), Profiler())
        with pytest.raises(ValueError, match="devices 0 and 3 are not connected"):
            ic.book_wave(0, [2, 1, 3, 1], [1.0, 2.0, 3.0, 4.0], 0, 0, "c")
        assert [(lk.src, lk.dst) for lk in ic.links()] == [(0, 2), (0, 1)]
        assert all(lk.transfer_count == 0 for lk in ic.links())

    def test_peek_link_never_touches(self):
        ic = Interconnect(Engine(), Topology(N, _spec), Profiler())
        for src in range(N):
            for dst in range(N):
                assert ic.peek_link(src, dst) is None
        assert ic.links() == []
        ic.transfer(1, 2, 10.0)
        assert ic.peek_link(2, 1) is None and ic.peek_link(1, 0) is None
        assert ic.peek_link(1, 2) is ic.link(1, 2)
        assert [(lk.src, lk.dst) for lk in ic.links()] == [(1, 2)]

    def test_link_views_are_cached_and_live(self):
        ic = Interconnect(Engine(), Topology(N, _spec), Profiler())
        lk = ic.link(1, 2)
        assert ic.links() == [lk] and ic.link(1, 2) is lk
        ic.book_wave(1, [2, 2], [100.0, 50.0], 0, 8, "c")
        assert lk.transfer_count == 2 and lk.bytes_carried == 166.0

    def test_rejected_put_touches_no_link(self):
        cl = dgx_v100(4)
        ctx = PGASContext(cl)
        for dst, payload in [([1, 2, 9], [1.0, 2.0, 3.0]), ([1, 0], [1.0, 2.0])]:
            with pytest.raises(ValueError):
                ctx.put(0, dst, payload)
        assert cl.interconnect.links() == []
