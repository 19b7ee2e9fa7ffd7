"""A deferred run of one-sided writes equals the same writes wave by wave.

A booked fused launch hands its wave ends to its write hook once, and the
hook registers one run on the source's link row
(``PGASContext.put_run``/``atomic_run`` → ``Interconnect.defer_run``),
booked lazily through ``put``/``atomic_add`` with ``at`` when the row is
next touched or read.  The oracle is the per-wave path that a booked
launch keeps when its hook declines the run: one engine entry per wave
end, all scheduled at the launch, each issuing the wave's ``put`` or
``atomic_add``.  Both must leave every row column, delivery instant,
``quiet`` instant, put total, ``links()`` order, per-pair sample and
counter event bit-for-bit equal, whatever foreign bookings, fault edges
and reads fall between the waves or on them.

Everything sits on a 1 ns grid and wave ends on a 4 ns grid, so runs tie
with each other, with registrations and with every other kind of entry.
An entry scheduled before a run's registration runs before the run's
waves at a shared instant; a *late* one, scheduled after the first
registration, runs after them.

A settle whose rows retire at least ``interconnect.STACK_MIN_WRITES``
writes between them books them as one stacked array, a smaller one row by
row as lists; the small runs here are stacked too once the threshold is
patched to 1, and the 64-GPU runs are at the default threshold.  Settles
of several sources, stacked, are checked against each row settled on its
own, wave by wave.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simgpu import interconnect as interconnect_module
from repro.comm.pgas import PGASContext
from repro.core.backward import PGASFusedBackward, _GradientAtomics
from repro.core.pgas_retrieval import PGASFusedRetrieval, _LaunchPlan
from repro.core.retrieval import DistributedEmbedding
from repro.core.workload import build_device_workloads
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.simgpu.cluster import Cluster, dgx_v100
from repro.simgpu.interconnect import NVLINK_PAIR_SPEC, Interconnect, Topology
from repro.simgpu.kernel import KernelSpec
from tests.simgpu import stepped

G = 4
SRC = 1
OTHERS = [d for d in range(G) if d != SRC]

_payload = st.sampled_from([0.0, 0.0, 256.0, 100.5, 4096.0, 1e5 / 3])
_count = st.integers(0, 5)


@st.composite
def _runs(draw):
    """1-3 runs on ``SRC``'s row: registration, kind, wave ends, values."""
    runs = []
    for _ in range(draw(st.integers(1, 3))):
        ends = [4.0 * n for n in sorted(draw(st.lists(st.integers(1, 6), min_size=1,
                                                      max_size=4)))]
        # Registered at any instant up to the first wave end, that one included.
        at = float(draw(st.integers(0, int(ends[0]))))
        kind = draw(st.sampled_from(["put", "atomic"]))
        if kind == "put":
            values = [draw(st.lists(_payload, min_size=G, max_size=G)) for _ in ends]
        else:
            values = [draw(st.lists(_count, min_size=G - 1, max_size=G - 1)) for _ in ends]
        runs.append({"at": at, "kind": kind, "ends": ends, "values": values})
    return runs


_at = st.integers(0, 28).map(float)
_late = st.booleans()
_foreign = st.tuples(
    _at, _late,
    st.sampled_from(["book_wave", "transfer"]),
    st.sampled_from(OTHERS),
    st.sampled_from([0.0, 512.0, 3000.5]),
)
_fault = st.tuples(
    _at, _late,
    st.sampled_from(["degrade", "latency", "restore", "down"]),
    st.sampled_from(OTHERS),
)
_read = st.tuples(_at, _late)


def _snapshot(cl: Cluster, pgas: PGASContext):
    """Everything a reader can see of the row and the profiler, now."""
    ic, prof = cl.interconnect, cl.profiler
    links = ic.links()
    columns = [
        (lk.src, lk.dst, lk._free_at, lk.busy_time, lk.bytes_carried, lk.transfer_count,
         lk.messages_sent, lk.bandwidth_scale, lk.extra_latency_ns, lk.down_until)
        for lk in links
    ]
    samples = {
        name: tuple(column.tolist() for column in prof.pair_samples(name))
        for name in (PGASContext.COUNTER, ic.COUNTER)
    }
    pairs = {
        name: [c.events() for c in prof.pair_counters(name).values()]
        for name in (PGASContext.COUNTER, ic.COUNTER)
    }
    events = {name: c.events() for name, c in prof.counters.items()}
    return (
        cl.engine.now, columns, ic.total_wire_bytes(), dict(pgas._last_done), samples, pairs,
        events,
    )


def _writes(cl: Cluster):
    """The writes booked so far and their payload bytes, as the
    ``pgas_bytes`` counter holds them (reading it settles the fabric)."""
    counter = cl.profiler.counters.get(PGASContext.COUNTER)
    return (0, 0.0) if counter is None else (len(counter.events()), counter.total)


def _simulate(runs, foreign, faults, reads, quiet_at, deferred: bool):
    cl = dgx_v100(G)
    eng, ic = cl.engine, cl.interconnect
    pgas = PGASContext(cl)
    seen = []
    late = []  # entries scheduled right after the first registration

    def per_wave(run, w):
        values = run["values"][w]
        if run["kind"] == "put":
            payloads = [v for d, v in enumerate(values) if d != SRC]
            if any(payloads):
                pgas.put(SRC, OTHERS, payloads)
        elif any(values):
            pgas.atomic_add(SRC, OTHERS, values)

    def register(run):
        if not deferred:
            for w, t in enumerate(run["ends"]):
                eng.call_at(t, lambda w=w: per_wave(run, w))
        elif run["kind"] == "put":
            waves = np.array(run["values"], dtype=np.float64)
            assert pgas.put_run(SRC, OTHERS, run["ends"], waves, SRC)
        else:
            counts = np.array(run["values"], dtype=np.int64)
            assert pgas.atomic_run(SRC, OTHERS, run["ends"], counts)
        while late:
            t, fn = late.pop(0)
            eng.call_at(max(t, eng.now), fn)

    def book(kind, dst, payload):
        if kind == "book_wave":
            ic.book_wave(SRC, [dst], [payload], 0, 16, ic.COUNTER)
        else:
            ic.transfer(SRC, dst, payload, header_bytes=16).add_callback(
                lambda: seen.append(("delivered", eng.now))
            )

    def fault(kind, dst):
        lk = ic.link(SRC, dst)
        if kind == "degrade":
            lk.degrade(bandwidth_scale=0.25)
        elif kind == "latency":
            lk.degrade(extra_latency_ns=3.0)
        elif kind == "restore":
            lk.restore(bandwidth_scale=0.25)
        else:
            lk.set_down_until(eng.now + 5.0)

    def quiet():
        ev = pgas.quiet(SRC)
        ev.add_callback(lambda: seen.append(("quiet", eng.now)))

    def schedule(t, is_late, fn):
        (late.append((t, fn)) if is_late else eng.call_at(t, fn))

    first = min(range(len(runs)), key=lambda i: runs[i]["at"])
    eng.call_at(runs[first]["at"], lambda: register(runs[first]))
    for i, run in enumerate(runs):
        if i != first:
            eng.call_at(run["at"], lambda run=run: register(run))
    for t, is_late, kind, dst, payload in foreign:
        schedule(t, is_late, lambda kind=kind, dst=dst, payload=payload: book(kind, dst, payload))
    for t, is_late, kind, dst in faults:
        schedule(t, is_late, lambda kind=kind, dst=dst: fault(kind, dst))
    for t, is_late in reads:
        schedule(t, is_late, lambda: seen.append(_snapshot(cl, pgas)))
    eng.call_at(quiet_at, quiet)
    last = max(t for run in runs for t in run["ends"])
    eng.call_at(last + 100.0, lambda: seen.append(_snapshot(cl, pgas)))
    eng.run()
    seen.append(_snapshot(cl, pgas))
    return seen


@settings(deadline=None, max_examples=200)
@given(
    runs=_runs(),
    foreign=st.lists(_foreign, max_size=4),
    faults=st.lists(_fault, max_size=4),
    reads=st.lists(_read, max_size=3),
    quiet_at=_at,
)
def test_a_deferred_run_books_as_its_waves(runs, foreign, faults, reads, quiet_at):
    oracle = _simulate(runs, foreign, faults, reads, quiet_at, deferred=False)
    deferred = _simulate(runs, foreign, faults, reads, quiet_at, deferred=True)
    assert deferred == oracle


@settings(deadline=None, max_examples=200)
@given(
    runs=_runs(),
    foreign=st.lists(_foreign, max_size=4),
    faults=st.lists(_fault, max_size=4),
    reads=st.lists(_read, max_size=3),
    quiet_at=_at,
)
def test_a_deferred_run_books_as_its_waves_as_a_matrix(runs, foreign, faults, reads, quiet_at):
    """The same oracle with every prefix a settle books, put or atomic,
    stacked as an array (the threshold patched to 1)."""
    oracle = _simulate(runs, foreign, faults, reads, quiet_at, deferred=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interconnect_module, "STACK_MIN_WRITES", 1)
        deferred = _simulate(runs, foreign, faults, reads, quiet_at, deferred=True)
    assert deferred == oracle


def test_a_deferred_run_takes_no_engine_entry():
    cl = dgx_v100(G)
    pgas = PGASContext(cl)
    waves = np.array([[1.0, 0.0, 256.0, 512.0], [0.0, 0.0, 0.0, 0.0], [3.0, 256.0, 0.0, 1.0]])
    assert pgas.put_run(SRC, OTHERS, [10.0, 20.0, 30.0], waves, SRC)
    assert cl.engine._seq == 0
    cl.interconnect.settle()
    assert _writes(cl) == (0, 0.0)  # nothing has retired at t = 0
    cl.engine.run(until=25.0)
    assert pgas._last_done[SRC] == float("-inf")  # booked only at the next settle point
    cl.interconnect.settle()
    assert _writes(cl) == (3, 769.0)
    cl.engine.run(until=30.0)
    cl.interconnect.settle()
    assert _writes(cl) == (5, 773.0)
    assert [(lk.src, lk.dst) for lk in cl.interconnect.links()] == [(1, 0), (1, 2), (1, 3)]
    assert cl.engine._seq == 0


def test_a_fault_edge_on_a_wave_end_holds_the_wave_as_its_entry_would():
    """A fault plan schedules its edges before any launch, so an edge at a
    wave's end runs first and the wave sees the faulted link; an edge
    scheduled after the launch runs after the wave."""
    outcomes = []
    for deferred in (False, True):
        for edge_first in (True, False):
            cl = dgx_v100(G)
            eng, ic = cl.engine, cl.interconnect
            pgas = PGASContext(cl)

            def degrade():
                ic.link(SRC, 0).degrade(bandwidth_scale=0.5)

            def launch():
                waves = np.array([[256.0, 0.0, 0.0, 0.0], [512.0, 0.0, 0.0, 0.0]])
                if deferred:
                    assert pgas.put_run(SRC, OTHERS, [4.0, 8.0], waves, SRC)
                else:
                    for t, row in zip((4.0, 8.0), waves.tolist()):
                        del row[SRC]
                        eng.call_at(t, lambda row=row: pgas.put(SRC, OTHERS, row))
                if not edge_first:
                    eng.call_at(8.0, degrade)

            if edge_first:
                eng.call_at(8.0, degrade)
            eng.call_at(1.0, launch)
            eng.run()
            outcomes.append((edge_first, ic.link(SRC, 0)._free_at, pgas._last_done[SRC]))
    per_wave, deferred = outcomes[:2], outcomes[2:]
    assert deferred == per_wave
    assert per_wave[0][1] > per_wave[1][1]  # the wave at 8 ns took the derated link


def test_the_booking_goes_through_put():
    """A deferred run is booked through ``PGASContext.put`` (with ``at``),
    the one put entry point the perf tracer patches."""
    calls = []
    put = PGASContext.put

    def counted(self, *args, **kwargs):
        calls.append(kwargs.get("at"))
        return put(self, *args, **kwargs)

    cl = dgx_v100(G)
    pgas = PGASContext(cl)
    pgas.put = counted.__get__(pgas)
    waves = np.array([[1.0, 0.0, 256.0, 512.0], [3.0, 256.0, 0.0, 1.0]])
    assert pgas.put_run(SRC, OTHERS, [10.0, 20.0], waves, SRC)
    cl.engine.run(until=15.0)
    cl.interconnect.links()
    assert _writes(cl)[0] == 3 and calls == [[10.0]]
    cl.engine.run(until=20.0)
    cl.interconnect.links()
    assert _writes(cl)[0] == 5 and calls == [[10.0], [20.0]]

    # A 64-GPU run of 7 waves: its 441 writes are one stack, one put.
    calls.clear()
    cl = dgx_v100(WIDE_G)
    pgas = PGASContext(cl)
    pgas.put = counted.__get__(pgas)
    ends = [1000.0 * (w + 1) for w in range(7)]
    assert pgas.put_run(WIDE_SRC, WIDE_OTHERS, ends, np.full((7, WIDE_G), 256.0), WIDE_SRC)
    cl.engine.run(until=ends[-1])
    cl.interconnect.links()
    assert _writes(cl)[0] == 441 and [at.tolist() for at in calls] == [[ends]]


# -- wide runs: one matrix per prefix ----------------------------------------------

WIDE_G = 64
WIDE_SRC = 5
WIDE_OTHERS = [d for d in range(WIDE_G) if d != WIDE_SRC]


def _wide_values(kind: str, heavy: bool = True, n_waves: int = 7) -> np.ndarray:
    """The waves of a 64-GPU run: zeros, fractional bytes and, if
    ``heavy``, one column large enough to queue behind its own earlier
    writes."""
    rng = np.random.default_rng(44)
    if kind == "put":
        waves = rng.choice([0.0, 256.0, 100.5, 4096.0, 1e5 / 3], size=(n_waves, WIDE_G))
        if heavy:
            waves[:, 11] = 3e6  # 62.5 µs of wire per wave on a 1 µs wave grid
        return waves
    counts = rng.integers(0, 6, size=(n_waves, WIDE_G - 1))
    if heavy:
        counts[:, 10] = 400_000
    return counts


def _wide_simulate(kind: str, deferred: bool, heavy: bool = True):
    """One 64-GPU run of 14 waves at 1 µs apart, with a derate and a down
    window mid-run and reads between the waves; returns what each read
    saw."""
    cl = dgx_v100(WIDE_G)
    eng, ic = cl.engine, cl.interconnect
    pgas = PGASContext(cl)
    values = _wide_values(kind, heavy, n_waves=14)
    ends = [1000.0 * (w + 1) for w in range(14)]
    seen = []

    def per_wave(w):
        if kind == "put":
            payloads = values[w].tolist()
            del payloads[WIDE_SRC]
            if any(payloads):
                pgas.put(WIDE_SRC, WIDE_OTHERS, payloads)
        else:
            pgas.atomic_add(WIDE_SRC, WIDE_OTHERS, values[w].tolist())

    def launch():
        if not deferred:
            for w, t in enumerate(ends):
                eng.call_at(t, lambda w=w: per_wave(w))
        elif kind == "put":
            assert pgas.put_run(WIDE_SRC, WIDE_OTHERS, ends, values, WIDE_SRC)
        else:
            assert pgas.atomic_run(WIDE_SRC, WIDE_OTHERS, ends, values)

    eng.call_at(0.0, launch)
    # Seven waves (441 writes) retire before the read ahead of the first
    # edge: one prefix, settled by the read; the read after the last wave
    # settles the other seven.
    eng.call_at(7400.0, lambda: seen.append(_snapshot(cl, pgas)))
    eng.call_at(7500.0, lambda: ic.link(WIDE_SRC, 7).degrade(bandwidth_scale=1e-3))
    eng.call_at(7500.0, lambda: ic.link(WIDE_SRC, 9).set_down_until(10500.0))
    eng.call_at(7600.0, lambda: seen.append(_snapshot(cl, pgas)))
    eng.call_at(16000.0, lambda: seen.append(_snapshot(cl, pgas)))
    eng.run()
    return seen


@pytest.mark.parametrize("heavy", [False, True])
@pytest.mark.parametrize("kind", ["put", "atomic"])
def test_a_wide_run_books_as_its_waves_at_the_default_threshold(kind, heavy):
    """Both prefixes of an 882-write run, settled by reads, go to
    ``book_runs`` as one-row stacks.  A write that queues behind its own
    run makes ``book_runs`` decline the stack, which is then booked as
    lists: the derated link and the down window do so after the edges,
    the heavy column in every prefix.  Without it the first prefix is
    booked as a stack."""
    calls = []
    book_runs = Interconnect.book_runs

    def spy(self, *args, **kwargs):
        done = book_runs(self, *args, **kwargs)
        calls.append((args[1].shape, done is None))
        return done

    oracle = _wide_simulate(kind, deferred=False, heavy=heavy)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Interconnect, "book_runs", spy)
        deferred = _wide_simulate(kind, deferred=True, heavy=heavy)
    assert calls == [((1, 7, WIDE_G), heavy), ((1, 7, WIDE_G), True)]
    assert deferred == oracle


def test_numpy_integer_destinations_book_a_matrix_as_lists(monkeypatch):
    """A run deferred with numpy int32 source and destinations, settled as a
    stack, books the samples, rows and totals that one list put with
    Python ids books; nothing queues, so the stack books it."""
    ends = [1000.0 * (w + 1) for w in range(7)]
    waves = _wide_values("put", heavy=False)
    stacked = []
    book_runs = Interconnect.book_runs

    def spy(self, *args, **kwargs):
        done = book_runs(self, *args, **kwargs)
        stacked.append(done is not None)
        return done

    monkeypatch.setattr(Interconnect, "book_runs", spy)
    seen = []
    for numpy_ids in (False, True):
        cl = dgx_v100(WIDE_G)
        pgas = PGASContext(cl)
        if numpy_ids:
            dsts = [np.int32(d) for d in WIDE_OTHERS]
            assert pgas.put_run(np.int32(WIDE_SRC), dsts, ends, waves, np.int32(WIDE_SRC))
            cl.engine.run(until=ends[-1])
        else:
            cl.engine.run(until=ends[-1])
            pgas.put(WIDE_SRC, WIDE_OTHERS, np.delete(waves, WIDE_SRC, axis=1).tolist(), at=ends)
        seen.append(_snapshot(cl, pgas))
    assert stacked == [True]
    writes = np.count_nonzero(np.delete(waves, WIDE_SRC, axis=1))
    assert seen[1] == seen[0] and len(seen[0][4][PGASContext.COUNTER][0]) == writes


@pytest.mark.parametrize("kind", ["put", "atomic"])
def test_the_prefix_size_selects_lists_or_a_matrix(kind):
    """A settle of a 7-write prefix books it as lists, one of a 441-write
    prefix as one stacked array."""
    seen = []
    put, atomic_add = PGASContext.put, PGASContext.atomic_add

    def spy(method):
        def call(self, src, dst, values, *, at=None):
            seen.append(type(values))
            return method(self, src, dst, values, at=at)
        return call

    for n_devices, n_waves in ((8, 1), (WIDE_G, 7)):
        pgas = PGASContext(dgx_v100(n_devices))
        pgas.put, pgas.atomic_add = spy(put).__get__(pgas), spy(atomic_add).__get__(pgas)
        others = list(range(1, n_devices))
        ends = [10.0 * (w + 1) for w in range(n_waves)]
        if kind == "put":
            assert pgas.put_run(0, others, ends, np.ones((n_waves, n_devices)), 0)
        else:
            assert pgas.atomic_run(0, others, ends, np.ones((n_waves, n_devices - 1), np.int64))
        pgas.cluster.engine.run(until=ends[-1])
        pgas.cluster.interconnect.settle()
    assert seen == [list, np.ndarray]


# -- settles of many sources: one stacked pass ---------------------------------------

MULTI_G = 5
_light = st.sampled_from([0.0, 256.0, 100.5, 2048.0, 1000 / 3])


@st.composite
def _multi_runs(draw):
    """Runs on two to four of devices 0-3 (device 4 only receives): per
    source one or two runs of one to four waves on a 100 ns grid, puts or
    atomics; at most one row has a heavy column, which queues behind its
    own earlier writes."""
    sources = draw(st.lists(st.integers(0, 3), min_size=2, max_size=4, unique=True))
    heavy = draw(st.sampled_from([None, *sources]))
    rows = []
    for src in sources:
        runs = []
        for _ in range(draw(st.sampled_from([1, 1, 2]))):
            ends = sorted(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
            kind = draw(st.sampled_from(["put", "put", "atomic"]))
            width = MULTI_G if kind == "put" else MULTI_G - 1
            values = [draw(st.lists(_light if kind == "put" else _count, min_size=width,
                                    max_size=width)) for _ in ends]
            runs.append({"kind": kind, "ends": [100.0 * n for n in ends], "values": values})
        if src == heavy:
            for wave in runs[0]["values"]:
                wave[-1] = 1e6 if runs[0]["kind"] == "put" else 100_000
        rows.append((src, runs))
    return rows


_multi_at = st.integers(0, 700).map(float)
_pair = st.tuples(st.integers(0, MULTI_G - 1), st.integers(1, MULTI_G - 1)).map(
    lambda sd: (sd[0], (sd[0] + sd[1]) % MULTI_G)
)


def _multi_simulate(rows, foreign, faults, settle_at, quiet_at, quiet_pes, mode):
    """The runs of ``rows`` registered at 0, foreign bookings, a downed and
    a degraded link, one ``settle()`` and one ``quiet`` over a subset, then
    a read; returns the ``quiet`` and transfer instants and what the read
    saw.  ``mode`` is
    ``"entries"`` (one engine entry per wave end, the per-wave oracle) or
    ``"deferred"`` (runs, booked as the fabric chooses)."""
    cl = dgx_v100(MULTI_G)
    eng, ic = cl.engine, cl.interconnect
    pgas = PGASContext(cl)
    seen = []

    def per_wave(src, run, w):
        others = [d for d in range(MULTI_G) if d != src]
        values = run["values"][w]
        if run["kind"] == "put":
            payloads = [v for d, v in enumerate(values) if d != src]
            if any(payloads):
                pgas.put(src, others, payloads)
        elif any(values):
            pgas.atomic_add(src, others, values)

    def register():
        for src, runs in rows:
            others = [d for d in range(MULTI_G) if d != src]
            for run in runs:
                if mode == "entries":
                    for w, t in enumerate(run["ends"]):
                        eng.call_at(t, lambda src=src, run=run, w=w: per_wave(src, run, w))
                elif run["kind"] == "put":
                    waves = np.array(run["values"], dtype=np.float64)
                    assert pgas.put_run(src, others, run["ends"], waves, src)
                else:
                    counts = np.array(run["values"], dtype=np.int64)
                    assert pgas.atomic_run(src, others, run["ends"], counts)

    def book(kind, src, dst, payload):
        if kind == "book_wave":
            ic.book_wave(src, [dst], [payload], 0, 16, ic.COUNTER)
        else:
            ic.transfer(src, dst, payload, header_bytes=16).add_callback(
                lambda: seen.append(("delivered", eng.now))
            )

    for t, kind, (src, dst), payload in foreign:
        eng.call_at(t, lambda kind=kind, src=src, dst=dst, p=payload: book(kind, src, dst, p))
    (t, (src, dst)), (t2, (src2, dst2)) = faults
    eng.call_at(t, lambda: ic.link(src, dst).set_down_until(eng.now + 150.0))
    eng.call_at(t2, lambda: ic.link(src2, dst2).degrade(bandwidth_scale=0.25))
    eng.call_at(settle_at, ic.settle)
    eng.call_at(quiet_at, lambda: pgas.quiet(quiet_pes).add_callback(
        lambda: seen.append(("quiet", eng.now))
    ))
    eng.call_at(0.0, register)
    eng.call_at(5000.0, lambda: seen.append(_multi_snapshot(cl, pgas)))
    eng.run()
    return seen


def _multi_snapshot(cl: Cluster, pgas: PGASContext):
    """What a reader sees: every row column in ``links()`` order, the
    per-pair samples in booking order, the counters and the PE instants."""
    ic, prof = cl.interconnect, cl.profiler
    columns = [
        (lk.src, lk.dst, lk._free_at, lk.busy_time, lk.bytes_carried, lk.transfer_count,
         lk.messages_sent, lk.bandwidth_scale, lk.extra_latency_ns, lk.down_until)
        for lk in ic.links()
    ]
    samples = {
        name: [column.tolist() for column in prof.pair_samples(name)]
        for name in (PGASContext.COUNTER, ic.COUNTER)
    }
    events = {name: c.events() for name, c in prof.counters.items()}
    return columns, samples, events, ic.total_wire_bytes(), dict(pgas._last_done)


def _per_source(seen):
    """The part of a run's record that does not depend on the order the
    sources are booked in: links and per-pair samples grouped by source
    (each source's in booking order), counter events as a multiset (a tie
    across sources reads in booking order) and PE instants."""
    out = []
    for item in seen:
        if item[0] in ("quiet", "delivered"):
            out.append(item)
            continue
        columns, samples, events, _, last_done = item
        by_src = {
            name: [[column[i] for i in range(len(cols[0])) if cols[0][i] == src]
                   for column in cols for src in range(MULTI_G)]
            for name, cols in samples.items()
        }
        events = {name: sorted(samples) for name, samples in events.items()}
        out.append((sorted(columns), by_src, events, last_done))
    return out


@settings(deadline=None, max_examples=150)
@given(
    rows=_multi_runs(),
    foreign=st.lists(st.tuples(_multi_at, st.sampled_from(["book_wave", "transfer"]), _pair,
                               st.sampled_from([512.0, 3000.5])), max_size=3),
    faults=st.tuples(st.tuples(_multi_at, _pair), st.tuples(_multi_at, _pair)),
    settle_at=_multi_at,
    quiet_at=_multi_at,
    quiet_pes=st.lists(st.integers(0, MULTI_G - 1), min_size=1, max_size=3, unique=True),
)
def test_a_settle_stacks_every_source_as_its_waves(rows, foreign, faults, settle_at, quiet_at,
                                                   quiet_pes):
    """Several sources' runs (ragged, puts and atomics mixed, a row with
    two runs, a row that queues behind its own run), settled once by
    ``settle()`` and once by ``quiet`` over a subset, with every stack
    taken (the threshold patched to 1): equal bit for bit to each row
    settled on its own, in the order the settle names the rows, with each
    retired wave booked through its own ``put``/``atomic_add`` call, and,
    in everything but the order across sources, to the per-wave engine
    entries."""
    args = (rows, foreign, faults, settle_at, quiet_at, quiet_pes)
    entries = _multi_simulate(*args, mode="entries")
    book_prefix = Interconnect._book_prefix

    def wave_by_wave(self, row, run, start, stop):
        for w in range(start, stop):
            book_prefix(self, row, run, w, w + 1)

    def row_by_row(self, srcs=None):
        pending = self._pending
        names = list(pending) if srcs is None else [src for src in srcs if src in pending]
        for src in names:
            self._settle_row(pending[src])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Interconnect, "settle", row_by_row)
        mp.setattr(Interconnect, "_book_prefix", wave_by_wave)
        per_wave = _multi_simulate(*args, mode="deferred")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interconnect_module, "STACK_MIN_WRITES", 1)
        stacked = _multi_simulate(*args, mode="deferred")
    assert stacked == per_wave
    assert _per_source(stacked) == _per_source(entries)


class TestTypedErrors:
    """``put``/``atomic_add`` with ``at`` check every wave before booking
    any, each raising as its own wave put would; a plan whose bytes fail
    the screen takes no run, so a stepped-like per-wave put raises at the
    bad wave's end."""

    def test_put_at_raises_the_wave_puts_error(self):
        pgas = PGASContext(dgx_v100(G))
        with pytest.raises(ValueError, match=r"payload_bytes\[2\]"):
            pgas.put(SRC, OTHERS, [[1.0, 2.0, 3.0], [1.0, 2.0, -1.0]], at=[0.0, 0.0])
        with pytest.raises(TypeError, match=r"n_elements\[0\] must be an integer"):
            pgas.atomic_add(SRC, OTHERS, [[1.5, 0, 0]], at=[0.0])
        with pytest.raises(ValueError, match="one issue instant per wave"):
            pgas.put(SRC, OTHERS, [[1.0, 2.0, 3.0]], at=[0.0, 0.0])
        assert _writes(pgas.cluster) == (0, 0.0) and not pgas.cluster.interconnect.links()

    def test_a_matrix_raises_as_its_lists_would(self):
        pgas = PGASContext(dgx_v100(G))
        with pytest.raises(ValueError, match=r"payload_bytes\[2\]"):
            pgas.put(SRC, OTHERS, np.array([[1.0, 2.0, 3.0], [1.0, 2.0, np.nan]]), at=[0.0, 0.0])
        with pytest.raises(ValueError, match="one issue instant per wave"):
            pgas.put(SRC, OTHERS, np.ones((1, 3)), at=[0.0, 0.0])
        with pytest.raises(ValueError, match=r"dst\[1\] must be a device id"):
            pgas.put(SRC, [0, 2.0, 3], np.ones((1, 3)), at=[0.0])
        with pytest.raises(TypeError, match=r"n_elements\[0\] must be an integer"):
            pgas.atomic_add(SRC, OTHERS, np.full((1, 3), 1.5), at=[0.0])
        with pytest.raises(ValueError, match=r"n_elements\[1\] must be non-negative"):
            pgas.atomic_add(SRC, OTHERS, np.array([[1, -1, 0]]), at=[0.0])
        assert _writes(pgas.cluster) == (0, 0.0) and not pgas.cluster.interconnect.links()

    def test_a_bad_plan_takes_no_run(self):
        pgas = PGASContext(dgx_v100(G))
        for bad in (-1.0, np.nan, np.inf):
            plan = _LaunchPlan(None, np.array([[0.0, 0.0, 256.0, bad]]), OTHERS, pgas, SRC)
            assert not plan.deferrable and not plan.take_run([5.0], [1.0])
        hook = _GradientAtomics(pgas, 0, [1, 2], [np.inf, 8.0])
        assert not hook.take_run([5.0], [1.0])
        assert not pgas.cluster.interconnect._pending

    def test_a_source_without_peer_access_is_declined(self):
        pgas = PGASContext(_no_pair_01())
        assert not pgas.put_run(0, [1, 2], [5.0], np.array([[0.0, 1.0, 1.0]]), 0)
        assert not pgas.put_run(7, [1, 2], [5.0], np.array([[0.0, 1.0, 1.0]]), 0)
        assert pgas.put_run(0, [2], [5.0], np.array([[0.0, 1.0]]), 0)


def _no_pair_01() -> Cluster:
    """Three GPUs on NVLink, except that devices 0 and 1 are not joined."""
    def spec(s, d):
        return None if {s, d} == {0, 1} else NVLINK_PAIR_SPEC

    return Cluster(3, topology=Topology(3, spec, name="no-0-1"))


# -- the fused passes ----------------------------------------------------------------

#: 1024 blocks per device at G=4: two waves per fused kernel
TWO_WAVES = WorkloadConfig(num_tables=64, dim=32, batch_size=4096, max_pooling=8, seed=11)


def _pass_outputs(pass_cls, stepped_run: bool, windows=(), monkeypatch=None):
    emb = DistributedEmbedding(TWO_WAVES, 4, backend="pgas")
    wls = build_device_workloads(emb.plan, SyntheticDataGenerator(TWO_WAVES).lengths_batch())
    cl = dgx_v100(4)
    if stepped_run:
        stepped.step_launches(cl, monkeypatch)
    events = [
        FaultEvent(kind, start, start + length, device=dev,
                   **({"severity": severity} if kind == "device_slowdown" else {}))
        for kind, dev, start, length, severity in windows
    ]
    FaultInjector(cl, FaultPlan(tuple(events))).install()
    engine = pass_cls(cl)
    timing = engine.run_batch(wls)
    prof = cl.profiler
    samples = prof.pair_samples(PGASContext.COUNTER)
    # Each source's samples in booking order: a deferred run is booked when
    # its own row is next touched, so only the order across sources moves.
    by_src = [[column[samples.src == src].tolist() for column in samples] for src in range(4)]
    return (
        timing.as_dict(), dict(engine.pgas._last_done), by_src,
        {name: c.events() for name, c in prof.counters.items()},
        sorted((lk.src, lk.dst, lk._free_at, lk.busy_time, lk.bytes_carried)
               for lk in cl.interconnect.links()),
    ), cl.engine._seq


def _booked_and_stepped(pass_cls, windows=()):
    booked = _pass_outputs(pass_cls, False, windows)
    with pytest.MonkeyPatch.context() as mp:
        return booked, _pass_outputs(pass_cls, True, windows, mp)


@pytest.mark.parametrize("pass_cls", [PGASFusedRetrieval, PGASFusedBackward])
def test_a_booked_pass_equals_its_stepped_pass(pass_cls):
    """The forward's puts and the backward's atomics, deferred as runs by
    booked kernels, equal the per-wave writes of stepped kernels."""
    (booked, booked_seq), (stepped_out, stepped_seq) = _booked_and_stepped(pass_cls)
    assert booked == stepped_out
    assert booked_seq < stepped_seq


#: a fused kernel's two waves end within about 1.2 ms of the start
_fault_window = st.tuples(
    st.sampled_from(["device_slowdown", "device_stall"]),
    st.integers(0, 3),
    st.integers(0, 1200).map(lambda n: n * 1e3),
    st.integers(1, 400).map(lambda n: n * 1e3),
    st.sampled_from([1.5, 2.0, 3.0]),
)


@settings(deadline=None, max_examples=30)
@given(
    pass_cls=st.sampled_from([PGASFusedRetrieval, PGASFusedBackward]),
    windows=st.lists(_fault_window, min_size=1, max_size=4),
)
def test_a_booked_pass_equals_its_stepped_pass_under_a_fault_plan(pass_cls, windows):
    """Slowdown and stall windows on the devices time the booked launches
    (and so the instants of their deferred writes) as they time the
    stepped ones."""
    (booked, _), (stepped_out, _) = _booked_and_stepped(pass_cls, windows)
    assert booked == stepped_out


# -- the backward's atomic counts ----------------------------------------------------


class _Recorder:
    """Stands in for a PGAS context: records the counts of a deferred run."""

    def __init__(self):
        self.counts = None

    def atomic_run(self, src, dsts, ends, counts):
        self.counts = counts
        return True


@settings(deadline=None, max_examples=300)
@given(
    fracs=st.lists(
        st.sampled_from([0.5, 0.25, 0.125, 1.0, 0.375]) | st.floats(0.0, 1.0),
        min_size=1, max_size=5,
    ),
    remote=st.lists(
        st.integers(0, 10_000).map(lambda k: (2 * k + 1) * 4.0)  # half an atomic: .5 shares
        | st.floats(0.0, 1e9),
        min_size=1, max_size=4,
    ),
)
def test_run_counts_round_half_to_even_like_round(fracs, remote):
    rec = _Recorder()
    hook = _GradientAtomics(rec, 0, list(range(1, len(remote) + 1)), remote)
    assert hook.take_run([1.0] * len(fracs), fracs)
    expected = [[int(round(nbytes * frac / 8)) for nbytes in remote] for frac in fracs]
    assert rec.counts.tolist() == expected


def test_exact_half_shares_round_to_even():
    rec = _Recorder()
    # 12 / 8 = 1.5 -> 2 and 20 / 8 = 2.5 -> 2, as round() gives.
    _GradientAtomics(rec, 0, [1, 2], [12.0, 20.0]).take_run([1.0], [1.0])
    assert rec.counts.tolist() == [[2, 2]] == [[round(1.5), round(2.5)]]


# -- the backward's drag -------------------------------------------------------------


def test_backward_drag_weights_the_first_hops_and_raises_the_forwards_error():
    """On three GPUs without the pair (0, 1), the backward prices its drag
    from the first hops it has and raises the forward's typed error at the
    first atomic to the missing peer, not an ``AttributeError``."""
    cfg = WorkloadConfig(num_tables=6, dim=16, batch_size=256, max_pooling=4, seed=3)
    emb = DistributedEmbedding(cfg, 3, backend="pgas")
    wls = build_device_workloads(emb.plan, SyntheticDataGenerator(cfg).lengths_batch())
    with pytest.raises(PermissionError, match="has no peer access to device"):
        PGASFusedRetrieval(_no_pair_01()).run_batch(wls)
    with pytest.raises(PermissionError, match="has no peer access to device"):
        PGASFusedBackward(_no_pair_01()).run_batch(wls)


# -- typed errors ---------------------------------------------------------------------


@pytest.mark.parametrize("pass_cls", [PGASFusedRetrieval, PGASFusedBackward])
def test_a_declined_run_raises_the_per_wave_error_at_the_same_instant(pass_cls):
    """A run to a device without peer access is declined, so the booked
    launch raises the stepped oracle's error, message and instant."""
    cfg = WorkloadConfig(num_tables=6, dim=16, batch_size=256, max_pooling=4, seed=3)
    emb = DistributedEmbedding(cfg, 3, backend="pgas")
    wls = build_device_workloads(emb.plan, SyntheticDataGenerator(cfg).lengths_batch())
    raised = []
    for stepped_run in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            cl = _no_pair_01()
            if stepped_run:
                stepped.step_launches(cl, mp)
            with pytest.raises(PermissionError) as err:
                pass_cls(cl).run_batch(wls)
        raised.append((str(err.value), cl.engine.now))
    assert raised[0] == raised[1]


def test_a_bad_payload_raises_puts_error_at_its_waves_end():
    """A NaN in the second wave: the booked launch declines the run and
    puts wave by wave, so the first wave books and the second raises
    ``put``'s error, by position, at its end, as the stepped oracle does."""
    C = dgx_v100(1).devices[0].spec.concurrent_blocks
    raised = []
    for stepped_run in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            cl = dgx_v100(G)
            dev = cl.devices[SRC]
            if stepped_run:
                stepped.step_launches(cl, mp)
            pgas = PGASContext(cl)
            waves = np.array([[1.0, 0.0, 256.0, 512.0], [0.0, 5.0, 256.0, np.nan]])
            plan = _LaunchPlan(None, waves, OTHERS, pgas, SRC)
            dev.default_stream.launch(dev, KernelSpec("k", 2 * C, bytes_read=1e6), plan)
            with pytest.raises(ValueError) as err:
                cl.engine.run()
        raised.append((str(err.value), cl.engine.now, _writes(cl)[0]))
    assert raised[0] == raised[1]
    assert "payload_bytes[2]" in raised[0][0] and raised[0][2] == 3
