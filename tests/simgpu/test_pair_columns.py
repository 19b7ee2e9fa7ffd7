"""Per-pair link samples stored as columns, read through Counter views.

Every booking (a wave, a transfer, a collective chunk) stamps its
``counter.devS->devD`` samples into one ``(counter, src)`` column set.
The entry in ``Profiler.counters`` is a read-only view that must read
exactly what a plain :class:`Counter` fed the same samples reads, keep the
entry order runs have always had, and hold no reference cycle.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core.retrieval import DistributedEmbedding
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.simgpu.engine import Engine
from repro.simgpu.interconnect import Interconnect, nvlink_dgx1
from repro.simgpu.profiler import Counter, Profiler

PAIR = "comm_bytes.dev0->dev1"


def _fabric(n_devices=3):
    engine = Engine()
    prof = Profiler()
    return engine, prof, Interconnect(engine, nvlink_dgx1(n_devices), prof)


def _assert_reads_equal(view, plain):
    assert view.events() == plain.events()
    assert view.total == plain.total
    grid = np.linspace(0.0, 5000.0, 41)
    assert np.array_equal(view.values_at(grid), plain.values_at(grid))
    for got, want in zip(view.sample(0.0, 5000.0, 250.0), plain.sample(0.0, 5000.0, 250.0)):
        assert np.array_equal(got, want)


class TestPairViews:
    def test_waves_and_transfers_interleaved_on_one_pair(self):
        """Waves and transfers writing to one pair, at several instants and
        with reads in between, read like plain counters fed the same adds."""
        engine, prof, ic = _fabric()
        plain = {}

        def expect(name, t, delta):
            plain.setdefault(name, Counter(name)).add(t, delta)

        def wave(dsts, payloads):
            done = ic.book_wave(0, dsts, payloads, 256, 32, Interconnect.COUNTER)
            booked = [(d, p) for d, p in zip(dsts, payloads) if p]
            for (dst, payload), t in zip(booked, done):
                expect(f"comm_bytes.dev0->dev{dst}", t, payload)
                expect(Interconnect.COUNTER, t, payload)

        def transfer(dst, payload):
            ev = ic.transfer(0, dst, payload, message_bytes=256, header_bytes=32)
            engine.run()
            expect(Interconnect.COUNTER, ev.value, payload)
            expect(f"comm_bytes.dev0->dev{dst}", ev.value, payload)

        wave([1, 2, 1], [512.0, 256.0, 1024.0])
        transfer(1, 300.0)
        _assert_reads_equal(prof.counters[PAIR], plain[PAIR])
        wave([2, 1], [768.0, 256.0])
        transfer(2, 100.0)
        wave([1], [4096.0])
        for name, counter in plain.items():
            _assert_reads_equal(prof.counters[name], counter)

    def test_zero_payloads(self):
        """A wave books nothing for a zero payload; a transfer still does,
        and records a zero-byte sample."""
        engine, prof, ic = _fabric()
        assert ic.book_wave(0, [1, 2], [0.0, 0], 256, 32, "pgas_bytes") == []
        assert prof.counters == {}
        done = ic.book_wave(0, [2, 1], [0.0, 512.0], 256, 32, "pgas_bytes")
        assert list(prof.counters) == ["pgas_bytes.dev0->dev1", "pgas_bytes"]
        assert prof.counters["pgas_bytes.dev0->dev1"].events() == [(done[0], 512.0)]

        ev = ic.transfer(0, 2, 0.0)
        engine.run()
        assert ic.link(0, 2).transfer_count == 1
        assert prof.counters["comm_bytes.dev0->dev2"].events() == [(ev.value, 0.0)]

    def test_clear_drops_the_columns(self):
        engine, prof, ic = _fabric()
        ic.book_wave(0, [1, 2], [256.0, 512.0], 256, 32, "pgas_bytes")
        old = prof.counters["pgas_bytes.dev0->dev1"]
        prof.clear()
        assert prof.counters == {} and prof._pair_columns == {}
        done = ic.book_wave(0, [1], [1024.0], 256, 32, "pgas_bytes")
        assert list(prof.counters) == ["pgas_bytes.dev0->dev1", "pgas_bytes"]
        assert prof.counters["pgas_bytes.dev0->dev1"].events() == [(done[0], 1024.0)]
        # A view taken before the clear keeps reading its own columns.
        assert old.total == 256.0

    def test_disabled_then_enabled(self):
        engine, prof, ic = _fabric()
        prof.enabled = False
        ic.book_wave(0, [1, 2], [256.0, 512.0], 256, 32, "pgas_bytes")
        ic.transfer(0, 1, 128.0)
        assert prof.counters == {}
        prof.enabled = True
        done = ic.book_wave(0, [2, 1], [768.0, 64.0], 256, 32, "pgas_bytes")
        plain = Counter("pgas_bytes.dev0->dev1")
        plain.add(done[1], 64.0)
        _assert_reads_equal(prof.counters["pgas_bytes.dev0->dev1"], plain)
        assert list(prof.counters) == [
            "pgas_bytes.dev0->dev2", "pgas_bytes.dev0->dev1", "pgas_bytes",
        ]

    def test_views_are_read_only(self):
        engine, prof, ic = _fabric()
        ic.transfer(0, 1, 256.0)
        with pytest.raises(TypeError, match="read-only"):
            prof.counters[PAIR].add(0.0, 1.0)
        with pytest.raises(TypeError, match="read-only"):
            prof.add_count(PAIR, 0.0, 1.0)

    def test_views_form_no_cycle(self):
        def run():
            engine, prof, ic = _fabric()
            ic.book_wave(0, [1, 2], [256.0, 512.0], 256, 32, "pgas_bytes")
            ic.transfer(1, 0, 128.0)
            engine.run()
            for counter in prof.counters.values():
                counter.total

        gc.collect()
        gc.disable()
        try:
            run()
        finally:
            gc.enable()
        assert gc.collect() == 0


G8 = WorkloadConfig(num_tables=64, dim=64, batch_size=1024, max_pooling=32, seed=11)


def _pairs(base, srcs, n_devices=8):
    return [f"{base}.dev{s}->dev{d}" for s in srcs for d in range(n_devices) if d != s]


class TestEntryOrder:
    """``profiler.counters`` lists its entries in the order a G=8 run listed
    them when collective chunks stamped at delivery and puts pair by pair."""

    def _keys(self, backend):
        emb = DistributedEmbedding(G8, 8, backend=backend)
        emb.forward_timed(SyntheticDataGenerator(G8).lengths_batch())
        return list(emb.cluster.profiler.counters)

    def test_baseline_g8(self):
        assert self._keys("baseline") == ["comm_bytes"] + _pairs("comm_bytes", range(8))

    def test_pgas_g8(self):
        # Sources in the order their first kernel wave retired; the total
        # follows the first wave's pairs.
        first, *rest = (7, 3, 1, 5, 0, 6, 2, 4)
        assert self._keys("pgas") == (
            _pairs("pgas_bytes", [first]) + ["pgas_bytes"] + _pairs("pgas_bytes", rest)
        )
