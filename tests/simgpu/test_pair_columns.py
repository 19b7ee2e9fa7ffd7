"""Per-pair link samples stored as columns, one column set per counter.

Every booking (a wave, a transfer, a collective chunk) appends its
source, destination, delivery instant and payload to its counter's
columns.  ``Profiler.pair_samples`` returns them; the per-link counters
``Profiler.pair_counters`` splits them into must read exactly what a plain
:class:`Counter` fed the same samples reads.
"""

from __future__ import annotations

import numpy as np

from repro.simgpu.engine import Engine
from repro.simgpu.interconnect import Interconnect, nvlink_dgx1
from repro.simgpu.profiler import Counter, Profiler

PAIR = "comm_bytes.dev0->dev1"


def _fabric(n_devices=3):
    engine = Engine()
    prof = Profiler()
    return engine, prof, Interconnect(engine, nvlink_dgx1(n_devices), prof)


def _pairs(prof):
    """Every per-link counter of every counter, by name."""
    return {
        pair: link
        for name in prof.counters
        for pair, link in prof.pair_counters(name).items()
    }


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
            ic.transfer(0, dst, payload, message_bytes=256, header_bytes=32)
            engine.run()
            expect(Interconnect.COUNTER, engine.now, payload)
            expect(f"comm_bytes.dev0->dev{dst}", engine.now, payload)

        wave([1, 2, 1], [512.0, 256.0, 1024.0])
        transfer(1, 300.0)
        _assert_reads_equal(_pairs(prof)[PAIR], plain[PAIR])
        wave([2, 1], [768.0, 256.0])
        transfer(2, 100.0)
        wave([1], [4096.0])
        got = {**prof.counters, **_pairs(prof)}
        assert set(got) == set(plain)
        for name, counter in plain.items():
            _assert_reads_equal(got[name], counter)
        samples = prof.pair_samples(Interconnect.COUNTER)
        assert samples.src.tolist() == [0] * 8
        assert samples.dst.tolist() == [1, 2, 1, 1, 2, 1, 2, 1]
        assert samples.deltas.tolist() == [512.0, 256.0, 1024.0, 300.0, 768.0, 256.0, 100.0, 4096.0]

    def test_zero_payloads(self):
        """A wave books nothing for a zero payload; a transfer still does,
        and records a zero-byte sample."""
        engine, prof, ic = _fabric()
        assert ic.book_wave(0, [1, 2], [0.0, 0], 256, 32, "pgas_bytes") == []
        assert prof.counters == {}
        assert prof.pair_samples("pgas_bytes").src.size == 0
        done = ic.book_wave(0, [2, 1], [0.0, 512.0], 256, 32, "pgas_bytes")
        assert list(prof.counters) == ["pgas_bytes"]
        assert list(_pairs(prof)) == ["pgas_bytes.dev0->dev1"]
        assert _pairs(prof)["pgas_bytes.dev0->dev1"].events() == [(done[0], 512.0)]

        ic.transfer(0, 2, 0.0)
        engine.run()
        assert ic.link(0, 2).transfer_count == 1
        assert _pairs(prof)["comm_bytes.dev0->dev2"].events() == [(engine.now, 0.0)]

    def test_clear_drops_the_columns(self):
        engine, prof, ic = _fabric()
        ic.book_wave(0, [1, 2], [256.0, 512.0], 256, 32, "pgas_bytes")
        old = prof.pair_counters("pgas_bytes")["pgas_bytes.dev0->dev1"]
        prof.clear()
        assert prof.counters == {} and prof.pair_samples("pgas_bytes").src.size == 0
        done = ic.book_wave(0, [1], [1024.0], 256, 32, "pgas_bytes")
        assert list(prof.counters) == ["pgas_bytes"]
        assert list(_pairs(prof)) == ["pgas_bytes.dev0->dev1"]
        assert _pairs(prof)["pgas_bytes.dev0->dev1"].events() == [(done[0], 1024.0)]
        # A per-link counter taken before the clear is a copy and keeps its samples.
        assert old.total == 256.0

    def test_disabled_then_enabled(self):
        engine, prof, ic = _fabric()
        prof.enabled = False
        ic.book_wave(0, [1, 2], [256.0, 512.0], 256, 32, "pgas_bytes")
        ic.transfer(0, 1, 128.0)
        assert prof.counters == {}
        assert prof.pair_samples(Interconnect.COUNTER).src.size == 0
        prof.enabled = True
        done = ic.book_wave(0, [2, 1], [768.0, 64.0], 256, 32, "pgas_bytes")
        plain = Counter("pgas_bytes.dev0->dev1")
        plain.add(done[1], 64.0)
        _assert_reads_equal(_pairs(prof)["pgas_bytes.dev0->dev1"], plain)
        assert list(prof.counters) == ["pgas_bytes"]
        assert list(_pairs(prof)) == ["pgas_bytes.dev0->dev2", "pgas_bytes.dev0->dev1"]
