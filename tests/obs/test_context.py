"""Tests for trace context propagation (TraceSpec / trace_scope / traced)."""

from __future__ import annotations

import pytest

from repro.obs import TraceSpec, trace_scope, traced
from repro.simgpu.engine import Engine
from repro.simgpu.profiler import Profiler, TraceRef


class TestTraceSpec:
    def test_defaults(self):
        spec = TraceSpec()
        assert spec.enabled is True
        assert spec.trace_id == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceSpec(enabled="yes")
        with pytest.raises(ValueError):
            TraceSpec(trace_id=-1)
        with pytest.raises(ValueError):
            TraceSpec(trace_id=1.5)
        with pytest.raises(ValueError):
            TraceSpec(trace_id=True)  # bools are not trace ids

    def test_frozen(self):
        with pytest.raises(Exception):
            TraceSpec().enabled = False


class TestTraceScope:
    def test_stamps_spans_inside_scope_only(self):
        prof = Profiler()
        ref = TraceRef(0, 7)
        prof.record_span("before", "phase", 0, 0.0, 1.0)
        with trace_scope(prof, ref):
            prof.record_span("inside", "phase", 0, 1.0, 2.0)
        prof.record_span("after", "phase", 0, 2.0, 3.0)
        traces = [s.trace for s in prof.spans]
        assert traces == [None, ref, None]

    def test_nests_and_restores(self):
        prof = Profiler()
        outer, inner = TraceRef(0, 0), TraceRef(0, 1)
        with trace_scope(prof, outer):
            with trace_scope(prof, inner):
                assert prof.active_trace == inner
            assert prof.active_trace == outer
        assert prof.active_trace is None

    def test_restores_on_exception(self):
        prof = Profiler()
        with pytest.raises(RuntimeError):
            with trace_scope(prof, TraceRef(0, 0)):
                raise RuntimeError("boom")
        assert prof.active_trace is None

    def test_none_profiler_or_ref_is_noop(self):
        prof = Profiler()
        with trace_scope(None, TraceRef(0, 0)):
            pass
        with trace_scope(prof, None):
            assert prof.active_trace is None


class TestTraced:
    def test_passthrough_when_disabled(self):
        def gen():
            yield 1

        g = gen()
        assert traced(g, None, TraceRef(0, 0)) is g
        assert traced(g, Profiler(), None) is g

    def test_arms_context_inside_frames_only(self):
        prof = Profiler()
        ref = TraceRef(1, 2)
        seen = []

        def gen():
            seen.append(prof.active_trace)
            prof.record_span("work", "phase", 0, 0.0, 1.0)
            yield "a"
            seen.append(prof.active_trace)

        g = traced(gen(), prof, ref)
        assert next(g) == "a"
        # Context is restored while the generator is suspended.
        assert prof.active_trace is None
        with pytest.raises(StopIteration):
            next(g)
        assert seen == [ref, ref]
        assert prof.spans[0].trace == ref

    def test_return_value_preserved(self):
        def gen():
            yield 1
            return "result"

        g = traced(gen(), Profiler(), TraceRef(0, 0))
        next(g)
        with pytest.raises(StopIteration) as exc:
            next(g)
        assert exc.value.value == "result"

    def test_send_values_forwarded(self):
        def gen():
            got = yield "first"
            yield got * 2

        g = traced(gen(), Profiler(), TraceRef(0, 0))
        assert next(g) == "first"
        assert g.send(21) == 42

    def test_unhandled_throw_propagates(self):
        def gen():
            yield "a"

        g = traced(gen(), Profiler(), TraceRef(0, 0))
        next(g)
        with pytest.raises(KeyError):
            g.throw(KeyError("k"))

    def test_interleaved_generators_keep_their_own_refs(self):
        prof = Profiler()
        ref_a, ref_b = TraceRef(0, 0), TraceRef(0, 1)

        def worker(name):
            for i in range(2):
                prof.record_span(f"{name}{i}", "phase", 0, float(i), float(i + 1))
                yield

        ga = traced(worker("a"), prof, ref_a)
        gb = traced(worker("b"), prof, ref_b)
        # Interleave resumptions: a, b, a, b.
        next(ga); next(gb); next(ga); next(gb)
        by_name = {s.name: s.trace for s in prof.spans}
        assert by_name == {"a0": ref_a, "b0": ref_b, "a1": ref_a, "b1": ref_b}

    def test_engine_processes_attributed_per_batch(self):
        """Two traced processes on one engine attribute spans to themselves."""
        eng = Engine()
        prof = Profiler()
        refs = [TraceRef(0, 0), TraceRef(0, 1)]

        def batch(i):
            t0 = eng.now
            yield eng.timeout(10.0 * (i + 1))
            prof.record_span(f"batch{i}", "phase", 0, t0, eng.now)

        for i, ref in enumerate(refs):
            eng.process(traced(batch(i), prof, ref), name=f"b{i}")
        eng.run()
        assert [s.trace for s in prof.spans] == refs
