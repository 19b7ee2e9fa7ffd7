"""Tests for trace context propagation (TraceSpec / trace_scope /
``Cluster.then``)."""

from __future__ import annotations

import pytest

from repro.obs import TraceSpec, trace_scope
from repro.simgpu.cluster import Cluster
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
    """``Cluster.then`` runs a continuation under the ref active when it
    was registered."""

    def test_passthrough_when_disabled(self):
        cluster = Cluster(1)
        ev = cluster.engine.event()

        def fn():
            pass

        cluster.then(ev, fn)
        assert ev.callbacks == [fn]

    def test_arms_context_inside_frames_only(self):
        cluster = Cluster(1)
        prof = cluster.profiler
        ref = TraceRef(1, 2)
        seen = []

        def step():
            seen.append(prof.active_trace)
            prof.record_span("work", "phase", 0, 0.0, 1.0)

        with trace_scope(prof, ref):
            cluster.then(5.0, step)
        assert prof.active_trace is None
        cluster.engine.run()
        # Context is restored once the continuation returns.
        assert prof.active_trace is None
        assert seen == [ref]
        assert prof.spans[0].trace == ref

    def test_unhandled_throw_propagates(self):
        cluster = Cluster(1)
        prof = cluster.profiler

        def step():
            raise KeyError("k")

        with trace_scope(prof, TraceRef(0, 0)):
            cluster.then(1.0, step)
        with pytest.raises(KeyError):
            cluster.engine.run()
        assert prof.active_trace is None

    def test_interleaved_generators_keep_their_own_refs(self):
        cluster = Cluster(1)
        prof = cluster.profiler
        ref_a, ref_b = TraceRef(0, 0), TraceRef(0, 1)

        def worker(name, i=0):
            prof.record_span(f"{name}{i}", "phase", 0, float(i), float(i + 1))
            if i == 0:
                # A continuation registered inside a traced one keeps its ref.
                cluster.then(2.0, lambda: worker(name, 1))

        with trace_scope(prof, ref_a):
            cluster.then(1.0, lambda: worker("a"))
        with trace_scope(prof, ref_b):
            cluster.then(1.0, lambda: worker("b"))
        # The chains interleave: a, b, a, b.
        cluster.engine.run()
        assert [s.name for s in prof.spans] == ["a0", "b0", "a1", "b1"]
        by_name = {s.name: s.trace for s in prof.spans}
        assert by_name == {"a0": ref_a, "b0": ref_b, "a1": ref_a, "b1": ref_b}

    def test_engine_processes_attributed_per_batch(self):
        """Two traced chains on one engine attribute spans to themselves;
        an untraced callback in between records none."""
        cluster = Cluster(1)
        eng, prof = cluster.engine, cluster.profiler
        refs = [TraceRef(0, 0), TraceRef(0, 1)]

        def batch(i):
            t0 = eng.now
            done = eng.event()

            def finish():
                prof.record_span(f"batch{i}", "phase", 0, t0, eng.now)
                done.succeed()

            cluster.then(10.0 * (i + 1), finish)
            return done

        for i, ref in enumerate(refs):
            with trace_scope(prof, ref):
                batch(i)
        eng.call_in(15.0, lambda: prof.record_span("shared", "phase", 0, 0.0, 15.0))
        eng.run()
        assert [(s.name, s.trace) for s in prof.spans] == [
            ("batch0", refs[0]), ("shared", None), ("batch1", refs[1]),
        ]
