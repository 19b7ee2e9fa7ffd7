"""Chrome-trace id namespaces stay disjoint in a fully-loaded export.

Pre-observability, counter tracks shared pid 9999 with host spans and
fault instants landed on span pids — merged traces mis-attributed rows.
These tests pin the fixed layout: device spans on 0..G-1, host spans on
HOST_PID, telemetry gauges on 9998, fault instants on FAULT_PID, raw
counters on COUNTER_PID, and flow-event ids starting at FLOW_ID_BASE.
"""

from __future__ import annotations

import json

from repro.obs import TraceSpec, trace_scope
from repro.simgpu.profiler import Profiler, TraceRef
from repro.simgpu.trace import (
    COUNTER_PID,
    FAULT_PID,
    FLOW_ID_BASE,
    HOST_PID,
    chrome_trace,
)
from repro.telemetry.export import TELEMETRY_PID


def loaded_profiler(n_devices=2, n_batches=2):
    """A profiler exercising every event family at once."""
    prof = Profiler()
    for b in range(n_batches):
        base = 1000.0 * b
        with trace_scope(prof, TraceRef(0, b)):
            for d in range(n_devices):
                prof.record_span(f"emb.dev{d}", "kernel", d, base, base + 300.0)
                prof.record_span(f"xfer.dev{d}", "link", d, base + 300.0, base + 400.0)
            prof.record_span("fused", "fused", -1, base, base + 450.0)
    prof.record_span("dev1.down", "fault", 1, 500.0, 900.0)
    prof.counter("comm_bytes").add(0.0, 4096.0)
    prof.counter("cache.hits.dev0").add(100.0, 1.0)
    return prof


class TestPidNamespaces:
    def test_all_pid_constants_distinct(self):
        pids = {HOST_PID, FAULT_PID, COUNTER_PID, TELEMETRY_PID}
        assert len(pids) == 4
        assert FLOW_ID_BASE > max(pids)

    def test_combined_trace_namespaces_disjoint(self):
        prof = loaded_profiler()
        trace = chrome_trace(prof)
        span_pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        fault_pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "i"}
        counter_pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "C"}
        flow_ids = {e["id"] for e in trace["traceEvents"]
                    if e["ph"] in ("s", "t", "f")}
        assert span_pids == {0, 1, HOST_PID}
        assert fault_pids == {FAULT_PID}
        assert counter_pids == {COUNTER_PID}
        assert flow_ids and min(flow_ids) >= FLOW_ID_BASE
        # No family's ids bleed into another's.
        assert span_pids.isdisjoint(fault_pids)
        assert span_pids.isdisjoint(counter_pids)
        assert fault_pids.isdisjoint(counter_pids)

    def test_metadata_rows_name_every_namespace(self):
        trace = chrome_trace(loaded_profiler())
        meta = {e["pid"]: e["args"]["name"]
                for e in trace["traceEvents"] if e["ph"] == "M"}
        assert meta[HOST_PID] == "host / fabric"
        assert meta[FAULT_PID] == "faults"
        assert meta[COUNTER_PID] == "counters"
        assert meta[0] == "GPU 0"


class TestFlowEvents:
    def test_one_flow_per_batch_with_start_and_end(self):
        trace = chrome_trace(loaded_profiler(n_batches=3))
        flows = [e for e in trace["traceEvents"] if e["ph"] in ("s", "t", "f")]
        by_id = {}
        for e in flows:
            by_id.setdefault(e["id"], []).append(e)
        assert len(by_id) == 3
        for fid, events in by_id.items():
            phases = [e["ph"] for e in events]
            assert phases[0] == "s"
            assert phases[-1] == "f"
            assert events[-1]["bp"] == "e"  # bind to the enclosing slice
            assert all(p == "t" for p in phases[1:-1])

    def test_flows_bind_to_existing_slices(self):
        """Every flow event's (pid, ts) matches a span slice's start."""
        trace = chrome_trace(loaded_profiler())
        slice_keys = {(e["pid"], e["ts"]) for e in trace["traceEvents"]
                      if e["ph"] == "X"}
        for e in trace["traceEvents"]:
            if e["ph"] in ("s", "t", "f"):
                assert (e["pid"], e["ts"]) in slice_keys

    def test_flow_names_carry_trace_and_batch(self):
        trace = chrome_trace(loaded_profiler(n_batches=2))
        names = {e["name"] for e in trace["traceEvents"]
                 if e["ph"] in ("s", "t", "f")}
        assert names == {"trace0.batch0", "trace0.batch1"}

    def test_flows_flag_disables(self):
        trace = chrome_trace(loaded_profiler(), flows=False)
        assert not [e for e in trace["traceEvents"] if e["ph"] in ("s", "t", "f")]

    def test_single_span_batch_gets_no_arrow(self):
        prof = Profiler()
        with trace_scope(prof, TraceRef(0, 0)):
            prof.record_span("only", "fused", -1, 0.0, 10.0)
        trace = chrome_trace(prof)
        assert not [e for e in trace["traceEvents"] if e["ph"] in ("s", "t", "f")]

    def test_untraced_spans_get_no_flows(self):
        prof = Profiler()
        prof.record_span("a", "compute", 0, 0.0, 10.0)
        prof.record_span("b", "compute", 1, 10.0, 20.0)
        trace = chrome_trace(prof)
        assert not [e for e in trace["traceEvents"] if e["ph"] in ("s", "t", "f")]


class TestRoundTrip:
    def test_combined_trace_survives_json(self, tmp_path):
        trace = chrome_trace(loaded_profiler())
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))
        back = json.loads(path.read_text())
        assert back == trace

    def test_end_to_end_traced_run_export(self, tmp_path):
        """A real traced run exports spans + flows with disjoint namespaces."""
        from repro.core.factory import build_backend
        from repro.core.runspec import preset_runspec
        from repro.dlrm.data import SyntheticDataGenerator

        spec = preset_runspec("tiny", n_devices=2, obs=TraceSpec())
        emb = build_backend(spec)
        gen = SyntheticDataGenerator(spec.workload)
        emb.forward_timed(gen.lengths_batch())
        trace = chrome_trace(emb.cluster.profiler)
        back = json.loads(json.dumps(trace))
        flows = [e for e in back["traceEvents"] if e["ph"] in ("s", "t", "f")]
        assert flows
        assert all(e["id"] >= FLOW_ID_BASE for e in flows)
        span_pids = {e["pid"] for e in back["traceEvents"] if e["ph"] == "X"}
        assert span_pids <= {0, 1, HOST_PID}
