"""Tests for the Chrome trace exporter."""

from __future__ import annotations

import json

import pytest

from repro.simgpu.profiler import Profiler
from repro.simgpu.trace import chrome_trace, summarize_spans, write_chrome_trace


def sample_profiler() -> Profiler:
    p = Profiler()
    p.record_span("kernel0", "compute", 0, 0.0, 1000.0)
    p.record_span("kernel1", "compute", 1, 100.0, 1200.0)
    p.record_span("alltoall", "comm", -1, 1200.0, 2000.0)
    p.add_wave("comm_bytes", 0, [1], [1500.0], [4096.0])
    return p


class TestChromeTrace:
    def test_span_events(self):
        trace = chrome_trace(sample_profiler(), counters=False)
        xs = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert len(xs) == 3
        k0 = next(e for e in xs if e["name"] == "kernel0")
        assert k0["pid"] == 0
        assert k0["ts"] == 0.0
        assert k0["dur"] == pytest.approx(1.0)  # 1000 ns == 1 us

    def test_deviceless_spans_go_to_host_row(self):
        trace = chrome_trace(sample_profiler(), counters=False)
        a2a = next(e for e in trace["traceEvents"] if e["name"] == "alltoall")
        assert a2a["pid"] == 9999

    def test_metadata_rows(self):
        trace = chrome_trace(sample_profiler(), counters=False)
        meta = [e for e in trace["traceEvents"] if e.get("ph") == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "GPU 0" in names and "host / fabric" in names

    def test_counter_events(self):
        trace = chrome_trace(sample_profiler(), counter_period_ns=500.0)
        cs = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
        assert cs, "expected counter events"
        # cumulative value visible at the end
        assert any(e["args"].get("comm_bytes") == 4096.0 for e in cs)
        # per-pair sub-counters are not exported (row explosion)
        assert all("dev0->dev1" not in e["name"] for e in cs)

    def test_json_serializable(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(sample_profiler(), str(path))
        data = json.loads(path.read_text())
        assert "traceEvents" in data
        assert data["displayTimeUnit"] == "ms"

    def test_empty_profiler(self):
        trace = chrome_trace(Profiler())
        assert trace["traceEvents"] == []


class TestFaultInstants:
    def test_fault_windows_become_instant_events(self):
        p = sample_profiler()
        p.record_span("link_degrade", "fault", -1, 500.0, 900.0)
        trace = chrome_trace(p, counters=False)
        instants = [e for e in trace["traceEvents"] if e.get("ph") == "i"]
        assert len(instants) == 1
        (ev,) = instants
        assert ev["name"] == "link_degrade"
        assert ev["cat"] == "fault"
        assert ev["s"] == "g"  # global scope: a full-height marker line
        assert ev["ts"] == pytest.approx(0.5)  # window start, in us
        # the fault window itself still exists as a complete span
        assert any(
            e.get("ph") == "X" and e["cat"] == "fault"
            for e in trace["traceEvents"]
        )

    def test_no_instants_without_faults(self):
        trace = chrome_trace(sample_profiler(), counters=False)
        assert not [e for e in trace["traceEvents"] if e.get("ph") == "i"]


class TestSummary:
    def test_summarize_spans(self):
        text = summarize_spans(sample_profiler())
        assert "compute" in text
        assert "comm" in text
        # compute: two spans, sum 2100 ns = 2.1 us, wall merged 1.2 us
        assert " 2 " in text

    def test_per_device_rows(self):
        # Regression: categories spanning several devices used to collapse
        # into one aggregate row, losing device attribution.
        text = summarize_spans(sample_profiler())
        lines = text.splitlines()
        compute_total = next(ln for ln in lines if ln.startswith("compute"))
        assert "total" in compute_total
        assert any("dev0" in ln for ln in lines)
        assert any("dev1" in ln for ln in lines)
        # single-device categories keep just their total row
        assert not any("host" in ln for ln in lines)

    def test_per_device_wall_attribution(self):
        p = Profiler()
        p.record_span("k0", "compute", 0, 0.0, 1000.0)
        p.record_span("k1", "compute", 1, 0.0, 3000.0)
        text = summarize_spans(p)
        dev1 = next(ln for ln in text.splitlines() if "dev1" in ln)
        assert "3.0" in dev1  # 3000 ns = 3.0 us, this device's own wall

    def test_deviceless_rows_print_as_host(self):
        p = Profiler()
        p.record_span("k0", "compute", 0, 0.0, 10.0)
        p.record_span("a2a", "compute", -1, 0.0, 10.0)
        text = summarize_spans(p)
        assert any("host" in ln for ln in text.splitlines())

    def test_empty(self):
        assert "category" in summarize_spans(Profiler())
