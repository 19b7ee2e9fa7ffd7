"""Tests for the derived time-series gauges."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simgpu.profiler import Profiler
from repro.telemetry import (
    TimeSeries,
    comm_rate_series,
    compute_occupancy_series,
    gauge_series,
    link_stats,
    merged_intervals,
    run_window,
    sample_edges,
)


def traffic_profiler() -> Profiler:
    p = Profiler()
    p.record_span("k0", "compute", 0, 0.0, 1000.0)
    p.record_span("k1", "compute", 1, 500.0, 2000.0)
    for t in (100.0, 300.0, 900.0, 1500.0):
        p.add_wave("comm_bytes", 0, [1], [t], [256.0])
    return p


class TestGrid:
    def test_sample_edges_shape(self):
        edges = sample_edges(0.0, 100.0, 10)
        assert edges.shape == (11,)
        assert edges[0] == 0.0 and edges[-1] == 100.0

    def test_zero_width_window_degenerates_to_one_bin(self):
        edges = sample_edges(5.0, 5.0, 10)
        assert len(edges) == 2
        assert edges[1] > edges[0]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sample_edges(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            sample_edges(1.0, 0.0, 4)

    def test_nan_end_names_it(self):
        with pytest.raises(ValueError, match=r"sample_edges\.t_end must be finite"):
            sample_edges(0.0, float("nan"), 4)

    def test_fractional_bins_name_it(self):
        with pytest.raises(TypeError, match=r"sample_edges\.n_bins must be an int, got float"):
            sample_edges(0.0, 10.0, 2.5)

    def test_run_window_covers_spans_and_counters(self):
        p = traffic_profiler()
        t0, t1 = run_window(p)
        assert t0 == 0.0
        assert t1 == 2000.0

    def test_run_window_empty(self):
        assert run_window(Profiler()) == (0.0, 0.0)


class TestSeries:
    def test_comm_rate_conserves_volume(self):
        p = traffic_profiler()
        edges = sample_edges(*run_window(p), 20)
        s = comm_rate_series(p, edges)
        volume = float(np.sum(s.values * np.diff(edges)))
        assert volume == pytest.approx(4 * 256.0)

    def test_volume_conserved_with_event_on_first_edge(self):
        p = Profiler()
        p.add_count("comm_bytes", 0.0, 512.0)  # exactly at the window start
        p.add_count("comm_bytes", 50.0, 256.0)
        edges = sample_edges(0.0, 100.0, 4)
        s = comm_rate_series(p, edges)
        assert float(np.sum(s.values * np.diff(edges))) == pytest.approx(768.0)

    def test_occupancy_bounded_and_correct(self):
        p = traffic_profiler()
        edges = sample_edges(0.0, 2000.0, 20)
        occ = compute_occupancy_series(p, edges, device_id=None)
        assert np.all(occ.values >= 0.0) and np.all(occ.values <= 1.0)
        # compute covers [0, 2000] continuously -> every bin full
        assert np.all(occ.values == pytest.approx(1.0))

    def test_occupancy_per_device(self):
        p = traffic_profiler()
        edges = sample_edges(0.0, 2000.0, 4)  # 500 ns bins
        occ0 = compute_occupancy_series(p, edges, device_id=0)
        # device 0 computes only during [0, 1000]
        assert occ0.values.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_deviceless_span_counts_for_every_device(self):
        p = Profiler()
        p.record_span("fused", "fused", -1, 0.0, 100.0)
        edges = sample_edges(0.0, 100.0, 2)
        for dev in (0, 1, 7):
            occ = compute_occupancy_series(p, edges, device_id=dev)
            assert np.all(occ.values == 1.0)

    def test_gauge_series_reads_levels(self):
        p = Profiler()
        c = p.counter("serving.queue_depth", unit="requests")
        c.add(0.0, 1.0)
        c.add(10.0, 1.0)
        c.add(20.0, -2.0)
        edges = np.array([0.0, 5.0, 15.0, 25.0, 30.0])
        g = gauge_series(c, edges)
        assert g.values.tolist() == [1.0, 1.0, 2.0, 0.0]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries("x", "u", np.zeros(3), np.zeros(2), 1.0)


class TestLinks:
    EDGES = sample_edges(0.0, 2000.0, 10)  # 200 ns bins

    def test_per_pair_counters_parsed(self):
        stats = link_stats(traffic_profiler(), self.EDGES)
        assert set(stats) == {"dev0->dev1"}
        assert stats["dev0->dev1"]["bytes"] == 4 * 256.0

    def test_base_counter_not_a_pair(self):
        p = Profiler()
        p.add_count("comm_bytes", 0.0, 1.0)
        assert link_stats(p, sample_edges(0.0, 1.0, 4)) == {}

    def test_link_utilization_normalised_by_topology(self):
        from repro.simgpu.interconnect import nvlink_dgx1

        topology = nvlink_dgx1(2)
        raw = link_stats(traffic_profiler(), self.EDGES)["dev0->dev1"]["peak"]
        frac = link_stats(traffic_profiler(), self.EDGES, topology=topology)["dev0->dev1"]["peak"]
        assert frac == pytest.approx(raw / topology.link_spec(0, 1).bandwidth)

    def test_link_utilization_raw_without_topology(self):
        stats = link_stats(traffic_profiler(), self.EDGES)["dev0->dev1"]
        assert stats["peak"] == pytest.approx(256.0 / 200.0)  # one write in a bin, bytes/ns


class TestIntervals:
    def test_merge(self):
        p = Profiler()
        p.record_span("a", "compute", 0, 0.0, 10.0)
        p.record_span("b", "compute", 0, 5.0, 20.0)
        p.record_span("c", "compute", 0, 30.0, 40.0)
        assert merged_intervals(p, ("compute",), 0) == [(0.0, 20.0), (30.0, 40.0)]

    def test_device_filter_includes_global(self):
        p = Profiler()
        p.record_span("mine", "compute", 0, 0.0, 10.0)
        p.record_span("other", "compute", 1, 20.0, 30.0)
        p.record_span("global", "fused", -1, 40.0, 50.0)
        assert merged_intervals(p, ("compute", "fused"), 0) == [
            (0.0, 10.0),
            (40.0, 50.0),
        ]
