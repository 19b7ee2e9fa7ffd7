"""Tests for result rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.breakdown import breakdown_from_scaling
from repro.bench.reporting import (
    ascii_series,
    format_table,
    render_breakdown,
    render_comm_volume,
    render_scaling_figure,
    render_speedup_table,
)
from repro.bench.commvolume import CommVolumeTrace
from repro.bench.scaling import run_weak_scaling
from repro.dlrm.data import WorkloadConfig


@pytest.fixture(scope="module")
def weak():
    cfg = WorkloadConfig(num_tables=4, rows_per_table=500, dim=8,
                         batch_size=512, max_pooling=4, seed=2)
    return run_weak_scaling(cfg, device_counts=(1, 2), n_batches=1)


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        # all rows same width
        assert len({len(l) for l in lines}) == 1

    def test_empty_rows(self):
        out = format_table(["x"], [])
        assert "x" in out


class TestRenderers:
    def test_speedup_table_contains_paper_row(self, weak):
        out = render_speedup_table(weak)
        assert "PGAS over baseline" in out
        assert "2 GPUs" in out
        assert "geomean" in out

    def test_scaling_figure_lists_all_counts(self, weak):
        out = render_scaling_figure(weak)
        assert "baseline factor" in out
        assert "Fig. 5" in out

    def test_breakdown_render(self, weak):
        out = render_breakdown(breakdown_from_scaling(weak))
        assert "sync+unpack" in out
        assert "PGAS total" in out

    def test_comm_volume_render(self):
        tr = CommVolumeTrace(
            backend="pgas", n_devices=2, total_ns=1000.0,
            times_ns=np.linspace(0, 1000, 11),
            volume_units=np.linspace(0, 100, 11),
        )
        out = render_comm_volume([tr])
        assert "pgas @ 2 GPUs" in out
        assert "*" in out


class TestAsciiSeries:
    def test_plots_points(self):
        out = ascii_series(np.arange(10), np.arange(10), width=20, height=5, label="lbl")
        assert "lbl" in out
        assert out.count("*") >= 5

    def test_empty(self):
        assert "(empty)" in ascii_series(np.array([]), np.array([]), label="e")

    def test_constant_series_safe(self):
        out = ascii_series(np.arange(5), np.ones(5))
        assert "*" in out

