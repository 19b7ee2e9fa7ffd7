"""Tests for the paper-facing scalar metrics and their invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.retrieval import DistributedEmbedding
from repro.dlrm.data import SyntheticDataGenerator, WEAK_SCALING_BASE, WorkloadConfig
from repro.simgpu.profiler import Profiler
from repro.telemetry import (
    compute_metrics,
    gini,
    overlap_fraction,
    peak_to_mean,
    run_window,
    sample_edges,
)
from repro.telemetry.metrics import exposed_comm_ns

SMALL = WorkloadConfig(
    num_tables=8, rows_per_table=2048, dim=16, batch_size=512, max_pooling=8
)


def run_backend(cfg: WorkloadConfig, backend: str, n_devices: int = 2):
    emb = DistributedEmbedding(cfg, n_devices, backend=backend)
    emb.forward_timed(SyntheticDataGenerator(cfg).lengths_batch())
    return emb


class TestPrimitives:
    def test_peak_to_mean_flat_is_one(self):
        assert peak_to_mean(np.full(10, 3.0)) == pytest.approx(1.0)

    def test_peak_to_mean_burst(self):
        values = np.zeros(10)
        values[0] = 10.0
        assert peak_to_mean(values) == pytest.approx(10.0)

    def test_peak_to_mean_empty_and_zero(self):
        assert peak_to_mean(np.array([])) == 0.0
        assert peak_to_mean(np.zeros(5)) == 0.0

    def test_gini_uniform_is_zero(self):
        assert gini(np.full(8, 2.0)) == pytest.approx(0.0)

    def test_gini_concentrated_near_one(self):
        values = np.zeros(100)
        values[0] = 1.0
        assert gini(values) == pytest.approx(0.99)

    def test_gini_order_invariant(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(size=32)
        assert gini(values) == pytest.approx(gini(values[::-1]))


class TestOverlapFraction:
    def test_all_hidden(self):
        p = Profiler()
        p.record_span("fused", "fused", -1, 0.0, 100.0)
        p.add_wave("pgas_bytes", 0, [1], [50.0], [512.0])
        frac, hidden, total = overlap_fraction(p)
        assert frac == 1.0 and hidden == total == 512.0

    def test_none_hidden(self):
        p = Profiler()
        p.record_span("k", "compute", 0, 0.0, 100.0)
        p.add_wave("comm_bytes", 0, [1], [200.0], [512.0])
        frac, hidden, total = overlap_fraction(p)
        assert frac == 0.0 and hidden == 0.0 and total == 512.0

    def test_attribution_is_source_device(self):
        p = Profiler()
        # only device 1 is computing when the delivery lands
        p.record_span("k1", "compute", 1, 0.0, 100.0)
        p.add_wave("comm_bytes", 0, [1], [50.0], [512.0])
        frac, _, _ = overlap_fraction(p)
        assert frac == 0.0  # traffic is sourced by (idle) device 0
        frac1, _, total1 = overlap_fraction(p, device_id=1)
        assert total1 == 0.0  # device 1 sourced nothing

    def test_no_traffic(self):
        assert overlap_fraction(Profiler()) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("backend", ["pgas", "baseline"])
    def test_bounded_by_one_on_real_runs(self, backend):
        emb = run_backend(SMALL, backend)
        frac, hidden, total = overlap_fraction(emb.cluster.profiler)
        assert total > 0
        assert 0.0 <= frac <= 1.0
        assert hidden <= total


class TestExposedComm:
    def test_fully_overlapped_run_has_zero_exposure(self):
        emb = run_backend(SMALL, "pgas")
        p = emb.cluster.profiler
        edges = sample_edges(*run_window(p), 100)
        assert exposed_comm_ns(p, edges) == pytest.approx(0.0)

    def test_baseline_exposes_its_comm_phase(self):
        emb = run_backend(SMALL, "baseline")
        p = emb.cluster.profiler
        edges = sample_edges(*run_window(p), 100)
        assert exposed_comm_ns(p, edges) > 0.0


class TestWeakScalingInvariants:
    """The acceptance-criteria invariants, on the paper's weak workload."""

    @pytest.fixture(scope="class")
    def values(self):
        """Each backend's metric values by name."""
        cfg = WEAK_SCALING_BASE.scaled_tables(64 * 2)
        out = {}
        for backend in ("pgas", "baseline"):
            emb = run_backend(cfg, backend)
            metrics = compute_metrics(emb.cluster.profiler, 2, topology=emb.cluster.topology)
            out[backend] = {name: m["value"] for name, m in metrics.items()}
        return out

    def test_overlap_pgas_exceeds_baseline(self, values):
        pgas = values["pgas"]["overlap_fraction"]
        base = values["baseline"]["overlap_fraction"]
        assert pgas > base
        assert pgas <= 1.0 and base <= 1.0

    def test_baseline_burstier_peak_to_mean(self, values):
        pgas = values["pgas"]["link_peak_to_mean"]
        base = values["baseline"]["link_peak_to_mean"]
        assert base > pgas

    def test_baseline_burstier_gini(self, values):
        assert values["baseline"]["link_gini"] > values["pgas"]["link_gini"]

    def test_only_baseline_pays_unpack(self, values):
        assert values["baseline"]["unpack_share"] > 0.0
        assert values["pgas"]["unpack_share"] == 0.0

    def test_exposed_comm_only_on_baseline(self, values):
        assert values["baseline"]["exposed_comm_ns"] > 0.0
        assert values["pgas"]["exposed_comm_ns"] == pytest.approx(0.0)

    def test_same_comm_volume_both_backends(self, values):
        pgas = values["pgas"]["comm_bytes_total"]
        base = values["baseline"]["comm_bytes_total"]
        assert pgas == pytest.approx(base)


class TestRegistry:
    def test_compute_metrics_has_per_device_occupancy(self):
        emb = run_backend(SMALL, "pgas")
        metrics = compute_metrics(emb.cluster.profiler, 2)
        for dev in range(2):
            occ = metrics[f"compute_occupancy.dev{dev}"]
            assert occ["unit"] == "fraction"
            assert 0.0 < occ["value"] <= 1.0
