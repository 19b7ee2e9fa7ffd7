"""Tests for the RunReport schema, round-trip, and collection."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.comm.hier import HierSpec
from repro.core.factory import FeatureSpec
from repro.core.retrieval import DistributedEmbedding
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.faults import FaultEvent, FaultInjector, FaultPlan, ResilienceSpec
from repro.simgpu.cluster import multinode, pcie_node
from repro.simgpu.profiler import Profiler
from repro.simgpu.units import us
from repro.telemetry import (
    QUEUE_DEPTH_COUNTER,
    ReportValidationError,
    RunReport,
    collect_run_report,
    compute_metrics,
    overlap_fraction,
    validate_report,
)

SMALL = WorkloadConfig(
    num_tables=8, rows_per_table=2048, dim=16, batch_size=512, max_pooling=8
)


@pytest.fixture(scope="module")
def real_report() -> RunReport:
    emb = DistributedEmbedding(SMALL, 2, backend="pgas")
    timing = emb.forward_timed(SyntheticDataGenerator(SMALL).lengths_batch())
    return collect_run_report(
        emb.cluster.profiler,
        backend="pgas",
        n_devices=2,
        workload=SMALL,
        timing=timing,
        topology=emb.cluster.topology,
        meta={"note": "unit-test"},
    )


class TestRoundTrip:
    def test_bit_exact_round_trip(self, real_report):
        text = real_report.to_json()
        assert RunReport.from_json(text).to_json() == text

    def test_round_trip_with_indent(self, real_report):
        text = real_report.to_json(indent=2)
        back = RunReport.from_json(text)
        assert back.to_json(indent=2) == text

    def test_json_is_sorted_and_plain(self, real_report):
        data = json.loads(real_report.to_json())
        assert list(data) == sorted(data)
        # numpy leaked into the artifact would break canonical serialisation
        def no_numpy(obj):
            if isinstance(obj, dict):
                return all(no_numpy(v) for v in obj.values())
            if isinstance(obj, list):
                return all(no_numpy(v) for v in obj)
            return not isinstance(obj, np.generic)

        assert no_numpy(data)

    def test_synthetic_report_round_trip(self):
        r = RunReport(backend="baseline", n_devices=4)
        r.metrics["x"] = {"value": 1.0, "unit": "ns", "description": ""}
        text = r.to_json()
        assert RunReport.from_json(text).to_json() == text


class TestValidation:
    def make_valid(self) -> dict:
        return RunReport(
            backend="pgas",
            n_devices=2,
            metrics={"m": {"value": 1.0, "unit": "ns", "description": "d"}},
        ).as_dict()

    def test_valid_passes(self):
        validate_report(self.make_valid())

    def test_not_a_dict(self):
        with pytest.raises(ReportValidationError):
            validate_report([1, 2, 3])

    @pytest.mark.parametrize("key", ["schema_version", "backend", "n_devices", "metrics"])
    def test_missing_required_key(self, key):
        data = self.make_valid()
        del data[key]
        with pytest.raises(ReportValidationError, match=key):
            validate_report(data)

    def test_unknown_key_rejected(self):
        data = self.make_valid()
        data["surprise"] = {}
        with pytest.raises(ReportValidationError, match="surprise"):
            validate_report(data)

    def test_wrong_type(self):
        data = self.make_valid()
        data["backend"] = 42
        with pytest.raises(ReportValidationError, match="backend"):
            validate_report(data)

    def test_bool_is_not_a_number(self):
        data = self.make_valid()
        data["metrics"]["m"]["value"] = True
        with pytest.raises(ReportValidationError, match="number"):
            validate_report(data)

    def test_bad_schema_version(self):
        data = self.make_valid()
        data["schema_version"] = 99
        with pytest.raises(ReportValidationError, match="schema_version"):
            validate_report(data)

    def test_bad_n_devices(self):
        data = self.make_valid()
        data["n_devices"] = 0
        with pytest.raises(ReportValidationError, match="n_devices"):
            validate_report(data)

    def test_metric_missing_unit(self):
        data = self.make_valid()
        data["metrics"]["m"] = {"value": 1.0}
        with pytest.raises(ReportValidationError, match="unit"):
            validate_report(data)

    def test_timing_must_be_numeric(self):
        data = self.make_valid()
        data["timing"] = {"total_ns": "fast"}
        with pytest.raises(ReportValidationError, match="timing"):
            validate_report(data)

    def test_fault_window_needs_bounds(self):
        data = self.make_valid()
        data["faults"] = {"windows": [{"name": "nic_flap"}], "counters": {}}
        with pytest.raises(ReportValidationError, match="t_start_ns"):
            validate_report(data)


class TestCollection:
    def test_real_report_contents(self, real_report):
        assert real_report.backend == "pgas"
        assert real_report.n_devices == 2
        assert real_report.workload["num_tables"] == 8
        assert real_report.timing  # phase timing attached
        assert 0.0 <= real_report.metric("overlap_fraction") <= 1.0
        assert real_report.links, "expected per-link stats"
        for stats in real_report.links.values():
            assert stats["bytes"] > 0
        assert real_report.meta == {"note": "unit-test"}

    def test_series_toggle(self, real_report):
        assert "comm_rate" in real_report.series
        assert "compute_occupancy.dev0" in real_report.series
        emb = DistributedEmbedding(SMALL, 2, backend="pgas")
        emb.forward_timed(SyntheticDataGenerator(SMALL).lengths_batch())
        slim = collect_run_report(
            emb.cluster.profiler, backend="pgas", n_devices=2, include_series=False
        )
        assert slim.series == {}
        assert slim.metrics  # metrics survive the toggle

    def test_queue_depth_series_when_counter_present(self):
        p = Profiler()
        p.record_span("k", "compute", 0, 0.0, 100.0)
        p.add_count(QUEUE_DEPTH_COUNTER, 10.0, 1.0, unit="requests")
        p.add_count(QUEUE_DEPTH_COUNTER, 50.0, -1.0, unit="requests")
        r = collect_run_report(p, backend="pgas", n_devices=1)
        assert QUEUE_DEPTH_COUNTER in r.series
        assert r.series[QUEUE_DEPTH_COUNTER]["unit"] == "requests"

    def test_fault_windows_collected(self):
        p = Profiler()
        p.record_span("k", "compute", 0, 0.0, 100.0)
        p.record_span("link_degrade", "fault", -1, 20.0, 60.0)
        p.add_count("faults.injected", 20.0, 1.0)
        r = collect_run_report(p, backend="pgas", n_devices=1)
        assert len(r.faults["windows"]) == 1
        window = r.faults["windows"][0]
        assert window["name"] == "link_degrade"
        assert window["t_start_ns"] == 20.0 and window["t_end_ns"] == 60.0
        assert r.faults["counters"] == {"faults.injected": 1.0}
        validate_report(r.as_dict())

    def test_cache_counters_collected(self):
        p = Profiler()
        p.record_span("k", "compute", 0, 0.0, 100.0)
        p.add_count("cache.hits", 10.0, 7.0)
        p.add_count("cache.misses", 10.0, 3.0)
        r = collect_run_report(p, backend="pgas", n_devices=1)
        assert r.cache == {"cache.hits": 7.0, "cache.misses": 3.0}

    def test_registry_view(self, real_report):
        reg = real_report.registry
        assert reg.value("overlap_fraction") == real_report.metric("overlap_fraction")

    def test_bad_payload_type_raises(self):
        p = Profiler()
        p.record_span("k", "compute", 0, 0.0, 100.0)
        with pytest.raises(TypeError):
            collect_run_report(p, backend="pgas", n_devices=1, workload=object())


class TestSinglePassOverlap:
    """The metrics walk the per-pair counters once; nothing may move."""

    @pytest.fixture(scope="class")
    def mixed_run(self):
        # A pgas batch (hidden under its fused span) around a smaller
        # baseline batch (exposed all-to-all) on one profiler, so every
        # overlap figure is a non-trivial sum over both kinds of counter.
        cfg = WorkloadConfig(num_tables=32, dim=64, batch_size=1024, max_pooling=2, seed=3)
        emb = DistributedEmbedding(cfg, 8, backend="pgas", cluster=pcie_node(8))
        gen = SyntheticDataGenerator(cfg)
        emb.forward_timed(gen.lengths_batch())
        small = SyntheticDataGenerator(replace(cfg, batch_size=600, seed=4))
        emb.forward_timed(small.lengths_batch(), backend="baseline")
        emb.forward_timed(gen.lengths_batch())
        return emb.cluster

    def test_report_json_matches_the_per_device_implementation(self, mixed_run):
        # Digest of the report as produced when compute_metrics called
        # overlap_fraction once per device (G + 1 parses of the counters).
        report = collect_run_report(
            mixed_run.profiler, backend="pgas", n_devices=8, topology=mixed_run.topology
        )
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == "283e6faf89476064d870eedd4ffc6f01a9a72d07b102075ad469050f925bae0a"
        assert report.metric("overlap_fraction") == 0.7734138972809668

    def test_metrics_equal_public_overlap_fraction(self, mixed_run):
        prof = mixed_run.profiler
        reg = compute_metrics(prof, 8, topology=mixed_run.topology)
        frac, hidden, total = overlap_fraction(prof)
        assert (reg.value("overlap_fraction"), reg.value("comm_bytes_hidden"),
                reg.value("comm_bytes_total")) == (frac, hidden, total)
        for dev in range(8):
            assert reg.value(f"overlap_fraction.dev{dev}") == overlap_fraction(prof, dev)[0]
        assert overlap_fraction(prof, 99) == (0.0, 0.0, 0.0)


HIER_2X4 = WorkloadConfig(num_tables=64, dim=64, batch_size=1024, max_pooling=32, seed=11)
RESILIENT_G4 = WorkloadConfig(
    num_tables=16, rows_per_table=4096, dim=32, batch_size=1024, max_pooling=8, seed=11
)
FLAT_G16 = WorkloadConfig(num_tables=64, dim=32, batch_size=1024, max_pooling=8, seed=11)


def _digest(report: RunReport) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


class TestReportDigests:
    """Whole-report pins for runs whose sections carry per-link entries.

    ``hier`` and ``faults`` list one ``counter.devS->devD`` total per link
    next to the counter's own total, and ``links`` holds one entry per
    directed link; none of it may move when the per-link storage does.
    """

    @pytest.mark.parametrize(
        "backend, digest",
        [
            pytest.param(
                "pgas+hier",
                "2867c14ac50c84a014fcc959b61e1d056472cbe31efebb977f5c0e850798f8a2",
                id="pgas+hier",
            ),
            pytest.param(
                "baseline+hier",
                "59b6c2136c68126785757e1c3cda02c84ed16691cab615f6d5db15fd719b4934",
                id="baseline+hier",
            ),
        ],
    )
    def test_hier_2x4(self, backend, digest):
        emb = DistributedEmbedding(
            HIER_2X4, 8, backend=backend, cluster=multinode(2, 4),
            features=FeatureSpec(hier=HierSpec(devices_per_node=4)),
        )
        emb.forward_timed(SyntheticDataGenerator(HIER_2X4).lengths_batch())
        report = emb.telemetry_report()
        assert any("->" in name for name in report.hier)
        assert _digest(report) == digest

    def test_pgas_resilient_reroute(self):
        spec = ResilienceSpec(deadline_ns=200 * us, max_retries=2, backoff_base_ns=5 * us)
        emb = DistributedEmbedding(
            RESILIENT_G4, 4, backend="pgas+resilient",
            features=FeatureSpec(resilience=spec),
        )
        FaultInjector(emb.cluster, FaultPlan((
            FaultEvent("link_down", 0.0, 1e9, src=1, dst=0),
            FaultEvent("link_degrade", 0.0, 150 * us, src=2, dst=3, severity=0.05),
        ))).install()
        emb.forward_timed(SyntheticDataGenerator(RESILIENT_G4).lengths_batch())
        report = emb.telemetry_report()
        counters = report.faults["counters"]
        assert counters["faults.rerouted_bytes.dev1->dev2"] == 262144.0
        assert counters["faults.rerouted_bytes.dev2->dev0"] == 262144.0
        assert _digest(report) == "88240617e0f863ae623caa6332f05a05ec0f75285317b1aa59cdc3dc28792206"

    @pytest.mark.parametrize(
        "backend, digest",
        [
            pytest.param(
                "pgas",
                "f665184e5e9439f00aab71dc33358022cb78a1f4586c207ef01f203f580289ac",
                id="pgas",
            ),
            pytest.param(
                "baseline",
                "68698de8796865e78dc11163362561824e6a753203d5f1fad70d525b0b98a3ae",
                id="baseline",
            ),
        ],
    )
    def test_g16(self, backend, digest):
        emb = DistributedEmbedding(FLAT_G16, 16, backend=backend)
        emb.forward_timed(SyntheticDataGenerator(FLAT_G16).lengths_batch())
        report = emb.telemetry_report()
        assert len(report.links) == 16 * 15
        assert _digest(report) == digest
