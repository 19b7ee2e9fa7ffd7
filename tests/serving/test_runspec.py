"""Tests for the unified RunSpec configuration API."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.cache import CacheConfig
from repro.core.factory import FeatureSpec
from repro.core.retrieval import FEATURE_CONFIGS
from repro.core.runspec import PRESETS, RunSpec, preset_runspec
from repro.core.serving import SchedulerSpec, ServingSpec
from repro.dlrm.data import WorkloadConfig
from repro.faults import ResilienceSpec
from repro.replication import ReplicationSpec
from repro.simgpu.units import ms

WL = WorkloadConfig(
    num_tables=8, rows_per_table=2048, dim=16, batch_size=64, max_pooling=4, seed=3
)


def full_spec():
    """A RunSpec exercising every optional section."""
    return RunSpec(
        workload=WL,
        n_devices=4,
        backend="pgas+cache",
        bottom_mlp=(128, 64),
        top_mlp=(256,),
        cache=CacheConfig(capacity_rows=512, capacity_fraction=0.2),
        resilience=ResilienceSpec(deadline_ns=2 * ms, seed=3),
        replication=ReplicationSpec(k=2),
        serving=ServingSpec(
            arrival_qps=50_000.0,
            max_batch=16,
            batch_window_ns=0.2 * ms,
            deadline_ns=10 * ms,
            scheduler=SchedulerSpec(max_in_flight=3),
        ),
        name="full",
    )


class TestRoundTrip:
    def test_dict_round_trip_bit_exact(self):
        spec = full_spec()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_bit_exact(self):
        spec = full_spec()
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_minimal_round_trip(self):
        spec = RunSpec(workload=WL)
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.cache is None and again.serving is None

    def test_round_trip_preserves_nested_types(self):
        again = RunSpec.from_dict(full_spec().to_dict())
        assert isinstance(again.cache, CacheConfig)
        assert isinstance(again.resilience, ResilienceSpec)
        assert isinstance(again.serving, ServingSpec)
        assert isinstance(again.serving.scheduler, SchedulerSpec)
        assert again.serving.scheduler.max_in_flight == 3


class TestValidation:
    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown backend"):
            RunSpec(workload=WL, backend="nccl")

    def test_bad_devices(self):
        with pytest.raises(ValueError):
            RunSpec(workload=WL, n_devices=0)

    def test_bad_mlp_widths(self):
        with pytest.raises(ValueError):
            RunSpec(workload=WL, bottom_mlp=(512, 0))

    def test_wrong_section_types(self):
        with pytest.raises(TypeError):
            RunSpec(workload={"num_tables": 8})
        with pytest.raises(TypeError):
            RunSpec(workload=WL, serving={"arrival_qps": 1.0})
        with pytest.raises(TypeError):
            RunSpec(workload=WL, serving=ServingSpec(arrival_qps=1.0, scheduler="hybrid"))

    def test_from_dict_rejects_unknown_keys(self):
        payload = RunSpec(workload=WL).to_dict()
        payload["gpus"] = 8
        with pytest.raises(ValueError, match="gpus"):
            RunSpec.from_dict(payload)

    def test_from_dict_requires_workload(self):
        with pytest.raises(ValueError, match="workload"):
            RunSpec.from_dict({"n_devices": 2})


class TestServingSpecMerge:
    def test_serving_required(self):
        with pytest.raises(ValueError):
            RunSpec(workload=WL).serving_spec()


class TestPresets:
    def test_preset_names(self):
        assert PRESETS == ("tiny", "weak", "strong")

    def test_tiny_shape(self):
        spec = preset_runspec("tiny")
        assert spec.workload.num_tables == 8
        assert spec.name == "tiny"

    def test_weak_scales_with_devices(self):
        assert preset_runspec("weak", n_devices=2).workload.num_tables == 128
        assert preset_runspec("weak", n_devices=4).workload.num_tables == 256

    def test_strong_is_fixed_total(self):
        assert (
            preset_runspec("strong", n_devices=2).workload.num_tables
            == preset_runspec("strong", n_devices=8).workload.num_tables
        )

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError):
            preset_runspec("huge")

    def test_overrides_pass_through(self):
        spec = preset_runspec("tiny", backend="baseline", name="custom")
        assert spec.backend == "baseline"
        assert spec.name == "custom"


class TestFromSpecConstructors:
    def test_build_backend_from_spec(self):
        from repro.core.factory import build_backend

        spec = RunSpec(workload=WL, n_devices=2, backend="baseline")
        emb = build_backend(spec)
        assert emb.backend == "baseline"
        assert emb.n_devices == 2

    def test_pipeline_from_spec(self):
        from repro.core.pipeline import DLRMInferencePipeline
        from repro.dlrm.data import SyntheticDataGenerator

        spec = RunSpec(workload=WL, n_devices=2, backend="pgas")
        pipe = DLRMInferencePipeline.from_spec(spec)
        assert pipe.backend == "pgas"
        lengths = SyntheticDataGenerator(WL).lengths_batch()
        timing = pipe.run_batch(lengths)
        assert timing.total_ns > 0

    def test_pipeline_from_spec_applies_cache(self):
        from repro.core.pipeline import DLRMInferencePipeline
        from repro.dlrm.data import SyntheticDataGenerator

        spec = RunSpec(
            workload=WL, n_devices=2, backend="pgas+cache",
            cache=CacheConfig(capacity_rows=256),
        )
        pipe = DLRMInferencePipeline.from_spec(spec)
        batch = SyntheticDataGenerator(WL).sparse_batch()
        assert pipe.run_batch(batch=batch).total_ns > 0


class TestFeatureSections:
    """Every FeatureSpec field is a RunSpec section typed by FEATURE_CONFIGS."""

    @pytest.mark.parametrize("section", [f.name for f in fields(FeatureSpec)])
    def test_section_round_trips(self, section):
        spec = RunSpec(workload=WL, **{section: FEATURE_CONFIGS[section]()})
        again = RunSpec.from_json(spec.to_json())
        assert again == spec
        assert type(getattr(again, section)) is FEATURE_CONFIGS[section]
        assert getattr(again.feature_spec(), section) == getattr(spec, section)

    @pytest.mark.parametrize("section", [f.name for f in fields(FeatureSpec)])
    def test_dict_in_place_of_config_raises(self, section):
        with pytest.raises(TypeError, match=FEATURE_CONFIGS[section].__name__):
            RunSpec(workload=WL, **{section: {}})

    def test_every_section_is_declared(self):
        assert set(FEATURE_CONFIGS) == {f.name for f in fields(FeatureSpec)}


class TestFromDictTypedErrors:
    @pytest.mark.parametrize("section", ["serving", "model", "workload", "cache"])
    def test_non_dict_section_names_it(self, section):
        payload = RunSpec(workload=WL).to_dict()
        payload[section] = [("arrival_qps", 1.0)]
        with pytest.raises(TypeError, match=repr(section)):
            RunSpec.from_dict(payload)

    def test_string_device_count_names_the_field(self):
        payload = RunSpec(workload=WL).to_dict()
        payload["n_devices"] = "4"
        with pytest.raises(TypeError, match="n_devices"):
            RunSpec.from_dict(payload)

    def test_top_level_scheduler_is_an_unknown_key(self):
        payload = RunSpec(workload=WL).to_dict()
        payload["scheduler"] = {"max_in_flight": 2, "policy": "hybrid"}
        with pytest.raises(ValueError, match="scheduler"):
            RunSpec.from_dict(payload)

    @pytest.mark.parametrize(
        "path, key",
        [
            ("workload", "bogus"),
            ("model", "top_mlpp"),  # a typo once gave the default top MLP
            ("serving", "bogus"),
            ("serving.scheduler", "bogus"),
            ("cache", "bogus"),
            ("resilience", "bogus"),
            ("model", "interaction"),  # removed knobs: older payloads fail by name
            ("workload", "pooling"),
            ("resilience", "max_retries"),
            ("replication", "placement"),
            ("serving.scheduler", "policy"),
        ],
    )
    def test_unknown_section_key_names_section_and_key(self, path, key):
        payload = full_spec().to_dict()
        section = payload
        for name in path.split("."):
            section = section[name]
        section[key] = 1
        with pytest.raises(ValueError, match=rf"unknown RunSpec\.{path} keys: \['{key}'\]"):
            RunSpec.from_dict(payload)

    def test_bad_nested_scheduler_names_it(self):
        payload = RunSpec(workload=WL, serving=ServingSpec(arrival_qps=1e5)).to_dict()
        payload["serving"]["scheduler"] = "hybrid"
        with pytest.raises(TypeError, match="ServingSpec.scheduler"):
            RunSpec.from_dict(payload)
