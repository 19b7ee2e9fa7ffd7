"""Backend factory: name parsing, FeatureSpec, build_backend over every
backend, and the removal of the legacy per-feature kwargs."""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.cache import CacheConfig
from repro.comm.hier import HierSpec
from repro.compress import CompressionSpec
from repro.core.factory import (
    CANONICAL_FEATURE_ORDER,
    FeatureSpec,
    build_backend,
    parse_backend_name,
)
from repro.core.pipeline import PipelineConfig
from repro.core.retrieval import BaseRetrieval, DistributedEmbedding, available_backends
from repro.core.runspec import RunSpec
from repro.core.train_pipeline import DLRMTrainingPipeline
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.faults import ResilienceSpec
from repro.replication import ReplicationSpec
from repro.reshard import ReshardSpec


def small_cfg(**kw):
    defaults = dict(
        num_tables=4, rows_per_table=256, dim=8, batch_size=32,
        max_pooling=2, seed=9,
    )
    defaults.update(kw)
    return WorkloadConfig(**defaults)


#: RunSpec kwarg carrying each feature suffix's config
FEATURE_CONFIGS = {
    "cache": ("cache", CacheConfig()),
    "compress": ("compression", CompressionSpec()),
    "resilient": ("resilience", ResilienceSpec()),
    "replicated": ("replication", ReplicationSpec()),
    "reshard": ("reshard", ReshardSpec()),
    "hier": ("hier", HierSpec(devices_per_node=2)),
}


def runspec_for(backend: str) -> RunSpec:
    kwargs = {}
    for suffix, (kwarg, config) in FEATURE_CONFIGS.items():
        if f"+{suffix}" in backend:
            kwargs[kwarg] = config
    return RunSpec(small_cfg(), n_devices=2, backend=backend, **kwargs)


#: a backend name that is not a str, by test id
BAD_NAMES = {"int": 3, "list": ["pgas"], "None": None}

#: every entry point that takes a backend name: (workload, name) -> call
NAME_ENTRY_POINTS = {
    "parse_backend_name": lambda cfg, name: parse_backend_name(name),
    "DistributedEmbedding": lambda cfg, name: DistributedEmbedding(cfg, 2, backend=name),
    "forward_timed": lambda cfg, name: DistributedEmbedding(cfg, 2).forward_timed(
        SyntheticDataGenerator(cfg).lengths_batch(), backend=name
    ),
    "DLRMTrainingPipeline": lambda cfg, name: DLRMTrainingPipeline(
        PipelineConfig(cfg), 2, backend=name
    ),
    "RunSpec": lambda cfg, name: RunSpec(cfg, backend=name),
}


class TestParseBackendName:
    def test_bare_and_single_feature(self):
        assert parse_backend_name("pgas") == ("pgas", ())
        assert parse_backend_name("pgas+cache") == ("pgas", ("cache",))
        assert parse_backend_name("baseline+reshard") == (
            "baseline", ("reshard",)
        )

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            parse_backend_name("")

    def test_empty_segment_names_the_stack(self):
        with pytest.raises(ValueError, match=r"'pgas\+'"):
            parse_backend_name("pgas+")
        with pytest.raises(ValueError, match="empty base or feature"):
            parse_backend_name("+cache")

    def test_unknown_feature_names_stack_and_known_set(self):
        with pytest.raises(ValueError) as exc:
            parse_backend_name("pgas+turbo")
        msg = str(exc.value)
        assert "pgas+turbo" in msg and "'turbo'" in msg
        for feature in CANONICAL_FEATURE_ORDER:
            assert feature in msg

    def test_duplicate_feature_names_the_stack(self):
        with pytest.raises(ValueError, match="duplicate feature"):
            parse_backend_name("pgas+cache+cache")

    @pytest.mark.parametrize("entry,bad", [
        (entry, bad) for entry in NAME_ENTRY_POINTS for bad in BAD_NAMES
        # forward_timed(backend=None) selects the instance's own backend
        if not (entry == "forward_timed" and bad == "None")
    ])
    def test_non_str_name_is_a_type_error(self, entry, bad):
        name = BAD_NAMES[bad]
        with pytest.raises(TypeError, match=f"must be a str, got {type(name).__name__}"):
            NAME_ENTRY_POINTS[entry](small_cfg(), name)

    def test_multi_feature_stack_names_order(self):
        with pytest.raises(ValueError) as exc:
            parse_backend_name("pgas+cache+reshard")
        msg = str(exc.value)
        assert "pgas+cache+reshard" in msg
        assert " -> ".join(CANONICAL_FEATURE_ORDER) in msg


class TestFeatureSpec:
    def test_frozen_and_default_empty(self):
        spec = FeatureSpec()
        assert all(getattr(spec, f.name) is None for f in dataclasses.fields(spec))
        with pytest.raises(Exception):
            spec.cache = CacheConfig()  # type: ignore[misc]


class TestBuildBackend:
    @pytest.mark.parametrize(
        "backend", [str(b) for b in available_backends()]
    )
    def test_every_registered_backend_builds(self, backend):
        emb = build_backend(runspec_for(backend))
        adapter = emb.backend_adapter()
        assert adapter is emb.backend_adapter()  # cached, built eagerly
        assert isinstance(adapter, BaseRetrieval)  # one base class for all

    def test_override_backend_for_ab_runs(self):
        spec = runspec_for("pgas")
        emb = build_backend(spec, backend="baseline")
        assert emb.backend == "baseline"

    def test_bad_stack_fails_at_build_not_first_forward(self):
        spec = RunSpec(small_cfg(), n_devices=2, backend="pgas")
        with pytest.raises(ValueError, match="pgas\\+cache\\+reshard"):
            build_backend(spec, backend="pgas+cache+reshard")


class TestRemovedLegacyKwargs:
    """The per-feature kwargs finished their deprecation cycle in the
    release before this one; they must now fail like any unknown kwarg."""

    @pytest.mark.parametrize("kwarg,config", [
        ("cache", CacheConfig()),
        ("resilience", ResilienceSpec()),
        ("compression", CompressionSpec()),
        ("replication", ReplicationSpec()),
        ("obs", None),
    ])
    def test_legacy_kwarg_rejected(self, kwarg, config):
        with pytest.raises(TypeError, match="unexpected keyword"):
            DistributedEmbedding(
                small_cfg(), 2, backend="pgas", **{kwarg: config}
            )

    def test_features_path_does_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            DistributedEmbedding(
                small_cfg(), 2, backend="pgas+cache",
                features=FeatureSpec(cache=CacheConfig()),
            )
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_configs_read_from_features(self):
        spec = FeatureSpec(reshard=ReshardSpec(), replication=ReplicationSpec())
        emb = DistributedEmbedding(
            small_cfg(), 2, backend="pgas+reshard", features=spec,
        )
        assert emb.features is spec
        assert emb.backend_adapter().spec is spec.reshard
        for legacy in ("cache_config", "reshard_config", "replication_config"):
            assert not hasattr(emb, legacy)
