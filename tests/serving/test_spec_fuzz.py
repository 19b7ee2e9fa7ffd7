"""Serving and workload knob validation, and property fuzz of RunSpec
construction.

Contract: a fuzzed ``RunSpec``/``ServingSpec``/``SchedulerSpec``/
``WorkloadConfig`` either constructs and round-trips ``to_json``/
``from_json`` bit-exact, or raises ``TypeError``/``ValueError`` at
construction.  The RunSpec fields, the serving section, its scheduler and
the workload are fuzzed value by value; the feature sections are fuzzed
as a valid config, None or a value of the wrong type (their own fields
belong to their classes).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.factory import FeatureSpec
from repro.core.retrieval import FEATURE_CONFIGS, available_backends
from repro.core.runspec import RunSpec
from repro.core.serving import SchedulerSpec, ServingSpec
from repro.dlrm.data import WorkloadConfig

WL = WorkloadConfig(
    num_tables=8, rows_per_table=2048, dim=16, batch_size=64, max_pooling=4, seed=3
)

TIMES = ("arrival_qps", "batch_window_ns", "deadline_ns", "hedge_after_ns")
COUNTS = ("max_batch", "queue_limit")


def serving(**kw):
    return ServingSpec(**{"arrival_qps": 1e5, **kw})


class TestServingKnobValidation:
    @pytest.mark.parametrize("name", TIMES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
    def test_times_must_be_finite(self, name, bad):
        with pytest.raises(ValueError, match=f"ServingSpec.{name}"):
            serving(**{name: bad})

    @pytest.mark.parametrize("name", TIMES)
    @pytest.mark.parametrize("bad", [True, "1e5", 1j])
    def test_times_reject_non_reals(self, name, bad):
        with pytest.raises(TypeError, match=f"ServingSpec.{name}"):
            serving(**{name: bad})

    @pytest.mark.parametrize("name", ["arrival_qps", "batch_window_ns"])
    def test_rate_and_window_are_required_numbers(self, name):
        with pytest.raises(TypeError, match=f"ServingSpec.{name}"):
            serving(**{name: None})

    @pytest.mark.parametrize("name", COUNTS)
    @pytest.mark.parametrize("bad", [2.5, 8.0, "8", True])
    def test_counts_must_be_ints(self, name, bad):
        with pytest.raises(TypeError, match=f"ServingSpec.{name}"):
            serving(**{name: bad})

    @pytest.mark.parametrize("bad", [0, 2.5, True])
    def test_max_in_flight(self, bad):
        with pytest.raises((TypeError, ValueError), match="SchedulerSpec.max_in_flight"):
            SchedulerSpec(max_in_flight=bad)

    def test_sign_rules_kept(self):
        assert serving(batch_window_ns=0.0).batch_window_ns == 0.0
        for name in ("arrival_qps", "deadline_ns", "hedge_after_ns"):
            with pytest.raises(ValueError, match=name):
                serving(**{name: 0.0})
        with pytest.raises(ValueError, match="batch_window_ns"):
            serving(batch_window_ns=-1.0)

    def test_plain_int_rate_and_numpy_counts_pass(self):
        spec = ServingSpec(arrival_qps=40000, max_batch=np.int64(8), queue_limit=np.int32(4))
        assert spec.arrival_qps == 40000
        assert type(spec.max_batch) is int and type(spec.queue_limit) is int
        assert type(SchedulerSpec(max_in_flight=np.int64(2)).max_in_flight) is int


class TestWorkloadConfigValidation:
    @pytest.mark.parametrize(
        "field, bad, error",
        [
            ("zipf_alpha", math.nan, ValueError),
            ("zipf_alpha", math.inf, ValueError),
            ("zipf_alpha", "1.1", TypeError),
            ("table_skew_alpha", math.nan, ValueError),
            ("table_skew_alpha", math.inf, ValueError),
            ("table_skew_alpha", True, TypeError),
            ("max_pooling", 8.5, TypeError),
            ("batch_size", True, TypeError),
            ("batch_size", 0, ValueError),
            ("num_tables", 2.0, TypeError),
            ("seed", -1, ValueError),
            ("index_distribution", "normal", ValueError),
        ],
    )
    def test_each_error_names_its_field(self, field, bad, error):
        with pytest.raises(error, match=f"WorkloadConfig.{field}"):
            dataclasses.replace(WL, **{field: bad})

    def test_zipf_alpha_nan_fails_even_when_unused(self):
        with pytest.raises(ValueError, match="zipf_alpha"):
            WorkloadConfig(num_tables=2, index_distribution="uniform", zipf_alpha=math.nan)

    def test_numpy_counts_become_ints(self):
        cfg = dataclasses.replace(WL, batch_size=np.int64(64), max_pooling=np.int32(4))
        assert type(cfg.batch_size) is int and type(cfg.max_pooling) is int
        assert cfg == WL


# -- property fuzz -------------------------------------------------------------

#: a value of any of the types a config file or a caller might hand over
ANY = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.lists(st.integers(min_value=-4, max_value=600), max_size=3),
)


#: the edge values a knob most often gets wrong
EDGES = st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -1, 2.5, True, None, "8"])


def _maybe(valid: st.SearchStrategy) -> st.SearchStrategy:
    """Mostly valid values, with edge cases and arbitrary ones mixed in."""
    return st.one_of(valid, valid, EDGES, ANY)


SCHEDULER_KW = st.fixed_dictionaries(
    {},
    optional={
        "max_in_flight": _maybe(st.integers(min_value=1, max_value=4)),
    },
)


def _built(cls, kw_strategy: st.SearchStrategy) -> st.SearchStrategy:
    """``cls`` built from fuzzed keywords; the keyword dict itself (a
    wrong-typed section) where the keywords are rejected."""

    @st.composite
    def build(draw):
        kw = draw(kw_strategy)
        try:
            return cls(**kw)
        except (TypeError, ValueError):
            return kw

    return build()


POSITIVE = st.floats(min_value=0.0, max_value=1e12, exclude_min=True)
SERVING_KW = st.fixed_dictionaries(
    {"arrival_qps": _maybe(st.one_of(POSITIVE, st.integers(1, 10**6)))},
    optional={
        "max_batch": _maybe(st.integers(min_value=1, max_value=512)),
        "batch_window_ns": _maybe(st.floats(min_value=0.0, max_value=1e9)),
        "seed": _maybe(st.integers(min_value=0, max_value=2**32)),
        "deadline_ns": _maybe(st.one_of(st.none(), POSITIVE)),
        "queue_limit": _maybe(st.one_of(st.none(), st.integers(1, 4096))),
        "hedge_after_ns": _maybe(st.one_of(st.none(), POSITIVE)),
        "scheduler": st.one_of(st.none(), _built(SchedulerSpec, SCHEDULER_KW), ANY),
    },
)


COUNT = st.integers(min_value=1, max_value=4096)
ALPHA = st.floats(min_value=1.0, max_value=4.0, exclude_min=True)
WORKLOAD_KW = st.fixed_dictionaries(
    {"num_tables": _maybe(st.integers(min_value=1, max_value=64))},
    optional={
        "rows_per_table": _maybe(COUNT),
        "dim": _maybe(COUNT),
        "batch_size": _maybe(COUNT),
        "max_pooling": _maybe(st.integers(min_value=0, max_value=128)),
        "min_pooling": _maybe(st.integers(min_value=0, max_value=4)),
        "index_distribution": _maybe(st.sampled_from(["uniform", "zipf"])),
        "zipf_alpha": _maybe(ALPHA),
        "table_skew_alpha": _maybe(st.one_of(st.none(), ALPHA)),
        "pooling": _maybe(st.sampled_from(["sum", "mean", "max"])),
        "seed": _maybe(st.integers(min_value=0, max_value=2**32)),
        "num_dense_features": _maybe(COUNT),
    },
)


RUNSPEC_KW = st.fixed_dictionaries(
    {"workload": st.one_of(st.just(WL), _built(WorkloadConfig, WORKLOAD_KW), ANY)},
    optional={
        "n_devices": _maybe(st.integers(min_value=1, max_value=8)),
        "backend": _maybe(st.sampled_from(sorted(available_backends()))),
        "bottom_mlp": _maybe(st.lists(st.integers(1, 512), max_size=3).map(tuple)),
        "top_mlp": _maybe(st.lists(st.integers(1, 512), max_size=3).map(tuple)),
        "interaction": _maybe(st.sampled_from(["dot", "cat", "sum"])),
        "name": _maybe(st.text(max_size=8)),
        "serving": st.one_of(st.none(), _built(ServingSpec, SERVING_KW), ANY),
        **{
            f.name: st.one_of(st.none(), st.just(FEATURE_CONFIGS[f.name]()), ANY)
            for f in fields(FeatureSpec)
        },
    },
)


def _round_trips(spec: RunSpec) -> None:
    text = spec.to_json()
    again = RunSpec.from_json(text)
    assert again == spec
    assert again.to_json() == text


def _check(build) -> None:
    try:
        spec = build()
    except (TypeError, ValueError):
        return
    if isinstance(spec, WorkloadConfig):
        spec = RunSpec(workload=spec)
    elif not isinstance(spec, RunSpec):
        spec = RunSpec(
            workload=WL,
            serving=spec if isinstance(spec, ServingSpec) else ServingSpec(1e5, scheduler=spec),
        )
    _round_trips(spec)


@settings(max_examples=300, deadline=None)
@given(SCHEDULER_KW)
def test_fuzzed_scheduler_spec_constructs_and_round_trips_or_raises(kw):
    _check(lambda: SchedulerSpec(**kw))


@settings(max_examples=300, deadline=None)
@given(SERVING_KW)
@example({"arrival_qps": 1e5, "batch_window_ns": math.nan})
@example({"arrival_qps": 1e5, "deadline_ns": math.nan})
def test_fuzzed_serving_spec_constructs_and_round_trips_or_raises(kw):
    _check(lambda: ServingSpec(**kw))


@settings(max_examples=300, deadline=None)
@given(WORKLOAD_KW)
@example({"num_tables": 2, "zipf_alpha": math.nan})
@example({"num_tables": 2, "table_skew_alpha": math.nan})
@example({"num_tables": 2, "max_pooling": 8.5})
@example({"num_tables": 2, "batch_size": True})
def test_fuzzed_workload_config_constructs_and_round_trips_or_raises(kw):
    _check(lambda: WorkloadConfig(**kw))


@settings(max_examples=300, deadline=None)
@given(RUNSPEC_KW)
def test_fuzzed_runspec_constructs_and_round_trips_or_raises(kw):
    _check(lambda: RunSpec(**kw))
