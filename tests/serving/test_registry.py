"""Tests for the closed backend table: each name resolves to an adapter class."""

from __future__ import annotations

import pytest

from repro.core.factory import CANONICAL_FEATURE_ORDER, parse_backend_name
from repro.core.retrieval import (
    FEATURE_ADAPTERS,
    FEATURE_CONFIGS,
    BaseRetrieval,
    adapter_class,
    available_backends,
)

ALL_BACKENDS = [
    "baseline",
    "baseline+cache",
    "baseline+compress",
    "baseline+hier",
    "baseline+replicated",
    "baseline+reshard",
    "baseline+resilient",
    "pgas",
    "pgas+cache",
    "pgas+compress",
    "pgas+hier",
    "pgas+replicated",
    "pgas+reshard",
    "pgas+resilient",
]


class TestAvailableBackends:
    def test_all_builtins_listed_sorted(self):
        assert available_backends() == ALL_BACKENDS

    def test_entries_are_backend_info(self):
        """Every entry is a plain name; its adapter class describes it."""
        for name in available_backends():
            assert type(name) is str
            base, _ = parse_backend_name(name)
            assert adapter_class(name).descriptions[base]

    def test_str_compatibility(self):
        names = available_backends()
        assert "pgas" in names
        assert ", ".join(names)
        assert {adapter_class(n) for n in names} == {
            BaseRetrieval, *FEATURE_ADAPTERS.values()
        }


class TestBackendInfoFlags:
    """A name's base and features come from the parser, its capabilities
    from its adapter class."""

    def test_name_contract_properties(self):
        assert parse_backend_name("pgas") == ("pgas", ())
        assert parse_backend_name("pgas+cache") == ("pgas", ("cache",))
        assert parse_backend_name("baseline+resilient")[0] == "baseline"
        assert "resilient" not in parse_backend_name("baseline+cache")[1]
        assert adapter_class("pgas") is BaseRetrieval
        assert adapter_class("baseline+cache") is FEATURE_ADAPTERS["cache"]

    def test_requires_indices_flags(self):
        needs = [n for n in available_backends() if adapter_class(n).requires_indices]
        assert needs == ["baseline+cache", "pgas+cache"]  # cache needs real row ids


class TestAdapterTable:
    def test_suffixes_are_the_canonical_features(self):
        assert set(FEATURE_ADAPTERS) == set(CANONICAL_FEATURE_ORDER)
        for suffix, cls in FEATURE_ADAPTERS.items():
            assert cls.suffix == suffix
            assert FEATURE_CONFIGS[cls.config_field] is cls.spec_type

    def test_duplicate_suffix_raises(self):
        before = dict(FEATURE_ADAPTERS)
        with pytest.raises(ValueError, match="'cache' is already served by CachedRetrieval"):

            class AnotherCache(BaseRetrieval):
                suffix = "cache"

        assert FEATURE_ADAPTERS == before

    def test_subclass_without_own_suffix_is_not_recorded(self):
        before = dict(FEATURE_ADAPTERS)

        class Tweaked(FEATURE_ADAPTERS["compress"]):
            pass

        assert FEATURE_ADAPTERS == before


class TestRegisterBackend:
    """A well-formed name no adapter class serves."""

    def test_unknown_lookup_lists_available(self):
        with pytest.raises(ValueError, match="available:"):
            adapter_class("does-not-exist")
