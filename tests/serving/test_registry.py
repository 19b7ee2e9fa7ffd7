"""Tests for the backend registry and BackendInfo contract."""

from __future__ import annotations

import pytest

from repro.core.retrieval import (
    BackendInfo,
    _BACKENDS,
    available_backends,
    backend_spec,
    register_backend,
)

BUILTINS = (
    "baseline",
    "baseline+cache",
    "baseline+resilient",
    "pgas",
    "pgas+cache",
    "pgas+resilient",
)


class TestAvailableBackends:
    def test_all_builtins_listed_sorted(self):
        names = available_backends()
        assert list(names) == sorted(names)
        for builtin in BUILTINS:
            assert builtin in names

    def test_entries_are_backend_info(self):
        for info in available_backends():
            assert isinstance(info, BackendInfo)
            assert info.description  # every builtin carries a description

    def test_str_compatibility(self):
        """BackendInfo must keep working everywhere a plain name did."""
        names = available_backends()
        assert "pgas" in names  # str equality
        assert ", ".join(names)  # join
        assert sorted(names) == sorted(str(n) for n in names)
        info = [n for n in names if n == "pgas"][0]
        assert backend_spec(info).name == "pgas"  # usable as a dict key


class TestBackendInfoFlags:
    def test_name_contract_properties(self):
        by_name = {str(i): i for i in available_backends()}
        assert by_name["pgas"].base == "pgas"
        assert by_name["pgas+cache"].base == "pgas"
        assert by_name["baseline+resilient"].base == "baseline"
        assert "cache" in by_name["pgas+cache"].features
        assert by_name["pgas"].features == ()
        assert "resilient" in by_name["baseline+resilient"].features
        assert "resilient" not in by_name["baseline+cache"].features

    def test_requires_indices_flags(self):
        by_name = {str(i): i for i in available_backends()}
        assert not by_name["pgas"].requires_indices
        assert by_name["pgas+cache"].requires_indices  # cache needs real row ids


class TestRegisterBackend:
    def test_duplicate_rejected_with_clear_error(self):
        spec = backend_spec("pgas")
        with pytest.raises(ValueError, match="overwrite=True"):
            register_backend(
                "pgas", spec.factory, requires_indices=spec.requires_indices
            )

    def test_overwrite_flag_allows_replacement(self):
        original = backend_spec("pgas")
        try:
            register_backend(
                "pgas",
                original.factory,
                requires_indices=original.requires_indices,
                description="replaced",
                overwrite=True,
            )
            assert backend_spec("pgas").description == "replaced"
        finally:
            _BACKENDS["pgas"] = original

    def test_new_backend_registers_and_unregisters(self):
        spec = backend_spec("pgas")
        try:
            register_backend(
                "pgas+test",
                spec.factory,
                requires_indices=spec.requires_indices,
                description="temporary test wrapper",
            )
            info = {str(i): i for i in available_backends()}["pgas+test"]
            assert info.base == "pgas"
            assert info.description == "temporary test wrapper"
        finally:
            _BACKENDS.pop("pgas+test", None)
        assert "pgas+test" not in available_backends()

    def test_unknown_lookup_lists_available(self):
        with pytest.raises(ValueError, match="available:"):
            backend_spec("does-not-exist")
