"""Backend-wrapper composition contract (name resolution + RunSpec validation),
RunSpec replication round-trip, and the RunReport availability section."""

from __future__ import annotations

import pytest

from repro.core.factory import build_backend
from repro.core.factory import parse_backend_name
from repro.core.retrieval import FEATURE_ADAPTERS, adapter_class, available_backends
from repro.core.runspec import RunSpec, preset_runspec
from repro.replication import ReplicationSpec
from repro.telemetry.report import RunReport


class TestCompositionContract:
    def test_registered_composed_backends_resolve(self):
        for name in ("pgas+replicated", "baseline+replicated",
                     "pgas+compress", "pgas+resilient", "pgas+cache"):
            suffix = parse_backend_name(name)[1][0]
            assert adapter_class(name) is FEATURE_ADAPTERS[suffix]

    def test_replicated_backends_listed_with_flag(self):
        names = available_backends()
        assert {"pgas+replicated", "baseline+replicated"} <= set(names)
        assert "replicated" in parse_backend_name("pgas+replicated")[1]
        assert "replicated" not in parse_backend_name("pgas")[1]

    @pytest.mark.parametrize("name", [
        "pgas+compress+replicated",
        "pgas+replicated+resilient",
        "baseline+cache+compress",
    ])
    def test_unregistered_stack_names_the_combination(self, name):
        with pytest.raises(ValueError) as err:
            adapter_class(name)
        msg = str(err.value)
        assert "composition order" in msg
        for feature in name.split("+")[1:]:
            assert feature in msg

    def test_unknown_single_feature_keeps_plain_error(self):
        with pytest.raises(ValueError) as err:
            adapter_class("pgas+nonsense")
        assert "composition order" not in str(err.value)

    def test_runspec_validation_rejects_unsupported_stack(self):
        with pytest.raises(ValueError, match="composition order"):
            preset_runspec("tiny", 2, backend="pgas+compress+replicated")


class TestRunSpecReplication:
    def test_round_trip_bit_exact(self):
        spec = preset_runspec(
            "tiny", 2, backend="pgas+replicated",
            replication=ReplicationSpec(k=2, heartbeat_interval_ns=123.0),
        )
        clone = RunSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.to_json() == spec.to_json()
        assert isinstance(clone.replication, ReplicationSpec)

    def test_none_replication_round_trips(self):
        spec = preset_runspec("tiny", 2)
        assert RunSpec.from_json(spec.to_json()).replication is None

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="ReplicationSpec"):
            preset_runspec("tiny", 2, replication={"k": 2})

    def test_from_spec_threads_replication(self):
        spec = preset_runspec(
            "tiny", 2, backend="pgas+replicated",
            replication=ReplicationSpec(k=2),
        )
        emb = build_backend(spec)
        assert emb.features.replication == spec.replication
        adapter = emb.backend_adapter("pgas+replicated")
        assert adapter.spec == spec.replication


class TestReportAvailabilitySection:
    def test_availability_round_trips(self):
        report = RunReport(
            backend="pgas+replicated", n_devices=2,
            metrics={"m": {"value": 1.0, "unit": "x"}},
            availability={"availability.failures": 1.0,
                          "availability.recovery_bytes": 4096.0},
        )
        clone = RunReport.from_json(report.to_json())
        assert clone.availability == report.availability
        assert clone.to_json() == report.to_json()

    def test_non_numeric_availability_rejected(self):
        report = RunReport(
            backend="pgas", n_devices=2,
            metrics={}, availability={"availability.failures": "one"},
        )
        from repro.telemetry.report import ReportValidationError, validate_report

        with pytest.raises(ReportValidationError, match="availability"):
            validate_report(report.as_dict())
