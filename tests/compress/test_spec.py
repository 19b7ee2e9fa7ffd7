"""CompressionSpec validation, cost model, and RunSpec round-trip."""

from __future__ import annotations

import pytest

from repro.compress import CompressionSpec, compress_cost_model
from repro.core.runspec import RunSpec, preset_runspec
from repro.simgpu.device import V100_SPEC


class TestSpecValidation:
    def test_defaults(self):
        spec = CompressionSpec()
        assert spec.codec == "fp32" and spec.codec_obj().lossless
        assert spec.error_bound is None

    def test_unknown_codec_raises(self):
        with pytest.raises(ValueError, match="unknown codec"):
            CompressionSpec(codec="zstd")

    def test_negative_error_bound_raises(self):
        with pytest.raises(ValueError, match="error_bound"):
            CompressionSpec(codec="int8", error_bound=-0.1)

    def test_lossy_flags(self):
        assert not CompressionSpec(codec="int8").codec_obj().lossless
        assert CompressionSpec(codec="int8").codec_obj().name == "int8"


class TestCostModel:
    def test_memory_bound_pass(self):
        nbytes = 1 << 20
        ns = compress_cost_model(nbytes, V100_SPEC)
        assert ns == pytest.approx(nbytes / V100_SPEC.effective_mem_bandwidth)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            compress_cost_model(-1.0, V100_SPEC)

    def test_fp32_passthrough_is_free(self):
        spec = CompressionSpec()
        assert spec.encode_cost_ns(1e6, 1e6, V100_SPEC) == 0.0
        assert spec.decode_cost_ns(1e6, 1e6, V100_SPEC) == 0.0

    def test_lossy_charges_both_directions(self):
        spec = CompressionSpec(codec="int8")
        enc = spec.encode_cost_ns(1000.0, 250.0, V100_SPEC)
        assert enc == pytest.approx(compress_cost_model(1250.0, V100_SPEC))
        assert spec.decode_cost_ns(1000.0, 250.0, V100_SPEC) == pytest.approx(enc)


class TestRunSpecIntegration:
    def test_round_trip(self):
        spec = preset_runspec(
            "tiny",
            backend="pgas+compress",
            compression=CompressionSpec(codec="int4", error_bound=0.5),
        )
        again = RunSpec.from_json(spec.to_json())
        assert again == spec
        assert again.compression.codec == "int4"
        assert again.to_json() == spec.to_json()

    def test_absent_section_round_trips_as_none(self):
        spec = preset_runspec("tiny")
        assert spec.to_dict()["compression"] is None
        assert RunSpec.from_json(spec.to_json()).compression is None

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="CompressionSpec"):
            preset_runspec("tiny", compression={"codec": "int8"})

    def test_from_spec_passes_compression_through(self):
        from repro import build_backend

        spec = preset_runspec(
            "tiny",
            backend="pgas+compress",
            compression=CompressionSpec(codec="int8"),
        )
        emb = build_backend(spec)
        assert emb.features.compression is spec.compression
        adapter = emb.backend_adapter("pgas+compress")
        assert adapter.codec.name == "int8"
