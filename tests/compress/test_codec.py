"""Codec round-trip and wire-accounting tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compress.codec import (
    CODEC_NAMES,
    FP32Codec,
    Int4Codec,
    Int8Codec,
    make_codec,
    roundtrip_error_report,
)


def random_rows(n=32, d=16, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, d)) * scale).astype(np.float32)


class TestRegistry:
    def test_names(self):
        assert CODEC_NAMES == ("fp32", "fp16", "int8", "int4")

    def test_make_codec(self):
        for name in CODEC_NAMES:
            assert make_codec(name).name == name

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown codec"):
            make_codec("zfp")

    def test_input_validated(self):
        codec = FP32Codec()
        with pytest.raises(ValueError, match="2-D"):
            codec.encode(np.zeros(8, dtype=np.float32))
        with pytest.raises(ValueError, match="float32"):
            codec.encode(np.zeros((2, 4), dtype=np.float64))


class TestFP32Passthrough:
    def test_bit_identical(self):
        rows = random_rows()
        out = FP32Codec().roundtrip(rows)
        assert out.dtype == np.float32
        assert np.array_equal(out, rows)

    def test_lossless_flag_and_zero_bound(self):
        codec = FP32Codec()
        assert codec.lossless
        assert np.all(codec.error_bound(random_rows()) == 0.0)

    def test_decode_returns_same_buffer(self):
        rows = random_rows()
        assert FP32Codec().roundtrip(rows) is rows


class TestWireAccounting:
    def test_fp32_row_bytes(self):
        assert FP32Codec().row_wire_bytes(64) == 256

    def test_int8_hand_computed(self):
        codec = make_codec("int8")
        # d=64: 64 payload + 4 scale = 68 B/row
        assert codec.row_wire_bytes(64) == 68
        assert codec.wire_bytes(10, 64) == 10 * 68
        # one PGAS header per vector rides on top
        assert codec.wire_bytes(10, 64, header_bytes=32) == 10 * 100

    def test_int4_odd_dim_rounds_up(self):
        codec = make_codec("int4")
        # d=7 -> ceil(7/2)=4 payload + 4 scale = 8 B/row
        assert codec.row_wire_bytes(7) == 8
        assert codec.wire_bytes(5, 7) == 40

    def test_fp16_half_of_fp32(self):
        assert make_codec("fp16").row_wire_bytes(64) == 128

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            FP32Codec().wire_bytes(-1, 16)

    def test_encoded_nbytes_match_declared(self):
        rows = random_rows(n=9, d=17)
        for name in CODEC_NAMES:
            codec = make_codec(name)
            enc = codec.encode(rows)
            scale_nbytes = 0 if enc.scales is None else enc.scales.nbytes
            assert enc.data.nbytes == 9 * codec.payload_bytes(17)
            assert scale_nbytes == 9 * codec.scale_bytes_per_row
            assert enc.data.nbytes + scale_nbytes == codec.wire_bytes(9, 17)


class TestLossyBounds:
    @pytest.mark.parametrize("name", ["fp16", "int8", "int4"])
    def test_error_within_per_row_bound(self, name):
        codec = make_codec(name)
        rows = random_rows(n=64, d=32, seed=3, scale=2.5)
        decoded = codec.roundtrip(rows)
        err = np.abs(decoded.astype(np.float64) - rows.astype(np.float64))
        bound = codec.error_bound(rows)
        assert np.all(err.max(axis=1) <= bound)

    @pytest.mark.parametrize("name", ["int8", "int4"])
    def test_zero_rows_exact(self, name):
        rows = np.zeros((4, 8), dtype=np.float32)
        assert np.array_equal(make_codec(name).roundtrip(rows), rows)

    def test_constant_row_exact_int8(self):
        # absmax itself always lands on a level, up to fp32 scale rounding
        rows = np.full((3, 8), -2.0, dtype=np.float32)
        decoded = make_codec("int8").roundtrip(rows)
        assert np.allclose(decoded, rows, atol=2.0 / 127)

    def test_int8_per_row_scales(self):
        rows = np.stack([
            np.linspace(-1, 1, 16, dtype=np.float32),
            np.linspace(-100, 100, 16, dtype=np.float32),
        ])
        enc = make_codec("int8").encode(rows)
        assert enc.scales.shape == (2,)
        assert enc.scales[1] == pytest.approx(100.0 / 127, rel=1e-6)

    def test_int4_levels_clip(self):
        rows = random_rows(n=16, d=8, seed=5, scale=10.0)
        enc = make_codec("int4").encode(rows)
        low = enc.data & 0x0F
        high = enc.data >> 4
        assert low.max() <= 14 and high.max() <= 14

    def test_fp16_overflow_bound_is_inf(self):
        rows = np.array([[1e5, 0.0]], dtype=np.float32)
        assert np.isinf(make_codec("fp16").error_bound(rows))[0]

    @given(
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_property_roundtrip_within_bound(self, n, d, seed, scale):
        rows = random_rows(n=n, d=d, seed=seed, scale=scale)
        for name in CODEC_NAMES:
            report = roundtrip_error_report(make_codec(name), rows)
            assert report["within_bound"]
            if name == "fp32":
                assert report["max_abs_error"] == 0.0


class TestErrorReport:
    def test_empty_input(self):
        report = roundtrip_error_report(Int8Codec(), np.zeros((0, 8), dtype=np.float32))
        assert report["max_abs_error"] == 0.0 and report["within_bound"]

    def test_report_fields(self):
        report = roundtrip_error_report(Int4Codec(), random_rows())
        assert set(report) == {"max_abs_error", "rmse", "error_bound", "within_bound"}
        assert 0 < report["rmse"] <= report["max_abs_error"] <= report["error_bound"]
