"""Tests for unit conversions."""

from __future__ import annotations

from repro.simgpu.units import (
    GiB,
    KiB,
    MiB,
    gbps,
    ms,
    ns,
    s,
    to_ms,
    to_us,
    us,
)


def test_time_scales():
    assert us == 1000 * ns
    assert ms == 1000 * us
    assert s == 1000 * ms


def test_conversions_roundtrip():
    assert to_ms(2.5 * ms) == 2.5
    assert to_us(3 * us) == 3.0


def test_binary_sizes():
    assert KiB == 1024
    assert MiB == 1024**2
    assert GiB == 1024**3


def test_gbps_is_bytes_per_ns():
    # 25 GB/s == 25 bytes/ns
    assert gbps(25) == 25.0


def test_paper_scale_sanity():
    """134 MB over a 48 GB/s NVLink pair ≈ 2.9 ms — the overlap budget."""
    t = 134e6 / gbps(48)
    assert 2.5 * ms < t < 3.5 * ms
