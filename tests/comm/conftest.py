"""Fixtures shared by the communication-layer tests."""

from __future__ import annotations

import pytest

from repro.comm import collective

#: the collective with no control path, no chunk framing and no derate
_FREE = {
    "LAUNCH_OVERHEAD_NS": 0.0,
    "WAIT_OVERHEAD_NS": 0.0,
    "PER_CHUNK_HEADER_BYTES": 0,
    "NCCL_ALLTOALL_EFFICIENCY": 1.0,
}


@pytest.fixture
def fast(monkeypatch):
    """Collective constants zeroed for pure-transfer arithmetic.

    Returns ``set(name, value)``, which puts one constant of
    :mod:`repro.comm.collective` at another value for the test.
    """
    for name, value in _FREE.items():
        monkeypatch.setattr(collective, name, value)
    return lambda name, value: monkeypatch.setattr(collective, name, value)
