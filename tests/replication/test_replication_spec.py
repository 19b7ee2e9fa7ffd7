"""ReplicationSpec: validation, replica placement, serialisation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.replication import ReplicationSpec


class TestValidation:
    def test_defaults_valid(self):
        spec = ReplicationSpec()
        assert spec.k == 1

    @pytest.mark.parametrize("kw,msg", [
        (dict(k=0), "k"),
        (dict(heartbeat_interval_ns=0.0), "interval"),
    ])
    def test_bad_values_rejected(self, kw, msg):
        with pytest.raises(ValueError, match=msg):
            ReplicationSpec(**kw)


class TestPlacement:
    def test_primary_first_and_devices_distinct(self):
        spec = ReplicationSpec(k=3)
        for owner in range(4):
            for f in range(8):
                replicas = spec.replicas_for(owner, f, 4)
                assert replicas[0] == owner
                assert len(replicas) == 3
                assert len(set(replicas)) == 3
                assert all(0 <= r < 4 for r in replicas)

    def test_spread_varies_by_table(self):
        spec = ReplicationSpec(k=2)
        partners = {spec.replicas_for(0, f, 4)[1] for f in range(8)}
        assert len(partners) > 1  # not everything lands on one neighbour

    def test_k_exceeding_devices_raises(self):
        with pytest.raises(ValueError, match="k"):
            ReplicationSpec(k=3).replicas_for(0, 0, 2)


class TestSerialisation:
    def test_asdict_round_trip_bit_exact(self):
        spec = ReplicationSpec(k=2, heartbeat_interval_ns=123.0)
        payload = dataclasses.asdict(spec)
        assert ReplicationSpec(**payload) == spec
