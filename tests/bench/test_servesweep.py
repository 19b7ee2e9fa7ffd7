"""Serve sweep: the artifact validator and its K=2 goodput invariant."""

from __future__ import annotations

import json

import pytest

from repro.bench.servesweep import run_serve_sweep, validate_servesweep_json


@pytest.fixture(scope="module")
def payload():
    sweep = run_serve_sweep("tiny", backends=("pgas",), n_requests=16)
    return json.loads(json.dumps(sweep.as_dict()))


def test_fresh_artifact_is_valid(payload):
    assert [p["max_in_flight"] for p in payload["points"]] == [1, 2]
    validate_servesweep_json(payload)


def test_rejects_k2_losing_goodput(payload):
    data = json.loads(json.dumps(payload))
    k1, k2 = data["points"]
    k2["result"]["goodput_qps"] = k1["result"]["goodput_qps"] * 0.5
    with pytest.raises(ValueError, match="K=2 goodput"):
        validate_servesweep_json(data)


def test_k2_check_only_applies_to_pgas(payload):
    data = json.loads(json.dumps(payload))
    for p in data["points"]:
        p["backend"] = "baseline"
    k1, k2 = data["points"]
    k2["result"]["goodput_qps"] = k1["result"]["goodput_qps"] * 0.5
    validate_servesweep_json(data)
