"""Serving results are pinned: scheduler rewrites must not move them.

Each case serves a short Poisson stream on the tiny preset and hashes
everything the run simulated about serving: per-request latencies and
their form/queue/execute segments, batch sizes, the formation triggers,
sheds and hedges, the run duration, the interconnect idle time, and every
``serving.*`` counter sample.  The digests were captured while the
scheduler still ran one engine process per arrival stream and re-ran the
batch former at every arrival; the event-per-batch scheduler must
reproduce them bit for bit.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.core.pipeline import DLRMInferencePipeline
from repro.core.runspec import preset_runspec
from repro.core.serving import InferenceServer, SchedulerSpec, ServingSpec
from repro.dlrm.data import WorkloadConfig
from repro.simgpu import kernel as kernel_mod
from repro.simgpu.cluster import Cluster
from repro.simgpu.device import DeviceSpec
from repro.simgpu.units import ms, us

N_REQUESTS = 48

#: (queue_limit, batch_window_ns, arrival_qps, seed) per load shape; a
#: tiny-preset batch of 8 executes in about 46 us
LOADS = {
    "window": (None, 50 * us, 100_000.0, 5),  # the window and max_batch race
    "shed": (4, 20 * us, 400_000.0, 5),  # formation outpaces execution
    "nowindow": (None, 0.0, 100_000.0, 5),  # batch_window_ns=0
    "idle": (None, 1 * ms, 5_000.0, 5),  # the queue drains between batches
    # The first head arrives before the window is one window old, and the
    # last arrival before its deadline re-arms the timer one ulp late
    # (``t + (deadline - t) > deadline``): the batch forms at that instant,
    # not at the deadline.
    "rounding": (None, 3 * ms, 1_000.0, 552),
}


def _serve(k, queue_limit, window, qps, seed, hedge_after_ns=None):
    spec = ServingSpec(
        arrival_qps=qps, max_batch=8, batch_window_ns=window, deadline_ns=5 * ms,
        queue_limit=queue_limit, hedge_after_ns=hedge_after_ns, seed=seed,
        scheduler=SchedulerSpec(max_in_flight=k),
    )
    pipe = DLRMInferencePipeline.from_spec(preset_runspec("tiny", n_devices=2))
    server = InferenceServer(pipe, spec)
    return server.simulate(N_REQUESTS), pipe


def _digest(result, pipe) -> str:
    h = hashlib.sha256()

    def floats(values):
        values = [float(v) for v in values]
        h.update(struct.pack(f"<{len(values)}d", *values))

    for segment in (result.latencies_ns, result.form_ns, result.queue_ns, result.execute_ns):
        floats(segment)
    floats(result.batch_sizes)
    floats([result.n_shed, result.n_hedged, result.sim_duration_ns,
            result.interconnect_idle_ns])
    h.update(repr(sorted(result.formed_by.items())).encode())
    for name, counter in sorted(pipe.cluster.profiler.counters.items()):
        if name.startswith("serving."):
            h.update(name.encode())
            floats(v for sample in counter.events() for v in sample)
    return h.hexdigest()[:16]


DIGESTS = {
    "hybrid-k1-window": "cd9c86b2fb291270",
    "hybrid-k1-shed": "96ba8b08e2603005",
    "hybrid-k1-nowindow": "fe202405bb037290",
    "hybrid-k1-idle": "1e81482c96fc8923",
    "hybrid-k1-rounding": "9bbce7bcfeef4518",
    "hybrid-k2-window": "2e5cfc2fe3132044",
    "hybrid-k2-shed": "9bf553caf61bddb1",
    "hybrid-k2-nowindow": "f99baa5237948e5a",
    "hybrid-k2-idle": "1e81482c96fc8923",
    "hybrid-k2-rounding": "9bbce7bcfeef4518",
}
HEDGED_DIGEST = "a69d16bc1a22c6ad"


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_serving_digest_is_pinned(case):
    _, k, load = case.split("-")
    result, pipe = _serve(int(k[1:]), *LOADS[load])
    assert _digest(result, pipe) == DIGESTS[case]


def test_hedged_serving_digest_is_pinned():
    result, pipe = _serve(2, *LOADS["window"], hedge_after_ns=20 * us)
    assert result.n_hedged > 0
    assert _digest(result, pipe) == HEDGED_DIGEST


def test_engine_event_count_is_pinned():
    """``Engine._seq`` after one hybrid K=2 run: 1,092 in the per-arrival design.

    That design scheduled an arrival timeout per request, woke the
    scheduler at every arrival, and re-armed a window timer and an
    ``any_of`` at each wake.  None of those callbacks carried simulated
    state: the scheduler now wakes only when a batch can form, a slot
    frees, or (with an empty queue) at the next arrival.  The count fell
    from 950 when stream ops stopped starting a process each, from 502
    when stage waits became one join and ``quiet`` one event per set of
    PEs, and from 382 when host programs became callback chains: a batch
    no longer starts a process per stage, and the scheduler wakes in the
    entry of the completion or alarm that wakes it.  It fell from 303
    when streams began booking closed-form ops at submit: a launch delay
    or kernel takes no entry of its own, and a join over booked ops takes
    one, at their latest end.  It fell from 207 when puts stopped
    scheduling a no-op at each rise of a PE's latest delivery instant,
    and from 191 when a booked fused kernel stopped taking an entry per
    wave end (its writes wait as one deferred run).
    """
    _, pipe = _serve(2, *LOADS["window"])
    assert pipe.cluster.engine._seq == 175


# -- fixed pooling ------------------------------------------------------------------

#: a tiny-shape workload whose every table looks up exactly 4 rows per
#: sample, as production inference does: its request pool is the fixed
#: form of ``LengthsBatch``, which no ranged case above reaches
FIXED_WORKLOAD = WorkloadConfig(
    num_tables=8, rows_per_table=4096, dim=16, batch_size=256,
    min_pooling=4, max_pooling=4,
)

#: case -> (max_in_flight, arrival_qps, hedge_after_ns)
FIXED_LOADS = {
    "k1-100k": (1, 100_000.0, None),
    "k2-100k": (2, 100_000.0, None),
    "k1-400k": (1, 400_000.0, None),
    "k2-400k": (2, 400_000.0, None),
    "k2-100k-hedged": (2, 100_000.0, 20 * us),
}

#: case -> (digest, Engine._seq), captured before the fixed form existed
FIXED_PINS = {
    "k1-100k": ("4218c7f35f700b8f", 175),
    "k1-400k": ("3417689110166182", 81),
    "k2-100k": ("0cf30de0e4dcb069", 175),
    "k2-100k-hedged": ("1406dbfa8a9b9e62", 335),
    "k2-400k": ("d697d0ad3a304575", 123),
}


def _serve_fixed(k, qps, hedge_after_ns):
    spec = ServingSpec(
        arrival_qps=qps, max_batch=8, batch_window_ns=50 * us, deadline_ns=5 * ms,
        queue_limit=16, hedge_after_ns=hedge_after_ns, seed=5,
        scheduler=SchedulerSpec(max_in_flight=k),
    )
    runspec = preset_runspec("tiny", n_devices=4, workload=FIXED_WORKLOAD)
    pipe = DLRMInferencePipeline.from_spec(runspec)
    return InferenceServer(pipe, spec).simulate(N_REQUESTS), pipe


@pytest.mark.parametrize("case", sorted(FIXED_LOADS))
def test_fixed_pooling_serving_is_pinned(case):
    result, pipe = _serve_fixed(*FIXED_LOADS[case])
    if FIXED_LOADS[case][2] is not None:
        assert result.n_hedged > 0
    assert (_digest(result, pipe), pipe.cluster.engine._seq) == FIXED_PINS[case]


# -- interleaved multi-wave kernels ---------------------------------------------------

#: two resident blocks per device: the four local tables of a device run as
#: two waves, so each batch's fused kernel writes twice
TWO_BLOCK_SPEC = DeviceSpec(sm_count=1, max_blocks_per_sm=2)
#: pooling long enough that a batch's EMB kernel outlasts the gap to the next
LONG_POOLING = WorkloadConfig(
    num_tables=8, rows_per_table=4096, dim=16, batch_size=256, max_pooling=256
)

#: case -> (hedge_after_ns, digest, Engine._seq); the digests were captured
#: while every wave end of a fused kernel was an engine entry of its own
INTERLEAVED_PINS = {
    "k2-400k": (None, "f514f62079cf2ca1", 156),
    "k2-400k-hedged": (20 * us, "d4bbca5ac13b086a", 326),
}


@pytest.mark.parametrize("case", sorted(INTERLEAVED_PINS))
def test_interleaved_multi_wave_kernels_are_pinned(case, monkeypatch):
    """K=2 batches whose fused kernels on one device each retire two waves,
    and whose wave ends interleave: a later batch's first wave retires
    before an earlier batch's last one."""
    hedge, digest, seq = INTERLEAVED_PINS[case]
    launches = []
    timeline = kernel_mod._timeline

    def recorded(device, kspec, t0):
        fracs, body, ends, end = timeline(device, kspec, t0)
        if kspec.name.startswith("pgas_fused"):
            launches.append((device.id, ends))
        return fracs, body, ends, end

    monkeypatch.setattr(kernel_mod, "_timeline", recorded)
    spec = ServingSpec(
        arrival_qps=400_000.0, max_batch=8, batch_window_ns=0.0, deadline_ns=5 * ms,
        hedge_after_ns=hedge, seed=5, scheduler=SchedulerSpec(max_in_flight=2),
    )
    runspec = preset_runspec("tiny", n_devices=2, workload=LONG_POOLING)
    pipe = DLRMInferencePipeline.from_spec(runspec, cluster=Cluster(2, device_spec=TWO_BLOCK_SPEC))
    result = InferenceServer(pipe, spec).simulate(N_REQUESTS)
    assert all(len(ends) == 2 for _, ends in launches)
    assert any(
        a[0] == b[0] and a[1][0] < b[1][0] < a[1][-1] for a in launches for b in launches
    )
    if hedge is not None:
        assert result.n_hedged > 0
    assert (_digest(result, pipe), pipe.cluster.engine._seq) == (digest, seq)
