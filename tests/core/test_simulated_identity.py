"""Host-time work must not move simulated results: exact pins.

Each case runs one forward batch (or one training step) on fresh objects
and compares its timing and the engine's event count (``Engine._seq``,
every callback ever scheduled) against literals.  The timing literals
were captured before the simulator's host-side hot paths were vectorized
(cached per-destination totals, ``reduceat`` wave sums, the list-entry
event heap) and before one-sided puts stopped creating events; any change
that only buys host time must leave them bit-for-bit unchanged.  A
deliberate change to the cost model re-captures them.

Event counts may drop only when the removed callbacks carry no simulated
state.  The pgas counts were re-captured twice for that reason.  First, a
one-sided put used to schedule two callbacks (delivery, then its event's
wake-up) and came to schedule one, while each ``quiet`` that waits books
one absolute-instant wake-up in place of an ``AllOf`` over every put.
Then puts stopped scheduling that delivery callback too: a put is booked
at issue (link reserved, counters stamped at its delivery instant) and
the engine only sees a no-op when a put extends its PE's latest delivery
instant, which keeps the clock running to the last delivery.  The
``*-g64`` cases were added at that point, their timings captured before
it and their event counts after.  Then every count was re-captured once
more when stream ops became engine callbacks: a kernel, copy or launch
delay no longer starts a process, an op nobody waits on schedules no
wake-up, and a kernel with no per-wave hook on a fault-free device takes
one callback, at its end.  The baseline counts moved only then.  Then
collectives stopped scheduling anything per chunk: each source's chunks
are booked at issue as one wave, like puts, and the collective schedules
one callback at its latest delivery instant in place of a delivery
callback, an event and an ``AllOf`` wake-up per chunk.  Every case with
an all-to-all or an all-reduce (the baseline cases, ``baseline+compress``,
both training steps and the baseline row-wise cases) dropped then.  Every
count was re-captured once more when waits on device work became one
event each: a stage waits on its stream ops through one countdown
``join`` (no ``done`` event per op, and a trailing sync cost folded into
the join's delay), and ``PGASContext.quiet`` over a set of PEs is one
callback at its wake-up instant in place of a process per PE.  Every
count fell once more when host programs became callback chains: a host
program or stage no longer starts a process (one entry each), and an
all-to-all wait fires in its delay's entry.  Every count fell once more
when streams began booking closed-form ops at submit: a launch delay, a
copy or a kernel on a fault-free device takes no entry of its own, a
join over booked ops takes one at their latest end, and a fused kernel
keeps only its wave-end entries.  Every pgas count fell once more when
puts stopped scheduling a no-op at each rise of a PE's latest delivery
instant: a put takes no entry, and ``quiet`` schedules its own wake-up
at that instant.  Every pgas count fell once more when a booked fused
kernel stopped taking an entry per wave end: its writes wait on the
source's links as one deferred run, booked when those links are next
touched or read.  No timing or counter moved.

Every timing of a case fed by ``lengths_batch`` on a plain uniform range
was re-captured once when that method began drawing each chunk's lookup
count from its law rather than drawing every sample: the inputs changed,
not the cost model, and no event count moved.  The cases fed by
``sparse_batch`` or a skewed config (``pgas+cache``, ``pgas+reshard``)
did not move.

``pgas-g64`` also pins how its writes are issued: one deferred
``PGASContext.put_run`` per device, and the settle that books them one
``put`` call and one stacked array pass over every source, next to the
unchanged number of writes, so a return to one call per source, per wave
or per destination fails here.  The 8-GPU shape of the benchmark's smoke
run pins the same, and a settle below the stacking threshold one list
``put`` per source.

``pgas-g64`` and ``baseline-g64`` run on one shared batch must also derive
each table's chunk lookup counts once between them (1024 derivations; one
set per backend would be 2048), and reduce the one destination tile shape's
per-wave sums once per concurrency, so a return to per-backend or
per-device reductions fails here.

The feature cases (``pgas+cache`` through ``pgas+reshard``) also pin the
total of every profiler counter, so a refactor of the feature adapters
cannot move a counter sample either.  They were captured before the
adapters shared one base class.

The row-wise cases pin the same three things for the row-wise forward on
both backends at G=4 and on a ragged G=3 batch (7 tables, a batch that
neither G nor the block size divides).  They were captured while the
row-wise forward still ran on engines of its own, before it moved onto
the table-wise ones.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.comm.hier import HierSpec
from repro.compress import CompressionSpec
from repro.core import workload as workload_mod
from repro.core.baseline import BaselineRetrieval, PhaseTiming
from repro.core.factory import FeatureSpec
from repro.core.pgas_retrieval import PGASFusedRetrieval
from repro.core.pipeline import DLRMInferencePipeline, PipelineConfig
from repro.core.retrieval import DistributedEmbedding
from repro.core.sharding import RowWiseSharding
from repro.core.train_pipeline import DLRMTrainingPipeline
from repro.core.workload import build_rowwise_workloads
from repro.dlrm import data as data_mod
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.faults import FaultEvent, FaultInjector, FaultPlan, ResilienceSpec
from repro.faults import resilient as resilient_mod
from repro.replication import ReplicationSpec
from repro.reshard import ReshardSpec
from repro.simgpu import interconnect as interconnect_mod
from repro.simgpu.cluster import dgx_v100, multinode
from repro.simgpu.units import us

FLAT_G16 = WorkloadConfig(num_tables=256, dim=64, batch_size=4096, max_pooling=32, seed=11)
# The benchmark's scale-g64 shape at a batch small enough for tier 1.
SCALE_G64 = WorkloadConfig(num_tables=1024, dim=64, batch_size=2048, max_pooling=32, seed=11)
HIER_2X4 = WorkloadConfig(num_tables=64, dim=64, batch_size=1024, max_pooling=32, seed=11)
TRAIN_G4 = WorkloadConfig(num_tables=64, dim=64, batch_size=2048, max_pooling=32, seed=11)
FEATURE_G4 = WorkloadConfig(
    num_tables=16, rows_per_table=4096, dim=32, batch_size=1024, max_pooling=8, seed=11
)
ROWWISE_G4 = WorkloadConfig(num_tables=32, dim=64, batch_size=2048, max_pooling=16, seed=11)
ROWWISE_G3 = WorkloadConfig(num_tables=7, dim=64, batch_size=1000, max_pooling=16, seed=11)


def _run(cfg, n_devices, backend, **kwargs):
    emb = DistributedEmbedding(cfg, n_devices, backend=backend, **kwargs)
    timing = emb.forward_timed(SyntheticDataGenerator(cfg).lengths_batch())
    return timing.as_dict(), emb.cluster.engine._seq


def _train(cfg, n_devices, backend):
    """One training step; its backward exercises ``PGASContext.atomic_add``."""
    pipe = DLRMTrainingPipeline(PipelineConfig(workload=cfg), n_devices, backend=backend)
    t = pipe.run_step(SyntheticDataGenerator(cfg).lengths_batch())
    got = {f"forward.{k}": v for k, v in t.forward.as_dict().items()}
    got["dense_backward_ns"] = t.dense_backward_ns
    got.update({f"emb_backward.{k}": v for k, v in t.emb_backward.as_dict().items()})
    got["total_ns"] = t.total_ns
    return got, pipe.cluster.engine._seq


def _counter_totals(emb):
    return _profiler_totals(emb.cluster.profiler)


def _profiler_totals(prof):
    """Every counter's total, and every per-link total of a counter booked on links."""
    totals = {name: c.total for name, c in prof.counters.items()}
    for name in prof.counters:
        totals.update({pair: c.total for pair, c in prof.pair_counters(name).items()})
    return dict(sorted(totals.items()))


def _feature(backend, cfg=FEATURE_G4, **features):
    return DistributedEmbedding(cfg, 4, backend=backend, features=FeatureSpec(**features))


def _cache():
    """A zipf stream through an LRU cache warmed by one earlier batch."""
    cfg = dataclasses.replace(FEATURE_G4, index_distribution="zipf", zipf_alpha=1.2)
    emb = _feature("pgas+cache", cfg, cache=CacheConfig(capacity_fraction=0.1))
    gen = SyntheticDataGenerator(cfg)
    emb.forward(gen.sparse_batch())
    timing = emb.forward(gen.sparse_batch()).timing
    return timing.as_dict(), emb.cluster.engine._seq, _counter_totals(emb)


def _compress():
    emb = _feature("baseline+compress", compression=CompressionSpec(codec="int8"))
    timing = emb.forward_timed(SyntheticDataGenerator(FEATURE_G4).lengths_batch())
    return timing.as_dict(), emb.cluster.engine._seq, _counter_totals(emb)


def _resilient():
    """A downed link forces a reroute; a degraded one misses the first
    attempt's deadline, so the batch retries once, after a 5 us backoff,
    and then completes."""
    emb = _feature("pgas+resilient", resilience=ResilienceSpec(deadline_ns=200 * us))
    FaultInjector(emb.cluster, FaultPlan((
        FaultEvent("link_down", 0.0, 1e9, src=1, dst=0),
        FaultEvent("link_degrade", 0.0, 150 * us, src=2, dst=3, severity=0.05),
    ))).install()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resilient_mod, "BACKOFF_BASE_NS", 5 * us)
        timing = emb.forward_timed(SyntheticDataGenerator(FEATURE_G4).lengths_batch())
    return timing.as_dict(), emb.cluster.engine._seq, _counter_totals(emb)


def _replicated():
    """k=2; device 1 dies after a healthy batch and is detected during the
    next, so the pinned third batch fails over to replicas."""
    spec = ReplicationSpec(k=2, heartbeat_interval_ns=5 * us)
    emb = _feature("pgas+replicated", replication=spec)
    gen = SyntheticDataGenerator(FEATURE_G4)
    emb.forward_timed(gen.lengths_batch())
    FaultInjector(emb.cluster, FaultPlan((
        FaultEvent("device_down", 1.0, 1e9, device=1),
    ))).install()
    emb.forward_timed(gen.lengths_batch())
    assert emb.backend_adapter()._failed == {1}
    timing = emb.forward_timed(gen.lengths_batch())
    return timing.as_dict(), emb.cluster.engine._seq, _counter_totals(emb)


def _reshard():
    """Six batches of a skewed stream; two planning rounds migrate tables."""
    cfg = dataclasses.replace(FEATURE_G4, table_skew_alpha=1.05)
    spec = ReshardSpec(
        window_batches=4, min_batches=2, check_interval_batches=2, imbalance_threshold=1.1
    )
    emb = _feature("pgas+reshard", cfg, reshard=spec)
    gen = SyntheticDataGenerator(cfg)
    total = PhaseTiming()
    for _ in range(6):
        total.add(emb.forward_timed(gen.lengths_batch()))
    return total.as_dict(), emb.cluster.engine._seq, _counter_totals(emb)


def _rowwise(cfg, n_devices, engine):
    """One row-wise forward batch on ``engine``."""
    cluster = dgx_v100(n_devices)
    plan = RowWiseSharding(cfg.table_configs(), n_devices)
    workloads = build_rowwise_workloads(plan, SyntheticDataGenerator(cfg).lengths_batch())
    timing = engine(cluster).run_batch(workloads)
    return timing.as_dict(), cluster.engine._seq, _profiler_totals(cluster.profiler)


def _pair_totals(prefix, n_devices, total):
    """Every ordered device pair's counter under ``prefix``, at ``total``."""
    return {
        f"{prefix}.dev{s}->dev{d}": total
        for s in range(n_devices)
        for d in range(n_devices)
        if s != d
    }


CASES = {
    "pgas-g16": (
        lambda: _run(FLAT_G16, 16, "pgas"),
        {
            "compute_ns": 7110949.169590643,
            "comm_ns": 0.0,
            "sync_unpack_ns": 0.0,
            "total_ns": 7110949.169590643,
            "batches": 1.0,
        },
        6,
    ),
    "baseline-g16": (
        lambda: _run(FLAT_G16, 16, "baseline"),
        {
            "compute_ns": 6914713.169590644,
            "comm_ns": 117219.10416666698,
            "sync_unpack_ns": 1799626.666666666,
            "total_ns": 8831558.940423977,
            "batches": 1.0,
        },
        11,
    ),
    "pgas-g64": (
        lambda: _run(SCALE_G64, 64, "pgas"),
        {
            "compute_ns": 7038243.67251462,
            "comm_ns": 0.0,
            "sync_unpack_ns": 0.0,
            "total_ns": 7038243.67251462,
            "batches": 1.0,
        },
        6,
    ),
    "baseline-g64": (
        lambda: _run(SCALE_G64, 64, "baseline"),
        {
            "compute_ns": 6935703.67251462,
            "comm_ns": 15274.208333333023,
            "sync_unpack_ns": 969504.0,
            "total_ns": 7920481.880847953,
            "batches": 1.0,
        },
        11,
    ),
    # Exercises the staging router's flush timers, which are cancelled.
    "pgas+hier-2x4": (
        lambda: _run(
            HIER_2X4, 8, "pgas+hier", cluster=multinode(2, 4),
            features=FeatureSpec(hier=HierSpec(devices_per_node=4)),
        ),
        {
            "compute_ns": 2143181.828814459,
            "comm_ns": 0.0,
            "sync_unpack_ns": 0.0,
            "total_ns": 2143181.828814459,
            "batches": 1.0,
        },
        351,
    ),
    "train-pgas-g4": (
        lambda: _train(TRAIN_G4, 4, "pgas"),
        {
            "forward.input_copy_ns": 373411.3333333333,
            "forward.dense_mlp_ns": 32451.674153536733,
            "forward.interaction_top_ns": 250121.14436125662,
            "forward.overlap_saved_ns": 32451.674153536558,
            "forward.total_ns": 7639933.062489912,
            "forward.batches": 1.0,
            "forward.emb.compute_ns": 7016400.584795322,
            "forward.emb.comm_ns": 0.0,
            "forward.emb.sync_unpack_ns": 0.0,
            "forward.emb.total_ns": 7016400.584795322,
            "forward.emb.batches": 1.0,
            "dense_backward_ns": 1489166.458850151,
            "emb_backward.compute_ns": 5400125.497076025,
            "emb_backward.comm_ns": 0.0,
            "emb_backward.sync_unpack_ns": 0.0,
            "emb_backward.total_ns": 5400125.497076025,
            "emb_backward.batches": 1.0,
            "total_ns": 13040058.559565937,
        },
        34,
    ),
    "train-baseline-g4": (
        lambda: _train(TRAIN_G4, 4, "baseline"),
        {
            "forward.input_copy_ns": 373411.3333333333,
            "forward.dense_mlp_ns": 32451.674153536733,
            "forward.interaction_top_ns": 250121.14436125662,
            "forward.overlap_saved_ns": 32451.674153536558,
            "forward.total_ns": 8499131.270823246,
            "forward.batches": 1.0,
            "forward.emb.compute_ns": 6890820.584795322,
            "forward.emb.comm_ns": 233727.54166666698,
            "forward.emb.sync_unpack_ns": 751050.666666667,
            "forward.emb.total_ns": 7875598.793128656,
            "forward.emb.batches": 1.0,
            "dense_backward_ns": 1489166.458850151,
            "emb_backward.compute_ns": 19234396.16374269,
            "emb_backward.comm_ns": 971143.3338501509,
            "emb_backward.sync_unpack_ns": 751050.666666666,
            "emb_backward.total_ns": 20956590.16425951,
            "emb_backward.batches": 1.0,
            "total_ns": 29455721.435082756,
        },
        44,
    ),
}

FEATURE_CASES = {
    "pgas+cache": (
        _cache,
        {
            "compute_ns": 155571.40935672517,
            "comm_ns": 0.0,
            "sync_unpack_ns": 0.0,
            "total_ns": 155571.40935672517,
            "batches": 1.0,
        },
        12,
        {
            "cache.evictions.dev0": 3791.0,
            "cache.evictions.dev1": 4313.0,
            "cache.evictions.dev2": 4312.0,
            "cache.evictions.dev3": 4175.0,
            "cache.hits.dev0": 15732.0,
            "cache.hits.dev1": 15408.0,
            "cache.hits.dev2": 15572.0,
            "cache.hits.dev3": 15501.0,
            "cache.misses.dev0": 8706.0,
            "cache.misses.dev1": 9228.0,
            "cache.misses.dev2": 9227.0,
            "cache.misses.dev3": 9090.0,
            "pgas_bytes": 2535808.0,
            "pgas_bytes.dev0->dev1": 209920.0,
            "pgas_bytes.dev0->dev2": 211328.0,
            "pgas_bytes.dev0->dev3": 206592.0,
            "pgas_bytes.dev1->dev0": 206592.0,
            "pgas_bytes.dev1->dev2": 217728.0,
            "pgas_bytes.dev1->dev3": 212608.0,
            "pgas_bytes.dev2->dev0": 209152.0,
            "pgas_bytes.dev2->dev1": 213632.0,
            "pgas_bytes.dev2->dev3": 215040.0,
            "pgas_bytes.dev3->dev0": 208512.0,
            "pgas_bytes.dev3->dev1": 212992.0,
            "pgas_bytes.dev3->dev2": 211712.0,
        },
    ),
    "baseline+compress-int8": (
        _compress,
        {
            "compute_ns": 168117.61403508772,
            "comm_ns": 4806.666666666657,
            "sync_unpack_ns": 79270.08187134503,
            "total_ns": 252194.3625730994,
            "batches": 1.0,
        },
        15,
        {
            "comm_bytes": 442368.0,
            "comm_bytes.dev0->dev1": 36864.0,
            "comm_bytes.dev0->dev2": 36864.0,
            "comm_bytes.dev0->dev3": 36864.0,
            "comm_bytes.dev1->dev0": 36864.0,
            "comm_bytes.dev1->dev2": 36864.0,
            "comm_bytes.dev1->dev3": 36864.0,
            "comm_bytes.dev2->dev0": 36864.0,
            "comm_bytes.dev2->dev1": 36864.0,
            "comm_bytes.dev2->dev3": 36864.0,
            "comm_bytes.dev3->dev0": 36864.0,
            "comm_bytes.dev3->dev1": 36864.0,
            "comm_bytes.dev3->dev2": 36864.0,
            "compress.bytes_on_wire": 442368.0,
            "compress.bytes_uncompressed": 1572864.0,
            "compress.decode_ns": 3928.3274853801167,
            "compress.encode_ns": 3928.3274853801167,
        },
    ),
    "pgas+resilient": (
        _resilient,
        {
            "compute_ns": 154927.64912280702,
            "comm_ns": 0.0,
            "sync_unpack_ns": 0.0,
            "total_ns": 360723.85123195883,
            "batches": 1.0,
        },
        35,
        {
            "faults.rerouted_bytes": 524288.0,
            "faults.rerouted_bytes.delivered": 262144.0,
            "faults.rerouted_bytes.dev1->dev2": 262144.0,
            "faults.rerouted_bytes.dev2->dev0": 262144.0,
            "faults.retries": 1.0,
            "faults.windows": 2.0,
            "pgas_bytes": 2883584.0,
            "pgas_bytes.dev0->dev1": 262144.0,
            "pgas_bytes.dev0->dev2": 262144.0,
            "pgas_bytes.dev0->dev3": 262144.0,
            "pgas_bytes.dev1->dev2": 262144.0,
            "pgas_bytes.dev1->dev3": 262144.0,
            "pgas_bytes.dev2->dev0": 262144.0,
            "pgas_bytes.dev2->dev1": 262144.0,
            "pgas_bytes.dev2->dev3": 262144.0,
            "pgas_bytes.dev3->dev0": 262144.0,
            "pgas_bytes.dev3->dev1": 262144.0,
            "pgas_bytes.dev3->dev2": 262144.0,
        },
    ),
    "pgas+replicated-k2": (
        _replicated,
        {
            "compute_ns": 223086.90058479534,
            "comm_ns": 0.0,
            "sync_unpack_ns": 0.0,
            "total_ns": 223086.90058479534,
            "batches": 1.0,
        },
        151,
        {
            "availability.batch_lookups": 65184.0,
            "availability.detection_ns": 5071.350877192977,
            "availability.failover_lookups": 16151.0,
            "availability.failures": 1.0,
            "availability.recovery_bytes": 4194304.0,
            "availability.recovery_bytes.dev0->dev2": 1572864.0,
            "availability.recovery_bytes.dev2->dev3": 1572864.0,
            "availability.recovery_bytes.dev3->dev2": 1048576.0,
            "faults.windows": 1.0,
            "pgas_bytes": 4718592.0,
            "pgas_bytes.dev0->dev1": 425984.0,
            "pgas_bytes.dev0->dev2": 425984.0,
            "pgas_bytes.dev0->dev3": 425984.0,
            "pgas_bytes.dev1->dev0": 262144.0,
            "pgas_bytes.dev1->dev2": 262144.0,
            "pgas_bytes.dev1->dev3": 262144.0,
            "pgas_bytes.dev2->dev0": 425984.0,
            "pgas_bytes.dev2->dev1": 425984.0,
            "pgas_bytes.dev2->dev3": 425984.0,
            "pgas_bytes.dev3->dev0": 458752.0,
            "pgas_bytes.dev3->dev1": 458752.0,
            "pgas_bytes.dev3->dev2": 458752.0,
        },
    ),
    "pgas+reshard": (
        _reshard,
        {
            "compute_ns": 1512684.8654970762,
            "comm_ns": 0.0,
            "sync_unpack_ns": 0.0,
            "total_ns": 1512684.8654970762,
            "batches": 6.0,
        },
        66,
        {
            "pgas_bytes": 9437184.0,
            "pgas_bytes.dev0->dev1": 655360.0,
            "pgas_bytes.dev0->dev2": 655360.0,
            "pgas_bytes.dev0->dev3": 655360.0,
            "pgas_bytes.dev1->dev0": 786432.0,
            "pgas_bytes.dev1->dev2": 786432.0,
            "pgas_bytes.dev1->dev3": 786432.0,
            "pgas_bytes.dev2->dev0": 1146880.0,
            "pgas_bytes.dev2->dev1": 1146880.0,
            "pgas_bytes.dev2->dev3": 1146880.0,
            "pgas_bytes.dev3->dev0": 557056.0,
            "pgas_bytes.dev3->dev1": 557056.0,
            "pgas_bytes.dev3->dev2": 557056.0,
            "reshard.advisories": 2.0,
            "reshard.migration_bytes": 3145728.0,
            "reshard.migration_bytes.dev0->dev2": 524288.0,
            "reshard.migration_bytes.dev0->dev3": 524288.0,
            "reshard.migration_bytes.dev3->dev2": 2097152.0,
            "reshard.migration_ns": 410015.99999999953,
            "reshard.migrations": 6.0,
            "reshard.moves": 6.0,
            "reshard.plans": 2.0,
        },
    ),
}


ROWWISE_CASES = {
    "rowwise-baseline-g4": (
        lambda: _rowwise(ROWWISE_G4, 4, BaselineRetrieval),
        {
            "compute_ns": 1286213.1461988306,
            "comm_ns": 466744.4375,
            "sync_unpack_ns": 1217084.4444444445,
            "total_ns": 2970042.028143275,
            "batches": 1.0,
        },
        11,
        {"comm_bytes": 50331648.0, **_pair_totals("comm_bytes", 4, 4194304.0)},
    ),
    "rowwise-pgas-g4": (
        lambda: _rowwise(ROWWISE_G4, 4, PGASFusedRetrieval),
        {
            "compute_ns": 1473233.1461988306,
            "comm_ns": 0.0,
            "sync_unpack_ns": 0.0,
            "total_ns": 1473233.1461988306,
            "batches": 1.0,
        },
        6,
        {"pgas_bytes": 50331648.0, **_pair_totals("pgas_bytes", 4, 4194304.0)},
    ),
    "rowwise-baseline-g3-ragged": (
        lambda: _rowwise(ROWWISE_G3, 3, BaselineRetrieval),
        {
            "compute_ns": 339703.48538011697,
            "comm_ns": 67213.77083333331,
            "sync_unpack_ns": 185006.2222222222,
            "total_ns": 591923.4784356725,
            "batches": 1.0,
        },
        11,
        {
            "comm_bytes": 3584000.0,
            "comm_bytes.dev0->dev1": 596736.0,
            "comm_bytes.dev0->dev2": 596736.0,
            "comm_bytes.dev1->dev0": 598528.0,
            "comm_bytes.dev1->dev2": 596736.0,
            "comm_bytes.dev2->dev0": 598528.0,
            "comm_bytes.dev2->dev1": 596736.0,
        },
    ),
    "rowwise-pgas-g3-ragged": (
        lambda: _rowwise(ROWWISE_G3, 3, PGASFusedRetrieval),
        {
            "compute_ns": 370438.48538011697,
            "comm_ns": 0.0,
            "sync_unpack_ns": 0.0,
            "total_ns": 370438.48538011697,
            "batches": 1.0,
        },
        6,
        {
            "pgas_bytes": 3584000.0,
            "pgas_bytes.dev0->dev1": 596736.0,
            "pgas_bytes.dev0->dev2": 596736.0,
            "pgas_bytes.dev1->dev0": 598528.0,
            "pgas_bytes.dev1->dev2": 596736.0,
            "pgas_bytes.dev2->dev0": 598528.0,
            "pgas_bytes.dev2->dev1": 596736.0,
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_phase_timing_and_event_count_are_pinned(case):
    run, timing, events = CASES[case]
    got_timing, got_events = run()[:2]
    assert got_timing == timing
    assert got_events == events


@pytest.mark.parametrize("case", sorted(FEATURE_CASES))
def test_feature_timing_events_and_counters_are_pinned(case):
    run, timing, events, counters = FEATURE_CASES[case]
    got_timing, got_events, got_counters = run()
    assert got_timing == timing
    assert got_events == events
    assert got_counters == counters


@pytest.mark.parametrize("case", sorted(ROWWISE_CASES))
def test_rowwise_timing_events_and_counters_are_pinned(case):
    run, timing, events, counters = ROWWISE_CASES[case]
    got_timing, got_events, got_counters = run()
    assert got_timing == timing
    assert got_events == events
    assert got_counters == counters


def _put_calls(cfg, n_devices):
    """One pgas forward of ``cfg``: the deferred runs ``(src, waves)``, the
    ``put`` calls ``(src, payload type, shape of at)``, the stacked passes
    ``(shape, booked)``, the writes and the per-source sample order."""
    emb = DistributedEmbedding(cfg, n_devices, backend="pgas")
    pgas = emb.backend_adapter().base.pgas
    fabric = emb.cluster.interconnect
    runs, calls, passes = [], [], []
    put_run, put, book_runs = pgas.put_run, pgas.put, fabric.book_runs

    def counted_run(src, dsts, ends, waves, skip):
        runs.append((src, len(ends)))
        return put_run(src, dsts, ends, waves, skip)

    def counted(src, dst, payload_bytes, at=None):
        calls.append((src, type(payload_bytes).__name__, None if at is None else np.shape(at)))
        return put(src, dst, payload_bytes, at=at)

    def counted_pass(srcs, payloads, *args):
        done = book_runs(srcs, payloads, *args)
        passes.append((payloads.shape, done is not None))
        return done

    pgas.put_run, pgas.put, fabric.book_runs = counted_run, counted, counted_pass
    emb.forward_timed(SyntheticDataGenerator(cfg).lengths_batch())
    samples = emb.cluster.profiler.pair_samples("pgas_bytes")
    by_src = [samples.dst[samples.src == src].tolist() for src in range(n_devices)]
    return runs, calls, passes, len(samples.src), by_src


def _others(n_devices):
    return [[d for d in range(n_devices) if d != src] for src in range(n_devices)]


def test_pgas_g64_defers_one_put_run_per_device():
    """The ``pgas-g64`` forward defers one ``PGASContext.put_run`` per
    device (64 devices, one wave each at this batch), and its one settle
    books all 64 runs through one ``put`` with a list of sources and their
    issue instants (``at``) as one ``(64, 1, 64)`` array pass, never a
    per-source or per-wave ``put``; the runs carry the same 4032 writes
    that one put call per device-wave carried, each source's in
    destination order."""
    runs, calls, passes, puts, by_src = _put_calls(SCALE_G64, 64)
    assert runs == [(src, 1) for src in range(64)]
    assert calls == [(list(range(64)), "ndarray", (64, 1))]
    assert passes == [((64, 1, 64), True)]
    assert puts == 4032 and by_src == _others(64)


def test_pgas_g8_smoke_shape_books_one_stacked_put():
    """The 8-GPU shape of the benchmark's ``scale-g64`` smoke run (128
    tables, 16384 samples): eight runs of seven waves, booked by one
    ``put`` as one ``(8, 7, 8)`` array pass, 392 writes."""
    cfg = WorkloadConfig(num_tables=128, dim=64, batch_size=16_384, max_pooling=32, seed=11)
    runs, calls, passes, puts, by_src = _put_calls(cfg, 8)
    assert runs == [(src, 7) for src in range(8)]
    assert calls == [(list(range(8)), "ndarray", (8, 7))]
    assert passes == [((8, 7, 8), True)]
    assert puts == 392 and by_src == [7 * dsts for dsts in _others(8)]


def test_a_settle_below_the_threshold_books_each_source_as_lists():
    """Eight one-wave runs of seven writes (56, below
    ``interconnect.STACK_MIN_WRITES``): one list ``put`` per source, in
    source order, and no array pass."""
    assert 56 < interconnect_mod.STACK_MIN_WRITES
    runs, calls, passes, puts, by_src = _put_calls(TRAIN_G4, 8)
    assert runs == [(src, 1) for src in range(8)]
    assert calls == [(src, "list", (1,)) for src in range(8)]
    assert passes == []
    assert puts == 56 and by_src == _others(8)


def test_g64_backends_share_one_derivation_per_table(monkeypatch):
    """``pgas-g64`` then ``baseline-g64`` on one batch, then a second pgas
    batch of the same shape: each table's chunk counts are derived once per
    batch, and the one tile shape (16 tables x 32 chunks, 64 destinations)
    reduces its per-wave sums once, for the V100's 640 concurrent blocks."""
    derived, reduced = [], []
    chunk_counts, wave_sums = data_mod.LengthsBatch.chunk_counts, workload_mod._wave_sums

    def counting_chunk_counts(batch, samples_per_block):
        counts = chunk_counts(batch, samples_per_block)
        derived.append(counts)
        return counts

    def counting_wave_sums(block_dst_bytes, concurrent_blocks):
        reduced.append((block_dst_bytes.shape, concurrent_blocks))
        return wave_sums(block_dst_bytes, concurrent_blocks)

    monkeypatch.setattr(data_mod.LengthsBatch, "chunk_counts", counting_chunk_counts)
    monkeypatch.setattr(workload_mod, "_wave_sums", counting_wave_sums)
    workload_mod._dst_tile.cache_clear()
    gen = SyntheticDataGenerator(SCALE_G64)
    lengths = gen.lengths_batch()
    for case in ("pgas-g64", "baseline-g64"):
        emb = DistributedEmbedding(SCALE_G64, 64, backend=case.split("-")[0])
        assert emb.forward_timed(lengths).as_dict() == CASES[case][1]
        assert emb.cluster.engine._seq == CASES[case][2]
    # One (1024 tables, 32 chunks) matrix, handed to both backends.
    assert len(derived) == 2 and derived[0] is derived[1]
    assert derived[0].shape == (1024, 32)
    DistributedEmbedding(SCALE_G64, 64, backend="pgas").forward_timed(gen.lengths_batch())
    assert len(derived) == 3 and derived[2] is not derived[0]
    assert reduced == [((512, 64), 640)]


def test_stream_ops_start_no_process():
    """One G=8 inference batch runs 64 stream ops (input copies, launch
    delays, kernels) and one G=4 training step 48, all booked at submit
    and waited on by joins of one entry each, and each ``quiet`` covers
    every PE with one event: the host programs are callback chains, so an
    entry per stream op, per PE or per stage start fails here without any
    timing.  The batch took 87 entries while every op ran as callbacks,
    and 35 while each put that raised its PE's horizon took one."""
    pipe = DLRMInferencePipeline(PipelineConfig(workload=TRAIN_G4), 8, backend="pgas")
    pipe.run_batch(SyntheticDataGenerator(TRAIN_G4).lengths_batch())
    assert pipe.cluster.engine._seq == 19

    got, seq = _train(TRAIN_G4, 4, "pgas")
    assert (got, seq) == (CASES["train-pgas-g4"][1], CASES["train-pgas-g4"][2])


# -- link faults that open mid-kernel -------------------------------------------------

#: a forward whose fused kernels retire two waves each (1024 blocks per device)
TWO_WAVE_G4 = WorkloadConfig(num_tables=64, dim=32, batch_size=4096, max_pooling=8, seed=11)

#: link windows on a plan that targets no device, so every kernel is booked;
#: each edge falls between a source's two wave ends (about 702 and 1120 us)
MID_KERNEL_LINK_FAULTS = (
    FaultEvent("link_degrade", 900 * us, 2000 * us, src=0, dst=1, severity=0.25),
    FaultEvent("link_degrade", 100 * us, 710 * us, src=3, dst=0, severity=0.5),
    FaultEvent("link_latency", 710 * us, 3000 * us, src=1, dst=0, severity=5 * us),
    FaultEvent("link_down", 800 * us, 1200 * us, src=2, dst=3),
)

#: (src, dst) -> (free_at, busy_time, bytes_carried, transfers, messages),
#: captured while every wave end of a fused kernel was an engine entry
MID_KERNEL_LINKS = {
    (0, 1): (1192671.1578947369, 104448.0, 2359296.0, 2, 8192),
    (0, 2): (1137375.1578947369, 49152.0, 2359296.0, 2, 8192),
    (0, 3): (1137375.1578947369, 49152.0, 2359296.0, 2, 8192),
    (1, 0): (1138202.2923976607, 49152.0, 2359296.0, 2, 8192),
    (1, 2): (1138202.2923976607, 49152.0, 2359296.0, 2, 8192),
    (1, 3): (1138202.2923976607, 49152.0, 2359296.0, 2, 8192),
    (2, 0): (1141160.888888889, 49152.0, 2359296.0, 2, 8192),
    (2, 1): (1141160.888888889, 49152.0, 2359296.0, 2, 8192),
    (2, 3): (1218432.0, 49152.0, 2359296.0, 2, 8192),
    (3, 0): (1141377.2163742692, 79872.0, 2359296.0, 2, 8192),
    (3, 1): (1141377.2163742692, 49152.0, 2359296.0, 2, 8192),
    (3, 2): (1141377.2163742692, 49152.0, 2359296.0, 2, 8192),
}

#: each link's delivery instants, one per wave
MID_KERNEL_DELIVERIES = {
    "pgas_bytes.dev0->dev1": [732947.1412979792, 1193371.1578947369],
    "pgas_bytes.dev0->dev2": [732947.1412979792, 1138075.1578947369],
    "pgas_bytes.dev0->dev3": [732947.1412979792, 1138075.1578947369],
    "pgas_bytes.dev1->dev0": [734851.0613275872, 1143902.2923976607],
    "pgas_bytes.dev1->dev2": [734851.0613275872, 1138902.2923976607],
    "pgas_bytes.dev1->dev3": [734851.0613275872, 1138902.2923976607],
    "pgas_bytes.dev2->dev0": [735565.5304588857, 1141860.888888889],
    "pgas_bytes.dev2->dev1": [735565.5304588857, 1141860.888888889],
    "pgas_bytes.dev2->dev3": [735565.5304588857, 1219132.0],
    "pgas_bytes.dev3->dev0": [764566.8593491553, 1142077.2163742692],
    "pgas_bytes.dev3->dev1": [733846.8593491553, 1142077.2163742692],
    "pgas_bytes.dev3->dev2": [733846.8593491553, 1142077.2163742692],
}


def test_link_faults_opening_mid_kernel_are_pinned():
    """Degrade, restore, latency and down edges between two wave ends of
    a booked fused kernel: the waves before an edge see the old link
    state and the waves after it the new one."""
    emb = DistributedEmbedding(TWO_WAVE_G4, 4, backend="pgas")
    FaultInjector(emb.cluster, FaultPlan(MID_KERNEL_LINK_FAULTS)).install()
    timing = emb.forward_timed(SyntheticDataGenerator(TWO_WAVE_G4).lengths_batch())
    assert timing.as_dict() == {
        "compute_ns": 1229132.0,
        "comm_ns": 0.0,
        "sync_unpack_ns": 0.0,
        "total_ns": 1229132.0,
        "batches": 1.0,
    }
    assert emb.cluster.engine._seq == 13
    writes = emb.cluster.profiler.counter("pgas_bytes")
    assert (len(writes.events()), writes.total) == (24, 25165824.0)
    links = {
        (lk.src, lk.dst): (
            lk._free_at, lk.busy_time, lk.bytes_carried, lk.transfer_count, lk.messages_sent
        )
        for lk in emb.cluster.interconnect.links()
    }
    assert links == MID_KERNEL_LINKS
    deliveries = emb.cluster.profiler.pair_counters("pgas_bytes")
    assert {name: [t for t, _ in c.events()] for name, c in deliveries.items()} == (
        MID_KERNEL_DELIVERIES
    )
