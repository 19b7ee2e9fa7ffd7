"""Timed end-to-end DLRM inference pipeline (paper Figs. 1 & 4).

Simulates the full per-batch flow the paper's experiments run around the
EMB layer:

1. **input staging** — the CPU-partitioned inputs are copied to each GPU
   over the host link: the dense *mini-batch* plus the *full batch* of the
   device's local sparse features (paper Fig. 4);
2. **dense path ∥ EMB path** — the bottom MLP over the dense mini-batch
   runs *concurrently* with the distributed EMB retrieval ("the top MLP
   and EMB retrieval run concurrently", Fig. 4), each on its own stream;
3. **interaction + top MLP** — once both embeddings exist, every device
   runs the (data-parallel) interaction and prediction kernels on its
   mini-batch;
4. device synchronisation.

The EMB step is the pluggable part: the pipeline is an
:class:`~repro.core.retrieval.EmbeddingHost`, so it gets its EMB adapter
for any backend from the same adapter class a
:class:`~repro.core.retrieval.DistributedEmbedding` uses, and that
adapter's ``batch_process`` composes here unchanged.  The pipeline thus
quantifies what the paper's EMB-layer speedups (and every feature
transform's) mean for whole-model latency (Amdahl).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..comm.collective import CollectiveSpec
from ..comm.pgas import PGASSpec
from ..dlrm.batch import SparseBatch
from ..dlrm.data import WorkloadConfig
from ..dlrm.interaction import interaction_output_dim
from ..obs import trace_scope
from ..simgpu.cluster import Cluster
from ..simgpu.engine import Event
from ..simgpu.kernel import KernelSpec
from ..simgpu.profiler import TraceRef
from ..simgpu.stream import join
from ..simgpu.units import gbps
from .baseline import BatchStart, PhaseTiming
from .calibration import INDEX_BYTES, OFFSET_BYTES
from .factory import FeatureSpec
from .retrieval import BackendName, EmbeddingHost
from .sharding import TableWiseSharding, minibatch_bounds
from .workload import DeviceWorkload, build_device_workloads, lengths_from_batch

__all__ = ["PipelineConfig", "PipelineTiming", "DLRMInferencePipeline", "H2D_BANDWIDTH"]

#: host-to-device staging bandwidth (PCIe 3.0 x16 effective)
H2D_BANDWIDTH = gbps(12)


@dataclass(frozen=True)
class PipelineConfig:
    """Model shape around the EMB layer."""

    workload: WorkloadConfig
    bottom_mlp: Sequence[int] = (512, 256)
    top_mlp: Sequence[int] = (512, 256)

    def mlp_flops_per_sample(self, sizes: Sequence[int]) -> int:
        """2 × Σ in×out multiply-adds along a layer stack."""
        total = 0
        for a, b in zip(sizes, sizes[1:]):
            total += 2 * a * b
        return total

    @property
    def bottom_sizes(self) -> List[int]:
        """Bottom MLP layer widths, dense features → embedding dim."""
        return [self.workload.num_dense_features, *self.bottom_mlp, self.workload.dim]

    @property
    def top_sizes(self) -> List[int]:
        """Top MLP layer widths, interaction output → 1 logit."""
        inter = interaction_output_dim(self.workload.num_tables, self.workload.dim)
        return [inter, *self.top_mlp, 1]


@dataclass
class PipelineTiming:
    """Per-stage wall times of one (or many accumulated) pipeline batches.

    ``overlap_saved_ns`` is the time the Fig.-4 concurrency bought:
    (dense stage + EMB stage) − max-of-the-two, summed over batches.
    """

    input_copy_ns: float = 0.0
    dense_mlp_ns: float = 0.0
    emb: PhaseTiming = field(default_factory=PhaseTiming)
    interaction_top_ns: float = 0.0
    overlap_saved_ns: float = 0.0
    total_ns: float = 0.0
    batches: int = 0

    def add(self, other: "PipelineTiming") -> None:
        """Accumulate another batch."""
        self.input_copy_ns += other.input_copy_ns
        self.dense_mlp_ns += other.dense_mlp_ns
        self.emb.add(other.emb)
        self.interaction_top_ns += other.interaction_top_ns
        self.overlap_saved_ns += other.overlap_saved_ns
        self.total_ns += other.total_ns
        self.batches += other.batches

    @property
    def emb_fraction(self) -> float:
        """Share of total pipeline time spent in the EMB stage (Amdahl)."""
        if self.total_ns <= 0:
            return 0.0
        exposed_emb = max(self.emb.total_ns - self.dense_mlp_ns, 0.0)
        return exposed_emb / self.total_ns

    def as_dict(self) -> Dict[str, float]:
        """Flat plain-dict view (EMB phases nested under ``emb.`` keys)."""
        out: Dict[str, float] = {
            "input_copy_ns": self.input_copy_ns,
            "dense_mlp_ns": self.dense_mlp_ns,
            "interaction_top_ns": self.interaction_top_ns,
            "overlap_saved_ns": self.overlap_saved_ns,
            "total_ns": self.total_ns,
            "batches": float(self.batches),
        }
        for key, value in self.emb.as_dict().items():
            out[f"emb.{key}"] = value
        return out


class DLRMInferencePipeline(EmbeddingHost):
    """Full-model timed inference with a pluggable EMB backend."""

    def __init__(
        self,
        config: PipelineConfig,
        n_devices: int,
        *,
        backend: BackendName = "pgas",
        cluster: Optional[Cluster] = None,
        collective_spec: Optional[CollectiveSpec] = None,
        pgas_spec: Optional[PGASSpec] = None,
        h2d_bandwidth: float = H2D_BANDWIDTH,
        overlap_input_staging: bool = False,
        staging_chunks: int = 8,
        features: Optional[FeatureSpec] = None,
    ):
        """``overlap_input_staging`` enables the paper's §V input-pipelining
        proposal: instead of waiting for the whole CPU-partitioned input to
        land before launching kernels ("merge the sparse input partitioning
        into the computation kernel, allowing computation to start
        immediately when the corresponding sparse input is picked out"),
        the copy is cut into ``staging_chunks`` pieces and the compute
        paths start after the first chunk, overlapping the rest.

        ``features`` is the :class:`~repro.core.factory.FeatureSpec` the
        EMB adapters are built from, exactly as for
        :class:`~repro.core.retrieval.DistributedEmbedding` (its ``obs``
        section enables per-batch trace context; None or disabled keeps
        runs bit-identical to untraced ones).  Table weights are registered
        with device memory only when an adapter asks for
        :meth:`weight_buffer_map` (the ``"+reshard"`` backends do)."""
        super().__init__(backend, n_devices, cluster, features, collective_spec, pgas_spec)
        if h2d_bandwidth <= 0:
            raise ValueError("h2d_bandwidth must be positive")
        if staging_chunks <= 0:
            raise ValueError("staging_chunks must be positive")
        self.config = config
        self.plan = TableWiseSharding(config.workload.table_configs(), n_devices)
        self.h2d_bandwidth = h2d_bandwidth
        self.overlap_input_staging = overlap_input_staging
        self.staging_chunks = staging_chunks
        # Every batch launches the same (bottom MLP, interaction, top MLP)
        # kernels: they depend only on the frozen config and the device.
        self._stage_kernels = [
            (
                self._mlp_kernel("bottom_mlp", dev, config.bottom_sizes),
                self._interaction_kernel(dev),
                self._mlp_kernel("top_mlp", dev, config.top_sizes),
            )
            for dev in range(self.cluster.n_devices)
        ]

    @classmethod
    def from_spec(cls, spec, *, cluster: Optional[Cluster] = None, **overrides):
        """Build a pipeline from a :class:`~repro.core.runspec.RunSpec`.

        ``overrides`` pass straight to the keyword constructor (e.g. a
        different ``backend`` for A/B runs on the same spec).
        """
        kwargs = dict(backend=spec.backend, cluster=cluster, features=spec.feature_spec())
        kwargs.update(overrides)
        return cls(spec.pipeline_config(), spec.n_devices, **kwargs)

    def set_features(self, features: FeatureSpec) -> None:
        """Swap the feature configs; adapters built so far are released and
        rebuilt from the new configs on next use."""
        for adapter in self._adapters.values():
            adapter.release()
        self._adapters.clear()
        self.features = features

    # -- cost helpers -----------------------------------------------------------

    def _input_bytes(self, dev_id: int, workloads: Sequence[DeviceWorkload]) -> float:
        """Staged bytes: dense mini-batch + local features' full batch."""
        cfg = self.config.workload
        G = self.cluster.n_devices
        lo, hi = minibatch_bounds(cfg.batch_size, G)[dev_id]
        dense = (hi - lo) * cfg.num_dense_features * 4.0
        wl = workloads[dev_id]
        sparse = wl.nnz * INDEX_BYTES + (
            cfg.batch_size * wl.num_local_tables + 1
        ) * OFFSET_BYTES
        return dense + sparse

    def _mlp_kernel(self, name: str, dev_id: int, sizes: Sequence[int]) -> KernelSpec:
        """Data-parallel MLP launch over this device's mini-batch."""
        cfg = self.config.workload
        G = self.cluster.n_devices
        lo, hi = minibatch_bounds(cfg.batch_size, G)[dev_id]
        B_g = hi - lo
        flops = float(B_g) * self.config.mlp_flops_per_sample(sizes)
        weight_bytes = 4.0 * sum(a * b + b for a, b in zip(sizes, sizes[1:]))
        act_bytes = 4.0 * B_g * sum(sizes)
        return KernelSpec(
            name=f"{name}.dev{dev_id}",
            num_blocks=max(B_g // 32, 1) * max(len(sizes) - 1, 1),
            bytes_read=weight_bytes + act_bytes,
            bytes_written=4.0 * B_g * sizes[-1],
            flops=flops,
        )

    def _interaction_kernel(self, dev_id: int) -> KernelSpec:
        """Interaction: pairwise dots over the mini-batch."""
        cfg = self.config.workload
        G = self.cluster.n_devices
        lo, hi = minibatch_bounds(cfg.batch_size, G)[dev_id]
        B_g = hi - lo
        F1 = cfg.num_tables + 1
        in_bytes = 4.0 * B_g * F1 * cfg.dim
        out_dim = interaction_output_dim(cfg.num_tables, cfg.dim)
        flops = float(B_g) * (F1 * F1 * cfg.dim)
        return KernelSpec(
            name=f"interaction.dev{dev_id}",
            num_blocks=max(B_g // 32, 1),
            bytes_read=in_bytes,
            bytes_written=4.0 * B_g * out_dim,
            flops=flops,
        )

    # -- running ----------------------------------------------------------------

    def _workloads(
        self,
        lengths_by_feature: Optional[Mapping[str, np.ndarray]],
        backend: BackendName,
        batch: Optional[SparseBatch],
    ) -> List[DeviceWorkload]:
        """One batch's per-device workloads (input staging reads them too).

        Index-dependent backends also need the batch itself; their input
        staging still accounts the full indices (a device-side cache does
        not shrink what the host ships).
        """
        if batch is None and self.backend_adapter(backend).requires_indices:
            raise ValueError(
                f"backend {backend!r} needs index values; pass batch=<SparseBatch>"
            )
        if lengths_by_feature is None:
            if batch is None:
                raise ValueError("need lengths_by_feature or batch")
            lengths_by_feature = lengths_from_batch(batch)
        return build_device_workloads(self.plan, lengths_by_feature)

    def _emb_stage(
        self,
        workloads: Sequence[DeviceWorkload],
        timing: PipelineTiming,
        backend: BackendName,
        batch: Optional[SparseBatch] = None,
        stream_suffix: str = "",
    ) -> BatchStart:
        """The EMB stage's host program, built at batch submission.

        A stateful adapter's per-batch pass runs here (the cache pass
        runs when ``batch_process`` is called, not when the stage
        starts), so interleaved batches advance its state in submission
        order.
        """
        timing.emb.batches = 1
        return self.backend_adapter(backend).batch_process(
            self.cluster, workloads, timing.emb, batch=batch, stream_suffix=stream_suffix
        )

    def run_batch(
        self, lengths_by_feature: Optional[Mapping[str, np.ndarray]] = None,
        backend: Optional[BackendName] = None,
        *,
        batch: Optional[SparseBatch] = None,
    ) -> PipelineTiming:
        """Simulate one full inference batch; returns per-stage timing.

        Cached backends require ``batch`` (the cost model depends on the
        index values); the uncached ones only need the jagged lengths.
        """
        be = backend or self.backend
        workloads = self._workloads(lengths_by_feature, be, batch)
        timing = PipelineTiming(batches=1)
        emb_start = self._emb_stage(workloads, timing, be, batch)
        ref = self._next_trace_ref()
        # The whole synchronous run is one batch: scoping the trace ref
        # around it attributes every span the engine records to this batch.
        with trace_scope(self.cluster.profiler if ref is not None else None, ref):
            self.cluster.run(
                lambda cl: self._start_batch(cl, workloads, timing, emb_start, trace_ref=ref)
            )
        return timing

    def batch_process(
        self,
        lengths_by_feature: Optional[Mapping[str, np.ndarray]],
        timing: PipelineTiming,
        backend: Optional[BackendName] = None,
        *,
        batch: Optional[SparseBatch] = None,
        stream_suffix: str = "",
        trace: Optional[TraceRef] = None,
    ) -> BatchStart:
        """One batch's host program — composable into larger host
        programs (the serving simulator interleaves these with request
        arrivals).  ``timing`` is filled at completion.

        ``stream_suffix`` gives this batch its own stream set (``"h2d"``,
        ``"dense"``, ``"default"`` each suffixed) so the continuous-batching
        scheduler can keep several batches in flight without serialising
        them on shared FIFO queues; the default empty suffix reproduces
        single-batch behaviour exactly.

        ``trace`` attributes the batch's spans to a trace context even when
        several batches interleave on the engine: the program starts under
        the ref, so it and every continuation it registers (the EMB and
        dense stages included) run under it, while engine work of *other*
        batches does not."""
        be = backend or self.backend
        workloads = self._workloads(lengths_by_feature, be, batch)
        timing.batches = 1
        emb_start = self._emb_stage(workloads, timing, be, batch, stream_suffix)
        prof = self.cluster.profiler if trace is not None else None

        def start() -> Event:
            with trace_scope(prof, trace):
                return self._start_batch(
                    self.cluster, workloads, timing, emb_start,
                    stream_suffix=stream_suffix, trace_ref=trace,
                )

        return start

    def _start_batch(
        self,
        cluster: Cluster,
        workloads: Sequence[DeviceWorkload],
        timing: PipelineTiming,
        emb_start: BatchStart,
        stream_suffix: str = "",
        trace_ref: Optional[TraceRef] = None,
    ) -> Event:
        """Start one batch's host program now; returns its end event.

        ``emb_start`` is its EMB stage (:meth:`_emb_stage`), run beside
        the dense path."""
        engine = cluster.engine
        prof = cluster.profiler
        t0 = engine.now
        t1 = t2 = t_dense = 0.0
        dense_done: Optional[Event] = None
        copy_ops: List[Event] = []

        # ---- stage 1: input staging over the host link ------------------------
        def staging() -> Event:
            first_chunk_ops = []
            K = self.staging_chunks if self.overlap_input_staging else 1
            for dev in cluster.devices:
                nbytes = self._input_bytes(dev.id, workloads)
                stream = dev.stream("h2d" + stream_suffix)
                chunk_ns = nbytes / self.h2d_bandwidth / K
                for c in range(K):
                    op = stream.submit_delay(chunk_ns, name=f"h2d.{c}")
                    if c == 0:
                        first_chunk_ops.append(op)
                    copy_ops.append(op)
            if self.overlap_input_staging:
                # §V pipelining: compute starts once the first input chunk
                # has landed; the rest streams in under the kernels.
                return join(engine, first_chunk_ops)
            return join(engine, copy_ops)

        # ---- stage 2: dense MLP ∥ distributed EMB ------------------------------
        def paths() -> float:
            nonlocal t1
            t1 = engine.now
            if trace_ref is not None:
                prof.record_span("input_copy", "h2d", -1, t0, t1)
            # The two paths start one entry later each, dense first, so work
            # already queued at this instant (another batch's stage on the
            # same streams) is submitted before them.
            cluster.then(0.0, dense_path)
            return 0.0

        def dense_path() -> None:
            nonlocal dense_done
            dense_done = cluster.chain(dense_kernels, dense_ended)

        def dense_kernels() -> Event:
            ops = []
            for dev in cluster.devices:
                stream = dev.stream("dense" + stream_suffix)
                bottom, _, _ = self._stage_kernels[dev.id]
                stream.submit_delay(dev.spec.kernel_launch_overhead_ns, name="launch")
                ops.append(stream.launch(dev, bottom))
            return join(engine, ops)

        def dense_ended() -> None:
            nonlocal t_dense
            t_dense = engine.now

        def emb_path() -> Event:
            # Compute may overlap the tail of a pipelined copy, but the batch
            # is not done until every input chunk has landed.
            return join(engine, [dense_done, emb_start(), join(engine, copy_ops)])

        # ---- stage 3: interaction + top MLP ------------------------------------
        def interaction_top() -> Event:
            nonlocal t2
            t2 = engine.now
            dense_ns = t_dense - t1
            timing.dense_mlp_ns = dense_ns
            timing.overlap_saved_ns = dense_ns + timing.emb.total_ns - (t2 - t1)
            if trace_ref is not None:
                prof.record_span("dense_mlp", "dense", -1, t1, t_dense)
            ops = []
            for dev in cluster.devices:
                stream = dev.stream("default" + stream_suffix)
                _, ki, kt = self._stage_kernels[dev.id]
                stream.submit_delay(dev.spec.kernel_launch_overhead_ns, name="launch")
                ops.append(stream.launch(dev, ki))
                ops.append(stream.launch(dev, kt))
            return join(engine, ops, cluster.devices[0].spec.sync_overhead_ns)

        def finish() -> None:
            t3 = engine.now
            if trace_ref is not None:
                prof.record_span("interaction_top", "top", -1, t2, t3)
            timing.input_copy_ns = t1 - t0
            timing.interaction_top_ns = t3 - t2
            timing.total_ns = t3 - t0

        return cluster.chain(staging, paths, emb_path, interaction_top, finish)

    # -- telemetry --------------------------------------------------------------

    def telemetry_report(self, timing: Optional[PipelineTiming] = None, **kwargs):
        """:class:`~repro.telemetry.RunReport` of the batches run so far.

        Captures the whole-pipeline profiler record (input staging, dense
        path, EMB, interaction) plus any cache/fault counters the active
        backend stamped.  Extra ``kwargs`` pass to
        :func:`repro.telemetry.collect_run_report`.
        """
        from ..telemetry import collect_run_report

        return collect_run_report(
            self.cluster.profiler,
            backend=self.backend,
            n_devices=self.cluster.n_devices,
            workload=self.config.workload,
            timing=timing,
            topology=self.cluster.topology,
            **kwargs,
        )
