"""Timed end-to-end DLRM *training* step (the paper's §I motivation).

"More than 50% of machine learning training time at Meta is devoted to
deep learning recommendation models" — and the EMB layer's communication
appears **twice** per training step: the forward layout conversion this
paper optimises, and the backward gradient exchange its §V sketches.
This module composes the timed pieces into one step:

1. forward: input staging, dense MLP ∥ distributed EMB forward (Fig. 4),
   interaction + top MLP (:class:`~repro.core.pipeline.DLRMInferencePipeline`);
2. dense backward: top MLP, interaction, bottom MLP gradient kernels
   (data-parallel, local) plus the gradient all-reduce for the replicated
   MLP weights — the part DLRM systems overlap with the EMB backward;
3. EMB backward: the chosen scheme's gradient exchange + scatter-add
   (:mod:`repro.core.backward`), overlapped with the dense backward.

``run_step`` returns a :class:`TrainStepTiming` with forward, backward,
and total times per backend — the bench shows the PGAS advantage roughly
doubles when both directions are counted.  The EMB backward is modelled
for the two base strategies only, so a ``+<feature>`` backend name is
rejected rather than trained as its base.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from ..comm.collective import CollectiveContext, CollectiveSpec
from ..simgpu.cluster import Cluster
from ..simgpu.engine import Event
from ..simgpu.kernel import KernelSpec
from ..simgpu.stream import join
from .backward import BaselineBackward, PGASFusedBackward
from .baseline import PhaseTiming
from .factory import parse_backend_name
from .pipeline import DLRMInferencePipeline, PipelineConfig, PipelineTiming
from .retrieval import BackendName, adapter_class
from .workload import build_device_workloads

__all__ = ["TrainStepTiming", "DLRMTrainingPipeline"]


def _emb_base(backend: BackendName) -> str:
    """The base strategy whose EMB backward ``backend`` trains with.

    Only ``pgas`` and ``baseline`` have a modelled backward; a feature
    stack would silently train as its base, so it raises instead.
    """
    adapter_class(backend)  # malformed or unknown names raise here
    base, features = parse_backend_name(backend)
    if features:
        raise ValueError(
            f"backend {backend!r} cannot train: the EMB backward is modelled "
            f"only for the base strategies (pgas, baseline), not "
            f"'+{'+'.join(features)}'"
        )
    return base


@dataclass
class TrainStepTiming:
    """Per-phase wall times of one (or many accumulated) training steps."""

    forward: PipelineTiming = field(default_factory=PipelineTiming)
    dense_backward_ns: float = 0.0
    emb_backward: PhaseTiming = field(default_factory=PhaseTiming)
    total_ns: float = 0.0
    steps: int = 0

    def add(self, other: "TrainStepTiming") -> None:
        """Accumulate another step."""
        self.forward.add(other.forward)
        self.dense_backward_ns += other.dense_backward_ns
        self.emb_backward.add(other.emb_backward)
        self.total_ns += other.total_ns
        self.steps += other.steps


class DLRMTrainingPipeline:
    """Timed training steps with a pluggable EMB communication backend."""

    def __init__(
        self,
        config: PipelineConfig,
        n_devices: int,
        *,
        backend: BackendName = "pgas",
        cluster: Optional[Cluster] = None,
        collective_spec: Optional[CollectiveSpec] = None,
    ):
        """``backend`` must be a base strategy (``"pgas"`` or
        ``"baseline"``); feature stacks raise ``ValueError``."""
        _emb_base(backend)
        self.config = config
        self.backend: BackendName = backend
        self.forward_pipeline = DLRMInferencePipeline(
            config, n_devices, backend=backend, cluster=cluster,
            collective_spec=collective_spec,
        )
        self.cluster = self.forward_pipeline.cluster
        self.plan = self.forward_pipeline.plan
        self._bwd_baseline = BaselineBackward(self.cluster, collective_spec)
        self._bwd_pgas = PGASFusedBackward(self.cluster)
        self._mlp_allreduce = CollectiveContext(self.cluster, collective_spec)

    # -- cost helpers -------------------------------------------------------------

    def _dense_backward_kernel(self, dev_id: int) -> KernelSpec:
        """Backward through top MLP + interaction + bottom MLP: ~2x forward."""
        bottom, inter, top = self.forward_pipeline._stage_kernels[dev_id]
        return KernelSpec(
            name=f"dense_bwd.dev{dev_id}",
            num_blocks=top.num_blocks + bottom.num_blocks + inter.num_blocks,
            bytes_read=2.0 * (top.bytes_read + bottom.bytes_read + inter.bytes_read),
            bytes_written=2.0 * (top.bytes_written + bottom.bytes_written + inter.bytes_written),
            flops=2.0 * (top.flops + bottom.flops + inter.flops),
        )

    def _mlp_weight_bytes(self) -> float:
        """Replicated MLP parameter bytes (the all-reduce payload)."""
        cfg = self.config
        total = 0.0
        for sizes in (cfg.bottom_sizes, cfg.top_sizes):
            total += 4.0 * sum(a * b + b for a, b in zip(sizes, sizes[1:]))
        return total

    # -- running --------------------------------------------------------------------

    def run_step(
        self,
        lengths_by_feature: Mapping[str, np.ndarray],
        backend: Optional[BackendName] = None,
    ) -> TrainStepTiming:
        """Simulate one forward + backward training step."""
        be = backend or self.backend
        bwd = self._bwd_baseline if _emb_base(be) == "baseline" else self._bwd_pgas
        timing = TrainStepTiming(steps=1)
        workloads = build_device_workloads(self.plan, lengths_by_feature)
        fwd = self.forward_pipeline

        def step(cluster: Cluster) -> Event:
            engine = cluster.engine
            t0 = engine.now
            t1 = t_dense = 0.0

            # ---- forward -------------------------------------------------------
            def forward() -> Event:
                timing.forward.batches = 1
                return fwd._start_batch(
                    cluster, workloads, timing.forward,
                    fwd._emb_stage(workloads, timing.forward, be),
                )

            # ---- backward: dense path ∥ EMB gradient exchange ------------------
            def backward() -> Event:
                nonlocal t1
                t1 = engine.now
                timing.emb_backward.batches = 1
                dense_done = cluster.chain(dense_kernels, allreduce, dense_ended)
                emb_done = bwd.batch_process(cluster, workloads, timing.emb_backward)()
                return join(engine, [dense_done, emb_done])

            def dense_kernels() -> Event:
                ops = []
                for dev in cluster.devices:
                    k = self._dense_backward_kernel(dev.id)
                    stream = dev.stream("dense")
                    stream.submit_delay(dev.spec.kernel_launch_overhead_ns, "launch")
                    ops.append(stream.launch(dev, k))
                return join(engine, ops)

            def allreduce() -> Optional[Event]:
                # Data-parallel MLP weights: ring all-reduce of the grads.
                if cluster.n_devices == 1:
                    return None
                return self._mlp_allreduce.all_reduce(self._mlp_weight_bytes()).wait()

            def dense_ended() -> None:
                nonlocal t_dense
                t_dense = engine.now

            def finish() -> None:
                timing.dense_backward_ns = t_dense - t1
                timing.total_ns = engine.now - t0

            return cluster.chain(forward, backward, finish)

        self.cluster.run(step)
        return timing
