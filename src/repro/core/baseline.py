"""The NCCL-collective baseline retrieval (timed path).

Faithful to the paper's baseline (§IV): an ``EmbeddingBagCollection``
forward CUDA kernel per device, a device synchronisation, one
``all_to_all_single(async_op=True)`` collective, its ``wait()``, and then
the unpack/rearrangement of the received chunks into the final
data-parallel tensor.  "On each GPU, communication does not start until
the embedding table forward CUDA kernel finishes."

Phase accounting follows the paper's own measurement method (§IV-A2a):

* **compute** — the distinct computation phase (kernel launch → all devices'
  kernels done).
* **comm** — the pure transfer window of the collective (what remains after
  subtracting control-path costs, as the paper does with its
  single-float-message trick).
* **sync_unpack** — everything else: collective control path, ``wait()``,
  stream synchronisations, and the unpack pass over the received bytes.

Each phase is also recorded as profiler spans (categories ``"compute"``,
``"comm"``, ``"sync_unpack"``) and the comm counter is stamped by the
chunked transfers, producing the baseline curves of Figs. 6/7/9/10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..comm.hier import HierSpec

from ..comm.collective import CollectiveContext, CollectiveSpec
from ..simgpu.cluster import Cluster
from ..simgpu.engine import ProcessGenerator
from .calibration import UNPACK_BANDWIDTH
from .workload import DeviceWorkload, alltoall_split_bytes

__all__ = ["PhaseTiming", "BaselineRetrieval"]


@dataclass
class PhaseTiming:
    """Wall-clock phase breakdown of one (or many accumulated) batches."""

    compute_ns: float = 0.0
    comm_ns: float = 0.0
    sync_unpack_ns: float = 0.0
    total_ns: float = 0.0
    batches: int = 0

    def add(self, other: "PhaseTiming") -> None:
        """Accumulate another batch's phases (the 100-batch loop)."""
        self.compute_ns += other.compute_ns
        self.comm_ns += other.comm_ns
        self.sync_unpack_ns += other.sync_unpack_ns
        self.total_ns += other.total_ns
        self.batches += other.batches

    @property
    def overhead_ns(self) -> float:
        """Total minus the three named phases (should be ~0 for baseline)."""
        return self.total_ns - self.compute_ns - self.comm_ns - self.sync_unpack_ns

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for reporting."""
        return {
            "compute_ns": self.compute_ns,
            "comm_ns": self.comm_ns,
            "sync_unpack_ns": self.sync_unpack_ns,
            "total_ns": self.total_ns,
            "batches": float(self.batches),
        }


class BaselineRetrieval:
    """Timed EMB forward using collective communication (the baseline).

    With ``hier_spec`` set (and active for this device count), the
    all-to-all runs through the two-level
    :class:`~repro.comm.hier.TwoLevelAllToAll` — intra-node gather to a
    node leader, one coalesced NIC transfer per ordered node pair, scatter
    on the far side.  An inactive spec (``devices_per_node == 1`` or a
    single node) leaves the flat collective in place, event-identical.
    """

    def __init__(
        self,
        cluster: Cluster,
        collective_spec: Optional[CollectiveSpec] = None,
        unpack_bandwidth: float = UNPACK_BANDWIDTH,
        hier_spec: Optional["HierSpec"] = None,
    ):
        if unpack_bandwidth <= 0:
            raise ValueError("unpack_bandwidth must be positive")
        self.cluster = cluster
        self.collectives = CollectiveContext(cluster, collective_spec)
        self.unpack_bandwidth = unpack_bandwidth
        self._hier = None
        if hier_spec is not None:
            hier_spec.validate_for(cluster.n_devices)
            if hier_spec.active(cluster.n_devices):
                from ..comm.hier import TwoLevelAllToAll

                self._hier = TwoLevelAllToAll(
                    cluster, self.collectives.spec, hier_spec
                )

    # -- single batch -----------------------------------------------------------

    def run_batch(self, workloads: Sequence[DeviceWorkload]) -> PhaseTiming:
        """Simulate one EMB forward + layout conversion; returns its phases."""
        self._check(workloads)
        timing = PhaseTiming(batches=1)
        self.cluster.run(lambda cl: self.batch_process(cl, workloads, timing))
        return timing

    def run_batches(self, workloads_iter) -> PhaseTiming:
        """Accumulate phases over an iterable of per-batch workload lists."""
        total = PhaseTiming()
        for workloads in workloads_iter:
            total.add(self.run_batch(workloads))
        return total

    # -- internals ----------------------------------------------------------------

    def _check(self, workloads: Sequence[DeviceWorkload]) -> None:
        if len(workloads) != self.cluster.n_devices:
            raise ValueError(
                f"got {len(workloads)} workloads for {self.cluster.n_devices} devices"
            )
        for i, wl in enumerate(workloads):
            if wl.device_id != i:
                raise ValueError(f"workload {i} has device_id {wl.device_id}")

    def batch_process(
        self,
        cluster: Cluster,
        workloads: Sequence[DeviceWorkload],
        timing: PhaseTiming,
        stream_suffix: str = "",
    ) -> ProcessGenerator:
        """Process generator for one batch — composable into larger host
        programs (e.g. the full-pipeline simulation overlaps this with the
        dense MLP, as in the paper's Fig. 4).  ``timing`` is filled in at
        completion.  ``stream_suffix`` selects a per-batch stream set so
        concurrent batches (continuous-batching serving) don't serialise
        on one FIFO queue; the default empty suffix is the classic
        ``"default"`` stream."""
        engine = cluster.engine
        prof = cluster.profiler
        spec0 = cluster.devices[0].spec
        coll_spec = self.collectives.spec
        G = cluster.n_devices
        t0 = engine.now

        # ---- Phase 1: computation ------------------------------------------------
        ops = []
        for dev, wl in zip(cluster.devices, workloads):
            kspec = wl.kernel_spec("baseline_emb")
            stream = dev.stream("default" + stream_suffix)
            stream.submit_delay(dev.spec.kernel_launch_overhead_ns, name="launch")
            ops.append(stream.launch(dev, kspec))
        yield engine.all_of([op.done for op in ops])
        # Host observes completion via a device sync before the collective.
        yield engine.timeout(spec0.sync_overhead_ns)
        t1 = engine.now
        for dev, op in zip(cluster.devices, ops):
            prof.record_span(f"compute.dev{dev.id}", "compute", dev.id, t0, t1)

        # ---- Phase 2: all-to-all ---------------------------------------------------
        split = alltoall_split_bytes(workloads)
        if self._hier is not None:
            handle = self._hier.all_to_all_single(split)
        else:
            handle = self.collectives.all_to_all_single(split)
        yield from handle.wait()
        t2 = engine.now
        # Pure transfer window, paper-style: subtract control path + wait.
        control_ns = coll_spec.launch_overhead_ns + coll_spec.wait_overhead_ns
        comm_ns = max(t2 - t1 - control_ns, 0.0) if G > 1 else 0.0
        prof.record_span("alltoall", "comm", -1, t1 + coll_spec.launch_overhead_ns, t2 - coll_spec.wait_overhead_ns if G > 1 else t1 + coll_spec.launch_overhead_ns)

        # ---- Phase 3: unpack + syncs -------------------------------------------------
        if G > 1:
            unpack_ops = []
            for dev, wl in zip(cluster.devices, workloads):
                # Table-wise: read each received byte and write it to its
                # final slot.  Row-wise: read G partials, write their sum.
                unpack_ns = wl.unpack_bytes(workloads) / self.unpack_bandwidth
                stream = dev.stream("default" + stream_suffix)
                unpack_ops.append(
                    stream.submit_delay(
                        dev.spec.kernel_launch_overhead_ns + unpack_ns,
                        name=f"unpack.dev{dev.id}",
                    )
                )
            yield engine.all_of([op.done for op in unpack_ops])
            yield engine.timeout(spec0.sync_overhead_ns)
        t3 = engine.now
        prof.record_span("sync_unpack", "sync_unpack", -1, t2, t3)

        timing.compute_ns = t1 - t0
        timing.comm_ns = comm_ns
        timing.sync_unpack_ns = (t3 - t2) + (control_ns if G > 1 else t2 - t1)
        timing.total_ns = t3 - t0
