"""Compressed distributed retrieval: the ``"+compress"`` backends.

:class:`CompressedRetrieval` wraps either base backend (``pgas`` or
``baseline``) with a row codec on the wire:

* the ``fp32`` codec is a **zero-overhead passthrough** — every call
  delegates to the unmodified base engine with the caller's own comm
  specs, so the timed path is event-for-event identical to the bare
  backend and the functional path is bit-identical;
* lossy codecs shrink every off-diagonal byte in the per-device
  workloads to the codec's wire size (payload + per-row scale), which
  automatically shrinks the baseline's all-to-all splits and unpack
  volume, the PGAS puts and their NVLink drag, and the per-message
  header count (one compressed vector per one-sided message — the PGAS
  spec's ``message_bytes`` is replaced by the codec's row wire bytes so
  each vector still pays exactly one header).

Compression is charged, not assumed free.  The **encode** pass is fused
into the EMB kernel: each device's kernel additionally streams its remote
fp32 outputs in and their wire form out (extra ``bytes_read`` /
``bytes_written`` on the same roofline), so waves retire — and PGAS puts
leave — correspondingly later.  The **decode** pass runs on the
*destination* device after the base pass completes: a memory-bound
kernel (launch + streamed bytes over achieved HBM bandwidth) priced by
:func:`~repro.compress.spec.compress_cost_model`, recorded as
``compress.decode.dev{g}`` spans and added to the ``sync_unpack`` phase.

The functional path mirrors :func:`~repro.core.functional.pgas_functional_forward`
but routes every *remote* slice through a real ``encode → decode``
round-trip, accumulating measured ``max_abs_error`` / RMSE against the
fp32 values and enforcing the spec's ``error_bound`` guard.  Counters
(``compress.bytes_on_wire``, ``compress.bytes_uncompressed``,
``compress.encode_ns``, ``compress.decode_ns``, error stats) feed
:func:`repro.telemetry.compute_metrics` and the run report.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..comm.pgas import PGASSpec
from ..core.baseline import BatchStart, PhaseTiming
from ..core.retrieval import BaseRetrieval
from ..core.sharding import minibatch_bounds
from ..core.workload import DeviceWorkload, unpack_bytes_received
from ..dlrm.batch import SparseBatch
from ..simgpu.cluster import Cluster
from ..simgpu.engine import Event
from ..simgpu.stream import join
from .codec import Codec
from .spec import CompressionSpec

__all__ = [
    "CompressedRetrieval",
    "CompressionErrorStats",
    "WIRE_COUNTER",
    "RAW_COUNTER",
    "ENCODE_NS_COUNTER",
    "DECODE_NS_COUNTER",
    "MAX_ERROR_COUNTER",
    "SQ_ERROR_COUNTER",
    "ERROR_ELEMS_COUNTER",
]

#: Profiler counter names stamped by the timed path (also read by
#: ``repro.telemetry.metrics`` — keep the ``compress.`` prefix stable).
WIRE_COUNTER = "compress.bytes_on_wire"
RAW_COUNTER = "compress.bytes_uncompressed"
ENCODE_NS_COUNTER = "compress.encode_ns"
DECODE_NS_COUNTER = "compress.decode_ns"
#: counters stamped by the functional path (measured round-trip error)
MAX_ERROR_COUNTER = "compress.max_abs_error"
SQ_ERROR_COUNTER = "compress.sq_error"
ERROR_ELEMS_COUNTER = "compress.error_elems"


@dataclass
class CompressionErrorStats:
    """Measured round-trip error of the functional path."""

    max_abs_error: float = 0.0
    sq_error: float = 0.0
    n_elements: int = 0

    @property
    def rmse(self) -> float:
        """Root-mean-square error over every compared element."""
        if self.n_elements == 0:
            return 0.0
        return float(np.sqrt(self.sq_error / self.n_elements))

    def merge(self, other: "CompressionErrorStats") -> None:
        """Fold another batch's stats into this accumulator."""
        self.max_abs_error = max(self.max_abs_error, other.max_abs_error)
        self.sq_error += other.sq_error
        self.n_elements += other.n_elements


@dataclass(frozen=True, eq=False)
class _EncodeChargedWorkload(DeviceWorkload):
    """A workload whose kernel additionally streams the encode pass.

    ``codec_read_bytes`` (remote fp32 outputs re-read) and
    ``codec_write_bytes`` (their wire form written) inflate the roofline
    traffic of the inherited :meth:`DeviceWorkload.kernel_spec`, so the
    fused quantisation stretches the kernel — and delays wave retirement
    — instead of being a free pre-pass.
    """

    codec_read_bytes: float = 0.0
    codec_write_bytes: float = 0.0

    @property
    def bytes_read(self) -> float:
        return DeviceWorkload.bytes_read.fget(self) + self.codec_read_bytes

    @property
    def bytes_written(self) -> float:
        return DeviceWorkload.bytes_written.fget(self) + self.codec_write_bytes


class CompressedRetrieval(BaseRetrieval):
    """A base retrieval backend with codec-compressed remote transfers.

    Lossy codecs require all tables to share one float32 ``dim`` (one
    wire-row shape per cluster); the ``fp32`` passthrough accepts anything
    the base backend does.
    """

    suffix = "compress"
    config_field = "compression"
    spec_type = CompressionSpec
    descriptions = {
        "pgas": "PGAS retrieval with quantized one-sided writes (fp32/fp16/int8/int4 row codecs)",
        "baseline": "collective retrieval with quantized all-to-all payloads and a "
                    "destination-side decode pass",
    }

    def _attach(self) -> None:
        self.codec: Codec = self.spec.codec_obj()
        self.passthrough = self.spec.codec == "fp32"
        self._row_wire_bytes: Optional[int] = None
        if not self.passthrough:
            configs = self.table_plan.table_configs
            dims = {t.dim for t in configs}
            dtypes = {np.dtype(t.dtype) for t in configs}
            if len(dims) != 1 or dtypes != {np.dtype(np.float32)}:
                raise ValueError(
                    "lossy compression needs tables sharing one dim with float32 weights"
                )
            self._dim = dims.pop()
            self._row_wire_bytes = self.codec.row_wire_bytes(self._dim)
        #: lifetime error accumulation across functional batches
        self.errors = CompressionErrorStats()
        #: error stats of the most recent functional batch (None before one)
        self.last_batch_errors: Optional[CompressionErrorStats] = None

    def _engine(self, collective_spec, pgas_spec):
        if self._row_wire_bytes is not None and self.base_name == "pgas":
            # One compressed vector per one-sided message: the per-row
            # scale rides in the same message and every vector still pays
            # exactly one wire header.
            pgas_spec = dataclasses.replace(
                pgas_spec or PGASSpec(), message_bytes=self._row_wire_bytes
            )
        return super()._engine(collective_spec, pgas_spec)

    # -- workload scaling ---------------------------------------------------------

    def _scaled_workloads(
        self, workloads: Sequence[DeviceWorkload]
    ) -> List[DeviceWorkload]:
        """Workloads whose off-diagonal bytes shrink to codec wire bytes.

        Destination-byte entries are exact vector counts times
        ``row_wire_bytes`` (no float drift), the local column is left at
        fp32 size (local vectors never cross the wire), and the fused
        encode traffic is attached via :class:`_EncodeChargedWorkload`.
        """
        if self.passthrough:
            return list(workloads)
        row_wire = float(self._row_wire_bytes)
        out: List[DeviceWorkload] = []
        for wl in workloads:
            counts = wl.block_dst_bytes / float(wl.row_bytes)
            dst = counts * row_wire
            if dst.size:
                dst[:, wl.device_id] = wl.block_dst_bytes[:, wl.device_id]
            raw_remote = wl.remote_output_bytes
            fields = {f.name: getattr(wl, f.name) for f in dataclasses.fields(DeviceWorkload)}
            fields["block_dst_bytes"] = dst
            swl = _EncodeChargedWorkload(
                **fields,
                codec_read_bytes=raw_remote,
                codec_write_bytes=raw_remote / wl.row_bytes * row_wire,
            )
            out.append(swl)
        return out

    def wire_bytes_for(self, workloads: Sequence[DeviceWorkload]) -> Tuple[float, float]:
        """``(uncompressed, on_wire)`` remote payload bytes of one batch."""
        raw = float(sum(wl.remote_output_bytes for wl in workloads))
        if self.passthrough:
            return raw, raw
        scaled = self._scaled_workloads(workloads)
        return raw, float(sum(swl.remote_output_bytes for swl in scaled))

    # -- timed path ---------------------------------------------------------------

    def batch_process(
        self,
        cluster: Cluster,
        workloads: Sequence[DeviceWorkload],
        timing: PhaseTiming,
        *,
        batch: Optional[SparseBatch] = None,
        stream_suffix: str = "",
    ) -> BatchStart:
        """One batch's host program — composable into larger host
        programs; decode is charged on the destinations.  The ``fp32``
        passthrough is the bare base engine's program (same events,
        spans, counters and timing).  ``stream_suffix`` passes through to
        the wrapped backend's per-batch stream set."""
        if self.passthrough:
            return super().batch_process(
                cluster, workloads, timing, stream_suffix=stream_suffix
            )
        if len(workloads) != cluster.n_devices:
            raise ValueError(
                f"got {len(workloads)} workloads for {cluster.n_devices} devices"
            )
        engine = cluster.engine
        prof = cluster.profiler
        spec0 = cluster.devices[0].spec

        def start() -> Event:
            scaled = self._scaled_workloads(workloads)
            t2 = encode_ns = decode_ns = 0.0
            dec_ops = []

            def decode() -> Optional[Event]:
                # Decode pass: each destination dequantises what it received.
                nonlocal t2, encode_ns, decode_ns
                t2 = engine.now
                for dev, wl, swl in zip(cluster.devices, workloads, scaled):
                    encode_ns += self.spec.encode_cost_ns(
                        wl.remote_output_bytes, swl.remote_output_bytes, dev.spec
                    )
                    wire_in = unpack_bytes_received(scaled, dev.id)
                    if wire_in <= 0:
                        continue
                    raw_in = unpack_bytes_received(workloads, dev.id)
                    dec = self.spec.decode_cost_ns(raw_in, wire_in, dev.spec)
                    decode_ns += dec
                    stream = dev.stream("default" + stream_suffix)
                    dec_ops.append(
                        (
                            dev.id,
                            stream.submit_delay(
                                dev.spec.kernel_launch_overhead_ns + dec,
                                name=f"decode.dev{dev.id}",
                            ),
                        )
                    )
                if dec_ops:
                    return join(engine, (op for _, op in dec_ops), spec0.sync_overhead_ns)
                return None

            def finish() -> None:
                if dec_ops:
                    t3 = engine.now
                    for dev_id, _op in dec_ops:
                        prof.record_span(f"compress.decode.dev{dev_id}", "compress", dev_id, t2, t3)
                    # The base pass assigned its phase fields; the decode tail is
                    # extra staging on top of them.
                    timing.sync_unpack_ns += t3 - t2
                    timing.total_ns += t3 - t2
                self._count(WIRE_COUNTER, sum(swl.remote_output_bytes for swl in scaled))
                self._count(RAW_COUNTER, sum(wl.remote_output_bytes for wl in workloads))
                self._count(ENCODE_NS_COUNTER, encode_ns, "ns")
                self._count(DECODE_NS_COUNTER, decode_ns, "ns")

            # Base pass over the shrunk workloads: the EMB kernels carry the
            # fused encode traffic, the wire moves codec bytes.
            base_start = self.base.batch_process(
                cluster, scaled, timing, stream_suffix=stream_suffix
            )
            return cluster.chain(base_start, decode, finish)

        return start

    # -- functional path ----------------------------------------------------------

    def functional_forward(self, batch: SparseBatch) -> List[np.ndarray]:
        """Numpy forward with the real codec round-trip on remote slices.

        Local (``src == dst``) vectors never cross the wire and stay
        exact; remote slices go through ``encode → decode``.  Measured
        error statistics accumulate on :attr:`errors` /
        :attr:`last_batch_errors` and are stamped as ``compress.*``
        counters; a configured ``error_bound`` is enforced here.
        """
        if self.passthrough:
            return super().functional_forward(batch)
        sharded = self._materialized()
        plan = self.table_plan
        G = plan.n_devices
        bounds = minibatch_bounds(batch.batch_size, G)
        F = plan.num_tables
        dim = sharded.dim
        stats = CompressionErrorStats()
        outputs = [
            np.zeros((hi - lo, F, dim), dtype=sharded.dtype) for lo, hi in bounds
        ]
        for src in range(G):
            cols = plan.feature_indices_on(src)
            for j, table in enumerate(sharded.per_device[src]):
                pooled = table.forward(batch.field(table.name))  # (B, d)
                for dst, (lo, hi) in enumerate(bounds):
                    rows = pooled[lo:hi]
                    if dst == src:
                        outputs[dst][:, cols[j], :] = rows
                        continue
                    decoded = self.codec.roundtrip(rows)
                    err = np.abs(decoded.astype(np.float64) - rows.astype(np.float64))
                    if err.size:
                        stats.max_abs_error = max(stats.max_abs_error, float(err.max()))
                        stats.sq_error += float(np.square(err).sum())
                        stats.n_elements += int(err.size)
                    outputs[dst][:, cols[j], :] = decoded
        if (
            self.spec.error_bound is not None
            and stats.max_abs_error > self.spec.error_bound
        ):
            raise ValueError(
                f"codec {self.codec.name!r} exceeded the configured error bound: "
                f"max |err| {stats.max_abs_error:.3e} > {self.spec.error_bound:.3e}"
            )
        self.errors.merge(stats)
        self.last_batch_errors = stats
        self._count(MAX_ERROR_COUNTER, stats.max_abs_error, "abs")
        self._count(SQ_ERROR_COUNTER, stats.sq_error, "abs^2")
        self._count(ERROR_ELEMS_COUNTER, stats.n_elements, "elems")
        return outputs
