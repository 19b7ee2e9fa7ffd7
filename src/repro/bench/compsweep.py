"""Compression sweep: codec × backend × batch size wire/time/error grid.

For each grid point the sweep builds a fresh ``<base>+compress``
:class:`~repro.core.retrieval.DistributedEmbedding` (its own cluster, so
profiler counters never mix), replays the *identical* synthetic batch
stream through the timed path, and records:

* **bytes** — exact remote payload before/after the codec (from
  :meth:`~repro.compress.CompressedRetrieval.wire_bytes_for`) and the
  resulting compression ratio;
* **time** — the phase breakdown plus the modelled encode/decode kernel
  time (``compress.encode_ns`` / ``compress.decode_ns`` counters);
* **error** — a measured codec round-trip on synthetic pooled vectors
  (:func:`~repro.compress.roundtrip_error_report`): ``max_abs_error``,
  ``rmse``, the per-row bound, and whether the measurement respects it.

``write_json`` emits ``BENCH_compression.json``;
:func:`validate_compsweep_json` is the self-check —
it enforces the physical invariants (wire ≤ uncompressed, fp32 exact and
byte-identical, every point within its error bound, ``int8`` beating
``fp32`` on wire bytes and on baseline comm time wherever both ran).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

import numpy as np

from ..compress import CODEC_NAMES, CompressionSpec, make_codec, roundtrip_error_report
from ..core.baseline import PhaseTiming
from ..core.factory import FeatureSpec
from ..core.retrieval import DistributedEmbedding
from ..dlrm.data import SyntheticDataGenerator
from ..simgpu.units import to_ms, us
from .sweeps import SweepResult
from .telemetry import preset_workload
from .validate import check_artifact, check_point

__all__ = ["CompSweepPoint", "run_comp_sweep", "validate_compsweep_json"]


@dataclass(frozen=True)
class CompSweepPoint:
    """One (codec, backend, batch size) measurement."""

    codec: str
    backend: str  #: base backend the "+compress" wrapper fronted
    batch_size: int
    n_batches: int
    total_ns: float
    compute_ns: float
    comm_ns: float
    sync_unpack_ns: float
    encode_ns: float
    decode_ns: float
    wire_bytes: float
    uncompressed_bytes: float
    max_abs_error: float
    rmse: float
    error_bound: float
    within_bound: bool

    @property
    def compression_ratio(self) -> float:
        """Uncompressed / on-wire remote payload bytes."""
        if self.wire_bytes <= 0:
            return 1.0
        return self.uncompressed_bytes / self.wire_bytes

    def as_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["compression_ratio"] = self.compression_ratio
        return payload


_COLUMNS = (
    ("codec", lambda p: p.codec),
    ("backend", lambda p: p.backend),
    ("batch", lambda p: f"{p.batch_size}"),
    ("total (ms)", lambda p: f"{to_ms(p.total_ns):.3f}"),
    ("compute", lambda p: f"{to_ms(p.compute_ns):.3f}"),
    ("comm", lambda p: f"{to_ms(p.comm_ns):.3f}"),
    ("sync+unpack", lambda p: f"{to_ms(p.sync_unpack_ns):.3f}"),
    ("enc (us)", lambda p: f"{p.encode_ns / us:.1f}"),
    ("dec (us)", lambda p: f"{p.decode_ns / us:.1f}"),
    ("wire (MB)", lambda p: f"{p.wire_bytes / 1e6:.3f}"),
    ("ratio", lambda p: f"{p.compression_ratio:.2f}x"),
    ("max err", lambda p: f"{p.max_abs_error:.2e}" if p.codec != "fp32" else "exact"),
)


_POINT_KEYS = (
    "codec", "backend", "batch_size", "n_batches", "total_ns", "compute_ns",
    "comm_ns", "sync_unpack_ns", "encode_ns", "decode_ns", "wire_bytes",
    "uncompressed_bytes", "compression_ratio", "max_abs_error", "rmse",
    "error_bound", "within_bound",
)


def validate_compsweep_json(data: Any) -> None:
    """Validate a ``BENCH_compression.json`` payload (raises ``ValueError``).

    Beyond shape, this enforces the invariants the artifact exists to
    witness: measured error within each codec's bound, fp32 exact *and*
    paying zero extra wire bytes, lossy codecs never exceeding the fp32
    footprint, and — wherever both codecs ran on the same (backend,
    batch) — ``int8`` on the wire strictly under ``fp32``, with the
    baseline's modelled comm time shrinking accordingly.
    """
    points = check_artifact(
        data,
        kind="compression",
        schema_version=1,
        required_keys=("schema_version", "preset", "n_devices", "n_batches"),
    )
    groups: Dict[tuple, Dict[str, Dict[str, Any]]] = {}
    for i, point in enumerate(points):
        check_point(point, i, _POINT_KEYS)
        if not point["within_bound"]:
            raise ValueError(
                f"point {i} ({point['codec']}, {point['backend']}): "
                f"measured error {point['max_abs_error']} exceeds the codec bound"
            )
        if point["wire_bytes"] > point["uncompressed_bytes"]:
            raise ValueError(
                f"point {i}: wire bytes exceed the uncompressed payload"
            )
        if point["codec"] == "fp32":
            if point["wire_bytes"] != point["uncompressed_bytes"]:
                raise ValueError(f"point {i}: fp32 must be wire-identical")
            if point["max_abs_error"] != 0.0:
                raise ValueError(f"point {i}: fp32 must be exact")
        if point["wire_bytes"] > 0:
            expect = point["uncompressed_bytes"] / point["wire_bytes"]
            if abs(point["compression_ratio"] - expect) > 1e-6 * expect:
                raise ValueError(
                    f"point {i}: compression_ratio disagrees with its byte counts"
                )
        groups.setdefault((point["backend"], point["batch_size"]), {})[
            point["codec"]
        ] = point
    for (backend, batch), by_codec in groups.items():
        fp32 = by_codec.get("fp32")
        int8 = by_codec.get("int8")
        if fp32 is None or int8 is None:
            continue
        if not int8["wire_bytes"] < fp32["wire_bytes"]:
            raise ValueError(
                f"({backend}, B={batch}): int8 wire bytes must undercut fp32"
            )
        if backend == "baseline" and fp32["comm_ns"] > 0:
            if not int8["comm_ns"] < fp32["comm_ns"]:
                raise ValueError(
                    f"({backend}, B={batch}): int8 must shrink the modelled "
                    f"all-to-all time"
                )


def run_comp_sweep(
    preset: str = "tiny",
    *,
    n_devices: int = 2,
    codecs: Sequence[str] = CODEC_NAMES,
    bases: Sequence[str] = ("pgas", "baseline"),
    batch_sizes: Optional[Sequence[int]] = None,
    n_batches: int = 2,
    scale: float = 1.0,
    error_rows: int = 512,
    seed: Optional[int] = None,
) -> SweepResult:
    """Measure every (codec, base backend, batch size) grid point.

    Every point gets a fresh embedding (its own cluster) but an identical
    batch stream — the grid coordinates are the only thing changing
    between rows.  The timed path never materialises weights, so the
    ``strong`` preset's paper-scale tables run fine; quantisation error is
    measured separately on ``error_rows`` synthetic pooled vectors per
    codec (real encode/decode, zero rows for fp32).
    """
    if not codecs or not bases:
        raise ValueError("every sweep axis needs at least one value")
    for base in bases:
        if base not in ("pgas", "baseline"):
            raise ValueError(f"unknown base backend {base!r}")
    base_cfg = preset_workload(preset, n_devices, seed=seed, scale=scale)
    sizes = list(batch_sizes) if batch_sizes else [base_cfg.batch_size]

    # Measured round-trip error per codec on synthetic pooled vectors with
    # per-row magnitudes spread over two decades (absmax-scaled codecs see
    # heterogeneous rows, not one flat scale).
    rng = np.random.default_rng(base_cfg.seed)
    rows = (
        rng.standard_normal((error_rows, base_cfg.dim))
        * rng.uniform(0.01, 1.0, size=(error_rows, 1))
    ).astype(np.float32)
    error_reports = {
        codec: roundtrip_error_report(make_codec(codec), rows) for codec in codecs
    }

    sweep = SweepResult(
        title=(
            f"[compression sweep: {preset} preset, {n_devices} GPUs, "
            f"{n_batches} batches/point]"
        ),
        columns=_COLUMNS,
        keys=("codec", "backend", "batch_size"),
        header={"preset": preset, "n_devices": n_devices, "n_batches": n_batches},
    )
    for bs in sizes:
        cfg = base_cfg.with_batch_size(bs) if bs != base_cfg.batch_size else base_cfg
        for base in bases:
            for codec in codecs:
                emb = DistributedEmbedding(
                    cfg,
                    n_devices,
                    backend=f"{base}+compress",
                    features=FeatureSpec(compression=CompressionSpec(codec=codec)),
                )
                adapter = emb.backend_adapter(f"{base}+compress")
                gen = SyntheticDataGenerator(cfg)
                total = PhaseTiming()
                raw_bytes = 0.0
                wire_bytes = 0.0
                for _ in range(n_batches):
                    workloads = emb.build_workloads(gen.lengths_batch())
                    raw, wire = adapter.wire_bytes_for(workloads)
                    raw_bytes += raw
                    wire_bytes += wire
                    total.add(adapter.run_timed(workloads))
                counters = emb.cluster.profiler.counters
                err = error_reports[codec]
                sweep.points.append(
                    CompSweepPoint(
                        codec=codec,
                        backend=base,
                        batch_size=cfg.batch_size,
                        n_batches=n_batches,
                        total_ns=total.total_ns,
                        compute_ns=total.compute_ns,
                        comm_ns=total.comm_ns,
                        sync_unpack_ns=total.sync_unpack_ns,
                        encode_ns=(
                            float(counters["compress.encode_ns"].total)
                            if "compress.encode_ns" in counters
                            else 0.0
                        ),
                        decode_ns=(
                            float(counters["compress.decode_ns"].total)
                            if "compress.decode_ns" in counters
                            else 0.0
                        ),
                        wire_bytes=wire_bytes,
                        uncompressed_bytes=raw_bytes,
                        max_abs_error=err["max_abs_error"],
                        rmse=err["rmse"],
                        error_bound=err["error_bound"],
                        within_bound=err["within_bound"],
                    )
                )
    return sweep
