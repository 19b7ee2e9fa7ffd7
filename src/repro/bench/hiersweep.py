"""Hierarchy sweep: flat vs. topology-aware routing across node geometries.

For each (base backend, nodes, devices-per-node, message size) grid point
the sweep runs the *same* batch stream twice on identical fresh
multi-node clusters — once flat, once through the ``"+hier"`` backend —
and records wall time, inter-node NIC message counts and wire bytes, and
the ``hier.*`` staging counters.  Functional outputs are bit-identical by
construction (routing changes timing only), so the artifact compares the
communication schedules and nothing else.

``message_rate_bound`` marks the points where the NIC's per-message
descriptor cost dominates its wire time *even against flat routing's
``dpn²``-way parallel point-to-point streams*:

    ``per_message_ns >= dpn² * message_wire_bytes / nic_bandwidth``

Flat routing spreads one node pair's traffic over ``dpn²`` simulated
links, shrinking aggregate wire time per message by ``dpn²``, while the
descriptor cost does not parallelize away — so when the inequality holds
the message count is what the NIC is selling, and coalescing must win.
(The baseline's derated chunks carry a 512-byte header plus the ~5.3×
efficiency charge as wire, so the predicate is effectively never true for
it on this fabric; the PGAS points at small message sizes are where the
bound bites.)

``write_json`` emits ``BENCH_hier.json``; :func:`validate_hiersweep_json`
is the self-check, enforcing the invariants the artifact exists to
witness: hierarchical routing never increases the inter-node message
count (strictly lowers it whenever more than one GPU per node sends
off-node), degenerate geometries (``devices_per_node == 1`` or a single
node) recover flat routing exactly, and every message-rate-bound point
shows a wall-time win.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, Sequence

from ..comm.collective import NCCL_ALLTOALL_EFFICIENCY, PER_CHUNK_HEADER_BYTES, CollectiveSpec
from ..comm.hier import HierSpec, inter_node_message_count, inter_node_wire_bytes
from ..comm.pgas import PGASSpec
from ..core.factory import build_backend
from ..core.runspec import RunSpec
from ..dlrm.data import SyntheticDataGenerator
from ..simgpu.cluster import multinode
from ..simgpu.interconnect import NIC_SPEC
from ..simgpu.units import to_ms
from .sweeps import SweepResult
from .telemetry import preset_workload
from .validate import check_artifact, check_point

__all__ = ["HierSweepPoint", "run_hiersweep", "validate_hiersweep_json"]

_BASES = ("pgas", "baseline")


def _message_wire_bytes(base: str, message_bytes: int, pgas: PGASSpec) -> float:
    """Wire bytes one flat inter-node message carries, headers included.

    The baseline charges its protocol inefficiency as extra header on the
    wire, so a chunk of ``message_bytes`` costs ``message_bytes /
    NCCL_ALLTOALL_EFFICIENCY + PER_CHUNK_HEADER_BYTES``; a PGAS put message
    costs its payload plus the fixed put header.
    """
    if base == "baseline":
        extra = int(message_bytes * (1.0 / NCCL_ALLTOALL_EFFICIENCY - 1.0))
        return float(message_bytes + extra + PER_CHUNK_HEADER_BYTES)
    return float(message_bytes + pgas.header_bytes)


def _rate_bound(point: Dict[str, Any]) -> bool:
    """The message-rate-bound predicate, from a point's own fields."""
    dpn = point["devices_per_node"]
    if point["n_nodes"] <= 1 or dpn <= 1:
        return False
    wire_time = dpn * dpn * point["message_wire_bytes"] / point["nic_bandwidth"]
    return point["nic_per_message_ns"] >= wire_time


@dataclass(frozen=True)
class HierSweepPoint:
    """One (backend, geometry, message size) flat-vs-hier measurement."""

    backend: str  #: base backend ("pgas" or "baseline")
    n_nodes: int
    devices_per_node: int
    message_bytes: int  #: PGAS put message size / collective chunk size
    n_batches: int
    flat_total_ns: float
    hier_total_ns: float
    flat_inter_messages: int  #: NIC messages, flat routing
    hier_inter_messages: int  #: NIC messages, hierarchical routing
    flat_inter_bytes: float
    hier_inter_bytes: float
    hier_nic_transfers: float  #: coalesced leader->leader transfers
    hier_fwd_bytes: float  #: intra-node gather/forward traffic
    hier_scatter_bytes: float  #: far-side leader->destination traffic
    nic_bandwidth: float  #: bytes/ns of the inter-node links
    nic_per_message_ns: float  #: per-message descriptor cost
    message_wire_bytes: float  #: wire bytes of one flat NIC message
    message_rate_bound: bool

    @property
    def speedup(self) -> float:
        """Flat wall time over hierarchical wall time (> 1 = hier wins)."""
        return self.flat_total_ns / self.hier_total_ns

    @property
    def message_reduction(self) -> float:
        """Fractional drop in inter-node NIC messages (0 = none)."""
        if self.flat_inter_messages <= 0:
            return 0.0
        return 1.0 - self.hier_inter_messages / self.flat_inter_messages

    def as_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["speedup"] = self.speedup
        payload["message_reduction"] = self.message_reduction
        return payload


_COLUMNS = (
    ("backend", lambda p: p.backend),
    ("nodes", lambda p: f"{p.n_nodes}x{p.devices_per_node}"),
    ("msg (B)", lambda p: f"{p.message_bytes}"),
    ("flat (ms)", lambda p: f"{to_ms(p.flat_total_ns):.3f}"),
    ("hier (ms)", lambda p: f"{to_ms(p.hier_total_ns):.3f}"),
    ("speedup", lambda p: f"{p.speedup:.3f}x"),
    ("flat msgs", lambda p: f"{p.flat_inter_messages}"),
    ("hier msgs", lambda p: f"{p.hier_inter_messages}"),
    ("reduction", lambda p: f"{100.0 * p.message_reduction:.1f}%"),
    ("rate-bound", lambda p: "yes" if p.message_rate_bound else "-"),
)


_POINT_KEYS = (
    "backend", "n_nodes", "devices_per_node", "message_bytes", "n_batches",
    "flat_total_ns", "hier_total_ns", "flat_inter_messages",
    "hier_inter_messages", "flat_inter_bytes", "hier_inter_bytes",
    "hier_nic_transfers", "hier_fwd_bytes", "hier_scatter_bytes",
    "nic_bandwidth", "nic_per_message_ns", "message_wire_bytes",
    "message_rate_bound", "speedup", "message_reduction",
)


def validate_hiersweep_json(data: Any) -> None:
    """Validate a ``BENCH_hier.json`` payload (raises ``ValueError``).

    Beyond shape, this enforces the routing invariants the artifact
    exists to pin:

    * hierarchical routing never *increases* the inter-node message
      count or wire volume, and strictly lowers the message count
      whenever more than one GPU per node sends off-node;
    * degenerate geometries (``devices_per_node == 1`` or a single node)
      recover flat routing exactly — identical wall time and identical
      NIC traffic;
    * the stored ``message_rate_bound`` flag matches the predicate
      recomputed from the point's own NIC parameters, and every
      rate-bound point shows a hierarchical wall-time win.
    """
    points = check_artifact(
        data,
        kind="hier",
        schema_version=1,
        required_keys=("schema_version", "preset", "n_batches"),
    )
    for i, point in enumerate(points):
        check_point(point, i, _POINT_KEYS)
        label = (
            f"point {i} ({point['backend']}, "
            f"{point['n_nodes']}x{point['devices_per_node']}, "
            f"msg={point['message_bytes']})"
        )
        if point["backend"] not in _BASES:
            raise ValueError(f"{label}: unknown base backend")
        for key in ("flat_total_ns", "hier_total_ns"):
            if not math.isfinite(point[key]) or point[key] <= 0:
                raise ValueError(f"{label}: degenerate timing in {key!r}")
        for key in ("flat_inter_messages", "hier_inter_messages",
                    "flat_inter_bytes", "hier_inter_bytes"):
            if point[key] < 0:
                raise ValueError(f"{label}: negative traffic in {key!r}")
        multi_node = point["n_nodes"] > 1
        multi_gpu = point["devices_per_node"] > 1
        if point["hier_inter_messages"] > point["flat_inter_messages"]:
            raise ValueError(
                f"{label}: hierarchy increased inter-node messages "
                f"({point['flat_inter_messages']} -> "
                f"{point['hier_inter_messages']})"
            )
        if point["hier_inter_bytes"] > point["flat_inter_bytes"]:
            raise ValueError(
                f"{label}: hierarchy increased inter-node wire bytes"
            )
        if multi_node and multi_gpu:
            if point["hier_inter_messages"] >= point["flat_inter_messages"]:
                raise ValueError(
                    f"{label}: expected a strict inter-node message "
                    f"reduction with {point['devices_per_node']} GPUs/node"
                )
            if point["hier_nic_transfers"] <= 0:
                raise ValueError(f"{label}: no coalesced NIC transfers ran")
        else:
            # Degenerate geometry: the hierarchy must be a perfect no-op.
            if point["hier_total_ns"] != point["flat_total_ns"]:
                raise ValueError(
                    f"{label}: degenerate geometry changed wall time "
                    f"({point['flat_total_ns']} != {point['hier_total_ns']})"
                )
            if point["hier_inter_messages"] != point["flat_inter_messages"]:
                raise ValueError(
                    f"{label}: degenerate geometry changed NIC traffic"
                )
            if point["hier_nic_transfers"] or point["hier_fwd_bytes"]:
                raise ValueError(
                    f"{label}: degenerate geometry staged traffic"
                )
        if not multi_node:
            if point["flat_inter_messages"] or point["flat_inter_bytes"]:
                raise ValueError(f"{label}: single node carried NIC traffic")
        expected_bound = _rate_bound(point)
        if bool(point["message_rate_bound"]) != expected_bound:
            raise ValueError(
                f"{label}: message_rate_bound flag does not match the "
                f"predicate recomputed from the point's NIC parameters"
            )
        if expected_bound and point["hier_total_ns"] >= point["flat_total_ns"]:
            raise ValueError(
                f"{label}: message-rate-bound point shows no wall-time win "
                f"({point['flat_total_ns']} -> {point['hier_total_ns']})"
            )


def run_hiersweep(
    preset: str = "tiny",
    *,
    bases: Sequence[str] = _BASES,
    nodes: Sequence[int] = (1, 2, 3),
    devices_per_node: Sequence[int] = (1, 2, 4),
    message_sizes: Sequence[int] = (32, 256, 4096),
    n_batches: int = 2,
    scale: float = 1.0,
    seed: int | None = None,
) -> SweepResult:
    """Measure every (backend, geometry, message size) grid point.

    Each point builds two embeddings on identical fresh
    :func:`~repro.simgpu.cluster.multinode` clusters and replays the same
    re-seeded batch stream through each, so the flat and hierarchical
    columns compare the communication schedule and nothing else.
    ``message_sizes`` maps to ``PGASSpec(message_bytes=...)`` for the
    PGAS base and ``CollectiveSpec(chunk_bytes=...)`` for the baseline.
    """
    for base in bases:
        if base not in _BASES:
            raise ValueError(f"unknown base backend {base!r}")
    if not nodes or not devices_per_node or not message_sizes:
        raise ValueError("every sweep axis needs at least one value")
    if n_batches < 1:
        raise ValueError("need at least one batch per point")

    sweep = SweepResult(
        title=f"[hier sweep: {preset} preset, {n_batches} batches/point]",
        columns=_COLUMNS,
        keys=("backend", "n_nodes", "devices_per_node", "message_bytes"),
        header={"preset": preset, "n_batches": n_batches, "scale": scale},
    )
    for base in bases:
        for n_nodes in nodes:
            for dpn in devices_per_node:
                n_devices = n_nodes * dpn
                if n_devices < 2:
                    continue  # a 1x1 system has no communication at all
                cfg = preset_workload(preset, n_devices, seed=seed, scale=scale)
                for msg in message_sizes:
                    collective = CollectiveSpec(chunk_bytes=msg)
                    pgas = PGASSpec(message_bytes=msg)
                    totals = {}
                    traffic = {}
                    hier_counters: Dict[str, float] = {}
                    for mode in ("flat", "hier"):
                        backend = base if mode == "flat" else f"{base}+hier"
                        runspec = RunSpec(
                            cfg,
                            n_devices=n_devices,
                            backend=backend,
                            hier=(HierSpec(devices_per_node=dpn)
                                  if mode == "hier" else None),
                        )
                        emb = build_backend(
                            runspec,
                            cluster=multinode(n_nodes, dpn),
                            collective_spec=collective,
                            pgas_spec=pgas,
                        )
                        gen = SyntheticDataGenerator(cfg)
                        total = 0.0
                        for _ in range(n_batches):
                            total += emb.forward_timed(
                                gen.lengths_batch()
                            ).total_ns
                        totals[mode] = total
                        traffic[mode] = (
                            inter_node_message_count(
                                emb.cluster.interconnect, dpn
                            ),
                            inter_node_wire_bytes(
                                emb.cluster.interconnect, dpn
                            ),
                        )
                        if mode == "hier":
                            counters = emb.cluster.profiler.counters
                            hier_counters = {
                                name: float(c.total)
                                for name, c in counters.items()
                                if name.startswith("hier.")
                            }
                    wire = _message_wire_bytes(base, msg, pgas)
                    point_fields = {
                        "backend": base,
                        "n_nodes": n_nodes,
                        "devices_per_node": dpn,
                        "message_bytes": msg,
                        "n_batches": n_batches,
                        "flat_total_ns": totals["flat"],
                        "hier_total_ns": totals["hier"],
                        "flat_inter_messages": traffic["flat"][0],
                        "hier_inter_messages": traffic["hier"][0],
                        "flat_inter_bytes": traffic["flat"][1],
                        "hier_inter_bytes": traffic["hier"][1],
                        "hier_nic_transfers": hier_counters.get(
                            "hier.nic_transfers", 0.0
                        ),
                        "hier_fwd_bytes": hier_counters.get(
                            "hier.fwd_bytes", 0.0
                        ),
                        "hier_scatter_bytes": hier_counters.get(
                            "hier.scatter_bytes", 0.0
                        ),
                        "nic_bandwidth": NIC_SPEC.bandwidth,
                        "nic_per_message_ns": NIC_SPEC.per_message_ns,
                        "message_wire_bytes": wire,
                    }
                    point_fields["message_rate_bound"] = _rate_bound(
                        point_fields
                    )
                    sweep.points.append(HierSweepPoint(**point_fields))
    return sweep
