"""Capacity study — the paper's §I/§II motivation, quantified.

"According to Facebook's records, the memory capacity requirements of
DLRMs grew 16-fold between 2017 and 2021" (§II-A) — i.e. roughly 2× per
year — which is "the major driving force to use multiple GPUs for DLRM"
(§I).  This study projects an embedding-table budget forward under a
growth factor, asks the placement planner for the minimal feasible GPU
count at each step, and runs both retrieval backends at that scale:
as the model forces more GPUs, the layout-conversion communication grows
and the PGAS scheme's advantage compounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..core.planner import plan_table_wise
from ..core.retrieval import DistributedEmbedding
from ..dlrm.data import SyntheticDataGenerator, WorkloadConfig
from ..simgpu.device import DeviceSpec, V100_SPEC
from ..simgpu.units import GiB
from .reporting import format_table

__all__ = ["CapacityPoint", "CapacityStudy", "run_capacity_study"]


@dataclass(frozen=True)
class CapacityPoint:
    """One model generation's footprint and measured retrieval times."""

    step: int
    num_tables: int
    total_gib: float
    min_gpus: int
    baseline_ns: float
    pgas_ns: float

    @property
    def speedup(self) -> float:
        """PGAS over baseline at this generation."""
        return self.baseline_ns / self.pgas_ns if self.pgas_ns else 0.0


@dataclass
class CapacityStudy:
    """A finished growth projection."""

    growth_per_step: float
    device_spec: DeviceSpec
    points: List[CapacityPoint] = field(default_factory=list)

    def render(self) -> str:
        """Text table of the projection."""
        rows = [
            [
                str(p.step),
                str(p.num_tables),
                f"{p.total_gib:.1f}",
                str(p.min_gpus),
                f"{p.baseline_ns / 1e6:.2f}",
                f"{p.pgas_ns / 1e6:.2f}",
                f"{p.speedup:.2f}x" if p.min_gpus > 1 else "-",
            ]
            for p in self.points
        ]
        return (
            f"[capacity study: x{self.growth_per_step:g} per step on "
            f"{self.device_spec.name}]\n"
            + format_table(
                ["step", "tables", "GiB", "min GPUs",
                 "baseline (ms)", "PGAS (ms)", "speedup"],
                rows,
            )
        )


def run_capacity_study(
    base_tables: int = 32,
    steps: int = 4,
    growth_per_step: float = 2.0,
    *,
    rows_per_table: int = 1_000_000,
    dim: int = 64,
    batch_size: int = 16_384,
    max_pooling: int = 64,
    device_spec: DeviceSpec = V100_SPEC,
    max_devices: int = 64,
    seed: int = 2024,
) -> CapacityStudy:
    """Project table growth and measure both backends at each generation.

    Growth is applied to the table count (feature growth — the paper's
    §II-A observes both feature count and table sizes rising; table count
    is what changes the communication structure).
    """
    if steps <= 0:
        raise ValueError("steps must be positive")
    if growth_per_step <= 1.0:
        raise ValueError("growth_per_step must exceed 1.0")
    study = CapacityStudy(growth_per_step=growth_per_step, device_spec=device_spec)
    for step in range(steps):
        n_tables = max(int(round(base_tables * growth_per_step**step)), 1)
        cfg = WorkloadConfig(
            num_tables=n_tables, rows_per_table=rows_per_table, dim=dim,
            batch_size=batch_size, max_pooling=max_pooling, seed=seed,
        )
        report = plan_table_wise(
            cfg.table_configs(), device_spec=device_spec, max_devices=max_devices
        )
        G = report.n_devices
        lengths = SyntheticDataGenerator(cfg).lengths_batch()
        t_base = DistributedEmbedding(cfg, G, backend="baseline").forward_timed(lengths)
        t_pgas = DistributedEmbedding(cfg, G, backend="pgas").forward_timed(lengths)
        study.points.append(
            CapacityPoint(
                step=step,
                num_tables=n_tables,
                total_gib=cfg.total_table_bytes / GiB,
                min_gpus=G,
                baseline_ns=t_base.total_ns,
                pgas_ns=t_pgas.total_ns,
            )
        )
    return study
