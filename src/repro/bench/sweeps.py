"""One result type for every sweep, and the knob sweeps over both backends.

:class:`SweepResult` is what every sweep driver in :mod:`repro.bench`
returns: a title, the run-level artifact fields, the measured points, and
the column list its text table renders from.  It looks points up by
their coordinates, renders, and writes the ``BENCH_*.json`` artifact, so
each driver keeps only its point dataclass, its measurement loop and its
validator.

A :class:`Sweep` varies one knob of the workload (or system) and measures
both backends at each point — the machinery behind the ablation benches
and the CLI's ``sweep <knob>`` command.  Points are measured on fresh
clusters so sweeps are order-independent and deterministic given the seed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..core.baseline import PhaseTiming
from ..core.retrieval import DistributedEmbedding
from ..dlrm.data import SyntheticDataGenerator, WorkloadConfig
from .reporting import format_table

__all__ = [
    "Column",
    "SweepPoint",
    "SweepResult",
    "Sweep",
    "batch_size_sweep",
    "pooling_sweep",
    "table_count_sweep",
]

#: one rendered table column: its heading and the point -> cell formatter
Column = Tuple[str, Callable[[Any], str]]


@dataclass
class SweepResult:
    """A finished sweep: its points, its table and its artifact form.

    ``keys`` names the point attributes that locate a point in the grid;
    :meth:`point` matches a prefix of them.  ``header`` holds the
    run-level artifact fields and ``collection`` names the artifact key
    the points are written under.  A ``keyed`` result writes its points
    as a ``{keys[0]: payload}`` mapping and renders one column per point
    (``columns`` then become the table's rows).
    """

    title: str
    columns: Sequence[Column]
    keys: Tuple[str, ...]
    points: List[Any] = field(default_factory=list)
    header: Dict[str, Any] = field(default_factory=dict)
    collection: str = "points"
    keyed: bool = False

    def point(self, *coords: Any) -> Any:
        """The first point whose leading ``keys`` equal ``coords``."""
        for p in self.points:
            if tuple(getattr(p, k) for k in self.keys[: len(coords)]) == coords:
                return p
        raise KeyError(f"no point {coords}")

    def render(self) -> str:
        """Text table of the sweep under its title."""
        table = [[heading for heading, _ in self.columns]]
        table += [[cell(p) for _, cell in self.columns] for p in self.points]
        if self.keyed:
            table = [list(row) for row in zip(*table)]
        return f"{self.title}\n{format_table(table[0], table[1:])}"

    def as_dict(self) -> Dict[str, Any]:
        """The ``BENCH_*.json`` payload."""
        if self.keyed:
            items: Any = {getattr(p, self.keys[0]): p.as_dict() for p in self.points}
        else:
            items = [p.as_dict() for p in self.points]
        return {"schema_version": 1, **self.header, self.collection: items}

    def write_json(self, path: str) -> None:
        """Write the canonical artifact (sorted keys, one-space indent)."""
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, sort_keys=True, indent=1)


@dataclass(frozen=True)
class SweepPoint:
    """Both backends at one knob value."""

    value: float
    baseline: PhaseTiming
    pgas: PhaseTiming

    @property
    def speedup(self) -> float:
        """PGAS over baseline at this point."""
        return self.baseline.total_ns / self.pgas.total_ns


def _knob_columns(knob: str) -> Tuple[Column, ...]:
    return (
        (knob, lambda p: f"{p.value:g}"),
        ("baseline (ms)", lambda p: f"{p.baseline.total_ns / 1e6:.3f}"),
        ("PGAS (ms)", lambda p: f"{p.pgas.total_ns / 1e6:.3f}"),
        ("speedup", lambda p: f"{p.speedup:.2f}x"),
    )


class Sweep:
    """Sweep one workload knob across both backends."""

    def __init__(
        self,
        knob: str,
        mutate: Callable[[WorkloadConfig, float], WorkloadConfig],
        base_config: WorkloadConfig,
        n_devices: int = 2,
        n_batches: int = 1,
    ):
        if n_devices <= 0 or n_batches <= 0:
            raise ValueError("n_devices and n_batches must be positive")
        self.knob = knob
        self.mutate = mutate
        self.base_config = base_config
        self.n_devices = n_devices
        self.n_batches = n_batches

    def run(self, values: Sequence[float]) -> SweepResult:
        """Measure every knob value; returns the collected result."""
        if not values:
            raise ValueError("sweep needs at least one value")
        result = SweepResult(
            title=f"[sweep: {self.knob} @ {self.n_devices} GPUs]",
            columns=_knob_columns(self.knob),
            keys=("value",),
        )
        for v in values:
            cfg = self.mutate(self.base_config, v)
            gen = SyntheticDataGenerator(cfg)
            batches = [gen.lengths_batch() for _ in range(self.n_batches)]
            base_t, pgas_t = PhaseTiming(), PhaseTiming()
            base = DistributedEmbedding(cfg, self.n_devices, backend="baseline")
            pgas = DistributedEmbedding(cfg, self.n_devices, backend="pgas")
            for lengths in batches:
                base_t.add(base.forward_timed(lengths))
                pgas_t.add(pgas.forward_timed(lengths))
            result.points.append(SweepPoint(value=float(v), baseline=base_t, pgas=pgas_t))
        return result


def batch_size_sweep(
    base_config: WorkloadConfig, n_devices: int = 2, n_batches: int = 1
) -> Sweep:
    """Sweep the batch size (latency- vs bandwidth-limited regimes)."""
    return Sweep(
        "batch_size",
        lambda cfg, v: cfg.with_batch_size(int(v)),
        base_config,
        n_devices,
        n_batches,
    )


def pooling_sweep(
    base_config: WorkloadConfig, n_devices: int = 2, n_batches: int = 1
) -> Sweep:
    """Sweep the pooling cap (compute/communication balance)."""
    return Sweep(
        "max_pooling",
        lambda cfg, v: dataclasses.replace(cfg, max_pooling=int(v)),
        base_config,
        n_devices,
        n_batches,
    )


def table_count_sweep(
    base_config: WorkloadConfig, n_devices: int = 2, n_batches: int = 1
) -> Sweep:
    """Sweep the table count (model-parallel width)."""
    return Sweep(
        "num_tables",
        lambda cfg, v: cfg.scaled_tables(int(v)),
        base_config,
        n_devices,
        n_batches,
    )
