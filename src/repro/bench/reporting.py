"""Rendering experiment results: paper-style text tables, CSV, ASCII plots.

The benchmarks print these renderings so a run's stdout can be compared
directly against the paper's tables and figures; EXPERIMENTS.md is written
from the same functions.
"""

from __future__ import annotations

import io
from typing import List, Sequence

import numpy as np

from ..simgpu.units import to_ms
from .breakdown import BreakdownResult
from .commvolume import CommVolumeTrace
from .scaling import ScalingResult

__all__ = [
    "format_table",
    "render_speedup_table",
    "render_scaling_figure",
    "render_breakdown",
    "render_comm_volume",
    "ascii_series",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Monospace table with aligned columns."""
    cols = [list(col) for col in zip(headers, *rows)] if rows else [[h] for h in headers]
    widths = [max(len(str(c)) for c in col) for col in cols]
    lines = []
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rows:
        lines.append(" | ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_speedup_table(result: ScalingResult) -> str:
    """The paper's speedup rows (§IV-A1 / §IV-B1)."""
    table = result.speedup_table()
    headers = ["Speedup"] + [f"{g} GPUs" for g in sorted(table)]
    rows = [["PGAS over baseline"] + [f"{table[g]:.2f}x" for g in sorted(table)]]
    footer = f"geomean: {result.geomean_speedup:.2f}x"
    return f"[{result.kind} scaling]\n{format_table(headers, rows)}\n{footer}"


def render_scaling_figure(result: ScalingResult) -> str:
    """Fig. 5 / Fig. 8 series: scaling factor per backend and GPU count."""
    headers = ["GPUs", "baseline factor", "PGAS factor", "ideal"]
    rows = []
    for g in result.device_counts:
        ideal = 1.0 if result.kind == "weak" else float(g)
        rows.append(
            [
                str(g),
                f"{result.scaling_factor('baseline', g):.3f}",
                f"{result.scaling_factor('pgas', g):.3f}",
                f"{ideal:.1f}",
            ]
        )
    title = "Fig. 5 (weak scaling factor)" if result.kind == "weak" else "Fig. 8 (strong scaling factor)"
    return f"[{title}]\n{format_table(headers, rows)}"


def render_breakdown(result: BreakdownResult) -> str:
    """Fig. 6 / Fig. 9 bars: per-GPU-count phase times in ms."""
    headers = [
        "GPUs",
        "base compute (ms)",
        "base comm (ms)",
        "base sync+unpack (ms)",
        "base total (ms)",
        "PGAS total (ms)",
    ]
    rows = []
    for b in result.bars:
        rows.append(
            [
                str(b.n_devices),
                f"{to_ms(b.baseline_compute_ns):.2f}",
                f"{to_ms(b.baseline_comm_ns):.2f}",
                f"{to_ms(b.baseline_sync_unpack_ns):.2f}",
                f"{to_ms(b.baseline_total_ns):.2f}",
                f"{to_ms(b.pgas_total_ns):.2f}",
            ]
        )
    title = "Fig. 6 (weak breakdown)" if result.kind == "weak" else "Fig. 9 (strong breakdown)"
    return f"[{title}]\n{format_table(headers, rows)}"


def ascii_series(
    xs: np.ndarray, ys: np.ndarray, *, width: int = 60, height: int = 12, label: str = ""
) -> str:
    """A tiny ASCII line plot (monotone series)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size == 0:
        return f"{label}: (empty)"
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        cx = min(int((x - x0) / xr * (width - 1)), width - 1)
        cy = min(int((y - y0) / yr * (height - 1)), height - 1)
        grid[height - 1 - cy][cx] = "*"
    out = io.StringIO()
    if label:
        out.write(f"{label}\n")
    for row in grid:
        out.write("|" + "".join(row) + "\n")
    out.write("+" + "-" * width + "\n")
    return out.getvalue()


def render_comm_volume(traces: Sequence[CommVolumeTrace]) -> str:
    """Fig. 7 / Fig. 10: cumulative comm volume over (normalised) time."""
    parts: List[str] = []
    for tr in traces:
        t, v = tr.normalized()
        parts.append(
            ascii_series(
                t,
                v,
                label=(
                    f"{tr.backend} @ {tr.n_devices} GPUs — total "
                    f"{tr.total_units:.0f} x256B units over {to_ms(tr.total_ns):.2f} ms "
                    f"(flat prefix: {tr.flat_prefix_fraction():.0%})"
                ),
            )
        )
    return "\n".join(parts)
