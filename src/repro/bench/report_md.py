"""Markdown report generation — the EXPERIMENTS.md machinery.

``build_report(runner)`` renders a complete paper-vs-measured markdown
document from a finished :class:`~repro.bench.runner.ExperimentRunner`:
the two speedup tables, both scaling-factor figures, both breakdowns, and
the comm-volume summaries, each next to the paper's published values.
``python -m repro reproduce`` prints text; this module is for committing
a refreshed report after calibration changes.
"""

from __future__ import annotations

from typing import List, Sequence

from ..simgpu.units import to_ms
from .breakdown import BreakdownResult
from .commvolume import CommVolumeTrace
from .runner import ExperimentRunner
from .scaling import ScalingResult

__all__ = ["md_table", "scaling_section", "breakdown_section", "commvolume_section", "build_report"]

#: the paper's published speedups, for the side-by-side columns
PAPER_SPEEDUPS = {
    "weak": {2: 2.10, 3: 1.95, 4: 1.87},
    "strong": {2: 2.95, 3: 2.55, 4: 2.44},
}
PAPER_GEOMEANS = {"weak": 1.97, "strong": 2.63}


def md_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """A GitHub-flavoured markdown table."""
    out = ["| " + " | ".join(headers) + " |"]
    out.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def scaling_section(result: ScalingResult) -> str:
    """Speedup table + scaling factors for one sweep, vs the paper."""
    paper = PAPER_SPEEDUPS.get(result.kind, {})
    rows = []
    for g, speedup in sorted(result.speedup_table().items()):
        pval = f"{paper[g]:.2f}×" if g in paper else "—"
        rows.append([f"{g}", pval, f"{speedup:.2f}×"])
    geo_p = PAPER_GEOMEANS.get(result.kind)
    rows.append([
        "geomean",
        f"**{geo_p:.2f}×**" if geo_p else "—",
        f"**{result.geomean_speedup:.2f}×**",
    ])
    speedups = md_table(["GPUs", "paper", "measured"], rows)

    frows = []
    for g in result.device_counts:
        frows.append([
            f"{g}",
            f"{result.scaling_factor('baseline', g):.3f}",
            f"{result.scaling_factor('pgas', g):.3f}",
        ])
    factors = md_table(["GPUs", "baseline factor", "PGAS factor"], frows)
    title = "Weak" if result.kind == "weak" else "Strong"
    return (
        f"### {title}-scaling speedup (PGAS over baseline)\n\n{speedups}\n\n"
        f"### {title} scaling factors (t₁/t_G)\n\n{factors}"
    )


def breakdown_section(bd: BreakdownResult) -> str:
    """Per-GPU-count phase table in milliseconds."""
    rows = []
    for b in bd.bars:
        rows.append([
            f"{b.n_devices}",
            f"{to_ms(b.baseline_compute_ns):.1f}",
            f"{to_ms(b.baseline_comm_ns):.1f}",
            f"{to_ms(b.baseline_sync_unpack_ns):.1f}",
            f"{to_ms(b.baseline_total_ns):.1f}",
            f"{to_ms(b.pgas_total_ns):.1f}",
        ])
    fig = "Fig. 6" if bd.kind == "weak" else "Fig. 9"
    return f"### {fig} — runtime breakdown (ms)\n\n" + md_table(
        ["GPUs", "base compute", "base comm", "base sync+unpack",
         "base total", "PGAS total"],
        rows,
    )


def commvolume_section(traces: Sequence[CommVolumeTrace], fig: str) -> str:
    """Flat-prefix / duration summary of one comm-volume figure."""
    rows = []
    for tr in traces:
        rows.append([
            tr.backend,
            f"{tr.n_devices}",
            f"{tr.flat_prefix_fraction():.0%}",
            f"{to_ms(tr.total_ns):.2f}",
            f"{tr.total_units:,.0f}",
        ])
    return f"### {fig} — communication volume over time\n\n" + md_table(
        ["backend", "GPUs", "flat-at-zero prefix", "run (ms)", "volume (×256 B)"],
        rows,
    )


def build_report(runner: ExperimentRunner) -> str:
    """The full paper-vs-measured markdown document."""
    parts: List[str] = [
        "# Reproduction report — paper vs. measured",
        "",
        f"Protocol: {runner.n_batches} batches, batch-size scale "
        f"{runner.scale:g}, GPU counts {tuple(runner.device_counts)}.",
        "",
        "## Weak scaling (§IV-A)",
        "",
        scaling_section(runner.weak()),
        "",
        breakdown_section(runner.fig6()),
        "",
        commvolume_section(runner.fig7(), "Fig. 7 (2 GPUs, weak)"),
        "",
        "## Strong scaling (§IV-B)",
        "",
        scaling_section(runner.strong()),
        "",
        breakdown_section(runner.fig9()),
        "",
        commvolume_section(runner.fig10(), "Fig. 10 (4 GPUs, strong)"),
        "",
    ]
    return "\n".join(parts)
