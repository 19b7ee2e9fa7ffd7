"""Performance regression gate over committed ``BENCH_critpath.json`` artifacts.

CI commits a baseline artifact; every build re-runs the same preset and
compares the fresh numbers against the baseline with per-metric tolerances.
A breach fails the build *and* explains itself via the critical-path delta:
which categories on the path grew, by how much — so "the run got 8% slower"
reads as "all-to-all on the critical path grew 1.2 ms".

The gate is one-sided by design: getting faster never fails.  Metrics are
matched per benchmark point (keyed by backend); a point present in the
baseline but missing from the fresh run is itself a breach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["Tolerance", "MetricCheck", "GateResult", "compare_critpath"]


@dataclass(frozen=True)
class Tolerance:
    """Allowed one-sided growth: ``fresh <= base + max(rel * |base|, abs_ns)``."""

    rel: float = 0.05
    abs_ns: float = 1000.0

    def __post_init__(self) -> None:
        if self.rel < 0:
            raise ValueError(f"Tolerance.rel must be >= 0, got {self.rel}")
        if self.abs_ns < 0:
            raise ValueError(f"Tolerance.abs_ns must be >= 0, got {self.abs_ns}")

    def bound(self, base: float) -> float:
        return base + max(self.rel * abs(base), self.abs_ns)


@dataclass(frozen=True)
class MetricCheck:
    """Outcome of one tracked metric comparison."""

    point: str  # benchmark point key, e.g. "pgas"
    metric: str  # e.g. "wall_ns" or "path.comm_ns"
    base: float
    fresh: float
    bound: float

    @property
    def breached(self) -> bool:
        return self.fresh > self.bound


@dataclass
class GateResult:
    """All checks for one artifact pair, plus breach explanations."""

    checks: List[MetricCheck] = field(default_factory=list)
    missing_points: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.missing_points and not any(c.breached for c in self.checks)

    @property
    def breaches(self) -> List[MetricCheck]:
        return [c for c in self.checks if c.breached]

    def render(self) -> str:
        """Human-readable verdict; breaches explained via path-category deltas."""
        lines: List[str] = []
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"regression gate: {verdict} "
            f"({len(self.checks)} metrics checked, {len(self.breaches)} breached"
            + (f", {len(self.missing_points)} points missing" if self.missing_points else "")
            + ")"
        )
        for point in self.missing_points:
            lines.append(f"  MISSING point {point!r}: in baseline but not in fresh run")
        by_point: Dict[str, List[MetricCheck]] = {}
        for c in self.checks:
            by_point.setdefault(c.point, []).append(c)
        for point, checks in sorted(by_point.items()):
            bad = [c for c in checks if c.breached]
            if not bad:
                continue
            lines.append(f"  point {point!r}:")
            for c in bad:
                lines.append(
                    f"    BREACH {c.metric}: {c.base:.0f} -> {c.fresh:.0f} ns "
                    f"(+{c.fresh - c.base:.0f}, bound {c.bound:.0f})"
                )
            # Explain via the critical-path delta: category growth sorted
            # largest-first tells *where* the extra time landed.
            cat_deltas = sorted(
                (
                    (c.metric, c.fresh - c.base)
                    for c in checks
                    if c.metric.startswith("path.") and c.fresh > c.base
                ),
                key=lambda kv: -kv[1],
            )
            if cat_deltas:
                grew = ", ".join(
                    f"{m[len('path.'):-len('_ns')]} +{d:.0f} ns" for m, d in cat_deltas
                )
                lines.append(f"    critical-path delta: {grew}")
        return "\n".join(lines)


def _tracked_metrics(point: Dict[str, Any]) -> Dict[str, float]:
    """Flatten one artifact point into its tracked scalar metrics."""
    out: Dict[str, float] = {"wall_ns": float(point["wall_ns"])}
    for cat, ns in point.get("by_category", {}).items():
        out[f"path.{cat}_ns"] = float(ns)
    return out


def compare_critpath(
    baseline: Dict[str, Any],
    fresh: Dict[str, Any],
    *,
    tolerance: Tolerance = Tolerance(),
) -> GateResult:
    """Gate a fresh ``BENCH_critpath.json`` dict against the committed baseline.

    Tracked metrics per point: end-to-end ``wall_ns`` plus each
    critical-path category (``path.<cat>_ns``).  A category present in the
    baseline but absent fresh counts as 0 (it left the path — fine); a new
    fresh category is checked against a 0 baseline, so it only fails when it
    exceeds the absolute floor.
    """
    base_points = {p["backend"]: p for p in baseline.get("points", [])}
    fresh_points = {p["backend"]: p for p in fresh.get("points", [])}

    result = GateResult()
    for key in sorted(base_points):
        if key not in fresh_points:
            result.missing_points.append(key)
            continue
        base_m = _tracked_metrics(base_points[key])
        fresh_m = _tracked_metrics(fresh_points[key])
        for metric in sorted(set(base_m) | set(fresh_m)):
            b = base_m.get(metric, 0.0)
            f = fresh_m.get(metric, 0.0)
            result.checks.append(
                MetricCheck(point=key, metric=metric, base=b, fresh=f,
                            bound=tolerance.bound(b))
            )
    return result
