"""Runtime-component breakdowns (paper Figs. 6 and 9).

For each GPU count, the baseline runtime is split into the paper's three
components — **Computation**, **Communication**, **Sync + Unpack** — and
set next to the PGAS fused total (which the paper plots as a single bar,
the whole point being that its phases cannot be separated).

The phase times come straight from :class:`~repro.core.baseline.PhaseTiming`
accumulated by the scaling drivers, which measure them the way the paper
does (§IV-A2a): communication is the pure transfer window, sync+unpack is
the control path plus the rearrangement pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .scaling import ScalingResult

__all__ = ["BreakdownBar", "BreakdownResult", "breakdown_from_scaling"]


@dataclass(frozen=True)
class BreakdownBar:
    """One GPU count's bar group in Fig. 6/9."""

    n_devices: int
    baseline_compute_ns: float
    baseline_comm_ns: float
    baseline_sync_unpack_ns: float
    pgas_total_ns: float

    @property
    def baseline_total_ns(self) -> float:
        """Sum of the baseline's three components."""
        return (
            self.baseline_compute_ns
            + self.baseline_comm_ns
            + self.baseline_sync_unpack_ns
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for CSV/reporting."""
        return {
            "n_devices": float(self.n_devices),
            "baseline_compute_ns": self.baseline_compute_ns,
            "baseline_comm_ns": self.baseline_comm_ns,
            "baseline_sync_unpack_ns": self.baseline_sync_unpack_ns,
            "baseline_total_ns": self.baseline_total_ns,
            "pgas_total_ns": self.pgas_total_ns,
        }


@dataclass
class BreakdownResult:
    """Fig. 6 (weak) or Fig. 9 (strong) data."""

    kind: str
    bars: List[BreakdownBar] = field(default_factory=list)


def breakdown_from_scaling(result: ScalingResult) -> BreakdownResult:
    """Derive the Fig. 6/9 bars from a finished scaling sweep."""
    out = BreakdownResult(kind=result.kind)
    for p in result.points:
        out.bars.append(
            BreakdownBar(
                n_devices=p.n_devices,
                baseline_compute_ns=p.baseline.compute_ns,
                baseline_comm_ns=p.baseline.comm_ns,
                baseline_sync_unpack_ns=p.baseline.sync_unpack_ns,
                pgas_total_ns=p.pgas.total_ns,
            )
        )
    return out
