"""Communication volume over time (paper Figs. 7 and 10).

Reproduces the paper's instrument: a counter credited on every one-sided
write (PGAS) or on every delivered collective chunk (baseline), read on a
fixed period over the run.  The paper polls every hundred GPU clock cycles
and plots volume in 256-byte units; we default to a 50 µs sampling period
at the paper scale and the same 256-byte unit.

Expected shapes (asserted by the benches):

* **PGAS** — volume grows roughly linearly across the whole kernel
  (messages leave as waves retire);
* **baseline** — a long flat-at-zero prefix (the compute phase; "a long
  initial period when communication volume stays flat at 0") followed by a
  steep ramp during the collective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..comm.pgas import PGASContext
from ..core.retrieval import BackendName, DistributedEmbedding
from ..dlrm.data import SyntheticDataGenerator, WorkloadConfig
from ..simgpu.interconnect import Interconnect
from ..simgpu.units import us

__all__ = ["CommVolumeTrace", "trace_comm_volume"]

#: the paper's counter unit: one 256-byte message
UNIT_BYTES = 256


@dataclass
class CommVolumeTrace:
    """Sampled cumulative communication volume of one batch."""

    backend: str
    n_devices: int
    total_ns: float
    times_ns: np.ndarray  #: sample instants, starting at batch start = 0
    volume_units: np.ndarray  #: cumulative volume in 256-byte units

    @property
    def total_units(self) -> float:
        """Final cumulative volume."""
        return float(self.volume_units[-1]) if self.volume_units.size else 0.0

    def normalized(self) -> Tuple[np.ndarray, np.ndarray]:
        """(time fraction of run, volume fraction of total) for plotting."""
        if self.total_ns <= 0 or self.total_units <= 0:
            return self.times_ns, self.volume_units
        return self.times_ns / self.total_ns, self.volume_units / self.total_units

    def flat_prefix_fraction(self, eps: float = 0.01) -> float:
        """Fraction of the run before volume exceeds ``eps`` of the total.

        The baseline's "long initial period when communication volume stays
        flat at 0"; near zero for PGAS.
        """
        if self.total_units <= 0:
            return 1.0
        t, v = self.normalized()
        above = np.flatnonzero(v > eps)
        if above.size == 0:
            return 1.0
        return float(t[above[0]])


def trace_comm_volume(
    config: WorkloadConfig,
    n_devices: int,
    backend: BackendName,
    *,
    sample_period_ns: float = 50 * us,
    seed: int = 2024,
) -> CommVolumeTrace:
    """Run one batch and sample its comm counter over the run window."""
    emb = DistributedEmbedding(config, n_devices, backend=backend)
    gen = SyntheticDataGenerator(config)
    lengths = gen.lengths_batch()
    cluster = emb.cluster
    t_start = cluster.engine.now
    timing = emb.forward_timed(lengths)
    t_end = cluster.engine.now

    # PGAS puts and collective chunks stamp different counters; merge both
    # (a single batch only populates the one its backend uses).
    prof = cluster.profiler
    times = np.arange(t_start, t_end, sample_period_ns, dtype=np.float64)
    times = np.append(times, t_end)
    volume = np.zeros_like(times)
    for name in (Interconnect.COUNTER, PGASContext.COUNTER):
        counter = prof.counters.get(name)
        if counter is None:
            continue
        _, vals = counter.sample(t_start, t_end, sample_period_ns)
        volume += vals
    return CommVolumeTrace(
        backend=backend,
        n_devices=n_devices,
        total_ns=timing.total_ns,
        times_ns=times - t_start,
        volume_units=volume / UNIT_BYTES,
    )
