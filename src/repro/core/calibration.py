"""Calibrated model constants, in one place.

Every number here is derived from the paper's own measurements (or from the
public spec of its DGX-1/V100 testbed), *not* tuned per figure — see
DESIGN.md §5.  The benchmarks regenerate the paper's tables and figures
from exactly these values; EXPERIMENTS.md records paper-vs-measured.

Derivations
-----------
``EMB_SAMPLES_PER_BLOCK`` — FBGEMM-style batched embedding kernels assign a
thread block a (table, contiguous-sample-chunk) tile; 64 samples/block with
the paper's batch of 16384 gives 256 chunks/table and, with 64 tables/GPU,
a ~26-wave launch on an 80-SM V100 — comfortably in the bandwidth-bound
regime the paper measures for weak scaling.  It is defined in
:mod:`repro.dlrm.data`, which keeps a drawn batch's lookup counts at this
chunk, and re-exported here.

``EMB_MIN_WAVES_FOR_PEAK`` — the strong-scaling kernel (24 tables/GPU on
4 GPUs ⇒ ~10 waves) is measured by the paper as latency-limited: compute
time stops improving beyond 2 GPUs, with ncu showing 38%/57%
compute/memory throughput *at 2 GPUs* already.  24 waves reproduces that
flattening while leaving the ≥26-wave weak-scaling launches underated.

``NCCL_ALLTOALL_EFFICIENCY`` — from the baseline breakdown (Fig. 6): the
communication phase for ~134 MB/GPU is comparable to the ~30 ms compute
phase, i.e. PyTorch's ``all_to_all_single`` achieved ≈9 GB/s of the 48 GB/s
NVLink pair — 0.1875 of raw (protocol handshakes, stream serialisation
and p2p chunk scheduling).  (One-sided writes bypass this machinery;
that asymmetry is the paper's thesis, not our assumption.)  It is
defined in :mod:`repro.comm.collective`, whose chunks charge it as extra
header bytes, and re-exported here.

``UNPACK_BANDWIDTH`` — from the growth of the "Sync + Unpack" component
with received volume (Figs. 6/9): ~0.11 ms per received MB ⇒ ≈18 GB/s
effective for the read+write rearrangement pass (many small strided copies
driven from Python, far below HBM peak).

``REMOTE_WRITE_KERNEL_DRAG`` — the slight PGAS runtime growth with GPU
count (Figs. 5/8): remote stores keep the kernel's store queues busier than
local ones; charging half the remote wire time to the issuing kernel
reproduces the few-percent slope.
"""

from __future__ import annotations

from ..comm.collective import NCCL_ALLTOALL_EFFICIENCY
from ..dlrm.data import EMB_SAMPLES_PER_BLOCK
from ..simgpu.units import gbps

__all__ = [
    "EMB_SAMPLES_PER_BLOCK",
    "EMB_MIN_WAVES_FOR_PEAK",
    "NCCL_ALLTOALL_EFFICIENCY",
    "UNPACK_BANDWIDTH",
    "REMOTE_WRITE_KERNEL_DRAG",
    "INDEX_BYTES",
    "OFFSET_BYTES",
]

#: waves needed for the gather kernel to reach roofline throughput
EMB_MIN_WAVES_FOR_PEAK = 24.0

#: effective bandwidth of the baseline's unpack/rearrangement pass
UNPACK_BANDWIDTH = gbps(18)

#: fraction of remote wire time charged to the issuing PGAS kernel
REMOTE_WRITE_KERNEL_DRAG = 0.5

#: bytes per sparse index (int64) read by the kernel
INDEX_BYTES = 8

#: bytes per offsets entry (int64)
OFFSET_BYTES = 8
