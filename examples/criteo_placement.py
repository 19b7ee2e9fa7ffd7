#!/usr/bin/env python
"""Heterogeneous tables: placement planning + retrieval on a Criteo-like set.

The paper's experiments use 64 identical tables; production table sets
span six orders of magnitude in cardinality (§II-A).  This example

1. generates a Criteo-shaped workload (26 features, log-uniform sizes,
   a quarter of them multi-valued),
2. plans a capacity-feasible, balanced table-wise placement on V100s
   (LPT packing with a 10% HBM reserve),
3. compares naive contiguous sharding vs the planned placement, and
4. runs both communication backends on the planned placement.

Run:  python examples/criteo_placement.py
"""

from __future__ import annotations

from repro.core import (
    DistributedEmbedding,
    TableWiseSharding,
    plan_table_wise,
)
from repro.core.planner import PlacementError, PlacementReport
from repro.dlrm import HeterogeneousDataGenerator, criteo_like
from repro.simgpu import dgx_v100
from repro.simgpu.units import GiB, to_ms


def main() -> None:
    workload = criteo_like(num_tables=96, dim=64, batch_size=16_384, seed=7)
    configs = workload.table_configs()
    total_gib = workload.total_table_bytes / GiB
    sizes = sorted(t.num_rows for t in workload.tables)
    print(f"Criteo-like workload: {workload.num_tables} tables, "
          f"{total_gib:.1f} GiB of embeddings")
    print(f"table sizes: min {sizes[0]:,} rows, median {sizes[len(sizes)//2]:,}, "
          f"max {sizes[-1]:,}\n")

    # Planned placement (minimal feasible device count, balanced).
    report: PlacementReport = plan_table_wise(configs, reserve_fraction=0.1)
    print(report.summary())

    # Naive contiguous placement on the same device count, for contrast.
    naive = TableWiseSharding(configs, report.n_devices)
    naive_loads = [naive.memory_bytes(d) / GiB for d in range(report.n_devices)]
    mean = sum(naive_loads) / len(naive_loads)
    print(f"\nnaive contiguous placement imbalance (max/mean): "
          f"{max(naive_loads) / mean:.3f}  vs planned {report.imbalance:.3f}")

    # Retrieval on the planned placement, both backends.
    G = max(report.n_devices, 2)  # need >= 2 GPUs for any communication
    gen = HeterogeneousDataGenerator(workload)
    lengths = gen.lengths_batch()
    print(f"\nEMB forward on {G} GPUs (one batch of {workload.batch_size}):")
    for backend in ("baseline", "pgas"):
        emb = DistributedEmbedding(
            configs, G, backend=backend, cluster=dgx_v100(G),
        )
        t = emb.forward_timed(lengths)
        print(f"  {backend:9s} {to_ms(t.total_ns):8.3f} ms")


if __name__ == "__main__":
    main()
