"""Embedding-table sharding plans (model parallelism) and output ownership.

Two axes of partitioning exist in the distributed EMB forward (paper
Fig. 4):

* **Tables over devices** (model parallelism) — a :class:`ShardingPlan`
  assigns each embedding table to an owning device.  The paper uses "a
  simple table sharding scheme (partitioning by tables)"; we implement that
  (:class:`TableWiseSharding`, contiguous or round-robin) plus the
  row-wise scheme it cites as future work (:class:`RowWiseSharding`,
  RecShard-style).
* **Samples over devices** (data parallelism) — the batch dimension is cut
  into even mini-batches; :func:`sample_owner` is the simulator's
  ``GetEmbOwnerId`` of Listing 2: given a sample index, which device's
  mini-batch (and hence which device's output tensor) it belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Literal, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..dlrm.embedding import EmbeddingTableConfig

__all__ = [
    "minibatch_bounds",
    "sample_owner",
    "ShardingError",
    "ShardingPlan",
    "TableWiseSharding",
    "RowWiseSharding",
    "RowShard",
]


class ShardingError(ValueError):
    """A sharding-plan lookup that cannot be satisfied.

    Raised (instead of a bare ``KeyError``/``IndexError``) when a plan is
    asked about a table it does not contain or a device outside its range,
    so callers can catch one typed error across every plan flavour.
    """


def minibatch_bounds(batch_size: int, n_devices: int) -> List[Tuple[int, int]]:
    """Even cut of the batch dimension; remainder spread over leading devices."""
    if batch_size <= 0 or n_devices <= 0:
        raise ValueError("batch_size and n_devices must be positive")
    base, rem = divmod(batch_size, n_devices)
    bounds = []
    lo = 0
    for p in range(n_devices):
        hi = lo + base + (1 if p < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def sample_owner(batch_size: int, n_devices: int) -> np.ndarray:
    """Owner device of every sample — the ``GetEmbOwnerId`` map.

    Returns int array of shape ``(batch_size,)`` with values in
    ``[0, n_devices)``, consistent with :func:`minibatch_bounds`.
    """
    owners = np.empty(batch_size, dtype=np.int64)
    for dev, (lo, hi) in enumerate(minibatch_bounds(batch_size, n_devices)):
        owners[lo:hi] = dev
    return owners


class ShardingPlan:
    """Base interface: which device owns which (table, rows)."""

    def __init__(self, table_configs: Sequence[EmbeddingTableConfig], n_devices: int):
        if not table_configs:
            raise ValueError("a sharding plan needs at least one table")
        if n_devices <= 0:
            raise ValueError("n_devices must be positive")
        names = [t.name for t in table_configs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate table names")
        self.table_configs = list(table_configs)
        self.n_devices = n_devices
        self._index: Dict[str, int] = {t.name: i for i, t in enumerate(table_configs)}

    @property
    def num_tables(self) -> int:
        """Total number of tables in the plan."""
        return len(self.table_configs)

    def feature_index(self, name: str) -> int:
        """Global feature position of a table (output-tensor layout order)."""
        return self._index[name]

    # abstract ----------------------------------------------------------------

    def tables_on(self, device_id: int) -> List[EmbeddingTableConfig]:
        """Table configs owned (fully or partially) by a device."""
        raise NotImplementedError

    def memory_bytes(self, device_id: int) -> int:
        """Embedding-weight bytes resident on a device."""
        raise NotImplementedError

    def validate(self) -> None:
        """Check the partition is exact (every row owned exactly once)."""
        raise NotImplementedError


class TableWiseSharding(ShardingPlan):
    """Whole tables assigned to devices (the paper's scheme).

    ``strategy="contiguous"`` gives device *g* the block of tables
    ``[g * T/G, (g+1) * T/G)`` (so the unpack step is a plain feature-axis
    concatenation); ``"round_robin"`` stripes tables over devices (better
    balance for heterogeneous tables, needs a feature permutation on
    unpack).  Both are exact partitions.
    """

    def __init__(
        self,
        table_configs: Sequence[EmbeddingTableConfig],
        n_devices: int,
        strategy: Literal["contiguous", "round_robin", "explicit"] = "contiguous",
        owners: Optional[Mapping[str, int]] = None,
    ):
        super().__init__(table_configs, n_devices)
        if strategy not in ("contiguous", "round_robin", "explicit"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if (strategy == "explicit") != (owners is not None):
            raise ValueError("owners must be given exactly when strategy='explicit'")
        self.strategy = strategy
        self._owner: Dict[str, int] = {}
        T = self.num_tables
        if strategy == "contiguous":
            bounds = minibatch_bounds(T, n_devices)
            for dev, (lo, hi) in enumerate(bounds):
                for i in range(lo, hi):
                    self._owner[self.table_configs[i].name] = dev
        elif strategy == "round_robin":
            for i, cfg in enumerate(self.table_configs):
                self._owner[cfg.name] = i % n_devices
        else:
            assert owners is not None
            for cfg in self.table_configs:
                if cfg.name not in owners:
                    raise ValueError(f"no owner for table {cfg.name!r}")
                self._owner[cfg.name] = int(owners[cfg.name])
            self.validate()
        # Per-device table lists in global feature order, built once: the
        # workload builder asks for every device on every batch.
        self._tables_on: Dict[int, List[EmbeddingTableConfig]] = {}
        for cfg in self.table_configs:
            self._tables_on.setdefault(self._owner[cfg.name], []).append(cfg)

    @classmethod
    def from_assignment(
        cls,
        table_configs: Sequence[EmbeddingTableConfig],
        n_devices: int,
        owners: Mapping[str, int],
    ) -> "TableWiseSharding":
        """Plan from an explicit table→device map (e.g. a planner's output)."""
        return cls(table_configs, n_devices, strategy="explicit", owners=owners)

    def owner_of(self, table_name: str) -> int:
        """Device owning a table."""
        return self._owner[table_name]

    def tables_on(self, device_id: int) -> List[EmbeddingTableConfig]:
        """Tables owned by ``device_id``, in global feature order (a fresh list)."""
        return list(self._tables_on.get(device_id, ()))

    def feature_indices_on(self, device_id: int) -> np.ndarray:
        """Global feature positions of a device's tables."""
        return np.array(
            [self._index[t.name] for t in self.tables_on(device_id)], dtype=np.int64
        )

    def memory_bytes(self, device_id: int) -> int:
        """Weight bytes resident on a device."""
        return sum(t.nbytes for t in self.tables_on(device_id))

    def validate(self) -> None:
        """Every table owned exactly once by an in-range device."""
        seen = set()
        for name, dev in self._owner.items():
            if not (0 <= dev < self.n_devices):
                raise AssertionError(f"table {name!r} owned by out-of-range device {dev}")
            if name in seen:
                raise AssertionError(f"table {name!r} owned twice")
            seen.add(name)
        if seen != {t.name for t in self.table_configs}:
            raise AssertionError("some tables are unowned")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TableWiseSharding T={self.num_tables} G={self.n_devices} "
            f"{self.strategy}>"
        )


@dataclass(frozen=True)
class RowShard:
    """A device's row range of one table under row-wise sharding."""

    table_name: str
    device_id: int
    row_lo: int
    row_hi: int

    @property
    def num_rows(self) -> int:
        """Rows in this shard."""
        return self.row_hi - self.row_lo


class RowWiseSharding(ShardingPlan):
    """Each table's rows split evenly across all devices (§V / RecShard).

    Every device holds a horizontal slice of every table; a lookup's rows
    scatter across devices, and per-device *partial* pools must be reduced —
    the heavier communication pattern the paper's future-work section
    discusses.
    """

    def __init__(self, table_configs: Sequence[EmbeddingTableConfig], n_devices: int):
        super().__init__(table_configs, n_devices)
        self._shards: Dict[str, List[RowShard]] = {}
        for cfg in self.table_configs:
            bounds = minibatch_bounds(cfg.num_rows, n_devices)
            self._shards[cfg.name] = [
                RowShard(cfg.name, dev, lo, hi) for dev, (lo, hi) in enumerate(bounds)
            ]

    def _table_shards(self, table_name: str) -> List[RowShard]:
        shards = self._shards.get(table_name)
        if shards is None:
            raise ShardingError(
                f"table {table_name!r} is not in this row-wise plan "
                f"({self.num_tables} tables)"
            )
        return shards

    def shards_of(self, table_name: str) -> List[RowShard]:
        """All device shards of one table."""
        return list(self._table_shards(table_name))

    def shard_on(self, table_name: str, device_id: int) -> RowShard:
        """One device's shard of one table.

        Raises :class:`ShardingError` (not ``KeyError``) for unknown
        tables or out-of-range devices.
        """
        shards = self._table_shards(table_name)
        if not (0 <= device_id < self.n_devices):
            raise ShardingError(
                f"device {device_id} out of range for the "
                f"{self.n_devices}-device plan"
            )
        return shards[device_id]

    def row_owner(self, table_name: str, rows: np.ndarray) -> np.ndarray:
        """Owning device of each (hashed) row id — vectorised.

        Raises :class:`ShardingError` for an unknown table.
        """
        shards = self._table_shards(table_name)
        cuts = np.array([s.row_hi for s in shards[:-1]], dtype=np.int64)
        return np.searchsorted(cuts, np.asarray(rows, dtype=np.int64), side="right")

    def tables_on(self, device_id: int) -> List[EmbeddingTableConfig]:
        """Row-wise: every device holds a slice of every table."""
        return list(self.table_configs)

    def memory_bytes(self, device_id: int) -> int:
        """Weight bytes of all this device's row slices."""
        return sum(
            self._shards[t.name][device_id].num_rows * t.row_bytes
            for t in self.table_configs
        )

    def validate(self) -> None:
        """Shards of each table tile ``[0, num_rows)`` exactly."""
        for cfg in self.table_configs:
            shards = self._shards[cfg.name]
            if shards[0].row_lo != 0 or shards[-1].row_hi != cfg.num_rows:
                raise AssertionError(f"table {cfg.name!r}: shards do not span all rows")
            for a, b in zip(shards, shards[1:]):
                if a.row_hi != b.row_lo:
                    raise AssertionError(f"table {cfg.name!r}: gap/overlap at {a.row_hi}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RowWiseSharding T={self.num_tables} G={self.n_devices}>"
