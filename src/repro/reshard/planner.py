"""Skew-aware migration planning: turn observed traffic into table moves.

The :class:`ReshardPlanner` consumes the :class:`~repro.reshard.tracker.
LoadTracker`'s windowed per-table traffic plus the current ownership and
emits a :class:`MigrationPlan` — at most :data:`MAX_MOVES_PER_PLAN`
whole-table :class:`TableMove`\\ s that greedily shrink the max/mean
per-device traffic ratio (:func:`owner_loads`), subject to destination
:class:`~repro.simgpu.memory.MemoryPool` capacity.  The remaining
imbalance is left for the next planning round, which keeps each
migration burst bounded.

When a single table is so hot that *no* placement of whole tables can
balance it (its window traffic alone exceeds the per-device mean), the
planner attaches a :class:`RowSplitAdvisory` carrying the
:class:`~repro.core.sharding.RowWiseSharding` row ranges that would
spread it.  Advisories are reported, not executed: mixing row-wise and
table-wise serving in one plan is a separate (future) execution path, and
silently dropping the diagnosis would hide the one imbalance this planner
cannot fix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Set, Tuple

from ..core.sharding import RowShard, RowWiseSharding, TableWiseSharding
from .spec import ReshardSpec

__all__ = [
    "MAX_MOVES_PER_PLAN",
    "MigrationPlan",
    "ReshardPlanner",
    "RowSplitAdvisory",
    "TableMove",
    "owner_loads",
]

#: cap on table moves in one plan
MAX_MOVES_PER_PLAN = 4


def owner_loads(
    traffic: Mapping[str, float], owners: Mapping[str, int], n_devices: int
) -> Tuple[List[float], float, float]:
    """Per-table traffic folded onto each table's owner.

    Returns the per-device ``loads``, their ``mean`` and the max/mean
    ``imbalance`` (1.0 when nothing moved; 1.0 is perfect balance).  A
    table with no owner in ``owners`` is left out.
    """
    loads = [0.0] * n_devices
    for name, b in traffic.items():
        dev = owners.get(name)
        if dev is not None:
            loads[dev] += float(b)
    mean = sum(loads) / n_devices
    return loads, mean, max(loads) / mean if mean > 0 else 1.0


@dataclass(frozen=True)
class TableMove:
    """One whole-table migration: stream ``nbytes`` from src to dst."""

    table_name: str
    src: int
    dst: int
    nbytes: int  #: weight bytes to stream over the interconnect
    traffic_bytes: float  #: window traffic this move re-homes

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form (for counters, logs, artifacts)."""
        return {
            "table_name": self.table_name,
            "src": self.src,
            "dst": self.dst,
            "nbytes": self.nbytes,
            "traffic_bytes": self.traffic_bytes,
        }


@dataclass(frozen=True)
class RowSplitAdvisory:
    """A table too hot for any whole-table placement to balance.

    Carries the row-wise split (via :class:`RowWiseSharding`) that would
    spread its traffic; surfaced in reports rather than executed.
    """

    table_name: str
    device_id: int  #: current owner of the hot table
    traffic_bytes: float
    shards: Tuple[RowShard, ...]  #: the even row ranges a split would use


@dataclass(frozen=True)
class MigrationPlan:
    """The planner's verdict for one planning round."""

    moves: Tuple[TableMove, ...] = ()
    advisories: Tuple[RowSplitAdvisory, ...] = ()
    imbalance_before: float = 1.0
    imbalance_after: float = 1.0  #: projected, under the window's traffic
    window_batches: int = 0  #: batches of traffic the plan was based on

    @property
    def empty(self) -> bool:
        """True when the plan moves nothing (balance already acceptable)."""
        return not self.moves


@dataclass
class ReshardPlanner:
    """Greedy traffic balancer over whole-table moves.

    Stateless between calls apart from its configuration: every
    :meth:`plan` call sees the current traffic, ownership, free memory,
    and in-flight set, and decides from scratch.
    """

    plan: TableWiseSharding
    spec: ReshardSpec = field(default_factory=ReshardSpec)

    def propose(
        self,
        traffic: Mapping[str, float],
        owners: Mapping[str, int],
        free_bytes: Sequence[float],
        frozen: Sequence[str] = (),
    ) -> MigrationPlan:
        """Plan migrations for the observed per-table ``traffic``.

        ``owners`` is the current serving ownership, ``free_bytes`` the
        per-device free :class:`~repro.simgpu.memory.MemoryPool` capacity
        (a move is only planned when the destination can hold the
        table's weights), and ``frozen`` names tables that must not move
        (already migrating).  Returns an empty plan whenever the max/mean
        device traffic is at or below the spec's threshold — under
        uniform (zero-skew) traffic that ratio is ~1.0, so the planner
        provably emits no migrations there.
        """
        G = self.plan.n_devices
        if len(free_bytes) != G:
            raise ValueError(
                f"free_bytes has {len(free_bytes)} entries for a {G}-device plan"
            )
        nbytes = {cfg.name: cfg.nbytes for cfg in self.plan.table_configs}
        cur: Dict[str, int] = dict(owners)
        loads, mean, imbalance_before = owner_loads(traffic, cur, G)
        if imbalance_before <= self.spec.imbalance_threshold:
            return MigrationPlan(
                imbalance_before=imbalance_before,
                imbalance_after=imbalance_before,
                window_batches=self.spec.window_batches,
            )

        free = [float(b) for b in free_bytes]
        blocked: Set[str] = set(frozen)
        moves: List[TableMove] = []
        advisories: List[RowSplitAdvisory] = []
        for _ in range(MAX_MOVES_PER_PLAN):
            src = max(range(G), key=lambda d: loads[d])
            dst = min(range(G), key=lambda d: loads[d])
            gap = loads[src] - loads[dst]
            if gap <= 0:
                break
            candidates = [
                name
                for name, dev in cur.items()
                if dev == src
                and name not in blocked
                and traffic.get(name, 0.0) > 0
                # Strict improvement of the (src, dst) pair's max load:
                # moving t makes dst = L_d + t < L_s and src = L_s - t < L_s.
                and traffic.get(name, 0.0) < gap
                and nbytes.get(name, 0) <= free[dst]
            ]
            if not candidates:
                self._advise_row_split(
                    traffic, cur, loads, mean, src, blocked, advisories
                )
                break
            pick = max(candidates, key=lambda name: traffic.get(name, 0.0))
            moves.append(
                TableMove(
                    table_name=pick,
                    src=src,
                    dst=dst,
                    nbytes=int(nbytes[pick]),
                    traffic_bytes=float(traffic.get(pick, 0.0)),
                )
            )
            blocked.add(pick)
            cur[pick] = dst
            t = float(traffic.get(pick, 0.0))
            loads[src] -= t
            loads[dst] += t
            # The source frees its copy only after cutover, so only the
            # destination's budget is debited for planning purposes.
            free[dst] -= nbytes[pick]
            if mean > 0 and max(loads) / mean <= self.spec.imbalance_threshold:
                break
        imbalance_after = max(loads) / mean if mean > 0 else 1.0
        return MigrationPlan(
            moves=tuple(moves),
            advisories=tuple(advisories),
            imbalance_before=imbalance_before,
            imbalance_after=imbalance_after,
            window_batches=self.spec.window_batches,
        )

    def _advise_row_split(
        self,
        traffic: Mapping[str, float],
        cur: Mapping[str, int],
        loads: Sequence[float],
        mean: float,
        src: int,
        blocked: Set[str],
        advisories: List[RowSplitAdvisory],
    ) -> None:
        """Attach a row-split advisory for the hot device's dominant table.

        Fires when whole-table moves ran out: if one table's traffic alone
        exceeds the per-device mean, no table-wise placement can balance
        it and only a row-range split (RowWiseSharding) would.
        """
        src_tables = [
            (name, traffic.get(name, 0.0))
            for name, dev in cur.items()
            if dev == src and name not in blocked
        ]
        if not src_tables:
            return
        hottest, t = max(src_tables, key=lambda item: item[1])
        if t <= mean or any(a.table_name == hottest for a in advisories):
            return
        cfg = next(c for c in self.plan.table_configs if c.name == hottest)
        rowwise = RowWiseSharding([cfg], self.plan.n_devices)
        advisories.append(
            RowSplitAdvisory(
                table_name=hottest,
                device_id=src,
                traffic_bytes=float(t),
                shards=tuple(rowwise.shards_of(hottest)),
            )
        )
