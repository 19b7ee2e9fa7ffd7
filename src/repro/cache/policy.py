"""LRU residency for the hot-row embedding cache.

:class:`LRUPolicy` tracks *which* ``(table, hashed_row)`` keys are
resident and in what order they leave: every hit refreshes a key's
recency and a full cache evicts the least recently used one.  Recency
adapts to drift and needs no profiling pass, which is what skewed
embedding traffic calls for (Stochastic Communication Avoidance;
EmbedCache-style hot-row studies).  The slot/value storage and byte
accounting live in :class:`~repro.cache.hotrow.HotRowCache`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

__all__ = ["CacheKey", "LRUPolicy"]

#: A cached row's identity: ``(table_name, hashed_row_id)``.
CacheKey = Tuple[str, int]


class LRUPolicy:
    """Least-recently-used: every hit refreshes recency; evict the coldest."""

    name = "lru"

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = int(capacity)
        self._order: "OrderedDict[CacheKey, None]" = OrderedDict()

    def access(self, key: CacheKey) -> bool:
        """Hit moves the key to most-recent; miss returns False."""
        if key in self._order:
            self._order.move_to_end(key)
            return True
        return False

    def admit(self, key: CacheKey) -> Tuple[bool, Optional[CacheKey]]:
        """Always admits (when capacity > 0), evicting the LRU key if full;
        returns ``(admitted, evicted)``."""
        if self.capacity == 0:
            return False, None
        evicted: Optional[CacheKey] = None
        if len(self._order) >= self.capacity:
            evicted, _ = self._order.popitem(last=False)
        self._order[key] = None
        return True, evicted

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._order

    def __len__(self) -> int:
        return len(self._order)

    def resident(self) -> List[CacheKey]:
        """Keys from least- to most-recently used."""
        return list(self._order)
