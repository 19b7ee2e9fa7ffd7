"""LRU residency contract: eviction order, capacity."""

from __future__ import annotations

import pytest

from repro.cache.policy import LRUPolicy


def k(i):
    return ("t", i)


class TestLRU:
    def test_evicts_least_recently_used(self):
        p = LRUPolicy(3)
        for i in (1, 2, 3):
            assert p.admit(k(i)) == (True, None)
        assert p.access(k(1))  # refresh 1: order is now 2, 3, 1
        admitted, evicted = p.admit(k(4))
        assert admitted and evicted == k(2)
        assert p.resident() == [k(3), k(1), k(4)]

    def test_miss_does_not_change_order(self):
        p = LRUPolicy(2)
        p.admit(k(1))
        p.admit(k(2))
        assert not p.access(k(9))
        assert p.resident() == [k(1), k(2)]

    def test_zero_capacity_never_admits(self):
        p = LRUPolicy(0)
        assert p.admit(k(1)) == (False, None)
        assert len(p) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUPolicy(-1)
