"""Tests for spans, counters, and comm-volume sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simgpu.profiler import Counter, Profiler, Span


class TestSpans:
    def test_record_and_query(self):
        p = Profiler()
        p.record_span("k0", "compute", 0, 10.0, 40.0)
        p.record_span("k1", "compute", 1, 15.0, 50.0)
        p.record_span("a2a", "comm", -1, 40.0, 90.0)
        assert p.category_time("compute") == 30.0 + 35.0
        assert p.category_time("compute", device_id=0) == 30.0
        assert len(p.spans_by_category("comm")) == 1

    def test_backwards_span_rejected(self):
        p = Profiler()
        with pytest.raises(ValueError):
            p.record_span("bad", "x", 0, 10.0, 5.0)

    def test_nan_end_rejected(self):
        p = Profiler()
        with pytest.raises(ValueError, match="'bad' ends before it starts"):
            p.record_span("bad", "x", 0, 10.0, float("nan"))
        assert p.spans == []

    def test_disabled_profiler_records_nothing(self):
        p = Profiler()
        p.enabled = False
        p.record_span("k", "compute", 0, 0.0, 1.0)
        p.add_count("c", 0.0, 5.0)
        assert p.spans == []
        assert p.counters == {}

    def test_wall_time_merges_overlaps(self):
        p = Profiler()
        p.record_span("a", "compute", 0, 0.0, 10.0)
        p.record_span("b", "compute", 1, 5.0, 20.0)  # overlaps a
        p.record_span("c", "compute", 2, 30.0, 40.0)  # disjoint
        assert p.category_wall_time("compute") == 20.0 + 10.0

    def test_wall_time_empty_category(self):
        assert Profiler().category_wall_time("nothing") == 0.0

    def test_clear(self):
        p = Profiler()
        p.record_span("a", "x", 0, 0.0, 1.0)
        p.add_count("c", 0.0, 1.0)
        p.clear()
        assert p.spans == [] and p.counters == {}


class TestCounter:
    def test_total_and_value_at(self):
        c = Counter("bytes")
        c.add(10.0, 100.0)
        c.add(20.0, 50.0)
        assert c.total == 150.0
        assert c.values_at([5.0, 10.0, 15.0, 25.0]).tolist() == [0.0, 100.0, 100.0, 150.0]

    def test_out_of_order_adds_merge_on_read(self):
        c = Counter("bytes")
        c.add(20.0, 5.0)
        c.add(10.0, 7.0)  # from another device, earlier stamp
        assert c.values_at([15.0]).tolist() == [7.0]
        assert c.total == 12.0

    def test_sample_grid(self):
        c = Counter("bytes")
        c.add(100.0, 10.0)
        c.add(300.0, 20.0)
        times, vals = c.sample(0.0, 400.0, 100.0)
        assert times[0] == 0.0 and times[-1] == 400.0
        assert vals[0] == 0.0
        assert vals[-1] == 30.0
        # cumulative and monotone
        assert np.all(np.diff(vals) >= 0)

    def test_sample_lands_on_end(self):
        c = Counter("bytes")
        c.add(50.0, 1.0)
        times, vals = c.sample(0.0, 99.0, 40.0)
        assert times[-1] == 99.0
        assert vals[-1] == 1.0

    def test_sample_empty_counter(self):
        c = Counter("bytes")
        times, vals = c.sample(0.0, 10.0, 1.0)
        assert np.all(vals == 0.0)

    def test_sample_zero_width_window_single_zero_sample(self):
        # Regression: t_start == t_end used to return the cumulative value
        # (a degenerate one-point series); now it is a single zero sample.
        c = Counter("bytes")
        c.add(2.0, 10.0)
        times, vals = c.sample(5.0, 5.0, 1.0)
        assert times.tolist() == [5.0]
        assert vals.tolist() == [0.0]

    def test_sample_empty_counter_single_zero_sample(self):
        # Regression: an empty counter used to return a full zero grid.
        c = Counter("bytes")
        times, vals = c.sample(0.0, 10.0, 1.0)
        assert times.tolist() == [0.0]
        assert vals.tolist() == [0.0]

    def test_events_sorted_copy(self):
        c = Counter("bytes")
        c.add(20.0, 5.0)
        c.add(10.0, 7.0)
        evs = c.events()
        assert evs == [(10.0, 7.0), (20.0, 5.0)]
        evs.append((99.0, 1.0))  # mutating the copy must not leak back
        assert c.total == 12.0

    def test_equal_stamps_keep_insertion_order(self):
        c = Counter("bytes")
        for t, d in ((20.0, 1.0), (10.0, 2.0), (10.0, 3.0), (20.0, 4.0)):
            c.add(t, d)
        evs = c.events()
        assert evs == [(10.0, 2.0), (10.0, 3.0), (20.0, 1.0), (20.0, 4.0)]
        assert all(type(v) is float for e in evs for v in e)

    def test_add_after_vectorized_read(self):
        # The read looks at the columns through numpy views; none may
        # outlive it and block the next append.
        c = Counter("bytes")
        c.add(20.0, 5.0)
        c.add(10.0, 7.0)
        c.values_at(np.array([15.0]))
        c.add(30.0, 1.0)
        assert c.values_at(np.array([30.0])).tolist() == [13.0]

    def test_values_at_vectorized(self):
        c = Counter("bytes")
        c.add(10.0, 100.0)
        c.add(20.0, 50.0)
        vals = c.values_at(np.array([5.0, 10.0, 15.0, 25.0]))
        assert vals.tolist() == [0.0, 100.0, 100.0, 150.0]

    def test_sample_bad_args(self):
        c = Counter("bytes")
        with pytest.raises(ValueError):
            c.sample(0.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            c.sample(10.0, 0.0, 1.0)

    def test_sample_nan_period_names_it(self):
        c = Counter("bytes")
        c.add(1.0, 1.0)
        with pytest.raises(ValueError, match=r"Counter\.sample\.period must be finite"):
            c.sample(0.0, 10.0, float("nan"))

    def test_sample_infinite_end_names_it(self):
        c = Counter("bytes")
        c.add(1.0, 1.0)
        with pytest.raises(ValueError, match=r"Counter\.sample\.t_end must be finite"):
            c.sample(0.0, float("inf"), 1.0)

    @given(
        events=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1000.0),
                st.floats(min_value=0.0, max_value=100.0),
            ),
            max_size=50,
        )
    )
    def test_sample_final_equals_total(self, events):
        c = Counter("bytes")
        for t, d in events:
            c.add(t, d)
        _, vals = c.sample(0.0, 1000.0, 37.0)
        assert vals[-1] == pytest.approx(c.total)
        assert np.all(np.diff(vals) >= 0)


class TestProfilerCounters:
    def test_counter_cached_by_name(self):
        p = Profiler()
        assert p.counter("x") is p.counter("x")

    def test_add_count_shortcut(self):
        p = Profiler()
        p.add_count("x", 1.0, 10.0)
        p.add_count("x", 2.0, 5.0)
        assert p.counter("x").total == 15.0
