"""Property-based tests of engine ordering and callback-chain semantics."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simgpu.cluster import Cluster
from repro.simgpu.engine import Engine
from repro.simgpu.stream import join


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_callbacks_fire_in_nondecreasing_time_order(delays):
    """Whatever the insertion order, execution times are sorted."""
    eng = Engine()
    fired = []
    for d in delays:
        eng.call_at(d, lambda d=d: fired.append(eng.now))
    eng.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert eng.now == max(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=30))
def test_sequential_timeouts_sum(delays):
    """A host program chaining a sequence of delays ends at their sum."""
    cluster = Cluster(1)
    eng = cluster.engine
    pending = list(delays)

    def program(cl):
        done = eng.event()

        def next_delay():
            if pending:
                cl.then(pending.pop(0), next_delay)
            else:
                done.succeed()

        next_delay()
        return done

    cluster.run(program)
    assert abs(eng.now - sum(delays)) < 1e-6 * max(1.0, sum(delays))


@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=20)
)
def test_all_of_completes_at_max_any_of_at_min(delays):
    """Fork/join semantics: a join ends at the latest child, a race
    resolves at the earliest."""
    eng = Engine()
    children = []
    for d in delays:
        child = eng.event()
        eng.call_in(d, child.succeed)
        children.append(child)
    eng.run_until_event(join(eng, children))
    assert eng.now == max(delays)

    cluster = Cluster(1)
    eng2 = cluster.engine
    children = []
    for d in delays:
        child = eng2.event()
        eng2.call_in(d, child.succeed)
        children.append(child)
    resolved = []
    cluster.race(children, None, lambda: resolved.append(eng2.now))
    eng2.run()
    assert resolved == [min(delays)]


@given(
    n_procs=st.integers(min_value=1, max_value=20),
    step=st.floats(min_value=0.1, max_value=100.0),
)
def test_parallel_processes_are_independent(n_procs, step):
    """N chains waiting i*step finish at their own deadlines."""
    cluster = Cluster(1)
    eng = cluster.engine
    done_at = {}
    ends = []
    for i in range(1, n_procs + 1):
        end = eng.event()

        def finish(i=i, end=end):
            done_at[i] = eng.now
            end.succeed()

        cluster.then(i * step, finish)
        ends.append(end)
    eng.run()
    for i in range(1, n_procs + 1):
        assert abs(done_at[i] - i * step) < 1e-9 * max(1.0, i * step)
    assert all(end.triggered for end in ends)


@given(seed_times=st.lists(st.tuples(
    st.floats(min_value=0.0, max_value=1000.0),
    st.integers(min_value=0, max_value=5),
), min_size=1, max_size=20))
def test_determinism_across_runs(seed_times):
    """Two engines fed identical schedules produce identical traces."""

    def run_once():
        eng = Engine()
        trace = []
        for t, tag in seed_times:
            eng.call_at(t, lambda t=t, tag=tag: trace.append((eng.now, tag)))
        eng.run()
        return trace

    assert run_once() == run_once()
