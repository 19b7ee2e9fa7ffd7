"""Multi-GPU node/cluster assembly.

A :class:`Cluster` owns the simulation engine, the devices, the interconnect,
and the profiler for one experiment — the analogue of "a DGX box plus the
processes driving it".  Factory helpers build the paper's testbed
(:func:`dgx_v100`) and variants for the extension studies.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, List, Optional, Sequence, Union

from .device import Device, DeviceSpec, V100_SPEC
from .engine import Engine, Event, Handle, SimulationError
from .interconnect import Interconnect, Topology, multinode_topology, nvlink_dgx1
from .profiler import Profiler, TraceRef

__all__ = ["Cluster", "dgx_v100", "multinode"]

#: What a host-program step waits for: an event, or a delay in ns.
Wait = Union[Event, float]
#: One step of a :meth:`Cluster.chain`: it returns what the next step waits
#: for, or None to go on in the same entry.
Step = Callable[[], Optional[Wait]]


def _run_under(prof: Profiler, ref: TraceRef, fn: Callable[[], None]) -> None:
    """``fn()`` with ``prof.active_trace`` set to ``ref``."""
    prev = prof.active_trace
    prof.active_trace = ref
    try:
        fn()
    finally:
        prof.active_trace = prev


def _advance(cluster: "Cluster", steps: Iterator[Step], done: Event) -> None:
    """Run a chain's ``steps`` until one returns a wait; end with ``done``."""
    for step in steps:
        wait = step()
        if wait is not None:
            cluster.then(wait, partial(_advance, cluster, steps, done))
            return
    done.succeed()


class Cluster:
    """One simulated multi-GPU system.

    Parameters
    ----------
    n_devices:
        Number of GPUs.
    topology:
        Interconnect topology; defaults to the all-pairs NVLink clique of
        the paper's DGX-1.
    device_spec:
        Hardware spec shared by all devices (homogeneous node).
    """

    def __init__(
        self,
        n_devices: int,
        topology: Optional[Topology] = None,
        device_spec: DeviceSpec = V100_SPEC,
    ):
        if n_devices <= 0:
            raise ValueError(f"n_devices must be positive, got {n_devices}")
        self.engine = Engine()
        self.profiler = Profiler(self.engine)
        self.topology = topology or nvlink_dgx1(n_devices)
        if self.topology.n_devices != n_devices:
            raise ValueError(
                f"topology is for {self.topology.n_devices} devices, cluster has {n_devices}"
            )
        self.interconnect = Interconnect(self.engine, self.topology, self.profiler)
        self.devices: List[Device] = [
            Device(self.engine, i, device_spec) for i in range(n_devices)
        ]
        for dev in self.devices:
            dev.profiler = self.profiler
        # NVLink peers: enable one-sided access between every connected pair.
        for src in self.devices:
            for dst in self.devices:
                if src.id != dst.id and self.topology.connected(src.id, dst.id):
                    src.enable_peer_access(dst.id)

    @property
    def n_devices(self) -> int:
        """Number of GPUs in the cluster."""
        return len(self.devices)

    def device(self, device_id: int) -> Device:
        """Device by id."""
        return self.devices[device_id]

    # -- running -------------------------------------------------------------------

    def run(self, start_fn: Callable[["Cluster"], Event]) -> float:
        """Run a top-level host program to completion; return elapsed ns.

        ``start_fn(cluster)`` is the "host program": it submits device
        work, registers its continuations (:meth:`then`, :meth:`chain`)
        and returns the event that fires when the program ends.  It
        starts once the work already due at this instant has run (a fault
        window opening now applies first).  The clock is *not* reset, so
        successive ``run`` calls accumulate (100-batch loops).
        """
        t0 = self.engine.now
        self.engine.run(until=t0)
        done = start_fn(self)
        if not isinstance(done, Event):
            raise TypeError(
                f"a host program must return an Event, got {type(done).__name__}"
            )
        self.engine.run_until_event(done)
        return self.engine.now - t0

    def then(self, when: Wait, fn: Callable[[], None]) -> Optional[Handle]:
        """Run host-program continuation ``fn()`` once ``when`` has passed.

        ``when`` is an event (``fn`` runs in the entry that fires it) or a
        delay in ns (``fn`` runs in the one entry ``call_in`` schedules;
        its handle is returned).  The profiler's ``active_trace`` at
        registration is restored around ``fn()``, so a chain started under
        a trace ref records its spans under that ref even when several
        traced chains interleave.
        """
        ref = self.profiler.active_trace
        if ref is not None:
            fn = partial(_run_under, self.profiler, ref, fn)
        if isinstance(when, Event):
            when.add_callback(fn)
            return None
        return self.engine.call_in(when, fn)

    def chain(self, *steps: Step) -> Event:
        """Start a host program of ``steps`` now; return its end event.

        Each step returns what the next one waits for: an event or a delay
        (see :meth:`then`), or None to go on in the same entry.  The end
        event fires one entry after the last step.
        """
        done = self.engine.event("chain")
        _advance(self, iter(steps), done)
        return done

    def race(
        self, events: Sequence[Event], timeout_ns: Optional[float], fn: Callable[[], None]
    ) -> None:
        """Run ``fn()`` one entry after the first of ``events`` fires, or
        after ``timeout_ns`` (None: no timeout) if that comes first.

        The timeout is one ``call_in`` handle, which a winning event
        cancels; later finishers do nothing.  ``fn`` tells the outcome
        from the events' ``triggered`` flags (a tie counts as the event).
        """
        if not events:
            raise SimulationError("a race needs at least one event")
        settled = False

        def first() -> None:
            nonlocal settled
            if not settled:
                settled = True
                if alarm is not None:
                    self.engine.cancel(alarm)
                self.then(0.0, fn)

        alarm = None if timeout_ns is None else self.then(timeout_ns, first)
        for event in events:
            self.then(event, first)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Cluster {self.n_devices}x{self.devices[0].spec.name} "
            f"topology={self.topology.name}>"
        )


def dgx_v100(n_devices: int = 4) -> Cluster:
    """The paper's testbed: up to 4 NVLink-connected V100s."""
    return Cluster(n_devices, topology=nvlink_dgx1(n_devices), device_spec=V100_SPEC)


def multinode(
    n_nodes: int, devices_per_node: int = 4, device_spec: DeviceSpec = V100_SPEC
) -> Cluster:
    """Multi-node system for the §V aggregator extension."""
    n = n_nodes * devices_per_node
    return Cluster(
        n,
        topology=multinode_topology(n, devices_per_node),
        device_spec=device_spec,
    )
