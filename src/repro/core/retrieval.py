"""High-level distributed embedding retrieval API and the backend adapters.

:class:`DistributedEmbedding` is the user-facing entry point (the analogue
of the paper's PyTorch backend): configure tables, device count, and a
backend name, then call :meth:`forward` with a jagged batch.  It

* builds the table-wise sharding plan and registers every table's weights
  with the per-device memory accountants (so paper-scale configurations
  exercise the real 32 GB capacity wall);
* runs the **timed** path on the cluster simulator for every batch,
  accumulating a :class:`~repro.core.baseline.PhaseTiming`;
* optionally (``materialize=True``) holds real numpy weights and also runs
  the **functional** path, returning per-device output tensors that are
  bit-identical across backends.

A backend name resolves to an adapter *class*.  Every adapter is a
:class:`BaseRetrieval` bound to one :class:`EmbeddingHost` — a
:class:`DistributedEmbedding` or a
:class:`~repro.core.pipeline.DLRMInferencePipeline`; adapters are created
lazily per host and kept alive across batches (which is what lets stateful
backends, like the hot-row cache, stay warm between calls).

Backend-name contract
---------------------
A backend name is ``<base>`` or ``<base>+<feature>`` where ``<base>`` is a
communication strategy (``"pgas"`` — fused one-sided writes — or
``"baseline"`` — NCCL-style collectives) and ``<feature>`` is a transform
layered on top of it.  :func:`~repro.core.factory.parse_backend_name` keeps
the grammar and :func:`adapter_class` gives the meaning: a bare base is
:class:`BaseRetrieval` itself, and each feature is a subclass that names
its ``suffix``, its :class:`~repro.core.factory.FeatureSpec` field and
config type, and the ``descriptions`` of the bases it serves.  Defining
the class records it in :data:`FEATURE_ADAPTERS` (a second class with a
taken suffix raises) and its config in :data:`FEATURE_CONFIGS`:

* ``+hier`` — :class:`HierRetrieval`, ``hier``: a
  :class:`repro.comm.hier.HierSpec`;
* ``+cache`` — :class:`repro.cache.CachedRetrieval`, ``cache``: a
  ``CacheConfig`` (the only feature that *requires index values*);
* ``+compress`` — :class:`repro.compress.CompressedRetrieval`,
  ``compression``: a ``CompressionSpec``;
* ``+resilient`` — :class:`repro.faults.ResilientRetrieval`,
  ``resilience``: a ``ResilienceSpec``;
* ``+replicated`` — :class:`repro.replication.ReplicatedRetrieval`,
  ``replication``: a ``ReplicationSpec``;
* ``+reshard`` — :class:`repro.reshard.ReshardRetrieval`, ``reshard``: a
  ``ReshardSpec``.

Code that needs a capability reads the class or the parsed name
(``adapter_class(name).requires_indices``,
``"cache" in parse_backend_name(name)[1]``).

Stacking features (two or more ``+<feature>`` suffixes, e.g.
``"pgas+compress+resilient"``) has no defined semantics yet:
:func:`~repro.core.factory.parse_backend_name` raises a ``ValueError``
naming the combination and the canonical composition order rather than
silently picking one wrapper order.

Example
-------
>>> from repro import DistributedEmbedding, WorkloadConfig, SyntheticDataGenerator
>>> cfg = WorkloadConfig(num_tables=8, rows_per_table=1000, dim=16,
...                      batch_size=64, max_pooling=8)
>>> emb = DistributedEmbedding(cfg, n_devices=2, backend="pgas", materialize=True)
>>> batch = SyntheticDataGenerator(cfg).sparse_batch()
>>> result = emb.forward(batch)
>>> [o.shape for o in result.outputs]
[(32, 8, 16), (32, 8, 16)]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

import numpy as np

from ..comm.collective import CollectiveSpec
from ..comm.hier import HierSpec
from ..comm.pgas import PGASSpec
from ..dlrm.batch import SparseBatch
from ..dlrm.data import WorkloadConfig
from ..dlrm.embedding import EmbeddingBagCollection, EmbeddingTable, EmbeddingTableConfig
from ..obs import TraceSpec, trace_scope
from ..simgpu.cluster import Cluster, dgx_v100, multinode
from ..simgpu.memory import Buffer
from ..simgpu.profiler import TraceRef
from .baseline import BaselineRetrieval, BatchStart, PhaseTiming
from .factory import FeatureSpec, parse_backend_name
from .functional import ShardedEmbeddingTables, functional_forward
from .pgas_retrieval import PGASFusedRetrieval
from .sharding import TableWiseSharding
from .workload import DeviceWorkload, build_device_workloads, lengths_from_batch

__all__ = [
    "BackendName",
    "BaseRetrieval",
    "DistributedEmbedding",
    "EmbeddingHost",
    "FEATURE_ADAPTERS",
    "FEATURE_CONFIGS",
    "ForwardResult",
    "HierRetrieval",
    "adapter_class",
    "available_backends",
    "base_engine",
]

#: A backend name: ``"pgas"``, ``"baseline"`` or ``"<base>+<feature>"``.
BackendName = str

#: :class:`~repro.core.factory.FeatureSpec` field -> its config class: the
#: one declaration of what each feature section holds.  Every feature
#: adapter class adds its ``config_field``/``spec_type`` when it is
#: defined; ``obs`` configures the host, not an adapter.
FEATURE_CONFIGS: Dict[str, type] = {"obs": TraceSpec}

#: Backend-name feature suffix -> the :class:`BaseRetrieval` subclass that
#: serves it, recorded as each feature adapter class is defined.
FEATURE_ADAPTERS: Dict[str, Type["BaseRetrieval"]] = {}


def base_engine(
    base: str,
    cluster: Cluster,
    collective_spec: Optional[CollectiveSpec] = None,
    pgas_spec: Optional[PGASSpec] = None,
    hier_spec: Optional[HierSpec] = None,
) -> Union[PGASFusedRetrieval, BaselineRetrieval]:
    """The timed engine of one base communication strategy.

    The only place a backend's base name turns into an engine: the base
    adapter and every feature wrapper build theirs here, so an unknown
    base fails the same way everywhere.
    """
    if base == "pgas":
        return PGASFusedRetrieval(cluster, pgas_spec, hier_spec=hier_spec)
    if base == "baseline":
        return BaselineRetrieval(cluster, collective_spec, hier_spec=hier_spec)
    raise ValueError(f"unknown base backend {base!r} (use 'pgas' or 'baseline')")


@dataclass
class ForwardResult:
    """Outcome of one distributed EMB forward call.

    ``outputs`` is the per-device list of ``(B_g, F, d)`` tensors when the
    module is materialised, else ``None`` (timing-only run).
    """

    timing: PhaseTiming
    outputs: Optional[List[np.ndarray]] = None

    @property
    def total_ms(self) -> float:
        """Simulated wall time in milliseconds."""
        return self.timing.total_ns / 1e6


class BaseRetrieval:
    """A base strategy's timed engine, and the base of every feature adapter.

    The adapter behind ``"pgas"`` and ``"baseline"``.  An adapter is bound
    to a single :class:`EmbeddingHost` and lives as long as it does, so it
    may keep cross-batch state (the hot-row cache relies on this).  A
    ``+<feature>`` adapter subclasses it, sets the class attributes below
    and overrides only what its feature changes; standalone use takes a
    cluster plus sharding plan, a host builds one with :meth:`from_host`.
    The shared plumbing: the device-count check, the config default and
    type check, the engine, the table-name → weights map, the
    materialised-weights guard and the pass-through timed and functional
    paths.

    :meth:`batch_process` is the one timed entry point: a host's own
    forward runs it alone on the cluster (:meth:`run_timed`), and the
    inference pipeline runs it beside the dense MLP.
    """

    #: backend-name suffix this class serves (None: the bare base strategies)
    suffix: Optional[str] = None
    #: the FeatureSpec field carrying this adapter's config
    config_field: Optional[str] = None
    #: that config's type (None: the adapter takes no config)
    spec_type: Optional[type] = None
    #: the cost model depends on index values, not just jagged lengths, so
    #: :meth:`DistributedEmbedding.forward_timed` cannot serve it
    requires_indices: bool = False
    #: base strategy -> description of the backend ``<base>[+<suffix>]``;
    #: its keys are the bases this class serves
    descriptions: Mapping[str, str] = {
        "pgas": "fused one-sided PGAS-style writes (compute/comm overlapped)",
        "baseline": "NCCL-style collective: compute, all-to-all, unpack",
    }

    def __init_subclass__(cls, **kwargs) -> None:
        """Record a subclass that sets ``suffix`` as that feature's adapter
        in :data:`FEATURE_ADAPTERS`, and its config in :data:`FEATURE_CONFIGS`."""
        super().__init_subclass__(**kwargs)
        suffix = cls.__dict__.get("suffix")
        if suffix is None:
            return
        if suffix in FEATURE_ADAPTERS:
            raise ValueError(
                f"backend suffix {suffix!r} is already served by "
                f"{FEATURE_ADAPTERS[suffix].__qualname__}"
            )
        FEATURE_ADAPTERS[suffix] = cls
        if cls.config_field is not None:
            FEATURE_CONFIGS[cls.config_field] = cls.spec_type

    def __init__(
        self,
        cluster: Cluster,
        plan: TableWiseSharding,
        spec: Optional[object] = None,
        *,
        base: str = "pgas",
        collective_spec: Optional[CollectiveSpec] = None,
        pgas_spec: Optional[PGASSpec] = None,
        sharded: Optional[ShardedEmbeddingTables] = None,
    ):
        if cluster.n_devices != plan.n_devices:
            raise ValueError(
                f"cluster has {cluster.n_devices} devices, plan has {plan.n_devices}"
            )
        self.cluster = cluster
        self.table_plan = plan
        self.base_name = base
        self.spec = self.checked_spec(spec)
        self.sharded = sharded
        self._tables: Dict[str, EmbeddingTable] = (
            {t.name: t for tables in sharded.per_device for t in tables}
            if sharded is not None
            else {}
        )
        self._attach()
        self.base = self._engine(collective_spec, pgas_spec)  # the timed engine

    @classmethod
    def checked_spec(cls, spec: Optional[object]) -> Optional[object]:
        """``spec``, or the config's default when None; a config of the
        wrong type raises ``TypeError`` naming the expected class."""
        if cls.spec_type is None:
            return None
        if spec is None:
            return cls.spec_type()
        if not isinstance(spec, cls.spec_type):
            raise TypeError(
                f"{cls.config_field} must be a {cls.spec_type.__module__}."
                f"{cls.spec_type.__name__}, got {type(spec).__name__}"
            )
        return spec

    @classmethod
    def from_host(cls, host: "EmbeddingHost", base: str, **kwargs) -> "BaseRetrieval":
        """The adapter bound to ``host``: its cluster, plan, comm specs,
        weights and this class's config; ``kwargs`` pass to the constructor."""
        return cls(
            host.cluster,
            host.plan,
            getattr(host.features, cls.config_field) if cls.config_field else None,
            base=base,
            collective_spec=host.collective_spec,
            pgas_spec=host.pgas_spec,
            sharded=host.sharded,
            **kwargs,
        )

    def _attach(self) -> None:
        """A feature's own setup, run once the shared state is set and
        before the engine is built (:meth:`_engine` may depend on it)."""

    def _engine(
        self, collective_spec: Optional[CollectiveSpec], pgas_spec: Optional[PGASSpec]
    ) -> Union[PGASFusedRetrieval, BaselineRetrieval]:
        return base_engine(self.base_name, self.cluster, collective_spec, pgas_spec)

    def _weights_of(self, table_name: str) -> Optional[np.ndarray]:
        """A table's weights (None on a timing-only adapter)."""
        table = self._tables.get(table_name)
        return table.weights if table is not None else None

    def _materialized(
        self, owners: Optional[Mapping[str, int]] = None
    ) -> ShardedEmbeddingTables:
        """The materialised tables, re-homed under ``owners`` when given."""
        if self.sharded is None:
            raise ValueError("functional forward needs materialize=True weights")
        return self.sharded if owners is None else self.sharded.rehomed(owners)

    def _count(self, name: str, value: float, unit: str = "bytes") -> None:
        """Stamp ``value`` on profiler counter ``name`` at the current instant."""
        self.cluster.profiler.add_count(name, self.cluster.engine.now, float(value), unit=unit)

    def batch_process(
        self,
        cluster: Cluster,
        workloads: Sequence[DeviceWorkload],
        timing: PhaseTiming,
        *,
        batch: Optional[SparseBatch] = None,
        stream_suffix: str = "",
    ) -> BatchStart:
        """The engine's host program for one batch (:data:`BatchStart`)."""
        return self.base.batch_process(
            cluster, workloads, timing, stream_suffix=stream_suffix
        )

    def run_timed(
        self,
        workloads: Sequence[DeviceWorkload],
        batch: Optional[SparseBatch] = None,
    ) -> PhaseTiming:
        """Simulate one batch alone on the cluster; returns its phase timing."""
        timing = PhaseTiming(batches=1)
        start = self.batch_process(self.cluster, workloads, timing, batch=batch)
        self.cluster.run(lambda cl: start())
        return timing

    def functional_forward(self, batch: SparseBatch) -> List[np.ndarray]:
        """The base strategy's numpy forward: per-device ``(B_g, F, d)``
        output tensors."""
        return functional_forward(self.base_name, self._materialized(), batch)

    def forward(
        self,
        workloads: Sequence[DeviceWorkload],
        batch: Optional[SparseBatch],
        functional: bool = False,
    ) -> Tuple[PhaseTiming, Optional[List[np.ndarray]]]:
        """Timed pass plus (when requested) the functional outputs.

        Adapters that derive both from shared per-batch state override this
        to avoid doing that work twice.
        """
        timing = self.run_timed(workloads, batch=batch)
        outputs = self.functional_forward(batch) if functional and batch is not None else None
        return timing, outputs

    def release(self) -> None:
        """Free device memory the adapter holds (the default holds none)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} base={self.base_name} spec={self.spec!r}>"


class HierRetrieval(BaseRetrieval):
    """The base adapter with hierarchical routing: ``"+hier"``.

    The engine runs with the host's :class:`~repro.comm.hier.HierSpec`
    (``devices_per_node=1`` — flat routing, valid for any device count —
    when none is configured).  An inactive spec leaves the flat path
    event-identical, and routing never touches payloads, so the
    functional path is the base strategy's either way.
    """

    suffix = "hier"
    config_field = "hier"
    spec_type = HierSpec
    descriptions = {
        "pgas": "PGAS retrieval with node-leader staging: off-node writes cross the "
                "NIC as one aggregated stream per node pair",
        "baseline": "collective retrieval with a two-level all-to-all: NVLink "
                    "gather/scatter around one coalesced NIC transfer per node pair",
    }

    @classmethod
    def checked_spec(cls, spec: Optional[object]) -> HierSpec:
        return super().checked_spec(HierSpec(devices_per_node=1) if spec is None else spec)

    @property
    def hier_spec(self) -> HierSpec:
        """The routing spec the engine runs with."""
        return self.spec

    def _engine(self, collective_spec, pgas_spec):
        return base_engine(self.base_name, self.cluster, collective_spec, pgas_spec, self.spec)


def adapter_class(name: BackendName) -> Type[BaseRetrieval]:
    """The adapter class backend ``name`` resolves to.

    :func:`~repro.core.factory.parse_backend_name` rejects malformed names
    and feature stacks; a bare base resolves to :class:`BaseRetrieval` and
    a ``+<feature>`` name to its :data:`FEATURE_ADAPTERS` entry.  A base
    the class does not serve raises naming every available backend.
    """
    base, features = parse_backend_name(name)
    cls = FEATURE_ADAPTERS.get(features[0]) if features else BaseRetrieval
    if cls is None or base not in cls.descriptions:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        )
    return cls


def available_backends() -> List[BackendName]:
    """Every backend name, sorted: ``<base>[+<suffix>]`` for each adapter
    class and each base in its ``descriptions``."""
    return sorted(
        f"{base}+{cls.suffix}" if cls.suffix else base
        for cls in (BaseRetrieval, *FEATURE_ADAPTERS.values())
        for base in cls.descriptions
    )


class EmbeddingHost:
    """What backend adapters are built from, plus the per-host adapter cache.

    :class:`DistributedEmbedding` and
    :class:`~repro.core.pipeline.DLRMInferencePipeline` both derive from
    it, so every backend builds for either through its adapter class's
    :meth:`~BaseRetrieval.from_host`, which reads ``cluster``, ``plan``, ``features``,
    ``collective_spec``, ``pgas_spec``, ``sharded`` and
    :meth:`weight_buffer_map`.
    """

    plan: TableWiseSharding
    #: materialised per-device tables (None on a timing-only host)
    sharded: Optional[ShardedEmbeddingTables] = None

    def __init__(
        self,
        backend: BackendName,
        n_devices: int,
        cluster: Optional[Cluster],
        features: Optional[FeatureSpec],
        collective_spec: Optional[CollectiveSpec],
        pgas_spec: Optional[PGASSpec],
    ):
        """Validate the backend name and feature bundle; resolve the cluster.

        For a ``"+hier"`` backend with a configured node geometry and no
        explicit ``cluster``, a matching multi-node cluster (NVLink within
        nodes, NIC across) is built.
        """
        adapter_cls = adapter_class(backend)  # malformed or unknown names raise here
        self.features: FeatureSpec = features or FeatureSpec()
        obs = self.features.obs
        if obs is not None and not isinstance(obs, TraceSpec):
            raise TypeError(f"obs must be a repro.obs.TraceSpec, got {type(obs).__name__}")
        if cluster is None and adapter_cls is HierRetrieval:
            hier = HierRetrieval.checked_spec(self.features.hier)
            hier.validate_for(n_devices)
            if hier.devices_per_node > 1:
                cluster = multinode(
                    n_devices // hier.devices_per_node, hier.devices_per_node
                )
        self.backend: BackendName = backend
        self.cluster = cluster or dgx_v100(n_devices)
        if self.cluster.n_devices != n_devices:
            raise ValueError(
                f"cluster has {self.cluster.n_devices} devices, asked for {n_devices}"
            )
        self.collective_spec = collective_spec
        self.pgas_spec = pgas_spec
        self._adapters: Dict[str, BaseRetrieval] = {}
        self._weight_buffers: Optional[Dict[str, Buffer]] = None
        # Monotone batch counter for trace refs (one per traced batch).
        self._trace_seq = 0

    def backend_adapter(self, name: Optional[BackendName] = None) -> BaseRetrieval:
        """The (lazily created, then persistent) adapter for a backend."""
        be = name or self.backend
        adapter = self._adapters.get(be) if isinstance(be, str) else None
        if adapter is None:
            base = parse_backend_name(be)[0]
            adapter = self._adapters[be] = adapter_class(be).from_host(self, base)
        return adapter

    def weight_buffer_map(self) -> Dict[str, Buffer]:
        """Live table-name → weight :class:`~repro.simgpu.memory.Buffer` map.

        The first call registers every table's weights with its owner's
        memory accountant, one :meth:`~repro.simgpu.memory.MemoryPool.alloc_many`
        step per device.  The reshard executor mutates this map at
        migration cutover (frees the old owner's buffer, installs the
        destination's), so it always reflects where each table's weights
        are accounted *right now*.
        """
        if self._weight_buffers is None:
            weights: Dict[str, Buffer] = {}
            for dev in self.cluster.devices:
                cfgs = self.plan.tables_on(dev.id)
                bufs = dev.memory.alloc_many(
                    [(cfg.num_rows, cfg.dim) for cfg in cfgs],
                    [cfg.dtype for cfg in cfgs],
                    [f"weights.{cfg.name}" for cfg in cfgs],
                )
                weights.update(zip((cfg.name for cfg in cfgs), bufs))
            self._weight_buffers = weights
        return self._weight_buffers

    def _next_trace_ref(self) -> Optional[TraceRef]:
        """The next batch's trace ref, or None when tracing is off."""
        obs = self.features.obs
        if obs is None or not obs.enabled:
            return None
        ref = TraceRef(obs.trace_id, self._trace_seq)
        self._trace_seq += 1
        return ref


class DistributedEmbedding(EmbeddingHost):
    """Multi-GPU embedding retrieval with a pluggable communication backend."""

    def __init__(
        self,
        tables: Union[WorkloadConfig, Sequence[EmbeddingTableConfig]],
        n_devices: int,
        *,
        backend: BackendName = "pgas",
        cluster: Optional[Cluster] = None,
        materialize: bool = False,
        collective_spec: Optional[CollectiveSpec] = None,
        pgas_spec: Optional[PGASSpec] = None,
        features: Optional[FeatureSpec] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        """``features`` is the :class:`~repro.core.factory.FeatureSpec`
        bundling every per-feature config: ``cache`` for the ``"+cache"``
        backends, ``resilience`` for ``"+resilient"``, ``compression``
        for ``"+compress"``, ``replication`` for ``"+replicated"``,
        ``reshard`` for ``"+reshard"``, ``hier`` for ``"+hier"`` (each
        ignored by the other backends), and ``obs`` — a
        :class:`repro.obs.TraceSpec` enabling trace-context propagation
        for any backend (None or ``enabled=False`` keeps every backend
        bit-identical to an untraced run).

        For a ``"+hier"`` backend with a configured node geometry and no
        explicit ``cluster``, a matching multi-node cluster (NVLink within
        nodes, NIC across) is built automatically."""
        super().__init__(backend, n_devices, cluster, features, collective_spec, pgas_spec)
        if isinstance(tables, WorkloadConfig):
            table_configs = tables.table_configs()
        else:
            table_configs = list(tables)
        self.plan = TableWiseSharding(table_configs, n_devices)
        self.plan.validate()
        # Account every table's weights up front, so paper-scale shapes hit
        # the real per-device capacity wall at construction.
        self.weight_buffer_map()
        if materialize:
            ebc = EmbeddingBagCollection.from_configs(table_configs, rng=rng)
            self.sharded = ShardedEmbeddingTables.from_collection(ebc, self.plan)

    # -- properties -------------------------------------------------------------

    @property
    def n_devices(self) -> int:
        """Device count."""
        return self.cluster.n_devices

    # -- forward ----------------------------------------------------------------

    def _batch_trace_scope(self):
        """Context manager installing the next batch's trace ref (or a no-op).

        The entire synchronous ``cluster.run`` of one forward belongs to one
        batch, so scoping ``active_trace`` around the adapter call attributes
        every span the engine records — phase spans, kernel waves, link
        transfers — to that batch's :class:`~repro.simgpu.profiler.TraceRef`.
        """
        ref = self._next_trace_ref()
        return trace_scope(self.cluster.profiler if ref is not None else None, ref)

    def build_workloads(
        self, lengths_by_feature: Mapping[str, np.ndarray]
    ) -> List[DeviceWorkload]:
        """Derive the per-device simulator workloads for one batch."""
        return build_device_workloads(self.plan, lengths_by_feature)

    def forward(self, batch: SparseBatch, backend: Optional[BackendName] = None) -> ForwardResult:
        """Run one batch: timed always; functional when materialised.

        ``backend`` overrides the instance default for this call — handy
        for A/B comparisons on identical inputs.
        """
        adapter = self.backend_adapter(backend)
        workloads = self.build_workloads(lengths_from_batch(batch))
        with self._batch_trace_scope():
            timing, outputs = adapter.forward(
                workloads, batch, functional=self.sharded is not None
            )
        return ForwardResult(timing=timing, outputs=outputs)

    def forward_timed(
        self,
        lengths_by_feature: Mapping[str, np.ndarray],
        backend: Optional[BackendName] = None,
    ) -> PhaseTiming:
        """Timing-only forward from pooling factors (paper-scale safe)."""
        be = backend or self.backend
        adapter = self.backend_adapter(be)
        if adapter.requires_indices:
            raise ValueError(
                f"backend {be!r} needs index values; use forward() with a SparseBatch"
            )
        workloads = self.build_workloads(lengths_by_feature)
        with self._batch_trace_scope():
            return adapter.run_timed(workloads)

    # -- telemetry --------------------------------------------------------------

    def telemetry_report(
        self,
        timing: Optional[PhaseTiming] = None,
        *,
        workload: Optional[WorkloadConfig] = None,
        **kwargs,
    ):
        """Full :class:`~repro.telemetry.RunReport` of the batches run so far.

        Derives gauges and metrics from the cluster's profiler record (so
        call it *after* the forward passes of interest; ``reset_profiler``
        between phases isolates them).  ``timing`` attaches an accumulated
        :class:`PhaseTiming`; extra ``kwargs`` pass to
        :func:`repro.telemetry.collect_run_report`.
        """
        from ..telemetry import collect_run_report

        return collect_run_report(
            self.cluster.profiler,
            backend=self.backend,
            n_devices=self.n_devices,
            workload=workload,
            timing=timing,
            topology=self.cluster.topology,
            **kwargs,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DistributedEmbedding backend={self.backend} G={self.n_devices} "
            f"T={self.plan.num_tables} materialized={self.sharded is not None}>"
        )
