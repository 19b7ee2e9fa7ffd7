"""Unified backend factory: the one place a backend name becomes an adapter.

This module is the single place that knows how a backend name
decomposes and how an adapter is built for it:

* :class:`FeatureSpec` — the one bag of per-feature configs
  (cache / resilience / compression / replication / reshard / hier /
  obs) that :class:`~repro.core.retrieval.DistributedEmbedding` and
  :class:`~repro.core.pipeline.DLRMInferencePipeline` take as their
  ``features=`` keyword;
* :func:`parse_backend_name` — the one backend-name parser: splits
  ``"<base>+<feature>"`` names and rejects malformed stacks (empty
  segments, unknown features, duplicate features, multi-feature stacks)
  with errors that name the offending stack;
* :func:`build_adapter` — builds the adapter for any registered backend
  name.  Each adapter class registers its own backends and builds from a
  host with :meth:`~repro.core.retrieval.BaseRetrieval.from_host`, so
  the embedding module, the inference pipeline, the serving loop and the
  training step all build their EMB stage through one classmethod;
* :func:`build_backend` — the top-level entry: a fully-composed
  :class:`~repro.core.retrieval.DistributedEmbedding` from a
  :class:`~repro.core.runspec.RunSpec` alone, adapter pre-built so
  composition errors surface at construction, not first forward.

``CANONICAL_FEATURE_ORDER`` fixes the composition order feature wrappers
take when a composed backend is ever registered: innermost first.  The
registry still refuses unregistered multi-feature stacks — the order
constant makes the refusal principled instead of arbitrary.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Tuple

__all__ = [
    "CANONICAL_FEATURE_ORDER",
    "FeatureSpec",
    "build_adapter",
    "build_backend",
    "parse_backend_name",
]

#: Composition order for feature wrappers, innermost (closest to the base
#: communication strategy) first.  Single-feature stacks are unaffected;
#: any explicitly registered composed backend must wrap in this order.
CANONICAL_FEATURE_ORDER: Tuple[str, ...] = (
    "hier",
    "cache",
    "compress",
    "resilient",
    "replicated",
    "reshard",
)


@dataclass(frozen=True)
class FeatureSpec:
    """Per-feature configuration bundle of one EMB host.

    Each field configures the wrapper the matching ``+<feature>`` backend
    suffix selects; fields for features the chosen backend does not use
    are ignored (a spec can be shared across A/B backend comparisons).
    Field types are validated where they are consumed — the ``obs``
    section at host construction, each feature config when its adapter
    is built — so a ``FeatureSpec`` never imports feature packages it
    does not mention.

    Attributes
    ----------
    cache:
        :class:`repro.cache.CacheConfig` for the ``"+cache"`` backends.
    resilience:
        :class:`repro.faults.ResilienceSpec` for ``"+resilient"``.
    compression:
        :class:`repro.compress.CompressionSpec` for ``"+compress"``.
    replication:
        :class:`repro.replication.ReplicationSpec` for ``"+replicated"``.
    reshard:
        :class:`repro.reshard.ReshardSpec` for ``"+reshard"``.
    hier:
        :class:`repro.comm.hier.HierSpec` for the ``"+hier"`` backends
        (topology-aware hierarchical routing: node geometry, staging
        flush policy, coalesced NIC framing).
    obs:
        :class:`repro.obs.TraceSpec`; enables trace-context propagation
        for every backend (None or disabled stays bit-identical).
    """

    cache: Optional[object] = None
    resilience: Optional[object] = None
    compression: Optional[object] = None
    replication: Optional[object] = None
    reshard: Optional[object] = None
    hier: Optional[object] = None
    obs: Optional[object] = None

    def configured(self) -> Tuple[str, ...]:
        """Names of the fields that are set, in declaration order."""
        return tuple(f.name for f in fields(self) if getattr(self, f.name) is not None)


def parse_backend_name(name: str, *, strict: bool = True) -> Tuple[str, Tuple[str, ...]]:
    """Split a backend name into ``(base, features)`` per the contract.

    The one backend-name parser: registration, lookup, the
    :class:`~repro.core.retrieval.BackendInfo` view and every caller that
    needs a name's base or features go through it.  It always rejects an
    empty name and empty segments.  ``strict`` (the default) also
    enforces the rest of the contract — known feature suffixes, no
    duplicates, and at most one feature: a longer stack has no defined
    composition order unless registered explicitly, and the error names
    the stack and the canonical order a registered composition would have
    to follow.  Registration and the view of registered names pass
    ``strict=False``, since a registered name defines its own stack.
    """
    if not name:
        raise ValueError("backend name must be non-empty")
    parts = name.split("+")
    if any(not part for part in parts):
        raise ValueError(
            f"malformed backend name {name!r}: empty base or feature segment "
            f"(expected '<base>' or '<base>+<feature>[+<feature>...]')"
        )
    base, features = parts[0], tuple(parts[1:])
    if not strict:
        return base, features
    unknown = [f for f in features if f not in CANONICAL_FEATURE_ORDER]
    if unknown:
        raise ValueError(
            f"malformed backend stack {name!r}: unknown feature(s) "
            f"{', '.join(repr(f) for f in unknown)}; known features: "
            f"{', '.join(CANONICAL_FEATURE_ORDER)}"
        )
    seen = set()
    dups = [f for f in features if f in seen or seen.add(f)]
    if dups:
        raise ValueError(
            f"malformed backend stack {name!r}: duplicate feature(s) "
            f"{', '.join(repr(f) for f in sorted(set(dups)))}"
        )
    if len(features) >= 2:
        raise ValueError(
            f"backend stack {name!r} composes {len(features)} features "
            f"({' + '.join(features)}), which have no defined composition "
            f"order unless the composed backend is registered explicitly, "
            f"wrapping in canonical order {' -> '.join(CANONICAL_FEATURE_ORDER)} "
            f"(innermost first)"
        )
    return base, features


def build_adapter(host, name: str):
    """Build the retrieval adapter for backend ``name`` bound to ``host``.

    ``host`` is a :class:`~repro.core.retrieval.EmbeddingHost` — a
    ``DistributedEmbedding`` or an inference pipeline.  Every registered
    backend is one adapter class's
    :meth:`~repro.core.retrieval.BaseRetrieval.from_host`, registered by
    the class itself, so this is the registry entry's factory; the
    embedding module, the inference pipeline, the serving loop and the
    training step all build their EMB stage through it.
    """
    from .retrieval import backend_spec

    return backend_spec(name).factory(host)


def build_backend(
    runspec,
    *,
    materialize: bool = False,
    cluster=None,
    rng=None,
    **overrides,
):
    """A fully-composed :class:`~repro.core.retrieval.DistributedEmbedding`
    from a :class:`~repro.core.runspec.RunSpec` alone.

    Every feature section the spec carries lands in the instance's
    :class:`FeatureSpec` (:meth:`~repro.core.runspec.RunSpec.feature_spec`);
    the backend adapter is built eagerly, so a malformed stack or a bad
    config fails here, loudly, instead of at the first forward.
    ``overrides`` pass through to the constructor (e.g. ``backend=...``
    for A/B runs on one spec).
    """
    from .retrieval import DistributedEmbedding

    kwargs = dict(
        backend=runspec.backend,
        features=runspec.feature_spec(),
        materialize=materialize,
        cluster=cluster,
        rng=rng,
    )
    kwargs.update(overrides)
    emb = DistributedEmbedding(runspec.workload, runspec.n_devices, **kwargs)
    emb.backend_adapter()
    return emb
