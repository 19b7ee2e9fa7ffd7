"""Unified backend factory: the one place a backend name becomes an adapter.

This module is the single place that knows how a backend name
decomposes and how the feature wrappers attach:

* :class:`FeatureSpec` — the one bag of per-feature configs
  (cache / resilience / compression / replication / reshard / hier /
  obs) that :class:`~repro.core.retrieval.DistributedEmbedding` and
  :class:`~repro.core.pipeline.DLRMInferencePipeline` take as their
  ``features=`` keyword;
* :func:`parse_backend_name` — splits ``"<base>+<feature>"`` names and
  rejects malformed stacks (empty segments, unknown features, duplicate
  features, multi-feature stacks) with errors that name the offending
  stack;
* :func:`build_adapter` — builds the adapter for any registered backend
  name from the parsed form; every registry entry is a thin alias over
  this function, so the embedding module, the inference pipeline, the
  serving loop and the training step all build their EMB stage here;
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

import importlib
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

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

#: wrapper feature suffix → (defining module, adapter-builder function).
#: ``hier`` has no wrapper: a ``"+hier"`` name builds the base adapter
#: with its HierSpec attached.  The module import is deferred to adapter
#: build time so ``repro.core`` never imports the feature packages (they
#: import *it* to register themselves).
_FEATURE_BUILDERS: Dict[str, Tuple[str, str]] = {
    "cache": ("repro.cache", "cached_retrieval_for"),
    "compress": ("repro.compress", "compressed_retrieval_for"),
    "resilient": ("repro.faults", "resilient_retrieval_for"),
    "replicated": ("repro.replication", "replicated_retrieval_for"),
    "reshard": ("repro.reshard", "reshard_retrieval_for"),
}

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


def parse_backend_name(name: str) -> Tuple[str, Tuple[str, ...]]:
    """Split a backend name into ``(base, features)`` per the contract.

    Enforces the backend-name contract mechanically: non-empty segments,
    known feature suffixes, no duplicates, and at most one feature (a
    longer stack has no registered composition — the error names the
    offending stack and the canonical order a registered composition
    would have to follow).
    """
    if not name:
        raise ValueError("backend name must be non-empty")
    parts = name.split("+")
    if any(not part for part in parts):
        raise ValueError(
            f"malformed backend name {name!r}: empty base or feature segment "
            f"(expected '<base>' or '<base>+<feature>')"
        )
    base, features = parts[0], tuple(parts[1:])
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
            f"({' + '.join(features)}); multi-feature stacks are only valid "
            f"when registered explicitly, wrapping in canonical order "
            f"{' -> '.join(CANONICAL_FEATURE_ORDER)} (innermost first)"
        )
    return base, features


def build_adapter(host, name: str):
    """Build the retrieval adapter for backend ``name`` bound to ``host``.

    ``host`` is a :class:`~repro.core.retrieval.EmbeddingHost` — a
    ``DistributedEmbedding`` or an inference pipeline.  The shared
    implementation behind every registered backend: registry entries are
    thin ``lambda host: build_adapter(host, name)`` aliases, so
    composition lives in exactly one place.  Bare base names and
    ``"+hier"`` build the base adapter; every other feature builds its
    wrapper around the same base engine.
    """
    base, features = parse_backend_name(name)
    if not features or features == ("hier",):
        from .retrieval import BaseRetrieval

        return BaseRetrieval(host, base, hierarchical=bool(features))
    module_name, builder_name = _FEATURE_BUILDERS[features[0]]
    builder = getattr(importlib.import_module(module_name), builder_name)
    return builder(host, base)


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
