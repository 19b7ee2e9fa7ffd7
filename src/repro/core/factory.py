"""Backend factory: backend-name grammar, feature configs, built embeddings.

* :class:`FeatureSpec` — the one bag of per-feature configs
  (cache / resilience / compression / replication / reshard / hier /
  obs) that :class:`~repro.core.retrieval.DistributedEmbedding` and
  :class:`~repro.core.pipeline.DLRMInferencePipeline` take as their
  ``features=`` keyword;
* :func:`parse_backend_name` — the one backend-name parser: splits
  ``"<base>+<feature>"`` names and rejects malformed stacks (non-``str``
  names, empty segments, unknown features, duplicate features,
  multi-feature stacks) with errors that name the offending stack.  What
  a parsed name *means* is its adapter class,
  :func:`~repro.core.retrieval.adapter_class`, whose
  :meth:`~repro.core.retrieval.BaseRetrieval.from_host` builds the EMB
  stage of the embedding module, the inference pipeline, the serving
  loop and the training step alike;
* :func:`build_backend` — the top-level entry: a fully-composed
  :class:`~repro.core.retrieval.DistributedEmbedding` from a
  :class:`~repro.core.runspec.RunSpec` alone, adapter pre-built so
  composition errors surface at construction, not first forward.

``CANONICAL_FEATURE_ORDER`` lists the feature suffixes, innermost
(closest to the base communication strategy) first: the order a stack of
features would compose in.  Stacks are not defined yet, so the parser
refuses them and names this order in the error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "CANONICAL_FEATURE_ORDER",
    "FeatureSpec",
    "build_backend",
    "parse_backend_name",
]

#: The feature suffixes in composition order, innermost (closest to the
#: base communication strategy) first.
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
        (topology-aware hierarchical routing over a node geometry).
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


def parse_backend_name(name: str) -> Tuple[str, Tuple[str, ...]]:
    """Split a backend name into ``(base, features)`` per the contract.

    The one backend-name parser: every caller that needs a name's base or
    features goes through it.  It rejects a name that is not a ``str``
    (``TypeError``), an empty name, empty segments, unknown feature
    suffixes, duplicates, and more than one feature: a longer stack has
    no defined composition order yet, and the error names the stack and
    the canonical order a composition would follow.
    """
    if not isinstance(name, str):
        raise TypeError(f"backend name must be a str, got {type(name).__name__}")
    if not name:
        raise ValueError("backend name must be non-empty")
    parts = name.split("+")
    if any(not part for part in parts):
        raise ValueError(
            f"malformed backend name {name!r}: empty base or feature segment "
            f"(expected '<base>' or '<base>+<feature>[+<feature>...]')"
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
            f"({' + '.join(features)}), which have no defined composition "
            f"order yet; a composition would wrap in canonical order "
            f"{' -> '.join(CANONICAL_FEATURE_ORDER)} (innermost first)"
        )
    return base, features


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
