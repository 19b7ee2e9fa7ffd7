"""Unified run configuration: one frozen spec for a whole experiment.

Every layer of the stack has its own config object — workload shape
(:class:`~repro.dlrm.data.WorkloadConfig`), model shape around the EMB
layer (:class:`~repro.core.pipeline.PipelineConfig`), the hot-row cache
(:class:`repro.cache.CacheConfig`), the fault wrapper
(:class:`repro.faults.ResilienceSpec`), the serving load
(:class:`~repro.core.serving.ServingSpec`) and the continuous-batching
scheduler (:class:`~repro.core.serving.SchedulerSpec`).  :class:`RunSpec`
composes them into a single validated, serialisable value that every
entry point builds from:

>>> from repro import RunSpec, build_backend, preset_runspec
>>> spec = preset_runspec("tiny", n_devices=2)
>>> emb = build_backend(spec)                           # doctest: +SKIP
>>> pipe = DLRMInferencePipeline.from_spec(spec)        # doctest: +SKIP
>>> srv = InferenceServer.from_spec(spec)               # doctest: +SKIP

``to_dict``/``from_dict`` round-trip bit-exact (and ``from_json`` accepts
the JSON form), so a run's full configuration can live in an artifact,
a CI matrix entry, or a bug report, and reproduce the run byte-for-byte.
The CLI presets (``tiny``/``weak``/``strong``) are :func:`preset_runspec`
instances; keyword construction of the underlying configs keeps working
unchanged.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Literal, Optional, Tuple

from ..dlrm.data import STRONG_SCALING_TOTAL, WEAK_SCALING_BASE, WorkloadConfig
from .factory import FeatureSpec
from .pipeline import PipelineConfig
from .retrieval import BackendName, backend_spec
from .serving import SchedulerSpec, ServingSpec

__all__ = ["PRESETS", "RunSpec", "preset_runspec"]

#: named workload presets; ``weak``/``strong`` follow the paper's scaling
#: rules (§IV-A / §IV-B), ``tiny`` is the CI smoke configuration
PRESETS = ("tiny", "weak", "strong")


def _build_optional(cls, payload: Optional[Dict[str, Any]], section: str):
    """Rebuild an optional nested config from its dict form."""
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise TypeError(f"RunSpec section {section!r} must be a dict or null")
    return cls(**payload)


@dataclass(frozen=True)
class RunSpec:
    """One experiment's complete, validated configuration."""

    workload: WorkloadConfig
    n_devices: int = 2
    backend: BackendName = "pgas"
    bottom_mlp: Tuple[int, ...] = (512, 256)
    top_mlp: Tuple[int, ...] = (512, 256)
    interaction: Literal["dot", "cat", "sum"] = "dot"
    cache: Optional[object] = None  #: repro.cache.CacheConfig
    resilience: Optional[object] = None  #: repro.faults.ResilienceSpec
    compression: Optional[object] = None  #: repro.compress.CompressionSpec
    replication: Optional[object] = None  #: repro.replication.ReplicationSpec
    reshard: Optional[object] = None  #: repro.reshard.ReshardSpec
    hier: Optional[object] = None  #: repro.comm.hier.HierSpec
    obs: Optional[object] = None  #: repro.obs.TraceSpec
    serving: Optional[ServingSpec] = None
    scheduler: Optional[SchedulerSpec] = None  #: overrides serving.scheduler
    name: str = ""  #: free-form label (presets stamp theirs here)

    def __post_init__(self) -> None:
        if not isinstance(self.workload, WorkloadConfig):
            raise TypeError(
                f"RunSpec.workload must be a WorkloadConfig, "
                f"got {type(self.workload).__name__}"
            )
        if self.n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        backend_spec(self.backend)  # unknown backend names raise here
        for attr in ("bottom_mlp", "top_mlp"):
            sizes = tuple(int(s) for s in getattr(self, attr))
            if any(s <= 0 for s in sizes):
                raise ValueError(f"{attr} layer widths must be positive")
            object.__setattr__(self, attr, sizes)
        if self.interaction not in ("dot", "cat", "sum"):
            raise ValueError(f"unknown interaction {self.interaction!r}")
        if self.serving is not None and not isinstance(self.serving, ServingSpec):
            raise TypeError(
                f"RunSpec.serving must be a ServingSpec, "
                f"got {type(self.serving).__name__}"
            )
        if self.scheduler is not None and not isinstance(self.scheduler, SchedulerSpec):
            raise TypeError(
                f"RunSpec.scheduler must be a SchedulerSpec, "
                f"got {type(self.scheduler).__name__}"
            )
        if self.cache is not None:
            from ..cache import CacheConfig  # lazy: avoid import cycle

            if not isinstance(self.cache, CacheConfig):
                raise TypeError(
                    f"RunSpec.cache must be a repro.cache.CacheConfig, "
                    f"got {type(self.cache).__name__}"
                )
        if self.resilience is not None:
            from ..faults import ResilienceSpec  # lazy: avoid import cycle

            if not isinstance(self.resilience, ResilienceSpec):
                raise TypeError(
                    f"RunSpec.resilience must be a repro.faults.ResilienceSpec, "
                    f"got {type(self.resilience).__name__}"
                )
        if self.compression is not None:
            from ..compress import CompressionSpec  # lazy: avoid import cycle

            if not isinstance(self.compression, CompressionSpec):
                raise TypeError(
                    f"RunSpec.compression must be a repro.compress.CompressionSpec, "
                    f"got {type(self.compression).__name__}"
                )
        if self.replication is not None:
            from ..replication import ReplicationSpec  # lazy: avoid import cycle

            if not isinstance(self.replication, ReplicationSpec):
                raise TypeError(
                    f"RunSpec.replication must be a repro.replication.ReplicationSpec, "
                    f"got {type(self.replication).__name__}"
                )
        if self.reshard is not None:
            from ..reshard import ReshardSpec  # lazy: avoid import cycle

            if not isinstance(self.reshard, ReshardSpec):
                raise TypeError(
                    f"RunSpec.reshard must be a repro.reshard.ReshardSpec, "
                    f"got {type(self.reshard).__name__}"
                )
        if self.hier is not None:
            from ..comm.hier import HierSpec  # lazy: avoid import cycle

            if not isinstance(self.hier, HierSpec):
                raise TypeError(
                    f"RunSpec.hier must be a repro.comm.hier.HierSpec, "
                    f"got {type(self.hier).__name__}"
                )
        if self.obs is not None:
            from ..obs import TraceSpec  # lazy: avoid import cycle

            if not isinstance(self.obs, TraceSpec):
                raise TypeError(
                    f"RunSpec.obs must be a repro.obs.TraceSpec, "
                    f"got {type(self.obs).__name__}"
                )

    # -- derived section views ---------------------------------------------------

    def pipeline_config(self) -> PipelineConfig:
        """The model-shape section as a :class:`PipelineConfig`."""
        return PipelineConfig(
            workload=self.workload,
            bottom_mlp=self.bottom_mlp,
            top_mlp=self.top_mlp,
            interaction=self.interaction,
        )

    def feature_spec(self) -> FeatureSpec:
        """The per-feature sections as the :class:`FeatureSpec` every EMB
        host (embedding module, inference pipeline) is built from."""
        return FeatureSpec(**{f.name: getattr(self, f.name) for f in fields(FeatureSpec)})

    def serving_spec(self) -> ServingSpec:
        """The serving section, with the top-level scheduler merged in.

        A top-level ``scheduler`` overrides an absent ``serving.scheduler``
        (it never silently overrides an explicit one — that would make two
        places disagree about the same knob).
        """
        if self.serving is None:
            raise ValueError(
                "this RunSpec has no serving section; set serving=ServingSpec(...)"
            )
        if self.scheduler is not None and self.serving.scheduler is None:
            return replace(self.serving, scheduler=self.scheduler)
        return self.serving

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form; ``RunSpec.from_dict`` round-trips bit-exact."""
        return {
            "name": self.name,
            "n_devices": self.n_devices,
            "backend": str(self.backend),
            "workload": dataclasses.asdict(self.workload),
            "model": {
                "bottom_mlp": list(self.bottom_mlp),
                "top_mlp": list(self.top_mlp),
                "interaction": self.interaction,
            },
            "cache": dataclasses.asdict(self.cache) if self.cache else None,
            "resilience": (
                dataclasses.asdict(self.resilience) if self.resilience else None
            ),
            "compression": (
                dataclasses.asdict(self.compression) if self.compression else None
            ),
            "replication": (
                dataclasses.asdict(self.replication) if self.replication else None
            ),
            "reshard": dataclasses.asdict(self.reshard) if self.reshard else None,
            "hier": dataclasses.asdict(self.hier) if self.hier else None,
            "obs": dataclasses.asdict(self.obs) if self.obs else None,
            "serving": dataclasses.asdict(self.serving) if self.serving else None,
            "scheduler": (
                dataclasses.asdict(self.scheduler) if self.scheduler else None
            ),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict` (validates; unknown keys raise)."""
        if not isinstance(data, dict):
            raise TypeError(f"RunSpec payload must be a dict, got {type(data).__name__}")
        known = {
            "name", "n_devices", "backend", "workload", "model",
            "cache", "resilience", "compression", "replication",
            "reshard", "hier", "obs", "serving", "scheduler",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown RunSpec keys: {sorted(unknown)}")
        if "workload" not in data:
            raise ValueError("RunSpec payload needs a 'workload' section")
        from ..cache import CacheConfig  # lazy: avoid import cycle
        from ..comm.hier import HierSpec
        from ..compress import CompressionSpec
        from ..faults import ResilienceSpec
        from ..obs import TraceSpec
        from ..replication import ReplicationSpec
        from ..reshard import ReshardSpec

        model = dict(data.get("model") or {})
        serving_payload = data.get("serving")
        serving = None
        if serving_payload is not None:
            payload = dict(serving_payload)
            payload["cache"] = _build_optional(
                CacheConfig, payload.get("cache"), "serving.cache"
            )
            payload["resilience"] = _build_optional(
                ResilienceSpec, payload.get("resilience"), "serving.resilience"
            )
            payload["scheduler"] = _build_optional(
                SchedulerSpec, payload.get("scheduler"), "serving.scheduler"
            )
            serving = ServingSpec(**payload)
        return cls(
            workload=WorkloadConfig(**data["workload"]),
            n_devices=data.get("n_devices", 2),
            backend=data.get("backend", "pgas"),
            bottom_mlp=tuple(model.get("bottom_mlp", (512, 256))),
            top_mlp=tuple(model.get("top_mlp", (512, 256))),
            interaction=model.get("interaction", "dot"),
            cache=_build_optional(CacheConfig, data.get("cache"), "cache"),
            resilience=_build_optional(
                ResilienceSpec, data.get("resilience"), "resilience"
            ),
            compression=_build_optional(
                CompressionSpec, data.get("compression"), "compression"
            ),
            replication=_build_optional(
                ReplicationSpec, data.get("replication"), "replication"
            ),
            reshard=_build_optional(ReshardSpec, data.get("reshard"), "reshard"),
            hier=_build_optional(HierSpec, data.get("hier"), "hier"),
            obs=_build_optional(TraceSpec, data.get("obs"), "obs"),
            serving=serving,
            scheduler=_build_optional(
                SchedulerSpec, data.get("scheduler"), "scheduler"
            ),
            name=data.get("name", ""),
        )

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Canonical JSON form (sorted keys)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


def preset_runspec(preset: str, n_devices: int = 2, **overrides) -> RunSpec:
    """Resolve a named preset to a :class:`RunSpec` for ``n_devices`` GPUs.

    ``tiny`` is the CI smoke shape; ``weak`` applies the paper's §IV-A
    rule (64 tables *per GPU*); ``strong`` is the §IV-B fixed total.
    ``overrides`` replace any :class:`RunSpec` field (e.g. ``backend=...``
    or a ``serving=ServingSpec(...)`` section).
    """
    if preset == "tiny":
        workload = WorkloadConfig(
            num_tables=8, rows_per_table=4096, dim=16, batch_size=256, max_pooling=8
        )
    elif preset == "weak":
        workload = WEAK_SCALING_BASE.scaled_tables(64 * n_devices)
    elif preset == "strong":
        workload = STRONG_SCALING_TOTAL
    else:
        raise ValueError(f"unknown preset {preset!r}; available: {', '.join(PRESETS)}")
    kwargs: Dict[str, Any] = dict(
        workload=workload, n_devices=n_devices, name=preset
    )
    kwargs.update(overrides)
    return RunSpec(**kwargs)
