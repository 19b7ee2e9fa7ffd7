"""Unified run configuration: one frozen spec for a whole experiment.

Every layer of the stack has its own config object — workload shape
(:class:`~repro.dlrm.data.WorkloadConfig`), model shape around the EMB
layer (:class:`~repro.core.pipeline.PipelineConfig`), each feature
(one :class:`~repro.core.factory.FeatureSpec` section apiece: hot-row
cache, fault wrapper, compression, …) and the serving load with its
continuous-batching scheduler (:class:`~repro.core.serving.ServingSpec`,
whose ``scheduler`` is a :class:`~repro.core.serving.SchedulerSpec`).
:class:`RunSpec` composes them into a single validated, serialisable value that every
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
import typing
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple

from ..checks import checked_count
from ..dlrm.data import STRONG_SCALING_TOTAL, WEAK_SCALING_BASE, WorkloadConfig
from .factory import FeatureSpec
from .pipeline import PipelineConfig
from .retrieval import FEATURE_CONFIGS, BackendName, adapter_class
from .serving import ServingSpec

__all__ = ["PRESETS", "RunSpec", "preset_runspec"]

#: named workload presets; ``weak``/``strong`` follow the paper's scaling
#: rules (§IV-A / §IV-B), ``tiny`` is the CI smoke configuration
PRESETS = ("tiny", "weak", "strong")


def _section(data: Dict[str, Any], key: str) -> Optional[Dict[str, Any]]:
    """Payload section ``key``: a dict, or None when absent or null."""
    payload = data.get(key)
    if payload is not None and not isinstance(payload, dict):
        raise TypeError(
            f"RunSpec section {key!r} must be a dict or null, got {type(payload).__name__}"
        )
    return payload


def _asdict(section: Optional[object]) -> Optional[Dict[str, Any]]:
    """A config section's dict form (None stays None)."""
    return None if section is None else dataclasses.asdict(section)


def _build(cls, payload: Dict[str, Any], label: str):
    """``cls(**payload)``, rebuilding each nested config section from its dict.

    A key that is not a field of ``cls`` raises ``ValueError`` naming the
    section (``label``, e.g. ``RunSpec.serving.scheduler``).  A field whose
    value is a dict and whose annotation names a dataclass
    (``Optional[SchedulerSpec]``) gets that
    dataclass back, as :func:`dataclasses.asdict` flattened it; any other
    value goes to ``cls`` as is, which names a wrong type.
    """
    unknown = set(payload).difference(f.name for f in fields(cls))
    if unknown:
        raise ValueError(f"unknown {label} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = dict(payload)
    for name, value in payload.items():
        if isinstance(value, dict):
            hint = hints.get(name)
            nested = [t for t in (hint, *typing.get_args(hint)) if dataclasses.is_dataclass(t)]
            if nested:
                kwargs[name] = _build(nested[0], value, f"{label}.{name}")
    return cls(**kwargs)


def _build_optional(cls, data: Dict[str, Any], key: str):
    """Rebuild optional section ``key`` of ``data`` as a ``cls``."""
    payload = _section(data, key)
    return None if payload is None else _build(cls, payload, f"RunSpec.{key}")


@dataclass(frozen=True)
class RunSpec:
    """One experiment's complete, validated configuration.

    The feature sections (``cache`` … ``obs``) are the
    :class:`~repro.core.factory.FeatureSpec` fields; each holds the config
    class :data:`~repro.core.retrieval.FEATURE_CONFIGS` names for it, or
    None.
    """

    workload: WorkloadConfig
    n_devices: int = 2
    backend: BackendName = "pgas"
    bottom_mlp: Tuple[int, ...] = (512, 256)
    top_mlp: Tuple[int, ...] = (512, 256)
    cache: Optional[object] = None
    resilience: Optional[object] = None
    compression: Optional[object] = None
    replication: Optional[object] = None
    reshard: Optional[object] = None
    hier: Optional[object] = None
    obs: Optional[object] = None
    serving: Optional[ServingSpec] = None
    name: str = ""  #: free-form label (presets stamp theirs here)

    def __post_init__(self) -> None:
        if not isinstance(self.workload, WorkloadConfig):
            raise TypeError(
                f"RunSpec.workload must be a WorkloadConfig, "
                f"got {type(self.workload).__name__}"
            )
        object.__setattr__(
            self, "n_devices", checked_count("RunSpec", "n_devices", self.n_devices)
        )
        adapter_class(self.backend)  # malformed or unknown backend names raise here
        for attr in ("bottom_mlp", "top_mlp"):
            sizes = tuple(checked_count("RunSpec", attr, s) for s in getattr(self, attr))
            object.__setattr__(self, attr, sizes)
        if self.serving is not None and not isinstance(self.serving, ServingSpec):
            raise TypeError(
                f"RunSpec.serving must be a ServingSpec, "
                f"got {type(self.serving).__name__}"
            )
        for f in fields(FeatureSpec):
            value, spec_type = getattr(self, f.name), FEATURE_CONFIGS[f.name]
            if value is not None and not isinstance(value, spec_type):
                raise TypeError(
                    f"RunSpec.{f.name} must be a {spec_type.__module__}."
                    f"{spec_type.__name__}, got {type(value).__name__}"
                )
        if not isinstance(self.name, str):
            raise TypeError(f"RunSpec.name must be a str, got {type(self.name).__name__}")

    # -- derived section views ---------------------------------------------------

    def pipeline_config(self) -> PipelineConfig:
        """The model-shape section as a :class:`PipelineConfig`."""
        return PipelineConfig(
            workload=self.workload, bottom_mlp=self.bottom_mlp, top_mlp=self.top_mlp
        )

    def feature_spec(self) -> FeatureSpec:
        """The per-feature sections as the :class:`FeatureSpec` every EMB
        host (embedding module, inference pipeline) is built from."""
        return FeatureSpec(**{f.name: getattr(self, f.name) for f in fields(FeatureSpec)})

    def serving_spec(self) -> ServingSpec:
        """The serving section (raises when the spec has none)."""
        if self.serving is None:
            raise ValueError(
                "this RunSpec has no serving section; set serving=ServingSpec(...)"
            )
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
            },
            **{f.name: _asdict(getattr(self, f.name)) for f in fields(FeatureSpec)},
            "serving": _asdict(self.serving),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict` (validates; an unknown key in any
        section raises ``ValueError`` naming the section and the key)."""
        if not isinstance(data, dict):
            raise TypeError(f"RunSpec payload must be a dict, got {type(data).__name__}")
        features = tuple(f.name for f in fields(FeatureSpec))
        known = ("name", "n_devices", "backend", "workload", "model", "serving") + features
        model = _section(data, "model") or {}
        for label, section, keys in (
            ("RunSpec", data, known), ("RunSpec.model", model, ("bottom_mlp", "top_mlp"))
        ):
            unknown = set(section).difference(keys)
            if unknown:
                raise ValueError(f"unknown {label} keys: {sorted(unknown)}")
        if "workload" not in data:
            raise ValueError("RunSpec payload needs a 'workload' section")
        return cls(
            workload=_build_optional(WorkloadConfig, data, "workload"),
            n_devices=data.get("n_devices", 2),
            backend=data.get("backend", "pgas"),
            bottom_mlp=model.get("bottom_mlp", (512, 256)),
            top_mlp=model.get("top_mlp", (512, 256)),
            serving=_build_optional(ServingSpec, data, "serving"),
            name=data.get("name", ""),
            **{key: _build_optional(FEATURE_CONFIGS[key], data, key) for key in features},
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
