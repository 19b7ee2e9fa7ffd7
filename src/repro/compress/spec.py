"""Validated compression configuration and the encode/decode cost model.

:class:`CompressionSpec` is the frozen value carried by
:class:`~repro.core.runspec.RunSpec` and
:class:`~repro.core.retrieval.DistributedEmbedding` (the ``compression=``
keyword): which codec, plus an optional hard ``error_bound`` guard the
functional path enforces against the *measured* round-trip error.

:func:`compress_cost_model` is the simulator-side price of a codec pass.
Compression is not free: encode reads the fp32 output and writes the wire
form, decode reads the wire form and writes fp32 — both are memory-bound
streaming kernels, so their time is total bytes moved over the device's
achieved HBM bandwidth (the same roofline the EMB kernel uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..simgpu.device import DeviceSpec
from .codec import Codec, make_codec

__all__ = ["CompressionSpec", "compress_cost_model"]


def compress_cost_model(nbytes: float, device_spec: DeviceSpec) -> float:
    """Time (ns) of a memory-bound codec pass moving ``nbytes`` total.

    ``nbytes`` counts reads *and* writes (encode: fp32 in + wire out;
    decode: wire in + fp32 out), streamed at the device's achieved HBM
    bandwidth.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    return float(nbytes) / device_spec.effective_mem_bandwidth


@dataclass(frozen=True)
class CompressionSpec:
    """One experiment's compression configuration (validated, frozen).

    Attributes
    ----------
    codec:
        Codec name: ``"fp32"`` (bit-identical passthrough), ``"fp16"``,
        ``"int8"``, or ``"int4"``.
    error_bound:
        Optional hard cap on the measured per-element absolute error of
        the functional round-trip.  The compressed backends raise
        ``ValueError`` when a batch exceeds it — a quality guard, not an
        adaptive control loop.
    """

    codec: str = "fp32"
    error_bound: Optional[float] = None

    def __post_init__(self) -> None:
        make_codec(self.codec)  # unknown codec names raise here
        if self.error_bound is not None and not (self.error_bound >= 0):
            raise ValueError(
                f"error_bound must be non-negative, got {self.error_bound}"
            )

    def codec_obj(self) -> Codec:
        """A (stateless) codec instance for this spec."""
        return make_codec(self.codec)

    # -- cost model -------------------------------------------------------------

    def encode_cost_ns(
        self, fp32_bytes: float, wire_bytes: float, device_spec: DeviceSpec
    ) -> float:
        """Source-side encode time: read fp32, write the wire form."""
        if self.codec == "fp32":
            return 0.0  # passthrough sends the kernel output as-is
        return compress_cost_model(fp32_bytes + wire_bytes, device_spec)

    def decode_cost_ns(
        self, fp32_bytes: float, wire_bytes: float, device_spec: DeviceSpec
    ) -> float:
        """Destination-side decode time: read the wire form, write fp32."""
        if self.codec == "fp32":
            return 0.0
        return compress_cost_model(fp32_bytes + wire_bytes, device_spec)
