"""Embedding-row codecs: real numpy encode/decode + exact wire accounting.

A :class:`Codec` turns a ``(n, d)`` float32 matrix of pooled embedding
vectors into a wire payload and back.  Both halves matter equally here:

* **bytes** — every codec reports its exact wire footprint
  (:meth:`Codec.row_wire_bytes` = payload + per-row scale overhead;
  :meth:`Codec.wire_bytes` additionally charges the PGAS per-message
  header when one vector rides per one-sided message), so the timed
  simulation and the byte-accounting tests agree to the byte;
* **values** — :meth:`Codec.encode` / :meth:`Codec.decode` run the actual
  quantisation arithmetic on numpy arrays, so functional outputs and
  quantisation error are *computed*, never estimated.

Codecs
------
``fp32``
    Bit-identical passthrough; the zero-overhead reference.
``fp16``
    IEEE half precision, no scale (relative error ~2⁻¹¹).
``int8`` / ``int4``
    Row-wise scaled symmetric quantisation: one float32 absmax-derived
    scale per row rides alongside the payload.  ``int4`` packs two
    4-bit levels (±7) per byte.

:meth:`Codec.error_bound` returns the *per-row* worst-case absolute
error each codec guarantees, derived from the same absmax the encoder
used — the bound the round-trip property tests and the
``CompressionSpec.error_bound`` guard check against.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional, Type

import numpy as np

__all__ = [
    "CODEC_NAMES",
    "Codec",
    "EncodedRows",
    "FP16Codec",
    "FP32Codec",
    "Int4Codec",
    "Int8Codec",
    "make_codec",
    "roundtrip_error_report",
]

#: largest finite fp16 value; rows with a bigger absmax overflow to inf
_FP16_MAX = 65504.0


@dataclass
class EncodedRows:
    """One encoded ``(n_rows, dim)`` matrix plus its wire accounting."""

    codec: str
    data: np.ndarray  #: quantised payload (dtype depends on the codec)
    scales: Optional[np.ndarray]  #: per-row float32 scales (None when scale-free)
    n_rows: int
    dim: int


def _check_rows(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"codec input must be 2-D (n_rows, dim), got shape {rows.shape}")
    if rows.dtype != np.float32:
        raise ValueError(f"codec input must be float32, got {rows.dtype}")
    return rows


class Codec(ABC):
    """One embedding-row compression scheme (stateless)."""

    name: str = ""
    #: per-row float32 scale overhead on the wire (0 for scale-free codecs)
    scale_bytes_per_row: int = 0
    #: True when decode(encode(x)) == x bit-for-bit
    lossless: bool = False

    # -- wire accounting --------------------------------------------------------

    @abstractmethod
    def payload_bytes(self, dim: int) -> int:
        """Exact payload bytes of one encoded ``dim``-vector."""

    def row_wire_bytes(self, dim: int) -> int:
        """Wire bytes of one vector: payload + its share of the scales."""
        return self.payload_bytes(dim) + self.scale_bytes_per_row

    def wire_bytes(self, n_rows: int, dim: int, *, header_bytes: int = 0) -> int:
        """Exact wire bytes of ``n_rows`` vectors.

        ``header_bytes`` charges the PGAS per-message framing — one
        compressed vector (payload + scale) rides per one-sided message,
        so each row pays one header.
        """
        if n_rows < 0:
            raise ValueError("n_rows must be non-negative")
        return n_rows * (self.row_wire_bytes(dim) + header_bytes)

    # -- values -----------------------------------------------------------------

    @abstractmethod
    def encode(self, rows: np.ndarray) -> EncodedRows:
        """Quantise a float32 ``(n, d)`` matrix into its wire form."""

    @abstractmethod
    def decode(self, enc: EncodedRows) -> np.ndarray:
        """Reconstruct the float32 ``(n, d)`` matrix from its wire form."""

    def roundtrip(self, rows: np.ndarray) -> np.ndarray:
        """``decode(encode(rows))`` — the values the destination sees."""
        return self.decode(self.encode(rows))

    @abstractmethod
    def error_bound(self, rows: np.ndarray) -> np.ndarray:
        """Per-row worst-case ``|decoded - original|``, shape ``(n,)``."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Codec {self.name}>"


class FP32Codec(Codec):
    """Bit-identical passthrough: the uncompressed reference wire format."""

    name = "fp32"
    lossless = True

    def payload_bytes(self, dim: int) -> int:
        return 4 * dim

    def encode(self, rows: np.ndarray) -> EncodedRows:
        rows = _check_rows(rows)
        return EncodedRows("fp32", rows, None, rows.shape[0], rows.shape[1])

    def decode(self, enc: EncodedRows) -> np.ndarray:
        return enc.data

    def error_bound(self, rows: np.ndarray) -> np.ndarray:
        rows = _check_rows(rows)
        return np.zeros(rows.shape[0], dtype=np.float64)


class FP16Codec(Codec):
    """IEEE half-precision cast: no scales, ~2⁻¹¹ relative error."""

    name = "fp16"

    def payload_bytes(self, dim: int) -> int:
        return 2 * dim

    def encode(self, rows: np.ndarray) -> EncodedRows:
        rows = _check_rows(rows)
        return EncodedRows(
            "fp16", rows.astype(np.float16), None, rows.shape[0], rows.shape[1]
        )

    def decode(self, enc: EncodedRows) -> np.ndarray:
        return enc.data.astype(np.float32)

    def error_bound(self, rows: np.ndarray) -> np.ndarray:
        rows = _check_rows(rows)
        absmax = np.abs(rows).max(axis=1, initial=0.0).astype(np.float64)
        # Half-epsilon relative error plus the subnormal absolute floor;
        # values past the finite range overflow to inf (unbounded error).
        bound = absmax * 2.0 ** -11 + 2.0 ** -24
        return np.where(absmax > _FP16_MAX, np.inf, bound)


def _row_absmax(rows: np.ndarray) -> np.ndarray:
    return np.abs(rows).max(axis=1, initial=0.0).astype(np.float64)


class Int8Codec(Codec):
    """Row-wise scaled symmetric int8: levels ±127, one fp32 scale per row."""

    name = "int8"
    scale_bytes_per_row = 4
    _levels = 127

    def payload_bytes(self, dim: int) -> int:
        return dim

    def encode(self, rows: np.ndarray) -> EncodedRows:
        rows = _check_rows(rows)
        absmax = _row_absmax(rows)
        scales = (absmax / self._levels).astype(np.float32)
        safe = np.where(scales > 0, scales, 1.0).astype(np.float64)
        q = np.rint(rows.astype(np.float64) / safe[:, None])
        q = np.clip(q, -self._levels, self._levels).astype(np.int8)
        return EncodedRows("int8", q, scales, rows.shape[0], rows.shape[1])

    def decode(self, enc: EncodedRows) -> np.ndarray:
        assert enc.scales is not None
        return (
            enc.data.astype(np.float64) * enc.scales.astype(np.float64)[:, None]
        ).astype(np.float32)

    def error_bound(self, rows: np.ndarray) -> np.ndarray:
        rows = _check_rows(rows)
        absmax = _row_absmax(rows)
        # Half a quantisation step (absmax / 254) plus the float32
        # rounding of the reconstructed value.
        return absmax / (2.0 * self._levels) + absmax * 2.0 ** -23


class Int4Codec(Codec):
    """Row-wise scaled symmetric int4: levels ±7, two values packed per byte."""

    name = "int4"
    scale_bytes_per_row = 4
    _levels = 7

    def payload_bytes(self, dim: int) -> int:
        return math.ceil(dim / 2)

    def encode(self, rows: np.ndarray) -> EncodedRows:
        rows = _check_rows(rows)
        n, d = rows.shape
        absmax = _row_absmax(rows)
        scales = (absmax / self._levels).astype(np.float32)
        safe = np.where(scales > 0, scales, 1.0).astype(np.float64)
        q = np.rint(rows.astype(np.float64) / safe[:, None])
        q = np.clip(q, -self._levels, self._levels).astype(np.int64) + self._levels
        if d % 2:  # pad odd dims with a zero nibble
            q = np.concatenate([q, np.full((n, 1), self._levels, dtype=np.int64)], axis=1)
        # low nibble = even column, high nibble = odd column
        packed = (q[:, 0::2] | (q[:, 1::2] << 4)).astype(np.uint8)
        return EncodedRows("int4", packed, scales, n, d)

    def decode(self, enc: EncodedRows) -> np.ndarray:
        assert enc.scales is not None
        packed = enc.data.astype(np.int64)
        q = np.empty((enc.n_rows, packed.shape[1] * 2), dtype=np.int64)
        q[:, 0::2] = packed & 0x0F
        q[:, 1::2] = packed >> 4
        q = q[:, : enc.dim] - self._levels
        return (
            q.astype(np.float64) * enc.scales.astype(np.float64)[:, None]
        ).astype(np.float32)

    def error_bound(self, rows: np.ndarray) -> np.ndarray:
        rows = _check_rows(rows)
        absmax = _row_absmax(rows)
        return absmax / (2.0 * self._levels) + absmax * 2.0 ** -23


_CODECS: Dict[str, Type[Codec]] = {
    "fp32": FP32Codec,
    "fp16": FP16Codec,
    "int8": Int8Codec,
    "int4": Int4Codec,
}

#: registered codec names in preferred display order
CODEC_NAMES = tuple(_CODECS)


def make_codec(name: str) -> Codec:
    """Instantiate a codec by name; unknown names raise ``ValueError``."""
    try:
        return _CODECS[name]()
    except KeyError:
        raise ValueError(
            f"unknown codec {name!r}; available: {', '.join(CODEC_NAMES)}"
        ) from None


def roundtrip_error_report(codec: Codec, rows: np.ndarray) -> Dict[str, float]:
    """Measured round-trip error of ``codec`` on real data.

    Encodes and decodes ``rows`` (real numpy arithmetic, no estimation) and
    returns ``max_abs_error`` / ``rmse`` of the reconstruction, the largest
    per-row ``error_bound``, and ``within_bound`` — whether every row's
    measured error respects its own bound.
    """
    rows = _check_rows(rows)
    decoded = codec.roundtrip(rows)
    err = np.abs(decoded.astype(np.float64) - rows.astype(np.float64))
    bound = codec.error_bound(rows)
    if err.size == 0:
        return {
            "max_abs_error": 0.0,
            "rmse": 0.0,
            "error_bound": 0.0,
            "within_bound": True,
        }
    per_row = err.max(axis=1)
    return {
        "max_abs_error": float(err.max()),
        "rmse": float(np.sqrt(np.mean(np.square(err)))),
        "error_bound": float(bound.max()),
        "within_bound": bool(np.all(per_row <= bound)),
    }
