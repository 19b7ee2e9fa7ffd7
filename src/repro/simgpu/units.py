"""Unit helpers for the simulator.

All simulator times are nanoseconds (float); all sizes are bytes (int);
all bandwidths are bytes per nanosecond (== GB/s, conveniently).

Keeping conversions in one place avoids the classic off-by-1e3 bugs when
mixing µs-scale launch overheads with ms-scale kernels.
"""

from __future__ import annotations

__all__ = [
    "ns",
    "us",
    "ms",
    "s",
    "KiB",
    "MiB",
    "GiB",
    "KB",
    "MB",
    "GB",
    "gbps",
    "to_ms",
    "to_us",
]

# -- time --------------------------------------------------------------------

ns = 1.0
us = 1_000.0
ms = 1_000_000.0
s = 1_000_000_000.0


def to_ms(t_ns: float) -> float:
    """Convert nanoseconds to milliseconds."""
    return t_ns / ms


def to_us(t_ns: float) -> float:
    """Convert nanoseconds to microseconds."""
    return t_ns / us


# -- sizes ---------------------------------------------------------------------

KiB = 1024
MiB = 1024**2
GiB = 1024**3
KB = 1000
MB = 1000**2
GB = 1000**3


def gbps(x: float) -> float:
    """Bandwidth: gigabytes/second expressed in bytes/nanosecond.

    1 GB/s == 1e9 B / 1e9 ns == 1 B/ns, so this is the identity — it exists
    to make call sites self-documenting (``gbps(25)`` reads as 25 GB/s).
    """
    return float(x)
