"""Field checks shared by the frozen config classes and the comm layers.

Each raises ``TypeError`` for a value of the wrong type and ``ValueError``
for one out of range, naming the field as ``Owner.field`` (or, for a byte
count, the operation and entry it came from).
"""

from __future__ import annotations

import math
import numbers
import operator

__all__ = ["checked_count", "check_finite", "check_finite_fields", "check_bytes"]


def checked_count(owner: str, name: str, value, minimum: int = 1) -> int:
    """``value`` as an int >= ``minimum`` (via ``operator.index``); a bool
    or a non-integer raises ``TypeError`` naming ``owner.name``."""
    if isinstance(value, bool):
        raise TypeError(f"{owner}.{name} must be an int, got bool")
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{owner}.{name} must be an int, got {type(value).__name__}") from None
    if value < minimum:
        raise ValueError(f"{owner}.{name} must be >= {minimum}")
    return value


def check_finite(owner: str, name: str, value, *, zero_ok: bool = False) -> None:
    """Require a finite real ``value`` > 0 (>= 0 with ``zero_ok``); a bool
    or a non-real raises ``TypeError``, anything else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{owner}.{name} must be a real number, got {type(value).__name__}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValueError(f"{owner}.{name} must be finite, got {value!r}")
    if value < 0 or (value == 0 and not zero_ok):
        raise ValueError(f"{owner}.{name} must be {'>= 0' if zero_ok else 'positive'}")


def check_finite_fields(spec, *names: str) -> None:
    """Raise ``ValueError`` naming ``Owner.field`` for the first of
    ``names`` whose value on ``spec`` is NaN or infinite (``None`` passes).

    Range checks stay with the owner; this only keeps non-finite delays
    from reaching the engine.
    """
    for name in names:
        value = getattr(spec, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{type(spec).__name__}.{name} must be finite, got {value!r}")


def check_bytes(what: str, value) -> None:
    """Require a finite byte count >= 0 (NaN fails); the ``ValueError``
    names ``what``, e.g. ``"all_reduce: total_bytes"``."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{what} must be finite and non-negative, got {value!r}")
