"""Scalar validation helpers shared by instance constructors."""

from __future__ import annotations

import math

__all__ = ["check_finite", "check_positive"]


def check_finite(value: float, name: str) -> float:
    """Return ``value`` as float, raising ``ValueError`` if NaN or infinite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_positive(value: float, name: str) -> float:
    """Return ``value`` as float, requiring it to be strictly positive."""
    value = check_finite(value, name)
    if value <= 0.0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value
