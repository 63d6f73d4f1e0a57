"""Finite-number guard shared by the model dataclasses."""

from __future__ import annotations

import dataclasses
import math


def require_finite(obj: object) -> None:
    """Raise ValueError naming the first number field of dataclass ``obj``,
    or tuple or list of numbers, that holds a NaN or infinite value."""
    # getattr, not vars(obj): building an instance's __dict__ makes every
    # later attribute read on it slower, and these objects are read in the
    # contact loops
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, (int, float)):
            finite = math.isfinite(value)
        elif isinstance(value, (tuple, list)):
            finite = all(map(math.isfinite, value))
        else:
            continue
        if not finite:
            raise ValueError(f"{field.name} must be finite, got {value}")
