"""Finite-number and physical-range guards shared by the model dataclasses.

Finite is not enough: a 1e300 mm object overflows the wrench hull, a
1e-307 mm lever arm makes an infinite contact force and a 1e-307 mm/s
approach takes infinitely long.  The scene tables apply the same bounds.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cache

MAX_LENGTH = 10_000.0  # mm: every length, height and site coordinate, 10 m either way
MIN_LENGTH = 1e-3      # mm: module height, depth, panel span and lever arm, which divide forces
MIN_SPEED = 1e-3       # mm/s: every motion speed

# closed range of each bounded model field, by name
BOUNDS = {
    **dict.fromkeys(("x", "y", "z", "r0", "slope", "module_offset", "module_levels", "pick",
                     "place_bottom", "place_top", "approach_height"), (-MAX_LENGTH, MAX_LENGTH)),
    **dict.fromkeys(("module_height", "rest_depth", "panel_span", "bend_lever_arm"),
                    (MIN_LENGTH, MAX_LENGTH)),
    **dict.fromkeys(("descend_speed", "ascend_speed", "travel_speed"), (MIN_SPEED, math.inf)),
}


def require_finite(obj: object) -> None:
    """Raise ValueError naming the first number field of dataclass ``obj``,
    or tuple or list of numbers, that holds a NaN or infinite value or a
    value outside its range in ``BOUNDS``."""
    # getattr, not vars(obj): building an instance's __dict__ makes every
    # later attribute read on it slower, and these objects are read in the
    # contact loops
    for name in _field_names(type(obj)):
        value = getattr(obj, name)
        if isinstance(value, (int, float)):
            items = (value,)
            finite = math.isfinite(value)
        elif isinstance(value, (tuple, list)):
            items = value
            finite = all(map(math.isfinite, value))
        else:
            continue
        if not finite:
            raise ValueError(f"{name} must be finite, got {value}")
        if name in BOUNDS:
            lo, hi = BOUNDS[name]
            for item in items:
                if not lo <= item <= hi:
                    raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], got {item:g}")


@cache  # every scene parse builds five of these dataclasses
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))
