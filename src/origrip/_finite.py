"""The range of every bounded number field, and the one check that applies it.

``RANGES`` is keyed by field name: scene keys (``size``), model dataclass
fields (``dims``) and API arguments (``mu``) all look their range up here.
Finite is not enough: a 1e300 mm object overflows the wrench hull, a
1e-307 mm lever arm or a 1e300 N plateau makes an infinite contact force,
and a 1e-307 mm/s approach or a 1e308 s dwell takes infinitely long.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cache

MAX_LENGTH = 10_000.0   # mm: every length, height and site coordinate, 10 m either way
MIN_LENGTH = 1e-3       # mm: module height, depth, panel span and lever arm, which divide forces
MIN_SPEED = 1e-3        # mm/s: every motion speed
MAX_DWELL = 3_600.0     # s: one grasp or release, an hour
MAX_FORCE = 1e4         # N: module plateau force, a thousand times the few-newton modules modelled
MAX_TORQUE = 1e6        # N*mm (at torque scale 1): module plateau torque
MAX_STIFFNESS = 1e7     # N per unit strain: overload branch past the plateau
MAX_MU = 10.0           # friction coefficient; elastomers on common surfaces stay below about 2
MAX_TORQUE_SCALE = 1e6  # unit factor to N*mm; 1e6 converts kN*m


@dataclass(frozen=True, slots=True)
class Range:
    """The finite numbers from ``lo`` to ``hi``, ``lo`` itself left out when ``lo_open``."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False

    def problem(self, value: float) -> str | None:
        """Why ``value`` lies outside, or None when it lies inside."""
        if self.lo < value < self.hi:  # the common case; strictly inside is finite too
            return None
        if not math.isfinite(value):
            return f"must be finite, got {value:g}"
        if value < self.lo or (self.lo_open and value == self.lo):
            return f"must be {'>' if self.lo_open else '>='} {self.lo:g}, got {value:g}"
        if value > self.hi:
            return f"must be <= {self.hi:g}, got {value:g}"
        return None


_FINITE = Range()

# A scene key and the model field it fills share one line when their names
# differ: size/dims, strain_range/strain_lo/strain_hi, angle_range/angle_*.
RANGES: dict[str, Range] = {
    **dict.fromkeys(("z", "pick", "place_bottom", "place_top"), Range(-MAX_LENGTH, MAX_LENGTH)),
    **dict.fromkeys(("size", "dims", "r0", "slope", "module_offset", "module_levels", "approach_height",
                     "lift_step"), Range(0.0, MAX_LENGTH, lo_open=True)),
    **dict.fromkeys(("module_height", "rest_depth", "panel_span", "bend_lever_arm"),
                    Range(MIN_LENGTH, MAX_LENGTH)),
    "clearance": Range(0.0, MAX_LENGTH),
    **dict.fromkeys(("descend_speed", "ascend_speed", "travel_speed"), Range(MIN_SPEED)),
    **dict.fromkeys(("grasp_dwell", "release_dwell"), Range(0.0, MAX_DWELL)),
    "plateau_force": Range(0.0, MAX_FORCE, lo_open=True),
    "plateau_torque": Range(0.0, MAX_TORQUE, lo_open=True),
    "overload_stiffness": Range(0.0, MAX_STIFFNESS, lo_open=True),
    **dict.fromkeys(("force_band", "torque_band"), Range(0.0, 0.2)),
    **dict.fromkeys(("strain_range", "strain_lo", "strain_hi", "angle_range", "angle_lo", "angle_hi",
                     "curvature_threshold"), Range(0.0, lo_open=True)),
    "mass": Range(0.0),
    "mu": Range(0.0, MAX_MU),
    "torque_scale": Range(0.0, MAX_TORQUE_SCALE, lo_open=True),
    "safety": Range(1.0),
    "gravity": Range(0.0, lo_open=True),
    "slip_margin": Range(0.0, 90.0),  # deg; form closure asks for 180 + 2 * margin of the 360 a wrap can cover
}


def field_problem(name: str, value: float) -> str | None:
    """Why ``value`` cannot fill field ``name`` (not finite, or outside its
    range in ``RANGES``), or None when it can."""
    return RANGES.get(name, _FINITE).problem(value)


def require(name: str, value: float) -> None:
    """Raise ValueError, led by the field name, unless ``value`` can fill field ``name``."""
    if (why := field_problem(name, value)) is not None:
        raise ValueError(f"{name} {why}")


def require_finite(obj: object) -> None:
    """Raise ValueError naming the first number field of dataclass ``obj``,
    or item of a tuple or list of numbers, that is not finite or lies
    outside its range in ``RANGES``."""
    # getattr, not vars(obj): building an instance's __dict__ makes every
    # later attribute read on it slower
    for name, bounds in _field_ranges(type(obj)):
        value = getattr(obj, name)
        if value.__class__ is float and bounds.lo < value < bounds.hi:
            continue  # the common case, decided as Range.problem decides it
        if isinstance(value, (int, float)):
            why = bounds.problem(value)
        elif isinstance(value, (tuple, list)):
            why = next(filter(None, map(bounds.problem, value)), None)
        else:
            continue
        if why is not None:
            raise ValueError(f"{name} {why}")


@cache  # every scene parse builds five of these dataclasses
def _field_ranges(cls: type) -> tuple[tuple[str, Range], ...]:
    return tuple((field.name, RANGES.get(field.name, _FINITE)) for field in dataclasses.fields(cls))

