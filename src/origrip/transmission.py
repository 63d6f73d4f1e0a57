"""Servo-to-finger kinematics of the spiral-guide transmission disk.

A single servo rotates a disk whose spiral guides drive all fingers radially
in sync.  The guide profile is linear in the servo angle, so the radial
finger position, the aperture between opposing module faces, and the inverse
map are all closed-form.

Conventions:
    - angles in degrees, lengths in mm
    - ``opening`` is the face-to-face distance between opposing, undeformed
      module contact faces (the widest object that just touches both sides)
    - servo angles outside the guide range are rejected, never clamped
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._finite import require_finite

FINGER_COUNTS = (2, 4)  # fingers a transmission disk drives
MAX_MODULE_LEVELS = 4  # the most module levels a finger carries


class AngleRangeError(ValueError):
    """Servo angle outside the guide range."""

    def __init__(self, theta: float, lo: float, hi: float):
        self.theta = theta
        self.lo = lo
        self.hi = hi
        super().__init__(
            f"servo angle {theta:g} deg outside guide range [{lo:g}, {hi:g}] deg"
        )


class OpeningRangeError(ValueError):
    """Requested aperture not achievable by any servo angle."""

    def __init__(self, target: float, lo: float, hi: float):
        self.target = target
        self.lo = lo
        self.hi = hi
        super().__init__(
            f"opening {target:g} mm outside achievable range [{lo:g}, {hi:g}] mm"
        )


@dataclass(frozen=True)
class TransmissionLaw:
    """Linear spiral-guide law: guide radius r(theta) = r0 - slope * theta."""

    r0: float = 54.0                 # guide radius at theta_min, mm
    slope: float = 25.0 / 90.0       # radial travel per servo degree, mm/deg
    theta_min: float = 0.0
    theta_max: float = 90.0

    def __post_init__(self):
        require_finite(self)
        if not self.theta_min < self.theta_max:
            raise ValueError(
                f"need theta_min < theta_max, got [{self.theta_min:g}, {self.theta_max:g}]"
            )


@dataclass(frozen=True)
class GripperConfig:
    """Geometry of one gripper build (finger layout plus module placement).

    ``module_offset`` is measured from the guide pin to the undeformed module
    contact face.  ``module_levels`` are the heights of the module centers on
    each finger, ``module_height`` the vertical extent of one contact face.
    ``panel_span`` is the width of the folding face; ``bend_lever_arm`` the
    effective moment arm converting fold torque into contact force.
    """

    finger_count: int = 2
    law: TransmissionLaw = field(default_factory=TransmissionLaw)
    module_offset: float = 15.0
    module_levels: tuple[float, ...] = (20.0, 60.0)
    module_height: float = 20.0
    rest_depth: float = 15.0
    panel_span: float = 50.0
    bend_lever_arm: float = 15.0
    curvature_threshold: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "module_levels", tuple(self.module_levels))
        require_finite(self)
        if self.finger_count not in FINGER_COUNTS:
            raise ValueError(f"finger_count must be {' or '.join(map(str, FINGER_COUNTS))}, got {self.finger_count}")
        r_closed = self.law.r0 - self.law.slope * self.law.theta_max
        if not self.module_offset < r_closed:
            raise ValueError(
                f"module_offset {self.module_offset:g} mm must stay below the "
                f"fully-closed guide radius {r_closed:g} mm"
            )
        if not 1 <= len(self.module_levels) <= MAX_MODULE_LEVELS:
            raise ValueError(f"module_levels holds 1 to {MAX_MODULE_LEVELS} levels, got {len(self.module_levels)}")
        if list(self.module_levels) != sorted(self.module_levels):
            raise ValueError("module_levels must be ascending")


def finger_radius(theta: float, law: TransmissionLaw | None = None) -> float:
    """Radial guide-pin position at servo angle ``theta`` (deg), in mm."""
    law = law or TransmissionLaw()
    if not law.theta_min <= theta <= law.theta_max:
        raise AngleRangeError(theta, law.theta_min, law.theta_max)
    return law.r0 - law.slope * theta


def opening(theta: float, config: GripperConfig | None = None) -> float:
    """Face-to-face aperture between opposing module faces at ``theta``, mm."""
    config = config or GripperConfig()
    return 2.0 * (finger_radius(theta, config.law) - config.module_offset)


def opening_range(config: GripperConfig | None = None) -> tuple[float, float]:
    """(min, max) achievable aperture over the servo range."""
    config = config or GripperConfig()
    law = config.law
    return opening(law.theta_max, config), opening(law.theta_min, config)


def unclamped_theta_for_opening(target: float, config: GripperConfig) -> float:
    """Servo angle of aperture ``target`` (mm), extrapolated past the guide range."""
    law = config.law
    return (law.r0 - config.module_offset - target / 2.0) / law.slope


def theta_for_opening(target: float, config: GripperConfig | None = None) -> float:
    """Servo angle producing aperture ``target`` (mm).  Exact linear inverse."""
    config = config or GripperConfig()
    lo, hi = opening_range(config)
    if not lo <= target <= hi:
        raise OpeningRangeError(target, lo, hi)
    return unclamped_theta_for_opening(target, config)


def finger_bearings(config: GripperConfig | None = None) -> tuple[float, ...]:
    """In-plane bearing angle (deg) of each finger, evenly spaced."""
    config = config or GripperConfig()
    n = config.finger_count
    return tuple(i * 360.0 / n for i in range(n))
