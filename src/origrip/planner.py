"""Hold windows and release scheduling for stacked two-object grasps.

A gripper with modules at two heights can pinch two vertically stacked
objects at once and release them one at a time by opening gradually.  The
key quantity is each object's *hold window*: the closure-angle interval
over which the object is squeezed into its secure-grip regime (module
strain between the material's plateau bounds) and the resulting contacts
can carry its weight.

Plateau-force modules make the carrying capacity flat across most of a hold
window, so the window shape is dominated by geometry: its edges move
linearly with object width through the drive's linear angle-to-opening
law.  A narrower object's window therefore sits at strictly larger closure
angles than a wider one's, which is what makes sequential release possible:
close into the overlap of both windows to grab the pair, open into the
wider object's window to drop the narrow one, then open fully.

Scenes are built by resting the top object on the bottom one and sliding
the pair vertically until the two widest cross-sections straddle the module
heights symmetrically, the way an operator would present a stack centered
on the fingers.

Every hold judgement goes through ``_held``, one contact-model pass over
an object's angles: a window's two edges together, a plan's three stage
angles per object together, and a bisection one step at a time.  Outputs
and errors equal those of one ``resolve_contacts`` and ``lift_check`` call
per angle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from ._finite import require
from .grasp import _bears, _point_totals, _resolve
from .mechanics import SIL950, MaterialModel
from .shapes import ObjectShape, equator_z, grasp_width, stack_on
from .transmission import GripperConfig, opening, unclamped_theta_for_opening

_BISECT_TOL = 1e-6  # deg


class LimitingFactor(Enum):
    """What pins the release edge (lower bound) of a hold window."""

    STRAIN_RANGE = "strain_range"      # grip loosens out of the secure band
    OPENING_RANGE = "opening_range"    # drive cannot open any further
    LIFT_CAPACITY = "lift_capacity"    # contacts too weak below this angle


@dataclass(frozen=True)
class HoldWindow:
    theta_lo: float
    theta_hi: float
    limiting_factor: LimitingFactor

    @property
    def width(self) -> float:
        return self.theta_hi - self.theta_lo

    def contains(self, theta: float) -> bool:
        return self.theta_lo <= theta <= self.theta_hi


def _strain_interval(
    obj: ObjectShape, config: GripperConfig, material: MaterialModel
) -> tuple[float, float]:
    """Unclamped closure-angle interval where the squeeze strain (judged on
    the widest cross-section) sits in the material's secure band."""
    width = grasp_width(obj)
    pen_lo = material.strain_lo * config.rest_depth
    pen_hi = material.strain_hi * config.rest_depth
    return (
        unclamped_theta_for_opening(width - 2.0 * pen_lo, config),
        unclamped_theta_for_opening(width - 2.0 * pen_hi, config),
    )


def _held(
    thetas: Sequence[float],
    obj: ObjectShape,
    config: GripperConfig,
    material: MaterialModel,
    mu: float,
    torque_scale: float,
    safety: float = 1.0,
) -> list[bool]:
    """Whether the gripper carries the object at each of ``thetas``: it
    touches the object and the contacts bear its weight with the safety
    factor.  One pass of the contact model resolves every angle, and the
    hold rule reads each angle's pull-out capacity; ``safety`` is judged
    only when some angle has a contact, where the rule applies."""
    _, contacts, bounds = _resolve(thetas, obj, config, material, mu, torque_scale)
    counts, _, _, capacities = _point_totals(contacts, bounds)
    if not any(counts):
        return [False] * len(counts)
    _, bears = _bears(capacities, obj, safety=safety)
    return [count > 0 and held for count, held in zip(counts, bears)]


def holds_at(
    theta: float,
    obj: ObjectShape,
    config: GripperConfig | None = None,
    material: MaterialModel | None = None,
    mu: float = 0.5,
    safety: float = 1.2,
    torque_scale: float = 1.0,
) -> bool:
    """Is the object securely held at this closure angle?

    Secure means the squeeze strain is inside the material's plateau band
    and the resolved contacts carry the weight with the safety factor.
    """
    config = config or GripperConfig()
    material = material or SIL950
    opening(theta, config)  # raises outside the law's angle range
    lo, hi = _strain_interval(obj, config, material)  # the band hold_window's edges come from
    if not lo <= theta <= hi:
        return False
    return _held((theta,), obj, config, material, mu, torque_scale, safety)[0]


def hold_window(
    obj: ObjectShape,
    config: GripperConfig | None = None,
    material: MaterialModel | None = None,
    mu: float = 0.5,
    safety: float = 1.2,
    torque_scale: float = 1.0,
) -> HoldWindow | None:
    """Closure-angle interval over which the object is securely held.

    Carrying capacity is non-decreasing with closure (deeper squeeze never
    weakens a contact and can only recruit more of them), so the holdable
    set inside the strain band is an interval whose lower edge is found by
    bisection when weight is the binding constraint.  Returns None when no
    angle holds the object.  Both edges are judged in one pass: the jaws
    touch the object at the lower edge only where they touch it at the
    upper one, so judging the lower edge also when the upper one fails
    raises nothing more.
    """
    config = config or GripperConfig()
    material = material or SIL950
    lo, hi = _strain_interval(obj, config, material)
    factor = LimitingFactor.STRAIN_RANGE
    law = config.law
    if lo < law.theta_min:
        lo = law.theta_min
        factor = LimitingFactor.OPENING_RANGE
    hi = min(hi, law.theta_max)
    if lo > hi:
        return None

    def held(*thetas: float) -> list[bool]:
        return _held(thetas, obj, config, material, mu, torque_scale, safety)

    held_hi, held_lo = held(hi, lo)
    if not held_hi:
        return None
    if not held_lo:
        factor = LimitingFactor.LIFT_CAPACITY
        lo_fail, lo_ok = lo, hi
        while lo_ok - lo_fail > _BISECT_TOL:
            mid = 0.5 * (lo_fail + lo_ok)
            if held(mid)[0]:
                lo_ok = mid
            else:
                lo_fail = mid
        lo = lo_ok
    return HoldWindow(lo, hi, factor)


# --------------------------------------------------------------------------
# stacked scenes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StackedScene:
    top: ObjectShape
    bottom: ObjectShape
    config: GripperConfig
    material: MaterialModel
    mu: float = 0.5
    safety: float = 1.2
    torque_scale: float = 1.0


def make_stacked_scene(
    top: ObjectShape,
    bottom: ObjectShape,
    clearance: float = 0.0,
    config: GripperConfig | None = None,
    material: MaterialModel | None = None,
    mu: float = 0.5,
    safety: float = 1.2,
    torque_scale: float = 1.0,
) -> StackedScene:
    """Rest ``top`` on ``bottom`` and center the pair across the module
    heights so each object's widest section faces its own module level."""
    require("clearance", clearance)
    config = config or GripperConfig()
    material = material or SIL950
    placed_top = stack_on(top, bottom, clearance)
    level_mid = 0.5 * (config.module_levels[0] + config.module_levels[-1])
    stack_mid = 0.5 * (equator_z(bottom) + equator_z(placed_top))
    shift = level_mid - stack_mid
    shifted = []
    for obj in (placed_top, bottom):
        pose = dataclasses.replace(obj.pose, z=obj.pose.z + shift)
        shifted.append(dataclasses.replace(obj, pose=pose))
    return StackedScene(shifted[0], shifted[1], config, material, mu, safety, torque_scale)


class InfeasibleReason(Enum):
    SIZE_ORDER = "size_order"            # bottom object not narrower than top
    NO_COMMON_HOLD = "no_common_hold"    # hold windows do not overlap
    NO_RELEASE_GAP = "no_release_gap"    # cannot free the bottom while holding the top


class PlanError(Exception):
    def __init__(self, reason: InfeasibleReason, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class Plan:
    """Closure-angle schedule for grab, drop-bottom, drop-top."""

    theta_grasp: float
    theta_release_bottom: float
    theta_release_top: float
    grasp_window: tuple[float, float]      # both objects held
    release_window: tuple[float, float]    # top held, bottom not securely held
    top_window: HoldWindow
    bottom_window: HoldWindow


def plan_stacked(scene: StackedScene) -> Plan:
    """Angle schedule releasing the bottom object first, then the top.

    The grab angle is the midpoint of the two hold windows' overlap.  The
    bottom-release angle is picked inside the reported release window but
    additionally below the angle at which the jaws stop touching the bottom
    object at all, so the drop is unambiguous rather than merely insecure.
    """
    w_top = grasp_width(scene.top)
    w_bottom = grasp_width(scene.bottom)
    if w_bottom >= w_top:
        raise PlanError(
            InfeasibleReason.SIZE_ORDER,
            f"bottom object ({w_bottom:g} mm) must be narrower than the top "
            f"({w_top:g} mm) to release first while the top stays held",
        )

    common = dict(
        config=scene.config,
        material=scene.material,
        mu=scene.mu,
        safety=scene.safety,
        torque_scale=scene.torque_scale,
    )
    top_win = hold_window(scene.top, **common)
    bottom_win = hold_window(scene.bottom, **common)
    if top_win is None or bottom_win is None:
        which = "top" if top_win is None else "bottom"
        raise PlanError(
            InfeasibleReason.NO_COMMON_HOLD,
            f"the {which} object has no secure hold window under this "
            f"gripper/material/mass combination",
        )
    grasp_lo = max(top_win.theta_lo, bottom_win.theta_lo)
    grasp_hi = min(top_win.theta_hi, bottom_win.theta_hi)
    if grasp_lo > grasp_hi:
        raise PlanError(
            InfeasibleReason.NO_COMMON_HOLD,
            f"hold windows [{top_win.theta_lo:.1f}, {top_win.theta_hi:.1f}] and "
            f"[{bottom_win.theta_lo:.1f}, {bottom_win.theta_hi:.1f}] deg do not "
            f"overlap; the widths differ too much",
        )

    # Opening angle at which the jaws lose contact with the bottom object.
    law = scene.config.law
    theta_touch = unclamped_theta_for_opening(w_bottom, scene.config)
    release_lo = top_win.theta_lo
    release_hi = bottom_win.theta_lo
    choose_hi = min(release_hi, theta_touch)
    if choose_hi <= release_lo:
        raise PlanError(
            InfeasibleReason.NO_RELEASE_GAP,
            f"no angle frees the bottom object while the top stays held "
            f"(release window [{release_lo:.1f}, {choose_hi:.1f}] deg is empty)",
        )

    return Plan(
        theta_grasp=0.5 * (grasp_lo + grasp_hi),
        theta_release_bottom=0.5 * (release_lo + choose_hi),
        theta_release_top=law.theta_min,
        grasp_window=(grasp_lo, grasp_hi),
        release_window=(release_lo, release_hi),
        top_window=top_win,
        bottom_window=bottom_win,
    )


@dataclass(frozen=True)
class StageState:
    stage: str
    theta: float
    top_held: bool
    bottom_held: bool


def simulate_plan(scene: StackedScene, plan: Plan) -> tuple[StageState, ...]:
    """Replay the schedule and report which objects the gripper carries.

    An object counts as carried when it is touched at all and the contacts
    bear its weight outright (no planning safety margin here); the expected
    progression is (both, top only, none).  Each object's three stage
    angles are judged in one pass; a bad plan or scene raises the error
    that judging stage by stage, top object first, meets first.
    """
    stages = (
        ("grasp", plan.theta_grasp),
        ("release_bottom", plan.theta_release_bottom),
        ("release_top", plan.theta_release_top),
    )
    thetas = [theta for _, theta in stages]
    carry = (scene.config, scene.material, scene.mu, scene.torque_scale)
    try:
        top = _held(thetas, scene.top, *carry)
        bottom = _held(thetas, scene.bottom, *carry)
    except ValueError:
        # raise the error that a stage-by-stage replay, top before bottom, meets first
        for theta in thetas:
            for obj in (scene.top, scene.bottom):
                _held((theta,), obj, *carry)
        raise
    return tuple(
        StageState(stage, theta, top_held, bottom_held)
        for (stage, theta), top_held, bottom_held in zip(stages, top, bottom)
    )
