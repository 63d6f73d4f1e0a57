"""Graspable object geometry.

Objects are convex solids described by a kind plus a short dimension tuple.
The grasp analysis is planar (wrenches live in the horizontal plane) but
contact bookkeeping is 2.5-D: module faces act at discrete heights, so each
shape also exposes its vertical span and, for barrel-like kinds, how the
horizontal cross-section narrows away from the equator.

Dimension order per kind:
    sphere        (diameter,)
    cube          (edge,)
    cuboid        (width, depth, height)     width lies along finger bearing 0
    cylinder      (diameter, height)         axis vertical
    curved_block  (radius, width[, height])  barrel: vertical profile radius,
                                             equator diameter, vertical extent
                                             (defaults to width)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from ._finite import require_finite


class ShapeKind(str, Enum):
    SPHERE = "sphere"
    CUBE = "cube"
    CUBOID = "cuboid"
    CYLINDER = "cylinder"
    CURVED_BLOCK = "curved_block"


_DIM_NAMES = {
    ShapeKind.SPHERE: ("diameter",),
    ShapeKind.CUBE: ("edge",),
    ShapeKind.CUBOID: ("width", "depth", "height"),
    ShapeKind.CYLINDER: ("diameter", "height"),
    ShapeKind.CURVED_BLOCK: ("radius", "width", "height"),
}

# how many dims each kind accepts: all, or for a curved_block all but its height
DIM_COUNTS = {
    kind: (len(names) - 1, len(names)) if kind is ShapeKind.CURVED_BLOCK else (len(names),)
    for kind, names in _DIM_NAMES.items()
}


@dataclass(frozen=True)
class Pose:
    """Base height ``z`` and turn about the vertical.  The fingers close
    symmetrically, so the model centres every object on the gripper axis
    and a pose has no horizontal offset."""

    z: float = 0.0
    yaw: float = 0.0          # deg

    def __post_init__(self):
        require_finite(self)


@dataclass(frozen=True)
class ObjectShape:
    """A primitive object: its kind, dimensions in mm, mass in kg and pose."""

    kind: ShapeKind
    dims: tuple[float, ...]
    mass: float = 0.0         # kg
    name: str = ""
    pose: Pose = field(default_factory=Pose)

    def __post_init__(self):
        names = _DIM_NAMES[self.kind]
        dims = tuple(self.dims)  # a list would leave it mutable and unhashable
        if len(dims) not in DIM_COUNTS[self.kind]:
            raise ValueError(f"{self.kind.value} needs dims {names}, got {len(dims)} values")
        # a curved_block's vertical extent defaults to its equator width
        object.__setattr__(self, "dims", dims if len(dims) == len(names) else (*dims, dims[1]))
        require_finite(self)
        if self.kind is ShapeKind.CURVED_BLOCK:
            radius, width, height = self.dims
            if width > 2.0 * radius:
                raise ValueError("curved_block width cannot exceed its profile diameter")
            if height > 2.0 * radius:
                raise ValueError("curved_block height cannot exceed its profile diameter")


# convenience constructors -------------------------------------------------


def sphere(diameter: float, mass: float = 0.0, **kw) -> ObjectShape:
    return ObjectShape(ShapeKind.SPHERE, (diameter,), mass, **kw)


def cube(edge: float, mass: float = 0.0, **kw) -> ObjectShape:
    return ObjectShape(ShapeKind.CUBE, (edge,), mass, **kw)


def cuboid(width: float, depth: float, height: float, mass: float = 0.0, **kw) -> ObjectShape:
    return ObjectShape(ShapeKind.CUBOID, (width, depth, height), mass, **kw)


def cylinder(diameter: float, height: float, mass: float = 0.0, **kw) -> ObjectShape:
    return ObjectShape(ShapeKind.CYLINDER, (diameter, height), mass, **kw)


def curved_block(
    radius: float, width: float, height: float | None = None, mass: float = 0.0, **kw
) -> ObjectShape:
    dims = (radius, width) if height is None else (radius, width, height)
    return ObjectShape(ShapeKind.CURVED_BLOCK, dims, mass, **kw)


# geometry queries ---------------------------------------------------------


def grasp_width(obj: ObjectShape) -> float:
    """Widest extent along the finger closure axis (bearing 0), mm."""
    return width_along(obj, 0.0)


def width_along(obj: ObjectShape, bearing_deg: float) -> float:
    """Support width of the equator cross-section along a bearing, mm."""
    if obj.kind is ShapeKind.SPHERE or obj.kind is ShapeKind.CYLINDER:
        return obj.dims[0]
    if obj.kind is ShapeKind.CURVED_BLOCK:
        return obj.dims[1]
    if obj.kind is ShapeKind.CUBE:
        w = d = obj.dims[0]
    else:  # cuboid
        w, d = obj.dims[0], obj.dims[1]
    rel = math.radians(bearing_deg - obj.pose.yaw)
    return w * abs(math.cos(rel)) + d * abs(math.sin(rel))


def vertical_extent(obj: ObjectShape) -> float:
    if obj.kind is ShapeKind.SPHERE:
        return obj.dims[0]
    if obj.kind is ShapeKind.CUBE:
        return obj.dims[0]
    if obj.kind is ShapeKind.CUBOID:
        return obj.dims[2]
    if obj.kind is ShapeKind.CYLINDER:
        return obj.dims[1]
    return obj.dims[2]  # curved_block


def z_span(obj: ObjectShape) -> tuple[float, float]:
    """World-frame vertical interval occupied by the object."""
    return obj.pose.z, obj.pose.z + vertical_extent(obj)


def equator_z(obj: ObjectShape) -> float:
    """Height of the widest horizontal cross-section."""
    lo, hi = z_span(obj)
    return 0.5 * (lo + hi)


def vertical_profile_radius(obj: ObjectShape) -> float | None:
    """Curvature radius of the side profile in a vertical plane.

    None means the sides are vertical (prisms), so the cross-section never
    narrows and contact normals carry no vertical component.
    """
    if obj.kind is ShapeKind.SPHERE:
        return obj.dims[0] / 2.0
    if obj.kind is ShapeKind.CURVED_BLOCK:
        return obj.dims[0]
    return None


def local_width(obj: ObjectShape, bearing_deg: float, z: float) -> float:
    """Support width of the cross-section at world height ``z``, mm.

    Returns 0.0 outside the vertical span or where a barrel profile has
    narrowed to nothing.
    """
    lo, hi = z_span(obj)
    if not lo <= z <= hi:
        return 0.0
    r_v = vertical_profile_radius(obj)
    if r_v is None:
        return width_along(obj, bearing_deg)
    width, within = narrowed_widths(width_along(obj, bearing_deg), z - equator_z(obj), r_v)
    return float(width) if within else 0.0


def narrowed_widths(widths: np.ndarray | float, dz: np.ndarray | float, r_v: float) -> tuple[np.ndarray, np.ndarray]:
    """Cross-section widths of a barrel ``dz`` mm off its equator: each
    equator width of ``widths`` less one sagitta of the vertical profile
    radius ``r_v`` per side, at least 0, and the mask of ``|dz| <= r_v``,
    where the section exists.  The two arguments broadcast."""
    within = np.abs(dz) <= r_v
    sagitta = r_v - np.sqrt(r_v * r_v - np.where(within, dz * dz, 0.0))
    return np.maximum(0.0, widths - 2.0 * sagitta), within


def equator_radius(obj: ObjectShape) -> float | None:
    """Curvature radius of the widest cross-section in the grasp plane, mm.

    None means flat faces (cube/cuboid).
    """
    if obj.kind in (ShapeKind.CUBE, ShapeKind.CUBOID):
        return None
    return width_along(obj, 0.0) / 2.0


def bounding_radius(obj: ObjectShape) -> float:
    """Radius of the bounding circle of the equator cross-section."""
    if obj.kind is ShapeKind.CUBE:
        e = obj.dims[0]
        return e * math.sqrt(2.0) / 2.0
    if obj.kind is ShapeKind.CUBOID:
        w, d = obj.dims[0], obj.dims[1]
        return math.sqrt(w * w + d * d) / 2.0
    return width_along(obj, 0.0) / 2.0


def stack_on(top: ObjectShape, bottom: ObjectShape, gap: float = 0.0) -> ObjectShape:
    """Copy of ``top`` resting on ``bottom`` (plus an optional gap)."""
    base = bottom.pose.z + vertical_extent(bottom) + gap
    return replace(top, pose=replace(top.pose, z=base))
