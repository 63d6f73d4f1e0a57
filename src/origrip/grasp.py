"""Quasi-static grasp mechanics: contact resolution, closure tests, pull-out.

Contact model
-------------
The gripper squeezes an object centered in the workspace.  At each module
level whose face overlaps the object's vertical span, the per-side
penetration is half the difference between the local object width and the
aperture.  Flat faces load the module in compression; convexly curved
surfaces (cross-section radius at most ``curvature_threshold * panel_span``)
make the face fold around the object instead, loading it in bending.

Wrap geometry for a bending contact on a cross-section of radius R with
penetration p:
    patch half-width   s = sqrt(2 R p - p^2), capped by the panel half-span
    patch edge angle   alpha = asin(s / R)
    panel bend angle   alpha / 2   (mean surface slope over the patch)

The contact ``inclination`` is the out-of-plane tilt of the contact normal:
zero on prismatic sides, and the vertical-profile slope at the contact
height on barrel-like objects when the face presses below the equator (the
wrapped face hooks under the widest section, resisting extraction).

Pull-out capacity sums mu * Fn * cos(inclination) + Fn * sin(inclination)
over the contact set.  Pull-out traces re-resolve the contacts while the
gripper rises: faces slide toward or past the narrowing sections and then
off the top of the object, which reproduces flat plateaus with discrete
drops for parallel grasps and a smoothly varying curve for enveloping ones.
One model serves both: ``_contact_geometry`` places every module face on
the object over (level, finger, lift) independently of the servo angle, and
``_contact_loads`` turns that geometry into penetrations and forces at one
aperture.  A trace runs both over its lift grid; ``resolve_contacts`` runs
the loads on the lift-0 geometry, which is cached per (object, gripper), so
sweeps and hold windows that revisit an object at many angles place its
faces once.

Closure
-------
Each contact adds the two edges of its friction cone as planar wrenches
(fx, fy, torque over the bounding radius).  The grasp is force closed when
the origin lies strictly inside their convex hull, with the distance to the
nearest hull facet as its margin (Ferrari and Canny's epsilon quality).
The facets come from numpy alone: a facet is a plane through three
primitives with every primitive on one side of it (``_hull_margin``).
Enveloping grasps are also judged for form closure by the angular coverage
of their wrap patches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ._finite import field_problem, require, sweep_memoized
from .mechanics import TPU95A, MaterialModel, bending_contact_force, compression_forces
from .shapes import (
    ObjectShape,
    bounding_radius,
    equator_radius,
    equator_z,
    narrowed_widths,
    vertical_profile_radius,
    width_along,
    z_span,
)
from .transmission import GripperConfig, finger_bearings, opening

_MAX_INCLINATION = 89.9  # deg; keeps sin/cos well-conditioned at deep hooks
_MAX_LIFT_POINTS = 100_000  # a pull-out trace point costs a few microseconds


class GraspMode(Enum):
    PARALLEL = "parallel"
    V_ENVELOPING = "v_enveloping"


class ContactMode(Enum):
    COMPRESSION = "compression"
    BENDING = "bending"


# --------------------------------------------------------------------------
# contact records
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ContactRecord:
    finger_index: int
    level: int                       # 0 = bottom module, upward
    mode: ContactMode
    penetration: float               # mm
    bend_angle: float | None         # deg, bending contacts only
    normal_force: float              # N
    normal: tuple[float, float]      # unit in-plane direction, into the object
    position: tuple[float, float]    # contact point in the grasp plane, mm
    inclination: float               # deg, out-of-plane tilt of the normal
    mu: float
    engagement: float                # fraction of the module face on the object
    overcompressed: bool
    overfolded: bool


@dataclass(frozen=True)
class ContactSet:
    records: tuple[ContactRecord, ...]
    grasp_mode: GraspMode
    theta: float
    char_radius: float               # torque normalization length, mm

    def __len__(self) -> int:
        return len(self.records)

    def finger(self, index: int) -> "ContactSet":
        """Sub-set of the records belonging to one finger."""
        kept = tuple(r for r in self.records if r.finger_index == index)
        return ContactSet(kept, self.grasp_mode, self.theta, self.char_radius)


@dataclass(frozen=True)
class ClosureResult:
    force_closure: bool
    form_closure: bool | None        # None when not applicable (parallel mode)
    margin: float
    wrap_angle: float | None         # deg of cross-section covered by patches


@dataclass(frozen=True)
class LiftResult:
    holds: bool
    capacity: float                  # N
    weight: float                    # N
    margin: float                    # capacity - weight, N


# --------------------------------------------------------------------------
# mode selection and contact resolution
# --------------------------------------------------------------------------


def grasp_mode(obj: ObjectShape, config: GripperConfig | None = None) -> GraspMode:
    """Parallel for flat faces, enveloping for tightly curved ones."""
    config = config or GripperConfig()
    r_h = equator_radius(obj)
    if r_h is None:
        return GraspMode.PARALLEL
    if r_h <= config.curvature_threshold * config.panel_span:
        return GraspMode.V_ENVELOPING
    return GraspMode.PARALLEL


def _wrap_edge(penetration: np.ndarray, r_h: np.ndarray | float, half_span: float) -> np.ndarray:
    """Patch edge angle (deg) of wrapped contacts; the panel bends by half of it."""
    sunk = np.minimum(penetration, r_h)  # cannot sink past the section center
    s_patch = np.sqrt(np.maximum(0.0, 2.0 * r_h * sunk - sunk * sunk))
    return _asin_deg(np.minimum(1.0, np.minimum(s_patch, half_span) / r_h))


def _asin_deg(x: np.ndarray) -> np.ndarray:
    """``math.degrees(math.asin(v))`` for each v of the 1-D array ``x``.  Not
    ``np.arcsin``: it rounds about one input in twelve differently from
    ``math.asin``, and contact angles stay bit-identical to the scalar
    reference in ``tests/oracles.py``."""
    return np.degrees(np.fromiter(map(math.asin, x.tolist()), float, x.size))


class _Geometry(NamedTuple):
    """Where each module face meets the object, over (level, finger, lift).

    None of it depends on the servo angle.  ``width`` is the object's local
    width along the finger's bearing, -inf where the face misses the
    object, so no aperture makes such a face press.
    """

    mode: GraspMode
    width: np.ndarray                # mm
    engagement: np.ndarray           # fraction of the face on the object
    inclination: np.ndarray          # deg, out-of-plane tilt of the normal
    r_h: np.ndarray | None           # cross-section radius, mm; enveloping only


def _contact_geometry(obj: ObjectShape, config: GripperConfig, lifts: np.ndarray) -> _Geometry:
    """Contact geometry with the gripper raised by each of ``lifts`` mm."""
    span_lo, span_hi = z_span(obj)
    z_eq = equator_z(obj)
    half_face = config.module_height / 2.0
    levels = np.array(config.module_levels)[:, None, None]
    overlap_lo = np.maximum(levels - half_face + lifts, span_lo)
    overlap_hi = np.minimum(levels + half_face + lifts, span_hi)
    on = overlap_hi > overlap_lo
    engagement = (overlap_hi - overlap_lo) / config.module_height
    # The face presses hardest at the widest covered section.
    z_contact = np.minimum(np.maximum(z_eq, overlap_lo), overlap_hi)

    # local_width along bearing 0 (for r_h) and along each finger
    width = np.array([width_along(obj, bearing) for bearing in (0.0, *finger_bearings(config))])[:, None]
    inclination = np.zeros(z_contact.shape)
    r_v = vertical_profile_radius(obj)
    if r_v is not None:  # a barrel narrows away from its equator
        width, within = narrowed_widths(width, z_contact - z_eq, r_v)
        on &= within
        # Below the widest section the normal tilts down, hooking under it.
        depth = z_eq - z_contact
        hooked = depth > 0.0
        inclination[hooked] = np.minimum(_MAX_INCLINATION, _asin_deg(np.minimum(1.0, depth[hooked] / r_v)))
    width = np.where(on, width, -np.inf)

    fingers = width.shape[1] - 1
    mode = grasp_mode(obj, config)
    # the cross-section radius at the contact height, from the width along bearing 0
    r_h = np.repeat(width[:, :1] / 2.0, fingers, axis=1) if mode is GraspMode.V_ENVELOPING else None
    engagement, inclination = (np.repeat(a, fingers, axis=1) for a in (engagement, inclination))
    return _Geometry(mode, width[:, 1:], engagement, inclination, r_h)


@lru_cache(maxsize=256)  # sweeps and hold windows resolve one object at many angles
def _resting_geometry(obj: ObjectShape, config: GripperConfig) -> tuple[_Geometry, tuple[tuple, ...]]:
    """``_contact_geometry`` at lift 0, shared read-only between calls, and
    the angle-free fields of each face's contact record: (finger, level,
    normal, position, inclination, engagement), in (level, finger) order."""
    geometry = _contact_geometry(obj, config, np.zeros(1))
    for array in geometry[1:]:  # every field after the mode
        if array is not None:
            array.flags.writeable = False
    outward = [(math.cos(rad), math.sin(rad)) for rad in map(math.radians, finger_bearings(config))]
    entries = []
    for (level, finger, _), width, incl, engagement in zip(
        np.ndindex(geometry.width.shape),
        geometry.width.ravel().tolist(),
        geometry.inclination.ravel().tolist(),
        geometry.engagement.ravel().tolist(),
    ):
        cos, sin = outward[finger]
        position = (width / 2.0 * cos, width / 2.0 * sin)
        entries.append((finger, level, (-cos, -sin), position, incl, engagement))
    return geometry, tuple(entries)


def _contact_loads(
    geometry: _Geometry,
    aperture: float,
    config: GripperConfig,
    material: MaterialModel,
    torque_scale: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """Contact loads at one aperture: the (level, finger, lift) mask of faces
    that press, then per pressing face, in that order, the penetration (mm),
    the bend angle (deg, None unless enveloping), the normal force (N) and
    whether the module is overcompressed (overfolded when enveloping)."""
    pen = (geometry.width - aperture) / 2.0
    hit = pen > 0.0
    pen = pen[hit]
    engagement = geometry.engagement[hit]
    if geometry.mode is not GraspMode.V_ENVELOPING:
        strain = pen / config.rest_depth
        return hit, pen, None, engagement * compression_forces(strain, material), strain > 1.0
    bend = _wrap_edge(pen, geometry.r_h[hit], config.panel_span / 2.0) / 2.0
    force = engagement  # no face wraps, so the torque scale goes unjudged, as in the scalar model
    if pen.size:
        force = engagement * bending_contact_force(bend, config.bend_lever_arm, material, torque_scale)
    return hit, pen, bend, force, bend > material.angle_hi


def resolve_contacts(
    theta: float,
    obj: ObjectShape,
    config: GripperConfig | None = None,
    material: MaterialModel | None = None,
    mu: float = 0.5,
    torque_scale: float = 1.0,
) -> ContactSet:
    """All module contacts on an object centered in the workspace."""
    config = config or GripperConfig()
    material = material or TPU95A
    geometry, entries = _resting_geometry(obj, config)
    require("mu", mu)
    hit, pens, bends, forces, overloads = _contact_loads(
        geometry, opening(theta, config), config, material, torque_scale
    )
    enveloping = geometry.mode is GraspMode.V_ENVELOPING
    mode = ContactMode.BENDING if enveloping else ContactMode.COMPRESSION
    records = [
        ContactRecord(
            finger_index=finger,
            level=level,
            mode=mode,
            penetration=pen,
            bend_angle=bend,
            normal_force=force,
            normal=normal,
            position=position,
            inclination=incl,
            mu=mu,
            engagement=engagement,
            overcompressed=overloaded and not enveloping,
            overfolded=overloaded and enveloping,
        )
        for (finger, level, normal, position, incl, engagement), pen, bend, force, overloaded in zip(
            map(entries.__getitem__, np.flatnonzero(hit).tolist()),
            pens.tolist(),
            bends.tolist() if enveloping else [None] * pens.size,
            forces.tolist(),
            overloads.tolist(),
        )
    ]
    return ContactSet(
        records=tuple(records),
        grasp_mode=geometry.mode,
        theta=theta,
        char_radius=bounding_radius(obj),
    )


# --------------------------------------------------------------------------
# wrench-space closure
# --------------------------------------------------------------------------


def contact_wrench_primitives(contacts: ContactSet) -> np.ndarray:
    """Friction-cone edge wrenches, one row per primitive: (fx, fy, tau).

    Each contact contributes the two planar cone edges at +-atan(mu) about
    its normal (the edges coincide when mu = 0), in that order.  Torque is
    taken about the object centroid and normalized by the bounding-circle
    radius so all three wrench coordinates share a force scale.
    """
    if len(contacts) == 0:
        raise ValueError("contact set is empty")
    fields = [(*rec.normal, *rec.position, rec.normal_force, rec.mu) for rec in contacts.records]
    nx, ny, px, py, force, mu = np.repeat(np.array(fields).T, 2, axis=1)
    mu *= np.tile((1.0, -1.0), len(fields))  # f = force * (n + sign * mu * t), t = (-ny, nx)
    fx = force * (nx + mu * -ny)
    fy = force * (ny + mu * nx)
    return np.column_stack((fx, fy, (px * fy - py * fx) / contacts.char_radius))


@dataclass(frozen=True)
class ForceClosure:
    closed: bool
    margin: float


_RANK_RTOL = 1e-9  # singular values below this, relative to the largest component, count as 0
_PLANE_TOL = 2.0**-40  # a point this far past a plane (in a set scaled to at most 1) counts as on it
_ALL_TRIPLES = 16  # sets up to this size try every triple of points at once
_CACHED_TRIPLES = 4096  # index arrays of up to this many triples are kept (sets of up to 30 points)
_SIDE_ENTRIES = 1 << 22  # bounds the (points x triples) side matrix of one step, 32 MB
# a larger set starts from its extreme points along these 14 directions (each column, both signs)
_SEED_DIRECTIONS = np.array(
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]], dtype=float
).T
# the components of pj - pi, pk - pi, pj - pi, pk - pi in the order n = (pj - pi) x (pk - pi) reads them
_CROSS_ORDER = np.array([[1, 2, 0], [2, 0, 1], [2, 0, 1], [1, 2, 0]])[:, :, None]


def _gathers(triples: np.ndarray) -> tuple[np.ndarray, ...]:
    """For (T, 3) indices i < j < k into row-major (x, y, z) points: flat
    indices whose differences ``u[heads] - u[tails]`` are the four edge
    vectors that the cross product multiplies, then i and ``arange(T)``."""
    i, j, k = triples.T
    heads = 3 * np.stack((j, k, j, k))[:, None, :] + _CROSS_ORDER
    tails = 3 * i + _CROSS_ORDER
    return heads.ravel(), tails.ravel(), i, np.arange(i.size)


@lru_cache(maxsize=None)  # at most 31 entries of at most 0.8 MB each
def _small_triples(m: int) -> tuple[np.ndarray, ...]:
    return _gathers(np.array(list(combinations(range(m), 3)), dtype=np.intp).reshape(-1, 3))


def _triple_blocks(m: int, size: int) -> Iterator[tuple[np.ndarray, ...]]:
    """``_gathers`` of every triple of ``m`` points, at most ``size`` triples at a time."""
    if math.comb(m, 3) <= min(size, _CACHED_TRIPLES):
        yield _small_triples(m)
        return
    triples = combinations(range(m), 3)
    while block := list(islice(triples, size)):
        yield _gathers(np.array(block, dtype=np.intp))


def _scan(points: np.ndarray, m: int) -> tuple[float, np.ndarray]:
    """Facets of the convex hull of ``points[:m]``, from its point triples,
    set against every point: the smallest signed distance from the origin to
    a facet plane, and the rows past ``m`` that lie farthest outside each
    facet they lie outside of.

    A triple's plane is a facet when no point of the first ``m`` lies
    ``_PLANE_TOL`` or more past one of its sides; its outward normal then
    points to that side, and a plane of a flat subset points both ways.
    """
    u = points[:m].ravel()
    nearest, outside = math.inf, []
    for heads, tails, i, columns in _triple_blocks(m, max(1, _SIDE_ENTRIES // len(points))):
        edges = (u[heads] - u[tails]).reshape(4, 3, -1)
        normals = edges[0] * edges[1] - edges[2] * edges[3]  # (pj - pi) x (pk - pi)
        side = points @ normals
        offset = side[i, columns]
        inner = side[:m]
        norm = np.sqrt(np.einsum("ij,ij->j", normals, normals))
        slack = _PLANE_TOL * norm
        ahead = inner.max(axis=0) - offset < slack  # all on the -n side: n points out
        behind = offset - inner.min(axis=0) < slack  # all on the +n side: -n points out
        # strict tests: the zero normal of a repeated point is neither, and its distance inf
        reach = np.minimum(np.where(ahead, offset, np.inf), np.where(behind, -offset, np.inf))
        nearest = min(nearest, float((reach / norm).min(initial=math.inf)))  # no triple: no facet
        if m < len(points):
            outer = side[m:]
            past = ahead & (outer.max(axis=0) - offset >= slack)
            below = behind & (offset - outer.min(axis=0) >= slack)
            outside += [m + outer.argmax(axis=0)[past], m + outer.argmin(axis=0)[below]]
    return nearest, np.unique(np.concatenate(outside)) if outside else np.array([], dtype=np.intp)


def _hull_margin(points: np.ndarray, scale: float) -> float:
    """Signed distance from the origin to the nearest facet plane of the
    convex hull of ``points`` (n x 3, rank 3, largest component ``scale``):
    positive iff the origin lies strictly inside.

    Sets up to ``_ALL_TRIPLES`` points take their facets from every point
    triple.  A larger set grows a subset, starting from its extreme points:
    each step adds, per facet of the subset's hull, the point farthest
    outside it, until no point is outside, when the subset's facets are the
    hull's.  A point less than ``_PLANE_TOL`` outside a plane counts as on
    it, so the distance can come out short by that much, relative to
    ``scale``.  Rounding adds a few units of ``scale``'s last digit, and
    more on facets whose three points nearly line up: on needle-shaped
    hulls up to about 3e-13 of ``scale``.
    """
    exponent = math.frexp(scale)[1]
    points = np.ldexp(points, -exponent)  # exact: the largest component now lies in [0.5, 1)
    n = len(points)
    if n <= _ALL_TRIPLES:
        return math.ldexp(_scan(points, n)[0], exponent)
    extent = points @ _SEED_DIRECTIONS
    member = np.zeros(n, dtype=bool)
    member[extent.argmax(axis=0)] = member[extent.argmin(axis=0)] = True
    while True:
        order = np.concatenate((np.flatnonzero(member), np.flatnonzero(~member)))
        nearest, outside = _scan(points[order], np.count_nonzero(member))
        if nearest == math.inf and not member.all():  # collinear extreme points span no plane yet
            member[:] = True
        elif outside.size == 0:
            return math.ldexp(nearest, exponent)
        else:
            member[order[outside]] = True


def is_force_closure(primitives: np.ndarray) -> ForceClosure:
    """Strict origin-in-hull test in wrench space.

    The primitives positively span wrench space iff the origin lies strictly
    inside their convex hull.  The margin is the origin's distance to the
    nearest hull facet (the Ferrari-Canny epsilon quality), 0 when not
    closed.  Sets of rank below 3 are flat and never closed; the rank
    tolerance is relative to the largest component, so the verdict is
    scale-free and rounding noise cannot pass a flat set off as a thin hull.
    The hull comes from enumerating point triples (see ``_hull_margin``),
    whose cost grows with the cube of the hull's vertex count: it suits the
    few dozen primitives of a contact set.

    Within a sweep (``scenario.run_sweep``), the result is kept in the
    sweep-scoped memo ``_finite.SWEEP_MEMO`` under the exact shape and bytes
    of the primitives, and an equal set is decided once.  Inside the
    modules' constant-force plateau every point of a theta sweep presses
    with the same forces at the same contacts, so most points repeat an
    earlier set.
    """
    primitives = np.asarray(primitives, dtype=float)
    if primitives.ndim != 2 or primitives.shape[1] != 3 or primitives.shape[0] < 2:
        raise ValueError("need at least two wrench primitives of dimension 3")
    return sweep_memoized(("closure", primitives.shape, primitives.tobytes()), _force_closure, primitives)


def _force_closure(primitives: np.ndarray) -> ForceClosure:
    scale = float(np.abs(primitives).max())
    singular = np.linalg.svd(primitives, compute_uv=False)
    if np.count_nonzero(singular > _RANK_RTOL * scale) < 3:  # matrix_rank's test
        return ForceClosure(False, 0.0)
    margin = _hull_margin(primitives, scale)
    if margin <= 0.0:
        return ForceClosure(False, 0.0)
    return ForceClosure(True, margin)


def is_form_closure(
    contacts: ContactSet,
    obj: ObjectShape,
    config: GripperConfig | None = None,
    slip_margin: float = 15.0,
) -> tuple[bool, float]:
    """Frictionless geometric envelopment test for enveloping grasps.

    Accumulates the angular sectors of the cross-section covered by wrap
    patches; the grasp is form closed when coverage reaches
    180 deg + 2 * slip_margin.  Parallel grasps have no wrap and are a
    domain error.
    """
    config = config or GripperConfig()
    if contacts.grasp_mode is not GraspMode.V_ENVELOPING:
        raise ValueError("form closure is defined only for enveloping grasps")
    bearings = finger_bearings(config)
    wrapped = [rec for rec in contacts.records if rec.mode is ContactMode.BENDING]
    r_h = equator_radius(obj)  # coverage assessed on the widest section
    edges = []
    if r_h is not None:
        penetration = np.array([rec.penetration for rec in wrapped], dtype=float)
        edges = _wrap_edge(penetration, r_h, config.panel_span / 2.0).tolist()
    intervals = [
        (bearings[rec.finger_index] - edge, bearings[rec.finger_index] + edge)
        for rec, edge in zip(wrapped, edges)
    ]
    coverage = _circular_union_deg(intervals)
    threshold = 180.0 + 2.0 * slip_margin
    return coverage >= threshold, coverage


def _circular_union_deg(intervals: Iterable[tuple[float, float]]) -> float:
    """Total angular measure (deg) of a union of circle arcs."""
    spans = []
    for lo, hi in intervals:
        if hi - lo >= 360.0:
            return 360.0
        lo %= 360.0
        hi = lo + (hi - lo) % 360.0 if hi != lo else lo
        width = (hi - lo) % 360.0
        if width == 0.0:
            continue
        if lo + width <= 360.0:
            spans.append((lo, lo + width))
        else:
            spans.append((lo, 360.0))
            spans.append((0.0, (lo + width) % 360.0))
    if not spans:
        return 0.0
    spans.sort()
    total = 0.0
    cur_lo, cur_hi = spans[0]
    for lo, hi in spans[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    total += cur_hi - cur_lo
    return total


def closure_summary(
    contacts: ContactSet,
    obj: ObjectShape,
    config: GripperConfig | None = None,
    slip_margin: float = 15.0,
) -> ClosureResult:
    """Force closure always; form closure only where it applies.  Fewer than
    two contacts close nothing, and form closure is then not judged."""
    if len(contacts) < 2:
        return ClosureResult(False, None, 0.0, None)
    fc = is_force_closure(contact_wrench_primitives(contacts))
    if contacts.grasp_mode is GraspMode.V_ENVELOPING:
        form, wrap = is_form_closure(contacts, obj, config, slip_margin)
        return ClosureResult(fc.closed, form, fc.margin, wrap)
    return ClosureResult(fc.closed, None, fc.margin, None)


# --------------------------------------------------------------------------
# pull-out resistance and lifting
# --------------------------------------------------------------------------


def pullout_capacity(contacts: ContactSet | Sequence[ContactRecord]) -> float:
    """Maximum vertical extraction resistance of a contact set, N."""
    records = contacts.records if isinstance(contacts, ContactSet) else tuple(contacts)
    total = 0.0
    for rec in records:
        incl = math.radians(rec.inclination)
        total += rec.mu * rec.normal_force * math.cos(incl) + rec.normal_force * math.sin(incl)
    return total


def squeeze_force(contacts: ContactSet, finger_index: int | None = None) -> float:
    """Sum of in-plane normal force components, optionally for one finger.

    This is what a probe sensor reads while being squeezed: the horizontal
    push of one side's modules.
    """
    records = (
        contacts.records
        if finger_index is None
        else contacts.finger(finger_index).records
    )
    return sum(r.normal_force * math.cos(math.radians(r.inclination)) for r in records)


def lift_check(
    contacts: ContactSet,
    obj: ObjectShape,
    gravity: float = 9.81,
    safety: float = 1.0,
) -> LiftResult:
    """Does the grasp carry the object's weight with the given safety factor?"""
    if gravity <= 0.0:
        raise ValueError(f"gravity must be positive, got {gravity:g}")
    require("safety", safety)
    capacity = pullout_capacity(contacts)
    weight = obj.mass * gravity
    return LiftResult(
        holds=capacity >= safety * weight,
        capacity=capacity,
        weight=weight,
        margin=capacity - weight,
    )


@dataclass(frozen=True)
class PulloutTrace:
    lifts: np.ndarray                # mm, ascending
    forces: np.ndarray               # N
    t1: float                        # lift start
    t2: float                        # top face starts to leave the object
    t3: float                        # top face fully above the object
    t4: float                        # bottom face fully above the object

    @property
    def markers(self) -> dict[str, float]:
        return {"t1": self.t1, "t2": self.t2, "t3": self.t3, "t4": self.t4}

    def stage_of(self, lift: float) -> str:
        if lift < self.t2:
            return "t1"
        if lift < self.t3:
            return "t2"
        if lift < self.t4:
            return "t3"
        return "t4"


def default_lift_grid(
    probe: ObjectShape, config: GripperConfig | None = None, step: float = 0.5
) -> np.ndarray:
    """Grid from 0 to just past full disengagement, at most ``_MAX_LIFT_POINTS`` points."""
    config = config or GripperConfig()
    require("lift_step", step)
    _, span_hi = z_span(probe)
    lift_max = span_hi - (config.module_levels[0] - config.module_height / 2.0) + 2.0 * step
    points = (lift_max + step) / step
    if points > _MAX_LIFT_POINTS:
        raise ValueError(f"lift grid of {points:.3g} points exceeds {_MAX_LIFT_POINTS}")
    return np.arange(0.0, lift_max + step, step)


def pullout_trace(
    theta: float,
    probe: ObjectShape,
    config: GripperConfig | None = None,
    material: MaterialModel | None = None,
    mu: float = 0.5,
    lift_grid: Sequence[float] | np.ndarray | None = None,
    torque_scale: float = 1.0,
) -> PulloutTrace:
    """Extraction-resistance curve while the gripper rises off a fixed probe.

    The probe must cover both module faces at lift 0 so every stage
    transition appears in the trace.
    """
    config = config or GripperConfig()
    material = material or TPU95A
    span_lo, span_hi = z_span(probe)
    for level_z in config.module_levels:
        if not span_lo <= level_z <= span_hi:
            raise ValueError(
                f"probe span [{span_lo:g}, {span_hi:g}] mm does not cover the "
                f"module level at {level_z:g} mm"
            )
    if lift_grid is None:
        lift_grid = default_lift_grid(probe, config)
    lifts = np.asarray(lift_grid, dtype=float)
    if lifts.size == 0:
        raise ValueError("lift_grid is empty")
    if lifts.ndim != 1:
        raise ValueError(f"lift_grid must be one-dimensional, got shape {lifts.shape}")
    if not np.isfinite(lifts).all():
        raise ValueError(f"lift_grid must be finite, got {lifts[~np.isfinite(lifts)][0]:g}")

    geometry = _contact_geometry(probe, config, lifts)
    require("mu", mu)
    hit, _, _, force, _ = _contact_loads(geometry, opening(theta, config), config, material, torque_scale)
    rad = np.radians(geometry.inclination[hit])
    terms = np.zeros(hit.shape)
    terms[hit] = mu * force * np.cos(rad) + force * np.sin(rad)
    # pullout_capacity's sum: contact by contact, level-major then finger-minor
    forces = np.zeros(lifts.shape)
    for term in terms.reshape(-1, lifts.size):
        forces += term
    top = config.module_levels[-1]
    bottom = config.module_levels[0]
    half_face = config.module_height / 2.0
    return PulloutTrace(
        lifts=lifts,
        forces=forces,
        t1=0.0,
        t2=max(0.0, span_hi - (top + half_face)),
        t3=max(0.0, span_hi - (top - half_face)),
        t4=max(0.0, span_hi - (bottom - half_face)),
    )


# --------------------------------------------------------------------------
# friction calibration
# --------------------------------------------------------------------------


def calibrate_friction(
    probe: ObjectShape,
    theta: float,
    config: GripperConfig | None = None,
    material: MaterialModel | None = None,
    target_side_force: float = 1.5,
    torque_scale: float = 1.0,
) -> float:
    """Friction coefficient making one finger's extraction resistance equal
    the target.

    The probe instrumentation reads the vertical force transmitted through
    one side of the grasp, so the fit is against a single finger's records;
    normal forces do not depend on mu, which makes the capacity linear in mu
    and the fit closed-form.
    """
    if not math.isfinite(target_side_force):
        raise ValueError(f"target must be finite, got {target_side_force:g}")
    contacts = resolve_contacts(theta, probe, config, material, mu=0.0, torque_scale=torque_scale)
    side = contacts.finger(0)
    if len(side) == 0:
        raise ValueError("probe makes no contact on the reference finger")
    slope = squeeze_force(side)
    intercept = pullout_capacity(side)  # at mu = 0 only the hooking term is left
    if slope <= 0.0:
        raise ValueError("degenerate probe contact: no friction-bearing normal force")
    if target_side_force < intercept:
        raise ValueError(
            f"target {target_side_force:g} N is below the frictionless wrap "
            f"resistance {intercept:g} N; no non-negative mu fits"
        )
    mu = (target_side_force - intercept) / slope
    if (why := field_problem("mu", mu)) is not None:
        raise ValueError(f"target {target_side_force:g} N needs a friction coefficient out of range: mu {why}")
    return mu
