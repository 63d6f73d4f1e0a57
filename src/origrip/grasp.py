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
the object over (level, column, lift) independently of the servo angle, and
``_contact_loads`` turns that geometry into penetrations and module-curve
forces, which the engaged fraction of each face scales.  One drive moves
every finger, so fingers that meet the object at one width share a column,
and an object with vertical sides has one width at every lift, so its width
keeps a lift axis of length 1.  A trace runs both over its lift grid at one
aperture: each curve once per (level, column) cell that presses at some
lift, then the engagement at each lift, gathered back to (level, finger,
lift) for the sum.  ``_resolve`` runs the loads on the lift-0 geometry,
cached per (object, gripper) with one entry per module face in (level,
finger) order, against a column of the apertures of a list of servo
angles, so a theta sweep resolves every point in one pass into one contact
set that runs point by point as it comes out of the (point, face) mask,
and the bounds of each point's run in it; the planner resolves a hold
window's two edges, or an object's stage angles, in one pass, and a
one-shot grasp, a bisection step and ``resolve_contacts`` take the same
path with one angle.
Per-point facts are functions of (contacts, bounds), one column entry per
point: ``_point_totals`` for the sums, ``_closures`` for the verdicts,
and ``_bears``, the hold rule, reads the capacity column.  A
``ContactSet`` holds its contacts as columns, its only form, and sums over
contacts add them one at a time in (level, finger) order, as the scalar
model does: ``_point_totals`` walks each run's contacts in one plain loop,
for one point or many, and the public sums (``squeeze_force``,
``pullout_capacity``) are its one-run case.

Closure
-------
Each contact adds the two edges of its friction cone as planar wrenches
(fx, fy, torque over the bounding radius).  The grasp is force closed when
the origin lies strictly inside their convex hull, with the distance to the
nearest hull facet as its margin (Ferrari and Canny's epsilon quality).
The facets come from numpy alone: a facet is a plane through three
primitives with every primitive on one side of it (``_scan``).  A gripper
has at most 4 fingers of at most 4 module levels, so a set has at most 32
primitives, and more are refused.  One decision serves
``is_force_closure``, ``closure_summary`` and a sweep
(``_force_closures``): it tells sets apart by their bytes, decides each
distinct set once, and scans every triple of the sets of each size
together, as one (sets, primitives, 3) stack.  A theta sweep hands it every
point's set at once, and inside the modules' constant-force plateau most
points repeat a set; a one-shot grasp takes the same path with one set.
The scan's largest triple determinant proves a set solid; only a set it
leaves unproven, flat or nearly so, has its rank taken by an SVD, and a
flat set keeps margin 0.  Enveloping grasps are also judged for form
closure by the angular coverage of their wrap patches: the arcs of every
run's contacts are normalised and sorted in array passes, and merged in
one walk.  ``_closures`` reports each fact as a column with one entry per
run; ``closure_summary`` is its one-run case.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, fields
from enum import Enum
from functools import lru_cache
from itertools import combinations, islice
from types import MappingProxyType
from typing import NamedTuple, Sequence

import numpy as np

from ._finite import field_problem, require
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
from .transmission import FINGER_COUNTS, MAX_MODULE_LEVELS, GripperConfig, finger_bearings, opening

_MAX_INCLINATION = 89.9  # deg; keeps sin/cos well-conditioned at deep hooks
_MAX_LIFT_POINTS = 100_000  # a pull-out trace point costs a few microseconds
_GRAVITY = 9.81  # m/s^2; with masses in kg, weights come out in N


class GraspMode(Enum):
    PARALLEL = "parallel"
    V_ENVELOPING = "v_enveloping"


class ContactMode(Enum):
    COMPRESSION = "compression"
    BENDING = "bending"


_CONTACT_MODES = {GraspMode.PARALLEL: ContactMode.COMPRESSION, GraspMode.V_ENVELOPING: ContactMode.BENDING}

@dataclass(frozen=True, eq=False)
class ContactSet:
    """The contacts of one grasp, held as columns with one entry per contact
    (rows for ``normal`` and ``position``), in (level, finger) order when
    resolved.  The fields after ``char_radius`` are the columns, passed by
    keyword only.  A contact's mode follows the grasp: compression in a
    parallel grasp, bending in an enveloping one, which alone has
    ``bend_angle``.  Subsets share the columns, which are never written.  A
    set holds no servo angle: one pass of a sweep resolves many angles into
    one set.  Equality compares the grasp mode, ``char_radius`` and each
    column by value, and a set equals itself even when a column holds a NaN.
    """

    grasp_mode: GraspMode
    char_radius: float               # torque normalization length, mm
    _: KW_ONLY
    finger_index: np.ndarray
    level: np.ndarray                # 0 = bottom module, upward
    penetration: np.ndarray          # mm
    bend_angle: np.ndarray | None    # deg; None unless enveloping
    normal_force: np.ndarray         # N
    normal: np.ndarray               # (n, 2) unit in-plane directions, into the object
    position: np.ndarray             # (n, 2) contact points in the grasp plane, mm
    inclination: np.ndarray          # deg, out-of-plane tilt of the normal
    incl_cos: np.ndarray             # math.cos and math.sin of each inclination
    incl_sin: np.ndarray
    mu: np.ndarray
    engagement: np.ndarray           # fraction of the module face on the object
    overcompressed: np.ndarray
    overfolded: np.ndarray

    def __post_init__(self) -> None:
        enveloping = self.grasp_mode is GraspMode.V_ENVELOPING
        if (self.bend_angle is None) == enveloping:
            raise ValueError(
                f"a {self.grasp_mode.value} grasp has {_CONTACT_MODES[self.grasp_mode].value} contacts, "
                f"with a bend angle {'each' if enveloping else 'on none'}"
            )

    @property
    def contact_mode(self) -> ContactMode:
        """The mode of every contact."""
        return _CONTACT_MODES[self.grasp_mode]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self is other:
            return True
        if (self.grasp_mode, self.char_radius) != (other.grasp_mode, other.char_radius):
            return False
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS)

    def __hash__(self) -> int:
        return hash((self.grasp_mode, self.char_radius, len(self)))

    def __len__(self) -> int:
        return len(self.normal_force)

    def _take(self, keep: np.ndarray | slice) -> "ContactSet":
        """The contacts ``keep`` selects."""
        columns = {name: None if (column := getattr(self, name)) is None else column[keep] for name in _COLUMNS}
        return ContactSet(self.grasp_mode, self.char_radius, **columns)

    def finger(self, index: int) -> "ContactSet":
        """Sub-set of the contacts belonging to one finger."""
        return self._take(self.finger_index == index)


_COLUMNS = tuple(f.name for f in fields(ContactSet))[2:]  # the per-contact columns, in field order


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
    """Where each module face meets the object, over (level, column, lift).

    None of it depends on the servo angle.  Fingers that meet the object at
    one width share a column, and ``column`` maps each finger to its own.
    ``width`` is the object's local width in a column, -inf where the face
    misses the object, so no aperture makes such a face press.  An object
    with vertical sides has one width at every lift: its ``width`` and
    ``r_h`` keep a lift axis of length 1, where -inf marks a level that
    misses the object at every lift, and ``engagement``, 0 where a face is
    off the object, marks the lifts.
    """

    mode: GraspMode
    width: np.ndarray                # mm, (level, column, lift or 1)
    engagement: np.ndarray           # fraction of the face on the object, (level, 1, lift)
    inclination: np.ndarray          # deg, out-of-plane tilt of the normal, (level, 1, lift)
    r_h: np.ndarray | None           # cross-section radius, mm, (level, 1, lift or 1); enveloping only
    column: np.ndarray               # the column of each finger


def _contact_geometry(obj: ObjectShape, config: GripperConfig, lifts: np.ndarray) -> _Geometry:
    """Contact geometry with the gripper raised by each of ``lifts`` mm."""
    span_lo, span_hi = z_span(obj)
    z_eq = equator_z(obj)
    half_face = config.module_height / 2.0
    levels = np.array(config.module_levels)[:, None, None]
    overlap_lo = np.maximum(levels - half_face + lifts, span_lo)
    overlap_hi = np.minimum(levels + half_face + lifts, span_hi)
    on = overlap_hi > overlap_lo
    engagement = np.maximum(overlap_hi - overlap_lo, 0.0) / config.module_height
    # The face presses hardest at the widest covered section.
    z_contact = np.minimum(np.maximum(z_eq, overlap_lo), overlap_hi)

    # one column per distinct local width along a finger, finger 0 (bearing 0) first
    widths = [width_along(obj, bearing) for bearing in finger_bearings(config)]
    distinct = list(dict.fromkeys(widths))
    column = np.array([distinct.index(w) for w in widths])
    width = np.array(distinct)[:, None]
    inclination = np.zeros(z_contact.shape)
    r_v = vertical_profile_radius(obj)
    if r_v is not None:  # a barrel narrows away from its equator
        width, within = narrowed_widths(width, z_contact - z_eq, r_v)
        on &= within
        # Below the widest section the normal tilts down, hooking under it.
        depth = z_eq - z_contact
        hooked = depth > 0.0
        inclination[hooked] = np.minimum(_MAX_INCLINATION, _asin_deg(np.minimum(1.0, depth[hooked] / r_v)))
    else:  # vertical sides: a level's width is the same at every lift where it touches
        on = on.any(axis=2, keepdims=True)
    width = np.where(on, width, -np.inf)

    mode = grasp_mode(obj, config)
    # the cross-section radius at the contact height, from the width along bearing 0
    r_h = width[:, :1] / 2.0 if mode is GraspMode.V_ENVELOPING else None
    return _Geometry(mode, width, engagement, inclination, r_h, column)


class _Faces(NamedTuple):
    """``_contact_geometry`` at lift 0, one entry per module face in (level,
    finger) order: the width (mm, -inf where the face misses the object) and
    ``r_h`` (mm, enveloping only) that ``_contact_loads`` reads, and
    ``columns``, the angle-free ``ContactSet`` columns of each face's
    contact by name: finger and level, the normal and the position (mm;
    (0, 0) where the face misses the object) in the grasp plane, the
    inclination (deg), its ``math.cos`` and ``math.sin``, and the engaged
    fraction of the face."""

    mode: GraspMode
    width: np.ndarray
    r_h: np.ndarray | None
    columns: MappingProxyType[str, np.ndarray]


@lru_cache(maxsize=256)  # sweeps and hold windows resolve one object at many angles
def _resting_geometry(obj: ObjectShape, config: GripperConfig) -> tuple[_Faces, float]:
    """The object's module faces at lift 0, shared read-only between calls
    (every array, and the column mapping), and its bounding radius."""
    lifted = _contact_geometry(obj, config, np.zeros(1))
    level, finger = (a.ravel() for a in np.indices((len(config.module_levels), len(lifted.column))))
    width = lifted.width[level, lifted.column[finger], 0]
    outward = np.array([(math.cos(rad), math.sin(rad)) for rad in map(math.radians, finger_bearings(config))])
    outward = outward[finger]
    inclination = lifted.inclination[level, 0, 0]
    incl = [math.radians(x) for x in inclination.tolist()]
    columns = {
        "finger_index": finger,
        "level": level,
        "normal": -outward,
        "position": np.where(width > -np.inf, width / 2.0, 0.0)[:, None] * outward,
        "inclination": inclination,
        "incl_cos": np.array(list(map(math.cos, incl))),
        "incl_sin": np.array(list(map(math.sin, incl))),
        "engagement": lifted.engagement[level, 0, 0],
    }
    r_h = None if lifted.r_h is None else lifted.r_h[level, 0, 0]
    for array in (width, r_h, *columns.values()):
        if array is not None:
            array.flags.writeable = False
    return _Faces(lifted.mode, width, r_h, MappingProxyType(columns)), bounding_radius(obj)


def _contact_loads(
    geometry: _Geometry | _Faces,
    aperture: float | np.ndarray,
    config: GripperConfig,
    material: MaterialModel,
    torque_scale: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """Contact loads of the geometry's mode, width and ``r_h`` at an
    aperture, or at each of a (point, 1) column of them against the lift-0
    faces: the mask of faces that press, over (level, column, lift) or
    (point, face), then per pressing face, in that order, the penetration
    (mm), the bend angle (deg, None unless enveloping), the module curve's
    normal force on a fully engaged face (N) and whether the module is
    overcompressed (overfolded when enveloping)."""
    pen = (geometry.width - aperture) / 2.0
    hit = pen > 0.0
    pen = pen[hit]
    enveloping = geometry.mode is GraspMode.V_ENVELOPING
    if not pen.size:  # empty columns: no curve, and no torque scale, is judged, as in the scalar model
        return hit, pen, pen if enveloping else None, pen, hit[hit]
    if not enveloping:
        strain = pen / config.rest_depth
        return hit, pen, None, compression_forces(strain, material), strain > 1.0
    bend = _wrap_edge(pen, np.broadcast_to(geometry.r_h, hit.shape)[hit], config.panel_span / 2.0) / 2.0
    force = bending_contact_force(bend, config.bend_lever_arm, material, torque_scale)
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
    return _resolve((theta,), obj, config, material, mu, torque_scale)[1]


def _resolve(
    thetas: Sequence[float],
    obj: ObjectShape,
    config: GripperConfig | None,
    material: MaterialModel | None,
    mu: float,
    torque_scale: float,
) -> tuple[tuple[float, ...], ContactSet, list[int]]:
    """The openings at ``thetas`` and their contacts, from one pass of the
    contact model: the lift-0 faces meet a column of apertures, so the
    contacts come out point by point, point ``p`` holding the entries
    ``bounds[p]:bounds[p + 1]``.  Each pressing face brings its lift-0
    columns by name, and the loads fill the rest."""
    config = config or GripperConfig()
    material = material or TPU95A
    faces, char_radius = _resting_geometry(obj, config)
    require("mu", mu)
    openings = tuple(opening(theta, config) for theta in thetas)
    apertures = np.array(openings)[:, None]
    hit, pens, bends, curves, overloads = _contact_loads(faces, apertures, config, material, torque_scale)
    point, face = hit.nonzero()
    bounds = [0, *np.bincount(point, minlength=len(thetas)).cumsum().tolist()]
    columns = {name: column.take(face, axis=0) for name, column in faces.columns.items()}
    enveloping = faces.mode is GraspMode.V_ENVELOPING
    unloaded = np.zeros(len(face), dtype=bool)
    contacts = ContactSet(
        faces.mode, char_radius,
        **columns,
        penetration=pens,
        bend_angle=bends,
        normal_force=columns["engagement"] * curves,
        mu=np.full(len(face), mu, dtype=float),
        overcompressed=unloaded if enveloping else overloads,
        overfolded=overloads if enveloping else unloaded,
    )
    return openings, contacts, bounds


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
    return _primitives(contacts)


def _primitives(contacts: ContactSet) -> np.ndarray:
    """``contact_wrench_primitives``, also of an empty set: two rows per contact, in contact order."""
    c = contacts
    table = np.empty((6, len(c)))
    table[0:2], table[2:4], table[4], table[5] = c.normal.T, c.position.T, c.normal_force, c.mu
    nx, ny, px, py, force, mu = np.repeat(table, 2, axis=1)
    mu[1::2] *= -1.0  # f = force * (n + sign * mu * t), t = (-ny, nx)
    fx = force * (nx + mu * -ny)
    fy = force * (ny + mu * nx)
    return np.column_stack((fx, fy, (px * fy - py * fx) / c.char_radius))


@dataclass(frozen=True)
class ForceClosure:
    closed: bool
    margin: float


_OPEN = ForceClosure(False, 0.0)
_RANK_RTOL = 1e-9  # singular values below this, relative to the largest component, count as 0
_SOLID_DET = 2e-8  # a scaled triple determinant above this proves the third singular value passes _RANK_RTOL
_PLANE_TOL = 2.0**-40  # a point this far past a plane (in a set scaled to at most 1) counts as on it
_MAX_ROWS = 2 * max(FINGER_COUNTS) * MAX_MODULE_LEVELS  # two cone edges per contact of the largest gripper: 32
_SIDE_ENTRIES = 1 << 22  # bounds the (sets x points x triples) side matrix of one scan, 32 MB
# the components of pj - pi, pk - pi, pj - pi, pk - pi in the order n = (pj - pi) x (pk - pi) reads them
_CROSS_ORDER = np.array([[1, 2, 0], [2, 0, 1], [2, 0, 1], [1, 2, 0]])[:, :, None]


@lru_cache(maxsize=None)  # at most 30 entries (3 to 32 points), of at most 0.5 MB each
def _triples(m: int) -> tuple[np.ndarray, np.ndarray]:
    """For every triple i < j < k of ``m`` points: indices into their
    flattened (i, j, xyz) differences pj - pi of the four edge vectors that
    the cross product multiplies, and indices into a flattened (points x
    triples) side matrix of each triple's own entry, in row i."""
    i, j, k = np.array(list(combinations(range(m), 3)), dtype=np.intp).reshape(-1, 3).T
    edges = 3 * (m * i + np.stack((j, k, j, k)))[:, None, :] + _CROSS_ORDER
    return edges.ravel(), i * len(i) + np.arange(len(i))


def _scan(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Facets of the convex hull of each set of the (k, m, 3) stack
    ``points``, from its point triples, set against every point of the
    set: the smallest signed distance from the origin to a facet plane of
    each set, and the largest ``|det[pi, pj, pk]|`` of each set's triples.

    A triple's plane is a facet when no point lies ``_PLANE_TOL`` or more
    past one of its sides; its outward normal then points to that side, and
    a plane of a flat subset points both ways.  The determinant is the
    plane's own offset ``pi . ((pj - pi) x (pk - pi))``.
    """
    k, m, _ = points.shape
    edge_at, own_at = _triples(m)
    pairs = (points[:, None] - points[:, :, None]).reshape(k, -1)  # entry (i, j, xyz): pj - pi
    # take of flat indices: a gather with 2-D fancy indexing costs about 3x as much
    edges = pairs.take(edge_at, axis=1).reshape(k, 4, 3, -1)
    normals = edges[:, 0] * edges[:, 1] - edges[:, 2] * edges[:, 3]  # (pj - pi) x (pk - pi)
    side = points @ normals
    offset = side.reshape(k, -1).take(own_at, axis=1)
    largest = np.abs(offset).max(axis=1, initial=0.0)
    norm = np.sqrt(np.einsum("sij,sij->sj", normals, normals))
    slack = _PLANE_TOL * norm
    ahead = side.max(axis=1) - offset < slack  # all on the -n side: n points out
    behind = offset - side.min(axis=1) < slack  # all on the +n side: -n points out
    # strict tests: the zero normal of a repeated point is neither, and its distance inf
    reach = np.minimum(np.where(ahead, offset, np.inf), np.where(behind, -offset, np.inf))
    return (reach / norm).min(axis=1, initial=math.inf), largest  # no triple: no facet


def _decide(stack: np.ndarray) -> list[ForceClosure]:
    """``is_force_closure`` of each (m, 3) set of the (k, m, 3) ``stack``,
    for sets of at most ``_MAX_ROWS`` primitives, the most that a gripper
    of 4 fingers and 4 module levels builds; a larger set is refused.

    A set is solid (rank 3) when its third singular value, largest first,
    passes ``_RANK_RTOL`` relative to its largest component, as
    ``np.linalg.matrix_rank`` decides it; a flat set has margin 0.  Each
    set is scaled by the power of two that brings its largest component
    into [0.5, 1).  A triple of scaled rows is then a 3 x 3 submatrix ``M``
    with squared Frobenius norm at most 9, and the set's third singular
    value is at least ``M``'s, at least ``|det M| / 9``: a determinant above
    ``_SOLID_DET`` proves the set solid, by margins far wider than the
    rounding of the determinant or of an SVD.  ``_scan`` takes a chunk of
    whole sets at a time, which bounds its side matrix by ``_SIDE_ENTRIES``,
    and reports each set's largest determinant; only the sets it leaves
    unproven, flat or nearly so, go to ``np.linalg.svd``.

    The margin of a solid set is the signed distance from the origin to the
    nearest facet plane of its convex hull, positive iff the origin lies
    strictly inside, with the facets taken from every point triple.  A
    point less than ``_PLANE_TOL`` outside a plane counts as on it, so the
    distance can come out short by that much, relative to the set's
    largest component.  Rounding adds a few units of that component's last
    digit, and more on facets whose three points nearly line up: on
    needle-shaped hulls up to about 3e-13 of it.
    """
    k, m, _ = stack.shape
    if m > _MAX_ROWS:
        raise ValueError(
            f"force closure takes at most {_MAX_ROWS} wrench primitives (two per contact of "
            f"{max(FINGER_COUNTS)} fingers x {MAX_MODULE_LEVELS} module levels), got {m}"
        )
    if not np.isfinite(stack).all():
        raise ValueError("wrench primitives must be finite")
    if m < 3:  # two primitives span no more than a plane
        return [_OPEN] * k
    scale = np.abs(stack).max(axis=(1, 2))
    exponent = np.frexp(scale)[1]
    points = np.ldexp(stack, -exponent[:, None, None])  # exact: the largest component now lies in [0.5, 1)
    per_scan = _SIDE_ENTRIES // (m * math.comb(m, 3))
    if k <= per_scan:
        nearest, largest = _scan(points)
    else:
        scans = [_scan(points[at:at + per_scan]) for at in range(0, k, per_scan)]
        nearest, largest = map(np.concatenate, zip(*scans))
    solid = largest > _SOLID_DET
    if not solid.all():
        unproven = ~solid
        solid[unproven] = np.linalg.svd(stack[unproven], compute_uv=False)[:, 2] > _RANK_RTOL * scale[unproven]
    margins = np.where(solid, np.ldexp(nearest, exponent), 0.0)
    return [_OPEN if margin <= 0.0 else ForceClosure(True, margin) for margin in margins.tolist()]


def _force_closures(sets: Sequence[np.ndarray]) -> list[ForceClosure]:
    """``is_force_closure`` of each (m, 3) float array of ``sets`` (m >= 2).

    Sets are told apart by their bytes, and each distinct set of the call
    is decided once: the distinct sets go to ``_decide`` in one stack per
    size.  A lone set, as a one-shot grasp hands it, is a stack of one.
    """
    keys = [primitives.tobytes() for primitives in sets]
    fresh: dict[int, dict[bytes, np.ndarray]] = {}
    for key, primitives in zip(keys, sets):
        fresh.setdefault(len(primitives), {})[key] = primitives
    known: dict[bytes, ForceClosure] = {}
    for group in fresh.values():
        known.update(zip(group, _decide(np.array(list(group.values())))))
    return [known[key] for key in keys]


def is_force_closure(primitives: np.ndarray) -> ForceClosure:
    """Strict origin-in-hull test in wrench space.

    The primitives positively span wrench space iff the origin lies strictly
    inside their convex hull.  The margin is the origin's distance to the
    nearest hull facet (the Ferrari-Canny epsilon quality), 0 when not
    closed.  Sets of rank below 3 are flat and never closed; the rank
    tolerance is relative to the largest component, so the verdict is
    scale-free and rounding noise cannot pass a flat set off as a thin hull.
    A point triple whose determinant is large enough proves the rank, and
    an SVD decides it only for a set that no triple proves solid.
    The hull comes from enumerating point triples (see ``_decide``),
    whose cost grows with the cube of the number of primitives, so more
    than 32, the most that a gripper of 4 fingers and 4 module levels
    builds, raise ValueError.

    This is the one-set case of the decision that ``closure_summary`` and
    a theta sweep make for every point at once, and it keeps nothing: an
    equal set given again is decided again.  A primitive that is not
    finite raises ValueError.
    """
    primitives = np.asarray(primitives, dtype=float)
    if primitives.ndim != 2 or primitives.shape[1] != 3 or primitives.shape[0] < 2:
        raise ValueError("need at least two wrench primitives of dimension 3")
    return _force_closures([primitives])[0]


def is_form_closure(
    contacts: ContactSet,
    obj: ObjectShape,
    config: GripperConfig | None = None,
    slip_margin: float = 15.0,
) -> tuple[bool, float]:
    """Frictionless geometric envelopment test for enveloping grasps.

    Accumulates the angular sectors of the cross-section covered by wrap
    patches; the grasp is form closed when coverage reaches
    180 deg + 2 * slip_margin, with ``slip_margin`` from 0 to 90 deg.
    Parallel grasps have no wrap and are a domain error.
    """
    config = config or GripperConfig()
    require("slip_margin", slip_margin)
    if contacts.grasp_mode is not GraspMode.V_ENVELOPING:
        raise ValueError("form closure is defined only for enveloping grasps")
    coverage = _coverages(contacts, [0, len(contacts)], obj, config)[0]
    return _form_closed(coverage, slip_margin), coverage


def _form_closed(coverage: float, slip_margin: float) -> bool:
    """The form-closure rule: wrap patches cover half the section plus ``slip_margin`` at each end."""
    return coverage >= 180.0 + 2.0 * slip_margin


def _coverages(contacts: ContactSet, bounds: list[int], obj: ObjectShape, config: GripperConfig) -> list[float]:
    """Angular measure (deg) of the wrap patches of each run
    ``contacts[bounds[p]:bounds[p + 1]]`` on the object's widest section,
    where coverage is assessed; 0 without one."""
    runs = len(bounds) - 1
    r_h = equator_radius(obj)
    if r_h is None:
        return [0.0] * runs
    edge = _wrap_edge(contacts.penetration, r_h, config.panel_span / 2.0)
    bearing = np.array(finger_bearings(config))[contacts.finger_index]
    # Each patch is the arc from start, in [0, 360], through width, in
    # [0, 360), degrees; an edge angle is an asin, so no patch spans more
    # than 180 degrees and none covers the circle alone.
    lo, hi = bearing - edge, bearing + edge
    start = np.remainder(lo, 360.0)
    end = start + np.remainder(hi - start, 360.0)
    width = np.remainder(end - start, 360.0)  # from the rounded end: hi - start differs in the last bit for ~3% of arcs
    stop = start + width
    # the arcs as spans within [0, 360], an arc past 360 split in two, sorted
    # by run, start and stop: the order list.sort() gives each run's tuples
    run = np.repeat(np.arange(runs), np.diff(bounds))
    past = stop > 360.0
    span_run = np.concatenate((run, run[past]))
    span_lo = np.concatenate((start, np.zeros(np.count_nonzero(past))))
    span_hi = np.concatenate((np.minimum(stop, 360.0), np.remainder(stop[past], 360.0)))
    order = np.lexsort((span_hi, span_lo, span_run))
    coverages = [0.0] * runs
    current = -1
    total = cur_lo = cur_hi = 0.0
    # one walk merges each run's spans and adds up the merged lengths in order
    for r, left, right in zip(span_run[order].tolist(), span_lo[order].tolist(), span_hi[order].tolist()):
        if r != current:
            if current >= 0:
                coverages[current] = total + (cur_hi - cur_lo)
            current, total, cur_lo, cur_hi = r, 0.0, left, right
        elif left > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = left, right
        elif right > cur_hi:
            cur_hi = right
    if current >= 0:
        coverages[current] = total + (cur_hi - cur_lo)
    return coverages


def closure_summary(
    contacts: ContactSet,
    obj: ObjectShape,
    config: GripperConfig | None = None,
    slip_margin: float = 15.0,
) -> ClosureResult:
    """Force closure always; form closure only where it applies.  Fewer than
    two contacts close nothing, and form closure is then not judged."""
    (closed,), (margin,), (form,), (wrap,) = _closures(contacts, [0, len(contacts)], obj, config, slip_margin)
    return ClosureResult(closed, form, margin, wrap)


def _closures(
    contacts: ContactSet, bounds: list[int], obj: ObjectShape, config: GripperConfig | None, slip_margin: float = 15.0
) -> tuple[list[bool], list[float], list[bool | None], list[float | None]]:
    """``closure_summary`` of each run ``contacts[bounds[p]:bounds[p + 1]]``
    as four columns, one entry per run: force closure, its margin, form
    closure and wrap coverage.  They come from one pass over the whole set
    for the primitives and the wrap coverage, and one decision of every
    run's primitives."""
    config = config or GripperConfig()
    require("slip_margin", slip_margin)
    primitives = _primitives(contacts)
    runs = list(zip(bounds, bounds[1:]))
    judged = [hi - lo >= 2 for lo, hi in runs]
    decided = iter(_force_closures([primitives[2 * lo:2 * hi] for (lo, hi), ok in zip(runs, judged) if ok]))
    verdicts = [next(decided) if ok else _OPEN for ok in judged]  # fewer than two contacts close nothing
    closed = [fc.closed for fc in verdicts]
    margins = [fc.margin for fc in verdicts]
    if contacts.grasp_mode is not GraspMode.V_ENVELOPING:
        return closed, margins, [None] * len(runs), [None] * len(runs)
    wraps = [wrap if ok else None for wrap, ok in zip(_coverages(contacts, bounds, obj, config), judged)]
    forms = [None if wrap is None else _form_closed(wrap, slip_margin) for wrap in wraps]
    return closed, margins, forms, wraps


# --------------------------------------------------------------------------
# pull-out resistance and lifting
# --------------------------------------------------------------------------


def pullout_capacity(contacts: ContactSet) -> float:
    """Maximum vertical extraction resistance of a contact set, N."""
    return _point_totals(contacts, [0, len(contacts)])[3][0]


def _capacity_term(mu, force, incl_cos, incl_sin):
    """A contact's share of the pull-out capacity, N, for floats or arrays of them."""
    return mu * force * incl_cos + force * incl_sin


def _contact_sums(terms: np.ndarray) -> np.ndarray:
    """The sum of each column of ``terms``, added one row (one contact slot)
    at a time, in order: the scalar model's contact-by-contact sum.  A slot
    where nothing presses holds 0.0, since x + 0.0 is x."""
    total = np.zeros(terms.shape[1:])
    for row in terms:
        total += row
    return total


def squeeze_force(contacts: ContactSet, finger_index: int | None = None) -> float:
    """Sum of in-plane normal force components, optionally for one finger;
    0 (an int) when no contact presses.

    This is what a probe sensor reads while being squeezed: the horizontal
    push of one side's modules.
    """
    if finger_index is not None:
        contacts = contacts.finger(finger_index)
    return _point_totals(contacts, [0, len(contacts)])[1][0]


def _point_totals(contacts: ContactSet, bounds: list[int]) -> tuple[list[int], list, list, list[float]]:
    """Per run ``contacts[bounds[p]:bounds[p + 1]]``, the runs lying end to
    end from contact 0: the contact count, the squeeze of all fingers and of
    finger 0 (0, an int, where nothing presses) and the pull-out capacity,
    each summed contact by contact.  ``squeeze_force`` and
    ``pullout_capacity`` are its one-run case."""
    c = contacts
    pushes = (c.normal_force * c.incl_cos).tolist()
    terms = _capacity_term(c.mu, c.normal_force, c.incl_cos, c.incl_sin).tolist()
    on_side = (c.finger_index == 0).tolist()
    counts, squeezes, sides, capacities = [], [], [], []
    each = zip(pushes, on_side, terms)  # one walk over the contacts, run after run
    for lo, hi in zip(bounds, bounds[1:]):
        squeeze = side = capacity = 0.0
        pressing = False
        for push, side_contact, term in islice(each, hi - lo):
            squeeze += push
            capacity += term
            if side_contact:
                side += push
                pressing = True
        counts.append(hi - lo)
        squeezes.append(squeeze if hi > lo else 0)
        sides.append(side if pressing else 0)
        capacities.append(capacity)
    return counts, squeezes, sides, capacities


def lift_check(
    contacts: ContactSet,
    obj: ObjectShape,
    gravity: float = _GRAVITY,
    safety: float = 1.0,
) -> LiftResult:
    """Does the grasp carry the object's weight with the given safety factor?"""
    capacity = pullout_capacity(contacts)
    weight, (holds,) = _bears([capacity], obj, gravity, safety)
    return LiftResult(holds=holds, capacity=capacity, weight=weight, margin=capacity - weight)


def _bears(
    capacities: Sequence[float], obj: ObjectShape, gravity: float = _GRAVITY, safety: float = 1.0
) -> tuple[float, list[bool]]:
    """The hold rule: the object's weight, mass x gravity (N), and whether
    each pull-out capacity (N) bears it, capacity >= safety x weight.
    ``gravity`` and ``safety`` are judged first.  ``lift_check`` is its
    one-capacity case."""
    require("gravity", gravity)
    require("safety", safety)
    weight = obj.mass * gravity
    return weight, [capacity >= safety * weight for capacity in capacities]


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


def _clear_lift(span_hi: float, config: GripperConfig) -> float:
    """The lift at which the bottom module face clears an object whose top is at ``span_hi``."""
    return span_hi - (config.module_levels[0] - config.module_height / 2.0)


def default_lift_grid(
    probe: ObjectShape, config: GripperConfig | None = None, step: float = 0.5
) -> np.ndarray:
    """Grid from 0 to just past full disengagement, at most ``_MAX_LIFT_POINTS`` points."""
    config = config or GripperConfig()
    require("lift_step", step)
    lift_max = _clear_lift(z_span(probe)[1], config) + 2.0 * step
    points = (lift_max + step) / step
    if points > _MAX_LIFT_POINTS:
        raise ValueError(f"lift grid of {points:.6g} points exceeds {_MAX_LIFT_POINTS}")
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
    hit, _, _, curves, _ = _contact_loads(geometry, opening(theta, config), config, material, torque_scale)
    # each curve is run once per (level, column) cell that presses at some lift
    cells = np.zeros(hit.shape)
    cells[hit] = curves
    rad = np.radians(geometry.inclination)
    terms = _capacity_term(mu, geometry.engagement * cells, np.cos(rad), np.sin(rad))
    # pullout_capacity's sum: contact by contact, level-major then finger-minor
    forces = _contact_sums(terms[:, geometry.column].reshape(-1, lifts.size))
    top = config.module_levels[-1]
    half_face = config.module_height / 2.0
    return PulloutTrace(
        lifts=lifts,
        forces=forces,
        t1=0.0,
        t2=max(0.0, span_hi - (top + half_face)),
        t3=max(0.0, span_hi - (top - half_face)),
        t4=max(0.0, _clear_lift(span_hi, config)),
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
    one side of the grasp, so the fit is against a single finger's contacts;
    normal forces do not depend on mu, which makes the capacity linear in mu
    and the fit closed-form.
    """
    if not math.isfinite(target_side_force):
        raise ValueError(f"target must be finite, got {target_side_force:g}")
    contacts = resolve_contacts(theta, probe, config, material, mu=0.0, torque_scale=torque_scale)
    side = contacts.finger(0)
    # at mu = 0 only the hooking term of the capacity is left
    (count,), (slope,), _, (intercept,) = _point_totals(side, [0, len(side)])
    if count == 0:
        raise ValueError("probe makes no contact on the reference finger")
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
