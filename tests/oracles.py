"""Independent reference implementations used to cross-check the package.

Everything here is deliberately brute force and shares no code with the
implementations under test: closure is judged by direction sampling instead
of a convex hull, or from every point triple in exact arithmetic, widths by
projecting polygon vertices, arc unions by a dense angular grid, hold
windows and plan verdicts by sweeping the hold predicate directly, contacts
by a scalar loop over module levels and fingers with scalar module curves,
wrench primitives by a scalar loop over contacts and cone edges, force and
capacity sums by a scalar loop over contact rows, sweeps by parsing a deep
copy of the written scene at every point, and the planner's windows and
stage states one angle at a time, from the public ``resolve_contacts`` and
``lift_check`` (the package resolves an object's angles in one pass).
One reference is not independent on purpose: ``svd_first_decisions`` keeps
the package's facet scan and decides rank by an SVD first, so that the
package's rank proof can be held to it bit for bit.
"""

from __future__ import annotations

import copy
import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np

from origrip import (
    SIL950,
    TPU95A,
    ContactMode,
    GraspMode,
    GripperConfig,
    HoldWindow,
    LimitingFactor,
    ScenarioError,
    StageState,
    cube,
    equator_z,
    finger_bearings,
    grasp,
    grasp_mode,
    holds_at,
    lift_check,
    make_stacked_scene,
    opening,
    parse_scenario,
    resolve_contacts,
    run_scenario,
    scenario_to_dict,
    sphere,
    width_along,
    z_span,
)
from origrip.shapes import vertical_profile_radius
from origrip.transmission import unclamped_theta_for_opening


def sphere_directions(n: int = 360) -> np.ndarray:
    """Roughly uniform unit vectors via the Fibonacci spiral."""
    i = np.arange(n) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def positive_span_closed(primitives: np.ndarray, n_dirs: int = 360, rel_tol: float = 1e-9) -> bool:
    """A wrench set resists every disturbance iff every direction of wrench
    space has positive support from some primitive."""
    primitives = np.asarray(primitives, dtype=float)
    scale = float(np.abs(primitives).max())
    if scale == 0.0:
        return False
    # a set confined to a plane or line fails along its normal even when no
    # sampled direction lands exactly on that measure-zero failure set
    if np.linalg.matrix_rank(primitives, tol=rel_tol * scale) < primitives.shape[1]:
        return False
    support = primitives @ sphere_directions(n_dirs).T
    return bool(np.all(support.max(axis=0) > rel_tol * scale))


_FINE_DIRECTIONS = sphere_directions(36000)

# Measured covering radii of the Fibonacci direction sets (max angle from any
# direction to its nearest sample): 0.142 rad for 360 points, 0.013 rad for
# 36000.  The sampled support minimum can overshoot the true closure margin
# by at most (max primitive norm) * covering radius, which bounds what each
# resolution can decide.
_COARSE_RESOLUTION = 0.16
_FINE_RESOLUTION = 0.02


def sampling_decisive(primitives: np.ndarray) -> bool:
    """Is this set's closure status resolvable by 360-direction sampling?

    Sets whose true closure margin lies within the angular resolution of the
    360-direction grid can be misjudged by that grid no matter how closure is
    actually computed, so comparisons restrict to sets whose margin a much
    finer grid certifies as either clearly positive or clearly below the
    coarse grid's resolution.
    """
    primitives = np.asarray(primitives, dtype=float)
    lip = float(np.linalg.norm(primitives, axis=1).max())
    if lip == 0.0:
        return False
    sampled_margin = float((primitives @ _FINE_DIRECTIONS.T).max(axis=0).min())
    # sampled_margin lies in [true margin, true margin + lip * fine radius]
    certainly_closed = sampled_margin > _FINE_RESOLUTION * lip
    certainly_open = sampled_margin <= -_COARSE_RESOLUTION * lip
    return certainly_closed or certainly_open


def exact_hull_closure(primitives: np.ndarray) -> tuple[bool, float]:
    """Force-closure verdict and margin of wrench primitives from every
    point triple, in exact arithmetic.

    Each float is scaled by one power of two to an integer, exactly.  The set
    is closed when its rows span three dimensions and the origin lies
    strictly inside every facet plane: a plane through three rows with no row
    on its far side.  The margin is the smallest distance from the origin to
    a facet plane, exact up to the final square root and rounding to float.
    """
    exact = [[Fraction(float(v)) for v in row] for row in primitives]
    unit = math.lcm(*(v.denominator for row in exact for v in row))
    points = [tuple(int(v * unit) for v in row) for row in exact]

    def cross(a, b):
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    if not any(dot(cross(a, b), c) for a, b, c in combinations(points, 3)):
        return False, 0.0  # linear rank below 3
    nearest = None
    for a, b, c in combinations(points, 3):
        normal = cross(tuple(q - p for p, q in zip(a, b)), tuple(q - p for p, q in zip(a, c)))
        if normal == (0, 0, 0):
            continue
        offset = dot(normal, a)
        sides = [dot(normal, p) - offset for p in points]
        # the origin's distance inside the facet, times |normal|, for each outward orientation
        for reach, facet in ((offset, max(sides) <= 0), (-offset, min(sides) >= 0)):
            if facet and reach <= 0:
                return False, 0.0
            if facet:
                squared = Fraction(reach * reach, dot(normal, normal) * unit * unit)
                nearest = squared if nearest is None else min(nearest, squared)
    return True, math.sqrt(nearest)


def svd_first_decisions(stack: np.ndarray) -> list[tuple[bool, float]]:
    """Force-closure verdict and margin of each (m, 3) set of the (k, m, 3)
    ``stack``, with rank decided first, by an SVD of every set, and the
    package's own facet scan (``grasp._scan``) run on the solid sets alone,
    each scaled by the power of two that brings its largest component into
    [0.5, 1)."""
    if not np.isfinite(stack).all():
        raise ValueError("wrench primitives must be finite")
    k, m, _ = stack.shape
    margins = np.zeros(k)
    if m >= 3:
        scale = np.abs(stack).max(axis=(1, 2))
        solid = np.linalg.svd(stack, compute_uv=False)[:, 2] > grasp._RANK_RTOL * scale
        if solid.any():
            exponent = np.frexp(scale[solid])[1]
            points = np.ldexp(stack[solid], -exponent[:, None, None])
            margins[solid] = np.ldexp(grasp._scan(points)[0], exponent)
    return [(True, margin) if margin > 0.0 else (False, 0.0) for margin in margins.tolist()]


def random_contact_primitives(rng: np.random.Generator, n_contacts: int) -> np.ndarray:
    """Friction-cone edge wrenches for a random planar contact set.

    Contacts sit on a random star-shaped boundary; normals point roughly
    inward with some jitter, like the output of a real contact resolver but
    built from scratch here.
    """
    bearings = np.sort(rng.uniform(0.0, 2.0 * math.pi, n_contacts))
    radii = rng.uniform(10.0, 50.0, n_contacts)
    r_char = float(radii.max())
    rows = []
    for phi, r in zip(bearings, radii):
        jitter = rng.uniform(-0.5, 0.5)
        n = -np.array([math.cos(phi + jitter), math.sin(phi + jitter)])
        t = np.array([-n[1], n[0]])
        p = r * np.array([math.cos(phi), math.sin(phi)])
        fn = rng.uniform(0.5, 5.0)
        mu = rng.uniform(0.05, 1.0)
        for sign in (1.0, -1.0):
            f = fn * (n + sign * mu * t)
            rows.append([f[0], f[1], (p[0] * f[1] - p[1] * f[0]) / r_char])
    return np.array(rows)


class Contact(NamedTuple):
    """One contact as a row of fields: the form the scalar oracles build and
    read.  ``contact_rows`` reads a ``ContactSet``'s columns as these rows,
    so that contacts compare field by field.  A named tuple, not a
    dataclass: ``perfbench`` imports this module by path, unregistered,
    where a dataclass cannot resolve its postponed annotations."""

    finger_index: int
    level: int
    mode: ContactMode
    penetration: float
    bend_angle: float | None
    normal_force: float
    normal: tuple[float, float]
    position: tuple[float, float]
    inclination: float
    mu: float
    engagement: float
    overcompressed: bool
    overfolded: bool


def contact_rows(contacts) -> tuple[Contact, ...]:
    """The contacts of a ``ContactSet`` as rows, one per contact, in order."""
    c = contacts
    n = len(c)
    return tuple(map(
        Contact,
        c.finger_index.tolist(), c.level.tolist(), [c.contact_mode] * n, c.penetration.tolist(),
        [None] * n if c.bend_angle is None else c.bend_angle.tolist(), c.normal_force.tolist(),
        map(tuple, c.normal.tolist()), map(tuple, c.position.tolist()), c.inclination.tolist(),
        c.mu.tolist(), c.engagement.tolist(), c.overcompressed.tolist(), c.overfolded.tolist(),
    ))


def wrench_primitives(contacts, r_char: float) -> np.ndarray:
    """Friction-cone edge wrenches of contact rows, built one contact and one
    cone edge at a time: rows (fx, fy, tau), the +mu edge before the -mu
    edge, with the torque over ``r_char``."""
    if len(contacts) == 0:
        raise ValueError("contact set is empty")
    rows = []
    for rec in contacts:
        n = np.array(rec.normal)
        t = np.array([-n[1], n[0]])
        p = np.array(rec.position)
        for sign in (1.0, -1.0):
            f = rec.normal_force * (n + sign * rec.mu * t)
            tau = (p[0] * f[1] - p[1] * f[0]) / r_char
            rows.append([f[0], f[1], tau])
    return np.array(rows)


def scalar_squeeze_force(contacts, finger_index=None):
    """In-plane normal force of contact rows summed one row at a time: 0 (an int) without any."""
    total = 0
    for rec in contacts:
        if finger_index is None or rec.finger_index == finger_index:
            total += rec.normal_force * math.cos(math.radians(rec.inclination))
    return total


def scalar_pullout_capacity(contacts) -> float:
    """Extraction resistance of contact rows summed one row at a time."""
    total = 0.0
    for rec in contacts:
        incl = math.radians(rec.inclination)
        total += rec.mu * rec.normal_force * math.cos(incl) + rec.normal_force * math.sin(incl)
    return total


def arc_union_measure(intervals: list[tuple[float, float]], resolution: float = 0.05) -> float:
    """Angular measure (deg) of a union of circle arcs by dense marking."""
    n = int(round(360.0 / resolution))
    marks = np.zeros(n, dtype=bool)
    for lo, hi in intervals:
        width = hi - lo
        if width <= 0.0:
            continue
        if width >= 360.0:
            return 360.0
        start = int(np.floor((lo % 360.0) / resolution))
        count = int(np.ceil(width / resolution))
        idx = (start + np.arange(count)) % n
        marks[idx] = True
    return float(marks.sum()) * resolution


def polygon_support_width(vertices: np.ndarray, bearing_deg: float) -> float:
    """Width of a convex polygon along a direction, by projecting vertices."""
    u = np.array([math.cos(math.radians(bearing_deg)), math.sin(math.radians(bearing_deg))])
    proj = vertices @ u
    return float(proj.max() - proj.min())


def rectangle_vertices(width: float, depth: float, yaw_deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(yaw_deg)), math.sin(math.radians(yaw_deg))
    rot = np.array([[c, -s], [s, c]])
    half = np.array([[width, depth], [width, -depth], [-width, -depth], [-width, depth]]) / 2.0
    return half @ rot.T


def random_stacked_scene(rng: np.random.Generator):
    """Random stacked pair drawn from the planner's intended envelope.

    Both objects stay within the jaw range, the top is wider than the
    bottom by 6..12 mm, and masses are light enough that grip strength is
    never the binding constraint.
    """
    kinds = {"sphere": sphere, "cube": cube}
    make_top = kinds[rng.choice(["sphere", "cube"])]
    make_bottom = kinds[rng.choice(["sphere", "cube"])]
    top_width = rng.uniform(54.0, 66.0)
    bottom_width = top_width - rng.uniform(6.0, 12.0)
    top = make_top(top_width, mass=rng.uniform(0.005, 0.02))
    bottom = make_bottom(bottom_width, mass=rng.uniform(0.005, 0.02))
    config = GripperConfig(finger_count=int(rng.choice([2, 4])))
    material = {"tpu95a": TPU95A, "sil950": SIL950}[rng.choice(["tpu95a", "sil950"])]
    return make_stacked_scene(
        top, bottom, clearance=rng.uniform(0.0, 4.0), config=config, material=material, mu=0.5
    )


_BISECT_TOL = 1e-6  # deg, as in the package


def carries(theta, obj, config, material, mu, torque_scale, safety=1.0) -> bool:
    """Whether the gripper carries the object at one angle: the public
    ``resolve_contacts`` at ``theta``, then ``lift_check`` of a touched
    object with the safety factor."""
    contacts = resolve_contacts(theta, obj, config, material, mu, torque_scale)
    return len(contacts) > 0 and lift_check(contacts, obj, safety=safety).holds


def per_angle_hold_window(obj, config, material, mu=0.5, safety=1.2, torque_scale=1.0):
    """``hold_window`` with one ``carries`` call per angle: the upper edge,
    then the lower edge only when the upper one holds, then each midpoint
    of the bisection.  The strain band, judged on the width along the
    closure axis, is worked out from the drive law."""
    law = config.law
    width = width_along(obj, 0.0)
    lo = unclamped_theta_for_opening(width - 2.0 * material.strain_lo * config.rest_depth, config)
    hi = unclamped_theta_for_opening(width - 2.0 * material.strain_hi * config.rest_depth, config)
    factor = LimitingFactor.STRAIN_RANGE
    if lo < law.theta_min:
        lo, factor = law.theta_min, LimitingFactor.OPENING_RANGE
    hi = min(hi, law.theta_max)
    if lo > hi:
        return None
    model = (obj, config, material, mu, torque_scale, safety)
    if not carries(hi, *model):
        return None
    if not carries(lo, *model):
        factor = LimitingFactor.LIFT_CAPACITY
        lo_fail, lo_ok = lo, hi
        while lo_ok - lo_fail > _BISECT_TOL:
            mid = 0.5 * (lo_fail + lo_ok)
            if carries(mid, *model):
                lo_ok = mid
            else:
                lo_fail = mid
        lo = lo_ok
    return HoldWindow(lo, hi, factor)


def per_angle_stages(scene, plan) -> tuple:
    """``simulate_plan`` with one ``carries`` call per stage and object, in
    stage order, the top object before the bottom one."""
    model = (scene.config, scene.material, scene.mu, scene.torque_scale)
    return tuple(
        StageState(stage, theta, carries(theta, scene.top, *model), carries(theta, scene.bottom, *model))
        for stage, theta in (
            ("grasp", plan.theta_grasp),
            ("release_bottom", plan.theta_release_bottom),
            ("release_top", plan.theta_release_top),
        )
    )


def swept_hold_window(
    obj,
    config,
    material,
    mu: float,
    safety: float = 1.2,
    step: float = 0.1,
) -> tuple[float, float] | None:
    """Hold window by direct evaluation of the hold predicate on a grid.

    Also verifies that the holdable set is a single contiguous interval on
    the grid, which the analytic window construction assumes.
    """
    thetas = np.arange(config.law.theta_min, config.law.theta_max + step / 2.0, step)
    flags = [holds_at(float(t), obj, config, material, mu=mu, safety=safety) for t in thetas]
    idx = [i for i, f in enumerate(flags) if f]
    if not idx:
        return None
    lo_i, hi_i = idx[0], idx[-1]
    assert all(flags[lo_i : hi_i + 1]), "holdable set is not contiguous on the sweep grid"
    return float(thetas[lo_i]), float(thetas[hi_i])


def grid_plan_verdict(scene, step: float = 0.1) -> str:
    """The verdict of a stacked pair's release plan by a grid search over
    the law's angle range: ``holds_at`` of each object, and whether the jaws
    touch the bottom one (``level_contacts`` at lift 0), every ``step`` deg.

    ``no_common_hold`` when no grid angle holds both objects,
    ``no_release_gap`` when none holds the top while touching nothing of
    the bottom, else ``feasible``.  The caller keeps the bottom narrower.
    """
    law = scene.config.law
    thetas = np.arange(law.theta_min, law.theta_max + step / 2.0, step).tolist()
    model = dict(config=scene.config, material=scene.material, mu=scene.mu, torque_scale=scene.torque_scale)
    top = [holds_at(theta, scene.top, safety=scene.safety, **model) for theta in thetas]
    bottom = [holds_at(theta, scene.bottom, safety=scene.safety, **model) for theta in thetas]
    if not any(upper and lower for upper, lower in zip(top, bottom)):
        return "no_common_hold"
    for theta, held in zip(thetas, top):
        if held and not level_contacts(theta, scene.bottom, lift=0.0, **model):
            return "feasible"
    return "no_release_gap"


# --------------------------------------------------------------------------
# contacts, one scalar row at a time
# --------------------------------------------------------------------------

_MAX_INCLINATION = 89.9  # deg, as in the package


def scalar_compression_force(strain: float, material) -> float:
    """Axial module force (N) at one effective strain: a ramp to the
    plateau, the plateau, then the stiffening overload branch."""
    if strain < 0.0:
        raise ValueError(f"strain must be non-negative, got {strain:g}")
    if strain < material.strain_lo:
        return material.plateau_force * strain / material.strain_lo
    if strain <= material.strain_hi:
        return material.plateau_force
    return material.plateau_force + material.overload_stiffness * (strain - material.strain_hi)


def scalar_bending_torque(angle: float, material) -> float:
    """Fold torque at one bend angle (deg): a ramp to the plateau, which
    holds past the working range."""
    if angle < 0.0:
        raise ValueError(f"bend angle must be non-negative, got {angle:g}")
    if angle < material.angle_lo:
        return material.plateau_torque * angle / material.angle_lo
    return material.plateau_torque


def scalar_local_width(obj, bearing: float, z: float) -> float:
    """Cross-section width along ``bearing`` at height ``z``: the equator
    width less one profile sagitta per side, 0 outside the object."""
    lo, hi = z_span(obj)
    if not lo <= z <= hi:
        return 0.0
    r_v = vertical_profile_radius(obj)
    if r_v is None:
        return width_along(obj, bearing)
    dz = z - equator_z(obj)
    if abs(dz) > r_v:
        return 0.0
    sagitta = r_v - math.sqrt(r_v * r_v - dz * dz)
    return max(0.0, width_along(obj, bearing) - 2.0 * sagitta)


def _hook_angle(obj, z_contact: float) -> float:
    """Downward tilt (deg) of the contact normal below the widest section."""
    r_v = vertical_profile_radius(obj)
    if r_v is None:
        return 0.0
    depth = equator_z(obj) - z_contact
    if depth <= 0.0:
        return 0.0
    return min(_MAX_INCLINATION, math.degrees(math.asin(min(1.0, depth / r_v))))


def wrap_bend_angle(penetration: float, r_h: float, half_span: float) -> float:
    """Panel bend angle (deg): half the edge angle of the wrapped patch."""
    pen = min(penetration, r_h)  # cannot sink past the section center
    s_patch = math.sqrt(max(0.0, 2.0 * r_h * pen - pen * pen))
    s_eff = min(s_patch, half_span)
    return math.degrees(math.asin(min(1.0, s_eff / r_h))) / 2.0


def level_contacts(theta, obj, config, material, mu, lift, torque_scale) -> list:
    """Contact rows with the gripper raised by ``lift`` mm, built one module
    level and one finger at a time."""
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and non-negative, got {mu:g}")
    aperture = opening(theta, config)
    mode = grasp_mode(obj, config)
    span_lo, span_hi = z_span(obj)
    half_face = config.module_height / 2.0
    half_span = config.panel_span / 2.0
    rows = []

    for level, level_z in enumerate(config.module_levels):
        face_lo = level_z - half_face + lift
        face_hi = level_z + half_face + lift
        overlap_lo = max(face_lo, span_lo)
        overlap_hi = min(face_hi, span_hi)
        if overlap_hi <= overlap_lo:
            continue
        engagement = (overlap_hi - overlap_lo) / config.module_height
        z_contact = min(max(equator_z(obj), overlap_lo), overlap_hi)

        for finger, bearing in enumerate(finger_bearings(config)):
            width = scalar_local_width(obj, bearing, z_contact)
            pen = (width - aperture) / 2.0
            if pen <= 0.0:
                continue

            incl = _hook_angle(obj, z_contact)
            if mode is GraspMode.V_ENVELOPING:
                r_h = scalar_local_width(obj, 0.0, z_contact) / 2.0
                bend = wrap_bend_angle(pen, r_h, half_span)
                torque = scalar_bending_torque(bend, material)
                force = engagement * (torque * torque_scale / config.bend_lever_arm)
                overfolded = bend > material.angle_hi
                overcompressed = False
                contact_mode = ContactMode.BENDING
                bend_angle = bend
            else:
                strain = pen / config.rest_depth
                force = engagement * scalar_compression_force(strain, material)
                overcompressed = strain > 1.0
                overfolded = False
                contact_mode = ContactMode.COMPRESSION
                bend_angle = None

            rad = math.radians(bearing)
            outward = (math.cos(rad), math.sin(rad))
            rows.append(
                Contact(
                    finger_index=finger,
                    level=level,
                    mode=contact_mode,
                    penetration=pen,
                    bend_angle=bend_angle,
                    normal_force=force,
                    normal=(-outward[0], -outward[1]),
                    position=(width / 2.0 * outward[0], width / 2.0 * outward[1]),
                    inclination=incl,
                    mu=mu,
                    engagement=engagement,
                    overcompressed=overcompressed,
                    overfolded=overfolded,
                )
            )
    return rows


def _flat_row(value, prefix: str, row: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flat_row(item, f"{prefix}.{key}" if prefix else str(key), row)
    elif prefix and (value is None or isinstance(value, (bool, int, float, str))):
        row[prefix] = value


def sweep_rows(scn, axis: str, values, seed=None) -> list[dict]:
    """Rows of a sweep of the numeric field at dotted ``axis``: every point
    parses its own deep copy of the written scene and runs it."""
    base = scenario_to_dict(scn)
    *parents, leaf = axis.split(".")
    node = base
    for part in parents:
        node = node[part]
    cast = int if type(node[leaf]) is int else float
    for value in values:
        if cast is int and not float(value).is_integer():
            raise ScenarioError([f"{axis}: expected an integer, got {value:g}"])
    rows = []
    for value in map(cast, values):
        data = node = copy.deepcopy(base)
        for part in parents:
            node = node[part]
        node[leaf] = value
        row = {axis: value}
        _flat_row(run_scenario(parse_scenario(data), seed=seed), "", row)
        rows.append(row)
    return rows
