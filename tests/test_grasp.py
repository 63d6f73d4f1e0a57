import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from origrip import (
    AngleRangeError,
    ContactMode,
    ContactSet,
    GraspMode,
    CycleSpec,
    GripperConfig,
    MaterialModel,
    ObjectShape,
    Pose,
    SIL950,
    ShapeKind,
    TPU95A,
    TransmissionLaw,
    bending_contact_force,
    calibrate_friction,
    cube,
    cuboid,
    curved_block,
    cylinder,
    default_lift_grid,
    grasp_mode,
    lift_check,
    opening,
    pullout_capacity,
    pullout_trace,
    resolve_contacts,
    sphere,
    squeeze_force,
    z_span,
)
import oracles
from oracles import contact_rows, level_contacts
from origrip import grasp
from origrip.grasp import _COLUMNS, ForceClosure, _closures, _point_totals, _resolve, _resting_geometry

# Barrel-shaped reference probe: covers both module levels, curls the faces.
V_PROBE = curved_block(45.5, 67.0, 80.0)
# Flat-sided reference probe for parallel squeezing.
P_PROBE = cuboid(63.0, 45.4, 100.0)


def v_probe_expectations(theta):
    """Independent closed-form contact values for the barrel probe.

    The module faces sit at 10..30 and 50..70 mm, the probe equator at
    40 mm, so both faces press at 10 mm from the equator where the barrel
    profile (radius 45.5) has narrowed by one sagitta per side.
    """
    dz = 10.0
    width = 67.0 - 2.0 * (45.5 - math.sqrt(45.5**2 - dz**2))
    pen = (width - (78.0 - 50.0 * theta / 90.0)) / 2.0
    r_h = width / 2.0
    s = min(math.sqrt(2.0 * r_h * pen - pen * pen), 25.0)
    edge = math.degrees(math.asin(s / r_h))
    incl = math.degrees(math.asin(dz / 45.5))
    return pen, edge / 2.0, incl


def test_mode_selection():
    assert grasp_mode(V_PROBE) is GraspMode.V_ENVELOPING
    assert grasp_mode(P_PROBE) is GraspMode.PARALLEL
    assert grasp_mode(sphere(60.0)) is GraspMode.V_ENVELOPING
    assert grasp_mode(cylinder(40.0, 70.0)) is GraspMode.V_ENVELOPING
    # section radius beyond the panel span: the face cannot wrap it
    assert grasp_mode(cylinder(120.0, 70.0)) is GraspMode.PARALLEL
    tight = GripperConfig(curvature_threshold=0.5)
    assert grasp_mode(sphere(60.0), tight) is GraspMode.PARALLEL


def test_parallel_contacts():
    contacts = resolve_contacts(30.0, P_PROBE, material=TPU95A, mu=0.5)
    assert contacts.grasp_mode is GraspMode.PARALLEL
    assert len(contacts) == 4  # two fingers x two levels
    pen_expected = (63.0 - opening(30.0)) / 2.0
    force_expected = 4.75 * (pen_expected / 15.0) / 0.1  # loading ramp
    for rec in contact_rows(contacts):
        assert rec.mode is ContactMode.COMPRESSION
        assert rec.bend_angle is None
        assert rec.penetration == pytest.approx(pen_expected, abs=1e-9)
        assert rec.normal_force == pytest.approx(force_expected, abs=1e-9)
        assert rec.engagement == 1.0
        assert rec.inclination == 0.0
        assert not rec.overcompressed and not rec.overfolded
    finger0 = [r for r in contact_rows(contacts) if r.finger_index == 0]
    assert all(r.normal[0] == pytest.approx(-1.0) for r in finger0)
    assert all(r.position[0] == pytest.approx(31.5) for r in finger0)


def test_enveloping_contacts():
    contacts = resolve_contacts(60.0, V_PROBE, material=TPU95A, mu=0.5)
    assert contacts.grasp_mode is GraspMode.V_ENVELOPING
    assert len(contacts) == 4
    pen, bend, incl = v_probe_expectations(60.0)
    for rec in contact_rows(contacts):
        assert rec.mode is ContactMode.BENDING
        assert rec.penetration == pytest.approx(pen, abs=1e-9)
        assert rec.bend_angle == pytest.approx(bend, abs=1e-9)
        # plateau torque over the lever arm
        assert rec.normal_force == pytest.approx(39.0 / 15.0, abs=1e-12)
        assert rec.engagement == 1.0
    by_level = {rec.level: rec for rec in contact_rows(contacts.finger(0))}
    # the lower face presses below the equator and hooks under it
    assert by_level[0].inclination == pytest.approx(incl, abs=1e-9)
    assert by_level[1].inclination == 0.0


def test_partial_engagement():
    contacts = resolve_contacts(60.0, sphere(60.0), material=TPU95A, mu=0.5)
    upper = [r for r in contact_rows(contacts) if r.level == 1]
    assert upper and all(r.engagement == pytest.approx(0.5) for r in upper)


def test_overcompression_surfaces():
    contacts = resolve_contacts(85.0, P_PROBE, material=TPU95A, mu=0.5)
    assert all(r.overcompressed for r in contact_rows(contacts))
    assert all(r.penetration > 15.0 for r in contact_rows(contacts))


def test_overfold_surfaces_with_plateau_force():
    contacts = resolve_contacts(70.0, V_PROBE, material=TPU95A, mu=0.5)
    assert all(r.overfolded for r in contact_rows(contacts))
    assert all(r.normal_force == pytest.approx(2.6) for r in contact_rows(contacts))
    assert all(r.bend_angle > 25.0 for r in contact_rows(contacts))


def test_no_contact_when_open():
    contacts = resolve_contacts(0.0, sphere(60.0))
    assert len(contacts) == 0
    assert pullout_capacity(contacts) == 0.0
    assert squeeze_force(contacts) == 0.0


def test_mu_validation():
    with pytest.raises(ValueError):
        resolve_contacts(30.0, P_PROBE, mu=-0.1)


def test_capacity_formula():
    contacts = resolve_contacts(60.0, V_PROBE, material=TPU95A, mu=0.3)
    expected = sum(
        r.mu * r.normal_force * math.cos(math.radians(r.inclination))
        + r.normal_force * math.sin(math.radians(r.inclination))
        for r in contact_rows(contacts)
    )
    assert pullout_capacity(contacts) == pytest.approx(expected, abs=1e-12)


def test_capacity_linear_in_mu():
    base = resolve_contacts(60.0, V_PROBE, material=TPU95A, mu=0.0)
    slope = sum(r.normal_force * math.cos(math.radians(r.inclination)) for r in contact_rows(base))
    intercept = sum(r.normal_force * math.sin(math.radians(r.inclination)) for r in contact_rows(base))
    for mu in (0.0, 0.2, 0.5, 0.9):
        contacts = resolve_contacts(60.0, V_PROBE, material=TPU95A, mu=mu)
        assert pullout_capacity(contacts) == pytest.approx(intercept + slope * mu, abs=1e-9)
        # normal forces do not depend on friction
        assert squeeze_force(contacts) == pytest.approx(squeeze_force(base), abs=1e-12)


def test_squeeze_force_per_finger():
    contacts = resolve_contacts(60.0, V_PROBE, material=TPU95A, mu=0.5)
    total = squeeze_force(contacts)
    per_finger = [squeeze_force(contacts, i) for i in (0, 1)]
    assert sum(per_finger) == pytest.approx(total, abs=1e-12)
    assert per_finger[0] == pytest.approx(per_finger[1], abs=1e-12)


def test_calibration_reproduces_target():
    mu = calibrate_friction(V_PROBE, 60.0, material=TPU95A, target_side_force=1.5)
    _, _, incl = v_probe_expectations(60.0)
    fn = 39.0 / 15.0
    slope = fn * math.cos(math.radians(incl)) + fn  # hooked level + straight level
    intercept = fn * math.sin(math.radians(incl))
    assert mu == pytest.approx((1.5 - intercept) / slope, abs=1e-12)
    contacts = resolve_contacts(60.0, V_PROBE, material=TPU95A, mu=mu)
    assert pullout_capacity(contacts.finger(0)) == pytest.approx(1.5, abs=1e-9)
    assert pullout_capacity(contacts) == pytest.approx(3.0, abs=1e-9)


def test_calibration_errors():
    with pytest.raises(ValueError):
        calibrate_friction(sphere(10.0), 60.0, material=TPU95A)  # never touched
    with pytest.raises(ValueError):
        # below the frictionless hook resistance: no non-negative mu fits
        calibrate_friction(V_PROBE, 60.0, material=TPU95A, target_side_force=0.1)


def test_softer_material_scales_capacity_proportionally():
    mu = calibrate_friction(V_PROBE, 60.0, material=TPU95A, target_side_force=1.5)
    soft = resolve_contacts(60.0, V_PROBE, material=SIL950, mu=mu)
    # same geometry, plateau torque 9.5 instead of 39: capacity scales with it
    assert pullout_capacity(soft.finger(0)) == pytest.approx(1.5 * 9.5 / 39.0, abs=1e-9)
    assert 1.0 <= squeeze_force(soft, 0) <= 2.0
    assert squeeze_force(soft, 0) == pytest.approx(1.2511812941822, abs=1e-9)


def test_lift_check():
    ball = sphere(60.0, mass=0.05, pose=Pose(z=10.0))
    contacts = resolve_contacts(60.0, ball, material=SIL950, mu=0.5)
    result = lift_check(contacts, ball)
    assert result.weight == 0.05 * 9.81  # bit for bit: one gravity, 9.81 m/s^2
    assert result.capacity == pytest.approx(pullout_capacity(contacts))
    assert result.margin == pytest.approx(result.capacity - result.weight)
    assert result.holds == (result.capacity >= result.weight)
    heavy = sphere(60.0, mass=50.0, pose=Pose(z=10.0))
    assert not lift_check(resolve_contacts(60.0, heavy, material=SIL950, mu=0.5), heavy).holds
    with pytest.raises(ValueError):
        lift_check(contacts, ball, safety=0.5)


def test_parallel_trace_stages():
    trace = pullout_trace(30.0, P_PROBE, material=TPU95A, mu=0.5)
    assert trace.markers == {"t1": 0.0, "t2": 30.0, "t3": 50.0, "t4": 90.0}
    plateau1 = trace.forces[trace.lifts <= trace.t2]
    plateau2 = trace.forces[(trace.lifts >= trace.t3) & (trace.lifts <= trace.t4 - 20.0)]
    expected1 = 4.0 * 0.5 * 4.75 * ((63.0 - opening(30.0)) / 2.0 / 15.0) / 0.1
    assert np.allclose(plateau1, expected1, atol=1e-9)
    assert np.allclose(plateau2, expected1 / 2.0, atol=1e-9)
    assert np.all(trace.forces[trace.lifts >= trace.t4] == 0.0)
    assert np.all(np.diff(trace.forces) <= 1e-12)
    # the trace starts at the static capacity of the same grasp
    static = pullout_capacity(resolve_contacts(30.0, P_PROBE, material=TPU95A, mu=0.5))
    assert trace.forces[0] == static


def test_enveloping_trace_varies_before_release():
    mu = calibrate_friction(V_PROBE, 60.0, material=TPU95A, target_side_force=1.5)
    trace = pullout_trace(60.0, V_PROBE, material=TPU95A, mu=mu)
    assert trace.markers == {"t1": 0.0, "t2": 10.0, "t3": 30.0, "t4": 70.0}
    assert trace.forces[0] == pytest.approx(3.0, abs=1e-9)
    early = trace.forces[trace.lifts < trace.t2]
    assert early.max() - early.min() == pytest.approx(1.0627859303504, abs=1e-6)
    assert np.all(trace.forces[trace.lifts >= trace.t4] == 0.0)


def test_trace_stage_labels():
    trace = pullout_trace(60.0, V_PROBE, material=TPU95A, mu=0.5)
    assert trace.stage_of(5.0) == "t1"
    assert trace.stage_of(20.0) == "t2"
    assert trace.stage_of(50.0) == "t3"
    assert trace.stage_of(80.0) == "t4"


def test_trace_requires_full_probe():
    short = cuboid(63.0, 45.4, 40.0)  # misses the upper module level
    with pytest.raises(ValueError):
        pullout_trace(30.0, short, material=TPU95A)
    with pytest.raises(ValueError):
        pullout_trace(30.0, P_PROBE, material=TPU95A, lift_grid=[])


def test_default_lift_grid():
    grid = default_lift_grid(P_PROBE)
    assert grid[0] == 0.0
    assert np.allclose(np.diff(grid), 0.5)
    assert grid[-1] >= 91.0  # reaches past full disengagement
    with pytest.raises(ValueError):
        default_lift_grid(P_PROBE, step=0.0)
    with pytest.raises(ValueError, match="lift grid of .* points exceeds 100000"):
        default_lift_grid(P_PROBE, step=1e-6)
    # one point past the cap is counted as such, not rounded to 1e+05
    with pytest.raises(ValueError, match="^lift grid of 100001 points exceeds 100000$"):
        default_lift_grid(cube(100.0), step=90.0 / 99998)


def _scaled_config(config, s):
    law = TransmissionLaw(
        r0=config.law.r0 * s,
        slope=config.law.slope * s,
        theta_min=config.law.theta_min,
        theta_max=config.law.theta_max,
    )
    return GripperConfig(
        finger_count=config.finger_count,
        law=law,
        module_offset=config.module_offset * s,
        module_levels=tuple(level * s for level in config.module_levels),
        module_height=config.module_height * s,
        rest_depth=config.rest_depth * s,
        panel_span=config.panel_span * s,
        bend_lever_arm=config.bend_lever_arm * s,
        curvature_threshold=config.curvature_threshold,
    )


@given(
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=30.0, max_value=110.0),
)
def test_mode_invariant_under_uniform_scaling(scale, diameter):
    config = GripperConfig()
    obj = sphere(diameter)
    scaled = sphere(diameter * scale)
    assert grasp_mode(obj, config) is grasp_mode(scaled, _scaled_config(config, scale))


@given(
    st.floats(min_value=28.0, max_value=90.0),
    st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=40)
def test_parallel_trace_never_increases(theta, mu):
    trace = pullout_trace(theta, P_PROBE, material=TPU95A, mu=mu)
    assert np.all(np.diff(trace.forces) <= 1e-9)


@given(st.floats(min_value=25.0, max_value=90.0), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=40)
def test_trace_start_equals_static_capacity(theta, mu):
    trace = pullout_trace(theta, V_PROBE, material=TPU95A, mu=mu)
    static = pullout_capacity(resolve_contacts(theta, V_PROBE, material=TPU95A, mu=mu))
    assert trace.forces[0] == static


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_capacity_monotone_in_mu(mu1, mu2):
    lo, hi = sorted((mu1, mu2))
    cap_lo = pullout_capacity(resolve_contacts(60.0, V_PROBE, material=TPU95A, mu=lo))
    cap_hi = pullout_capacity(resolve_contacts(60.0, V_PROBE, material=TPU95A, mu=hi))
    assert cap_lo <= cap_hi + 1e-12


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: resolve_contacts(60.0, V_PROBE, mu=math.nan), "mu must be finite", id="contacts-mu-nan"),
        pytest.param(lambda: resolve_contacts(60.0, V_PROBE, mu=math.inf), "mu must be finite", id="contacts-mu-inf"),
        pytest.param(lambda: pullout_trace(60.0, V_PROBE, mu=math.nan), "mu must be finite", id="trace-mu-nan"),
        pytest.param(lambda: pullout_trace(45.0, sphere(76.0), lift_grid=[0.0, math.nan]),
                     "lift_grid must be finite, got nan", id="trace-lift-nan"),
        pytest.param(lambda: pullout_trace(45.0, sphere(76.0), lift_grid=[-math.inf, 0.0]),
                     "lift_grid must be finite, got -inf", id="trace-lift-inf"),
        pytest.param(lambda: sphere(math.nan), "dims must be finite", id="sphere-nan"),
        pytest.param(lambda: cuboid(60.0, math.inf, 80.0), "dims must be finite", id="cuboid-inf"),
        pytest.param(lambda: sphere(50.0, mass=math.inf), "mass must be finite", id="mass-inf"),
        pytest.param(lambda: sphere(50.0, pose=Pose(z=math.nan)), "z must be finite", id="pose-z-nan"),
        pytest.param(lambda: GripperConfig(module_height=math.inf), "module_height must be finite", id="config-inf"),
        pytest.param(lambda: GripperConfig(module_levels=(20.0, math.nan)), "module_levels must be finite",
                     id="levels-nan"),
        pytest.param(lambda: TransmissionLaw(r0=math.nan), "r0 must be finite", id="law-nan"),
        pytest.param(lambda: MaterialModel("m", math.inf, 0.05, 9.5, 0.05), "plateau_force must be finite",
                     id="material-inf"),
        pytest.param(lambda: MaterialModel("m", 1.0, 0.05, 9.5, 0.05, overload_stiffness=math.nan),
                     "overload_stiffness must be finite", id="overload-nan"),
        pytest.param(lambda: CycleSpec(travel_speed=math.inf), "travel_speed must be finite", id="cycle-inf"),
        pytest.param(lambda: CycleSpec(pick=(0.0, math.nan)), "pick must be finite", id="site-nan"),
    ],
)
def test_non_finite_api_input_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: cuboid(63.0, 1e300, 100.0), r"dims must be <= 10000, got 1e\+300", id="size"),
        pytest.param(lambda: sphere(50.0, pose=Pose(z=-2e4)), "z must be >= -10000, got -20000", id="pose-z"),
        pytest.param(lambda: GripperConfig(module_levels=(20.0, 1e5)), "module_levels must be <= 10000, got 100000",
                     id="levels"),
        pytest.param(lambda: GripperConfig(module_levels=(10.0, 20.0, 30.0, 40.0, 50.0)),
                     "^module_levels holds 1 to 4 levels, got 5$", id="levels-count"),
        pytest.param(lambda: GripperConfig(module_levels=()), "^module_levels holds 1 to 4 levels, got 0$",
                     id="levels-none"),
        pytest.param(lambda: GripperConfig(bend_lever_arm=1e-307), "bend_lever_arm must be >= 0.001, got 1e-307",
                     id="lever-arm"),
        pytest.param(lambda: TransmissionLaw(r0=1e300), r"r0 must be <= 10000, got 1e\+300", id="law-r0"),
        pytest.param(lambda: CycleSpec(descend_speed=1e-307), "descend_speed must be >= 0.001, got 1e-307",
                     id="cycle-speed"),
        pytest.param(lambda: CycleSpec(place_top=(1e300, 0.0)), r"place_top must be <= 10000, got 1e\+300",
                     id="cycle-site"),
    ],
)
def test_out_of_bounds_api_input_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# --------------------------------------------------------------------------
# the contact model against the scalar oracle
# --------------------------------------------------------------------------


@st.composite
def _placed_objects(draw):
    """Any shape at any yaw and base height, from well inside to well outside the jaws."""
    kind = draw(st.sampled_from(list(ShapeKind)))
    width, depth, height = (draw(st.floats(20.0, 140.0)) for _ in range(3))
    dims = {
        ShapeKind.SPHERE: (width,),
        ShapeKind.CUBE: (width,),
        ShapeKind.CUBOID: (width, depth, height),
        ShapeKind.CYLINDER: (width, height),
        ShapeKind.CURVED_BLOCK: (draw(st.floats(max(width, height) / 2.0, 150.0)), width, height),
    }[kind]
    pose = Pose(z=draw(st.floats(-60.0, 60.0)), yaw=draw(st.floats(-180.0, 180.0)))
    return ObjectShape(kind, dims, pose=pose)


@given(
    obj=_placed_objects(),
    levels=st.lists(st.floats(0.5, 120.0), min_size=1, max_size=4).map(sorted),
    fingers=st.sampled_from((2, 4)),
    curvature_threshold=st.floats(0.2, 2.0),
    material=st.sampled_from((TPU95A, SIL950)),
    mu=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    theta=st.floats(0.0, 90.0),
    torque_scale=st.floats(0.1, 5.0),
)
@settings(max_examples=400, derandomize=True, deadline=None)
# the upper face ends exactly at the top of the cube, which it must not touch
@example(cube(50.0), [20.0, 60.0], 2, 1.0, TPU95A, 0.5, 60.0, 1.0)
def test_contacts_equal_the_scalar_oracle(obj, levels, fingers, curvature_threshold, material, mu, theta,
                                          torque_scale):
    config = GripperConfig(finger_count=fingers, module_levels=tuple(levels),
                           curvature_threshold=curvature_threshold)
    contacts = resolve_contacts(theta, obj, config, material, mu, torque_scale)
    assert contact_rows(contacts) == tuple(level_contacts(theta, obj, config, material, mu, 0.0, torque_scale))


@given(
    obj=_placed_objects(),
    levels=st.lists(st.floats(0.5, 120.0), min_size=1, max_size=4).map(sorted),
    fingers=st.sampled_from((2, 4)),
    curvature_threshold=st.floats(0.2, 2.0),
    material=st.sampled_from((TPU95A, SIL950)),
    mu=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    thetas=st.lists(st.floats(0.0, 90.0), min_size=1, max_size=6),
)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_a_contact_sweep_equals_the_scalar_oracle_at_each_angle(obj, levels, fingers, curvature_threshold,
                                                                 material, mu, thetas):
    config = GripperConfig(finger_count=fingers, module_levels=tuple(levels),
                           curvature_threshold=curvature_threshold)
    openings, contacts, bounds = _resolve(thetas, obj, config, material, mu, 1.0)
    decided = []

    def record(sets):
        decided.extend(p.tobytes() for p in sets)
        return [ForceClosure(False, 0.0)] * len(sets)

    with mock.patch.object(grasp, "_force_closures", record):
        _closures(contacts, bounds, obj, config)
    expected_decided = []
    totals = list(zip(*_point_totals(contacts, bounds)))
    for p, theta in enumerate(thetas):
        rows = tuple(level_contacts(theta, obj, config, material, mu, 0.0, 1.0))
        assert contact_rows(contacts)[bounds[p]:bounds[p + 1]] == rows
        assert openings[p] == opening(theta, config)
        expected = (len(rows), oracles.scalar_squeeze_force(rows), oracles.scalar_squeeze_force(rows, 0),
                    oracles.scalar_pullout_capacity(rows))
        assert [(type(v), v) for v in totals[p]] == [(type(v), v) for v in expected]
        if len(rows) >= 2:
            expected_decided.append(oracles.wrench_primitives(rows, contacts.char_radius).tobytes())
    assert decided == expected_decided


def _typed_bits(values):
    """Each value with its type, a float by its exact bits."""
    return [(type(v), v.hex() if type(v) is float else v) for v in values]


@given(
    obj=_placed_objects(),
    levels=st.lists(st.floats(0.5, 120.0), min_size=1, max_size=4).map(sorted),
    fingers=st.sampled_from((2, 4)),
    curvature_threshold=st.floats(0.2, 2.0),
    material=st.sampled_from((TPU95A, SIL950)),
    mu=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    thetas=st.lists(st.floats(0.0, 90.0), min_size=2, max_size=6),
)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_a_one_point_call_equals_its_run_inside_a_sweep(obj, levels, fingers, curvature_threshold, material, mu,
                                                         thetas):
    # the opening, contacts and sums of one run alone equal its own among
    # many, and the lone decision the grouped one: equal in type and bit for bit
    config = GripperConfig(finger_count=fingers, module_levels=tuple(levels),
                           curvature_threshold=curvature_threshold)
    openings, contacts, bounds = _resolve(thetas, obj, config, material, mu, 1.0)
    rows = contact_rows(contacts)
    totals = list(zip(*_point_totals(contacts, bounds)))
    for theta, swept_opening, lo, hi, swept in zip(thetas, openings, bounds, bounds[1:], totals):
        alone_openings, alone, alone_bounds = _resolve([theta], obj, config, material, mu, 1.0)
        assert _typed_bits(alone_openings) == _typed_bits([swept_opening])
        assert alone_bounds == [0, len(alone)]
        assert contact_rows(alone) == rows[lo:hi]
        assert alone == contacts._take(slice(lo, hi))
        assert _typed_bits(next(zip(*_point_totals(alone, alone_bounds)))) == _typed_bits(swept)
    primitives = grasp._primitives(contacts)
    runs = [primitives[2 * lo:2 * hi] for lo, hi in zip(bounds, bounds[1:]) if hi - lo >= 2]
    together = grasp._force_closures(runs + runs)  # two sets or more: the grouped decision
    for run, swept in zip(runs, together):
        (alone,) = grasp._force_closures([run])
        assert type(alone) is type(swept) is ForceClosure
        assert _typed_bits((alone.closed, alone.margin)) == _typed_bits((swept.closed, swept.margin))


@given(
    obj=_placed_objects(),
    levels=st.lists(st.floats(0.5, 120.0), min_size=1, max_size=4).map(sorted),
    fingers=st.sampled_from((2, 4)),
    curvature_threshold=st.floats(0.2, 2.0),
    material=st.sampled_from((TPU95A, SIL950)),
    mu=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    theta=st.floats(0.0, 90.0),
)
@settings(max_examples=300, derandomize=True, deadline=None)
@example(V_PROBE, [20.0, 60.0], 4, 1.0, TPU95A, 0.3, 60.0)  # enveloping, every face pressing
@example(P_PROBE, [20.0, 60.0], 4, 1.0, SIL950, 0.3, 60.0)  # parallel, two fingers of four pressing
def test_public_sums_equal_the_scalar_oracle(obj, levels, fingers, curvature_threshold, material, mu, theta):
    # each public sum is the one-run case of _point_totals: equal in type and bit for bit
    # to a plain sum over the oracle's rows, finger `fingers` being absent (an int 0)
    config = GripperConfig(finger_count=fingers, module_levels=tuple(levels),
                           curvature_threshold=curvature_threshold)
    contacts = resolve_contacts(theta, obj, config, material, mu)
    rows = level_contacts(theta, obj, config, material, mu, 0.0, 1.0)
    asked = (None, *range(fingers + 1))
    assert (_typed_bits([squeeze_force(contacts, finger) for finger in asked])
            == _typed_bits([oracles.scalar_squeeze_force(rows, finger) for finger in asked]))
    capacity = oracles.scalar_pullout_capacity(rows)
    assert (_typed_bits([pullout_capacity(contacts), lift_check(contacts, obj).capacity])
            == _typed_bits([capacity, capacity]))


def _columns(contacts: ContactSet) -> dict:
    return {name: getattr(contacts, name) for name in _COLUMNS}


def test_a_finger_holds_its_own_contacts():
    contacts = resolve_contacts(60.0, V_PROBE, GripperConfig(finger_count=4), TPU95A, mu=0.3)
    assert contact_rows(contacts.finger(1)) == tuple(r for r in contact_rows(contacts) if r.finger_index == 1)
    assert len(contacts.finger(5)) == 0 and contact_rows(contacts.finger(5)) == ()


def test_contact_sets_compare_by_grasp_fields_and_columns():
    contacts = resolve_contacts(60.0, V_PROBE, GripperConfig(finger_count=4), TPU95A, mu=0.3)
    copies = {name: column.copy() for name, column in _columns(contacts).items()}
    rebuilt = ContactSet(contacts.grasp_mode, contacts.char_radius, **copies)
    assert rebuilt == contacts and hash(rebuilt) == hash(contacts)
    assert not hasattr(contacts, "theta")  # a set holds no servo angle
    assert rebuilt != dataclasses.replace(contacts, char_radius=contacts.char_radius + 1.0)
    for name, column in copies.items():
        changed = ~column if column.dtype == bool else column + 1
        assert rebuilt != dataclasses.replace(contacts, **{name: changed}), name
    # a parallel set, whose bend_angle is None, compares its other columns
    parallel = resolve_contacts(30.0, P_PROBE, material=TPU95A, mu=0.3)
    assert parallel == resolve_contacts(30.0, P_PROBE, material=TPU95A, mu=0.3) != parallel.finger(0)
    # the set of a sweep's points equals itself and its equal
    swept, again = (_resolve([50.0, 60.0], V_PROBE, None, TPU95A, 0.3, 1.0)[1] for _ in range(2))
    assert swept == swept == again and hash(swept) == hash(again)
    # a set holding a NaN in a column equals itself, though not a copy of itself
    poisoned = dataclasses.replace(contacts, normal_force=np.full(len(contacts), math.nan))
    assert poisoned == poisoned and poisoned != dataclasses.replace(poisoned)


def test_a_contact_set_has_a_bend_angle_column_exactly_when_enveloping():
    parallel = resolve_contacts(60.0, P_PROBE, material=TPU95A, mu=0.3)
    enveloping = resolve_contacts(60.0, V_PROBE, material=TPU95A, mu=0.3)
    assert parallel.bend_angle is None and enveloping.bend_angle is not None
    for contacts, bend_angle in ((parallel, parallel.penetration), (enveloping, None)):
        mode = contacts.grasp_mode
        with pytest.raises(ValueError, match=f"^a {mode.value} grasp has {contacts.contact_mode.value} contacts"):
            ContactSet(mode, contacts.char_radius, **{**_columns(contacts), "bend_angle": bend_angle})
    columns = _columns(parallel)
    del columns["mu"]
    with pytest.raises(TypeError, match=r"missing 1 required keyword-only argument: 'mu'$"):
        ContactSet(GraspMode.PARALLEL, parallel.char_radius, **columns)
    with pytest.raises(TypeError, match=r"got an unexpected keyword argument 'mode'$"):
        ContactSet(GraspMode.PARALLEL, parallel.char_radius, **columns, mu=parallel.mu, mode=parallel.mu)
    # the columns are keyword-only: one passed by position is refused
    with pytest.raises(TypeError, match=r"takes 3 positional arguments but 4 positional arguments"):
        ContactSet(GraspMode.PARALLEL, parallel.char_radius, parallel.mu, **columns)


def test_contact_geometry_is_shared_by_equal_objects_only():
    config = GripperConfig(finger_count=4)
    for make in (lambda **kw: cuboid(63.0, 45.4, 100.0, **kw), lambda **kw: sphere(62.0, **kw)):
        first, twin = make(pose=Pose(z=-5.0, yaw=20.0)), make(pose=Pose(z=-5.0, yaw=20.0))
        assert twin is not first
        assert contact_rows(resolve_contacts(60.0, twin, config)) == contact_rows(resolve_contacts(60.0, first, config))
        assert _resting_geometry(twin, config) is _resting_geometry(first, config)
        yawed = dataclasses.replace(first, pose=Pose(z=-5.0, yaw=35.0))
        raised = dataclasses.replace(first, pose=Pose(z=15.0, yaw=20.0))
        for other in (yawed, raised) if first.kind is ShapeKind.CUBOID else (raised,):
            assert _resting_geometry(other, config) is not _resting_geometry(first, config)
            rows = contact_rows(resolve_contacts(60.0, other, config))
            assert rows == tuple(level_contacts(60.0, other, config, TPU95A, 0.5, 0.0, 1.0))
            assert rows != contact_rows(resolve_contacts(60.0, first, config))

        # every face's width, r_h (enveloping only) and each column of its contact, in a mapping that is read-only too
        faces, _ = _resting_geometry(first, config)
        arrays = [field for field in faces if isinstance(field, np.ndarray)] + list(faces.columns.values())
        assert len(arrays) == (9 if first.kind is ShapeKind.CUBOID else 10)
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        with pytest.raises(TypeError):
            faces.columns["engagement"] = faces.columns["level"]


def test_list_dimensions_give_hashable_objects():
    obj = ObjectShape(ShapeKind.SPHERE, [60.0])
    config = GripperConfig(finger_count=4, module_levels=[15.0, 35.0])
    assert isinstance(obj.dims, tuple) and isinstance(config.module_levels, tuple)
    assert hash(obj) == hash(sphere(60.0)) and hash(config) == hash(GripperConfig(4, module_levels=(15.0, 35.0)))
    same_obj, same_config = sphere(60.0), GripperConfig(finger_count=4, module_levels=(15.0, 35.0))
    assert resolve_contacts(45.0, obj, config) == resolve_contacts(45.0, same_obj, same_config)
    trace = pullout_trace(45.0, obj, config, lift_grid=[0.0, 10.0, 20.0])
    same_trace = pullout_trace(45.0, same_obj, same_config, lift_grid=[0.0, 10.0, 20.0])
    assert np.array_equal(trace.forces, same_trace.forces)


# --------------------------------------------------------------------------
# the batched trace against the scalar contact code
# --------------------------------------------------------------------------


@st.composite
def _trace_probes(draw):
    """Any shape, and 1 to 4 module levels inside its span, at least 1 mm up."""
    z = draw(st.floats(-30.0, 19.0))
    height = draw(st.floats(max(20.0, 5.0 - z), 140.0))
    width = draw(st.floats(25.0, 110.0))
    kind = draw(st.sampled_from(list(ShapeKind)))
    dims = {
        ShapeKind.SPHERE: (height,),
        ShapeKind.CUBE: (height,),
        ShapeKind.CUBOID: (width, draw(st.floats(25.0, 110.0)), height),
        ShapeKind.CYLINDER: (width, height),
        ShapeKind.CURVED_BLOCK: (draw(st.floats(max(width, height) / 2.0, 150.0)), width, height),
    }[kind]
    probe = ObjectShape(kind, dims, pose=Pose(z=z, yaw=draw(st.floats(-180.0, 180.0))))
    span_lo, span_hi = z_span(probe)
    levels = draw(st.lists(st.floats(max(span_lo, 1.0), span_hi), min_size=1, max_size=4))
    return probe, tuple(sorted(levels))


@given(
    placed=_trace_probes(),
    fingers=st.sampled_from((2, 4)),
    curvature_threshold=st.floats(0.2, 2.0),
    material=st.sampled_from((TPU95A, SIL950)),
    mu=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    theta=st.floats(0.0, 90.0),
    torque_scale=st.floats(0.1, 5.0),
    # negative lifts, lifts past the top of the object, any order
    grid=st.lists(st.floats(-100.0, 300.0), min_size=1, max_size=60),
)
@settings(max_examples=300, deadline=None)
# fingers at 0 and 90 deg meet a cube one width, and those at 180 and 270 deg another: two columns
@example((cube(80.0), (20.0, 60.0)), 4, 1.0, TPU95A, 0.5, 60.0, 1.0, [0.0, 15.0, 30.0, 50.0, 70.0, 90.0])
# every finger meets a cylinder one width: one column, one width at every lift
@example((cylinder(60.0, 90.0), (20.0, 60.0)), 4, 1.0, SIL950, 0.4, 45.0, 2.0, [-20.0, 0.0, 25.0, 45.0, 80.0])
def test_trace_equals_scalar_contacts_at_every_lift(
    placed, fingers, curvature_threshold, material, mu, theta, torque_scale, grid
):
    probe, levels = placed
    config = GripperConfig(finger_count=fingers, curvature_threshold=curvature_threshold, module_levels=levels)
    trace = pullout_trace(theta, probe, config, material, mu, grid, torque_scale)
    expected = [
        oracles.scalar_pullout_capacity(level_contacts(theta, probe, config, material, mu, lift, torque_scale))
        for lift in grid
    ]
    assert np.array_equal(trace.forces, expected)


def test_trace_equals_scalar_contacts_on_the_default_grids():
    for probe in (V_PROBE, P_PROBE, sphere(76.0, pose=Pose(z=-5.0)), cylinder(50.0, 90.0)):
        for theta in (60.0, 75.0, 90.0):
            trace = pullout_trace(theta, probe, material=SIL950, mu=0.4)
            expected = [
                oracles.scalar_pullout_capacity(level_contacts(theta, probe, GripperConfig(), SIL950, 0.4, lift, 1.0))
                for lift in trace.lifts
            ]
            assert np.array_equal(trace.forces, expected)
            assert trace.forces[0] > 0.0


def test_trace_and_contacts_reject_the_same_input():
    cases = [
        ({"theta": 60.0, "torque_scale": 0.0}, ValueError, "torque_scale must be > 0, got 0"),
        ({"theta": 95.0}, AngleRangeError, "servo angle 95 deg outside guide range"),
        ({"theta": 60.0, "mu": -0.1}, ValueError, "mu must be >= 0, got -0.1"),
    ]
    for kwargs, error, message in cases:
        with pytest.raises(error, match=message):
            pullout_trace(probe=V_PROBE, material=TPU95A, **kwargs)
        with pytest.raises(error, match=message):
            resolve_contacts(obj=V_PROBE, material=TPU95A, **kwargs)
    # the torque scale is judged whether or not a pressing bending contact reads it
    message = "torque_scale must be > 0, got 0"
    with pytest.raises(ValueError, match=message):
        pullout_trace(60.0, P_PROBE, torque_scale=0.0)
    with pytest.raises(ValueError, match=message):
        pullout_trace(60.0, cylinder(60.0, 90.0), torque_scale=0.0, lift_grid=[500.0])
    with pytest.raises(ValueError, match=message):
        resolve_contacts(60.0, P_PROBE, torque_scale=0.0)


def test_a_trace_runs_the_module_curve_once_per_level_and_column():
    """Fingers of one width read one penetration, and a cylinder's width is
    the same at every lift: 3 curve points, not 3 levels x 4 fingers x 401
    lifts."""
    angles = []

    def counted(angle, *args):
        angles.append(len(angle))
        return bending_contact_force(angle, *args)

    config = GripperConfig(finger_count=4, module_levels=(15.0, 45.0, 75.0))
    with mock.patch.object(grasp, "bending_contact_force", counted):
        trace = pullout_trace(60.0, cylinder(60.0, 90.0), config, lift_grid=np.linspace(0.0, 100.0, 401))
    assert angles == [3]
    assert trace.forces[0] > trace.forces[-1] == 0.0


def test_trace_rejects_a_grid_that_is_not_a_list():
    with pytest.raises(ValueError, match="lift_grid must be one-dimensional"):
        pullout_trace(60.0, V_PROBE, lift_grid=[[0.0, 1.0]])
    with pytest.raises(ValueError, match="lift_grid must be one-dimensional"):
        pullout_trace(60.0, V_PROBE, lift_grid=5.0)
