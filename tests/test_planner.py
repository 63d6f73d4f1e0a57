import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from origrip import (
    GripperConfig,
    InfeasibleReason,
    LimitingFactor,
    PlanError,
    Pose,
    SIL950,
    TPU95A,
    cube,
    cuboid,
    curved_block,
    cylinder,
    equator_z,
    grasp_width,
    hold_window,
    holds_at,
    make_stacked_scene,
    plan_stacked,
    pullout_capacity,
    resolve_contacts,
    simulate_plan,
    sphere,
)
from origrip import grasp, planner
from origrip.demo import demo_scene_path
from origrip.planner import _BISECT_TOL, _strain_interval
from origrip.scenario import load_scenario, run_scenario
from origrip.transmission import unclamped_theta_for_opening

CFG2 = GripperConfig(finger_count=2)
CFG4 = GripperConfig(finger_count=4)


def theta_at(target_opening):
    """Servo angle giving a jaw opening, from the linear drive law."""
    return (39.0 - target_opening / 2.0) * 90.0 / 25.0


def expected_strain_window(width):
    """Angles where the squeeze sits between 10% and 50% of module depth."""
    return theta_at(width - 2.0 * 1.5), theta_at(width - 2.0 * 7.5)


def timeline(scene, plan):
    return [(s.top_held, s.bottom_held) for s in simulate_plan(scene, plan)]


def test_hold_window_is_strain_interval_when_strong_enough():
    scene = make_stacked_scene(sphere(60.0, 0.10), sphere(50.0, 0.06), config=CFG4)
    for obj, width in ((scene.top, 60.0), (scene.bottom, 50.0)):
        window = hold_window(obj, CFG4, SIL950, mu=0.5)
        lo, hi = expected_strain_window(width)
        assert window.theta_lo == pytest.approx(lo, abs=1e-9)
        assert window.theta_hi == pytest.approx(hi, abs=1e-9)
        assert window.limiting_factor is LimitingFactor.STRAIN_RANGE
        assert window.width == pytest.approx(21.6, abs=1e-9)
        assert window.contains(0.5 * (lo + hi))
        assert not window.contains(hi + 0.1)


def test_window_matches_swept_predicate():
    scene = make_stacked_scene(cube(58.0, 0.12), cube(50.0, 0.08), config=CFG4)
    for obj in (scene.top, scene.bottom):
        window = hold_window(obj, CFG4, SIL950, mu=0.5)
        swept = oracles.swept_hold_window(obj, CFG4, SIL950, mu=0.5)
        assert swept is not None
        assert abs(window.theta_lo - swept[0]) <= 0.1 + 1e-9
        assert abs(window.theta_hi - swept[1]) <= 0.1 + 1e-9


def test_holds_at_strain_edges():
    scene = make_stacked_scene(sphere(60.0, 0.10), sphere(50.0, 0.06), config=CFG4)
    top = scene.top
    assert holds_at(59.4, top, CFG4, SIL950, mu=0.5)
    assert holds_at(37.8 + 1e-6, top, CFG4, SIL950, mu=0.5)
    assert not holds_at(59.5, top, CFG4, SIL950, mu=0.5)  # squeezed past the band
    assert not holds_at(37.7, top, CFG4, SIL950, mu=0.5)  # too loose


def test_stack_centering():
    scene = make_stacked_scene(sphere(60.0, 0.10), sphere(50.0, 0.06), config=CFG4)
    assert scene.bottom.pose.z == pytest.approx(-12.5)
    assert scene.top.pose.z == pytest.approx(37.5)
    # the two equators straddle the module heights symmetrically
    mid = 0.5 * (equator_z(scene.bottom) + equator_z(scene.top))
    assert mid == pytest.approx(0.5 * (20.0 + 60.0))
    spaced = make_stacked_scene(sphere(60.0, 0.10), sphere(50.0, 0.06), clearance=2.0, config=CFG4)
    gap = spaced.top.pose.z - (spaced.bottom.pose.z + 50.0)
    assert gap == pytest.approx(2.0)
    mid = 0.5 * (equator_z(spaced.bottom) + equator_z(spaced.top))
    assert mid == pytest.approx(40.0)
    with pytest.raises(ValueError):
        make_stacked_scene(sphere(60.0), sphere(50.0), clearance=-1.0)


def test_scene_defaults():
    scene = make_stacked_scene(sphere(60.0, 0.10), sphere(50.0, 0.06))
    assert scene.material is SIL950
    assert scene.mu == 0.5
    assert scene.safety == 1.2


def test_plan_spheres():
    scene = make_stacked_scene(sphere(60.0, 0.10), sphere(50.0, 0.06), config=CFG4)
    plan = plan_stacked(scene)
    assert plan.theta_grasp == pytest.approx(57.6, abs=1e-9)
    assert plan.theta_release_bottom == pytest.approx(44.1, abs=1e-9)
    assert plan.theta_release_top == 0.0
    assert plan.grasp_window == pytest.approx((55.8, 59.4), abs=1e-9)
    assert plan.release_window == pytest.approx((37.8, 55.8), abs=1e-9)
    assert timeline(scene, plan) == [(True, True), (True, False), (False, False)]


def test_plan_cubes():
    scene = make_stacked_scene(cube(58.0, 0.12), cube(50.0, 0.08), config=CFG4)
    plan = plan_stacked(scene)
    assert plan.theta_grasp == pytest.approx(59.4, abs=1e-9)
    assert plan.theta_release_bottom == pytest.approx(45.9, abs=1e-9)
    assert timeline(scene, plan) == [(True, True), (True, False), (False, False)]


def test_plan_sphere_on_cube():
    scene = make_stacked_scene(sphere(60.0, 0.10), cube(52.0, 0.08), config=CFG4)
    plan = plan_stacked(scene)
    assert plan.theta_grasp == pytest.approx(55.8, abs=1e-9)
    assert plan.theta_release_bottom == pytest.approx(42.3, abs=1e-9)
    assert timeline(scene, plan) == [(True, True), (True, False), (False, False)]


def test_plan_cuboids_two_fingers():
    scene = make_stacked_scene(
        cuboid(62.0, 100.0, 60.0, 0.15),
        cuboid(54.0, 90.0, 48.0, 0.10),
        config=CFG2,
        material=TPU95A,
    )
    plan = plan_stacked(scene)
    assert plan.theta_grasp == pytest.approx(52.2, abs=1e-9)
    assert plan.theta_release_bottom == pytest.approx(38.7, abs=1e-9)
    assert timeline(scene, plan) == [(True, True), (True, False), (False, False)]


def test_release_angle_guarantees_no_touch():
    scene = make_stacked_scene(sphere(60.0, 0.10), sphere(50.0, 0.06), config=CFG4)
    plan = plan_stacked(scene)
    # at the bottom-release angle the jaws have opened past the bottom object
    assert 78.0 - 50.0 * plan.theta_release_bottom / 90.0 > 50.0


@pytest.mark.parametrize("top, bottom", [
    (sphere(50.0, 0.05), sphere(60.0, 0.05)),
    (cube(58.0, 0.05), cube(58.0, 0.05)),  # equal widths: neither can be dropped first
], ids=["wider_bottom", "equal_widths"])
def test_plan_size_order_error(top, bottom):
    scene = make_stacked_scene(top, bottom, config=CFG4)
    with pytest.raises(PlanError) as exc_info:
        plan_stacked(scene)
    assert exc_info.value.reason is InfeasibleReason.SIZE_ORDER


def test_plan_no_common_hold_error():
    scene = make_stacked_scene(sphere(66.0, 0.02), sphere(50.0, 0.02), config=CFG4)
    with pytest.raises(PlanError) as exc_info:
        plan_stacked(scene)
    assert exc_info.value.reason is InfeasibleReason.NO_COMMON_HOLD


# widths two millimetres apart: no angle drops one but keeps the other; three
# apart (the squeeze at the band's loose edge, 2 x 0.1 x 15 mm): the jaws leave
# the bottom cube at the top one's release edge, a release window of zero width
@pytest.mark.parametrize("top_width", [52.0, 53.0])
def test_plan_no_release_gap_error(top_width):
    scene = make_stacked_scene(cube(top_width, 0.02), cube(50.0, 0.02), config=CFG4, material=SIL950)
    with pytest.raises(PlanError) as exc_info:
        plan_stacked(scene)
    assert exc_info.value.reason is InfeasibleReason.NO_RELEASE_GAP


def test_window_none_when_unholdable():
    # wider than the jaws can ever grip in-band
    assert hold_window(sphere(96.0, 0.01), CFG4, SIL950, mu=0.5) is None
    # far too heavy for the soft material
    assert hold_window(sphere(60.0, 5.0), CFG4, SIL950, mu=0.5) is None


def test_window_clipped_by_lift_capacity():
    obj = sphere(66.0, 0.1, pose=Pose(z=10.0))
    window = hold_window(obj, CFG2, SIL950, mu=0.5)
    assert window.limiting_factor is LimitingFactor.LIFT_CAPACITY
    lo, hi = expected_strain_window(66.0)
    assert window.theta_hi == pytest.approx(hi, abs=1e-9)
    assert lo < window.theta_lo < hi
    assert window.theta_lo == pytest.approx(31.6272115945, abs=1e-4)
    # the predicate flips exactly at the found edge
    assert not holds_at(window.theta_lo - 0.01, obj, CFG2, SIL950, mu=0.5)
    assert holds_at(window.theta_lo + 0.01, obj, CFG2, SIL950, mu=0.5)
    swept = oracles.swept_hold_window(obj, CFG2, SIL950, mu=0.5)
    assert abs(window.theta_lo - swept[0]) <= 0.1 + 1e-9


def test_window_clipped_by_opening_range():
    obj = sphere(82.0, 0.01, pose=Pose(z=-1.0))
    window = hold_window(obj, CFG4, SIL950, mu=0.5)
    assert window.limiting_factor is LimitingFactor.OPENING_RANGE
    assert window.theta_lo == 0.0
    assert window.theta_hi == pytest.approx(19.8, abs=1e-9)


def test_random_scenes_window_and_plan():
    rng = np.random.default_rng(20260825)
    for _ in range(10):
        scene = oracles.random_stacked_scene(rng)
        for obj in (scene.top, scene.bottom):
            window = hold_window(obj, scene.config, scene.material, mu=scene.mu, safety=scene.safety)
            swept = oracles.swept_hold_window(
                obj, scene.config, scene.material, scene.mu, scene.safety
            )
            assert window is not None and swept is not None
            assert abs(window.theta_lo - swept[0]) <= 0.1 + 1e-9
            assert abs(window.theta_hi - swept[1]) <= 0.1 + 1e-9
        plan = plan_stacked(scene)
        assert timeline(scene, plan) == [(True, True), (True, False), (False, False)]


@given(
    st.floats(min_value=40.0, max_value=70.0),
    st.floats(min_value=1.0, max_value=10.0),
)
@settings(max_examples=30)
def test_wider_objects_hold_at_smaller_angles(width, extra):
    narrow = hold_window(sphere(width, 0.001), CFG4, SIL950, mu=0.5)
    wide = hold_window(sphere(width + extra, 0.001), CFG4, SIL950, mu=0.5)
    assert narrow is not None and wide is not None
    assert wide.theta_lo <= narrow.theta_lo
    assert wide.theta_hi <= narrow.theta_hi


@given(
    st.sampled_from((sphere, cube)),
    st.floats(min_value=30.0, max_value=85.0),
    st.floats(min_value=0.001, max_value=0.3),
    st.floats(min_value=0.0, max_value=60.0),
    st.sampled_from((CFG2, CFG4)),
    st.sampled_from((TPU95A, SIL950)),
)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_both_edges_of_a_hold_window_hold(make, width, mass, z, config, material):
    """holds_at judges the strain band as hold_window bounds it, so a
    window's own edges hold, whatever pins them."""
    obj = make(width, mass, pose=Pose(z=z))
    window = hold_window(obj, config, material, mu=0.5)
    assume(window is not None)
    for edge in (window.theta_lo, window.theta_hi):
        assert window.contains(edge)
        assert holds_at(edge, obj, config, material, mu=0.5), f"edge {edge!r} of {window}"


@given(
    st.sampled_from((sphere, cube)),
    st.floats(min_value=45.0, max_value=85.0),
    st.floats(min_value=-2.0, max_value=0.0).map(lambda power: 10.0 ** power),  # kg
    st.floats(min_value=0.0, max_value=15.0),
    st.sampled_from((CFG2, CFG4)),
    st.sampled_from((TPU95A, SIL950)),
    st.floats(min_value=1.0, max_value=2.0),
    st.floats(min_value=1.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_a_heavier_object_or_a_higher_safety_never_widens_a_hold_window(
    make, width, mass, z, config, material, safety, heavier, more_safety
):
    """Holding asks capacity >= safety * weight, and capacity does not read
    the mass: a window for more weight or more safety lies inside the first.
    Its lower edge may read up to _BISECT_TOL low, the bisection's bracket;
    its upper edge is the same strain-band edge or none."""
    pose = Pose(z=z)
    window = hold_window(make(width, mass, pose=pose), config, material, mu=0.5, safety=safety)
    for inner in (
        hold_window(make(width, mass * heavier, pose=pose), config, material, mu=0.5, safety=safety),
        hold_window(make(width, mass, pose=pose), config, material, mu=0.5, safety=safety + more_safety),
    ):
        if window is None or inner is None:
            assert inner is None, (window, inner)
            continue
        assert inner.theta_hi == window.theta_hi
        assert inner.theta_lo >= window.theta_lo - _BISECT_TOL, (window, inner)


@given(st.floats(min_value=45.0, max_value=60.0))
@settings(max_examples=20)
def test_feasible_plans_survive_simulation(top_width):
    scene = make_stacked_scene(
        sphere(top_width, 0.01), sphere(top_width - 8.0, 0.01), config=CFG4
    )
    plan = plan_stacked(scene)
    assert timeline(scene, plan) == [(True, True), (True, False), (False, False)]


SHAPES = {
    "sphere": lambda size, aspect, pose: sphere(size, pose=pose),
    "cube": lambda size, aspect, pose: cube(size, pose=pose),
    "cuboid": lambda size, aspect, pose: cuboid(size, size * aspect, size / aspect, pose=pose),
    "cylinder": lambda size, aspect, pose: cylinder(size, size / aspect, pose=pose),
    "curved_block": lambda size, aspect, pose: curved_block(size / (2.0 * aspect), size, pose=pose),
}


@given(
    st.sampled_from(sorted(SHAPES)),
    st.floats(min_value=20.0, max_value=90.0),
    st.floats(min_value=0.5, max_value=1.0),
    st.floats(min_value=0.0, max_value=90.0),
    st.sampled_from((CFG2, CFG4)),
    st.sampled_from((TPU95A, SIL950)),
    st.floats(min_value=0.0, max_value=1.0),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=12),
)
@settings(max_examples=80)
def test_capacity_never_falls_as_the_gripper_closes(shape, size, aspect, yaw, config, material, mu, steps):
    """hold_window bisects for the lower window edge, which is only sound if
    capacity is non-decreasing in theta inside the strain band."""
    obj = SHAPES[shape](size, aspect, Pose(yaw=yaw))
    lo, hi = _strain_interval(obj, config, material)
    lo, hi = max(lo, config.law.theta_min), min(hi, config.law.theta_max)
    assume(lo < hi)
    thetas = sorted(lo + step * (hi - lo) for step in steps)
    caps = [pullout_capacity(resolve_contacts(t, obj, config, material, mu)) for t in thetas]
    for (t0, c0), (t1, c1) in zip(zip(thetas, caps), zip(thetas[1:], caps[1:])):
        assert c1 >= c0 * (1.0 - 1e-12), f"capacity falls from {c0} N at {t0} deg to {c1} N at {t1} deg"


GRID_STEP = 0.1  # deg, the grid oracle's resolution
WIDE_SHAPES = {
    "sphere": lambda width, mass: sphere(width, mass),
    "cube": lambda width, mass: cube(width, mass),
    "cylinder": lambda width, mass: cylinder(width, width, mass),
    "cuboid": lambda width, mass: cuboid(width, 0.8 * width, width, mass),
}


def _wide_stacked_scene(rng):
    """A stacked pair from a wide envelope, which mostly fails to plan: four
    shapes, 2 or 4 fingers, both materials, mu 0.05-1, safety 1-2, masses
    0-0.6 kg and a bottom narrower than the top by 0.5-25 mm."""
    top_width = rng.uniform(35.0, 75.0)
    bottom_width = max(20.0, top_width - rng.uniform(0.5, 25.0))
    top, bottom = (
        WIDE_SHAPES[rng.choice(sorted(WIDE_SHAPES))](width, rng.uniform(0.0, 0.6))
        for width in (top_width, bottom_width)
    )
    return make_stacked_scene(
        top, bottom, clearance=rng.uniform(0.0, 4.0), config=GripperConfig(finger_count=int(rng.choice([2, 4]))),
        material=(TPU95A, SIL950)[rng.integers(2)], mu=rng.uniform(0.05, 1.0), safety=rng.uniform(1.0, 2.0),
    )


def _deciding_gap(scene):
    """How far (deg) the plan's verdict is from flipping: the overlap of the
    two hold windows or the distance by which they miss, and where they
    overlap, the room between the top's release edge and the angle at which
    the jaws first touch the bottom.  Infinite when an object has no window."""
    common = dict(config=scene.config, material=scene.material, mu=scene.mu, safety=scene.safety,
                  torque_scale=scene.torque_scale)
    top, bottom = hold_window(scene.top, **common), hold_window(scene.bottom, **common)
    if top is None or bottom is None:
        return math.inf
    overlap = min(top.theta_hi, bottom.theta_hi) - max(top.theta_lo, bottom.theta_lo)
    if overlap < 0.0:
        return -overlap
    touch = unclamped_theta_for_opening(grasp_width(scene.bottom), scene.config)
    return min(overlap, abs(min(bottom.theta_lo, touch) - top.theta_lo))


@pytest.mark.parametrize("verdict", ["no_common_hold", "no_release_gap", "feasible"])
def test_plan_verdicts_match_a_grid_search(verdict):
    # draws stratified by the planner's verdict: the wide envelope is mostly no_common_hold
    rng = np.random.default_rng(["no_common_hold", "no_release_gap", "feasible"].index(verdict))
    checked = 0
    for _ in range(5_000):
        scene = _wide_stacked_scene(rng)
        try:
            plan, found = plan_stacked(scene), "feasible"
        except PlanError as exc:
            plan, found = None, exc.reason.value
        if found != verdict or _deciding_gap(scene) <= 2.0 * GRID_STEP:  # too close to call on the grid
            continue
        assert oracles.grid_plan_verdict(scene, GRID_STEP) == verdict
        if plan is not None:
            model = dict(config=scene.config, material=scene.material, mu=scene.mu, torque_scale=scene.torque_scale)
            assert holds_at(plan.theta_grasp, scene.top, safety=scene.safety, **model)
            assert holds_at(plan.theta_grasp, scene.bottom, safety=scene.safety, **model)
            assert holds_at(plan.theta_release_bottom, scene.top, safety=scene.safety, **model)
            assert oracles.level_contacts(plan.theta_release_bottom, scene.bottom, lift=0.0, **model) == []
        checked += 1
        if checked == 10:
            return
    pytest.fail(f"drew only {checked} {verdict} pairs")


def _moved(scene, scale, shift):
    """The scene with both objects ``scale`` times as heavy and raised by ``shift`` mm."""
    top, bottom = (
        dataclasses.replace(obj, mass=obj.mass * scale, pose=dataclasses.replace(obj.pose, z=obj.pose.z + shift))
        for obj in (scene.top, scene.bottom)
    )
    return dataclasses.replace(scene, top=top, bottom=bottom)


def _outcome(call, *args, **kwargs):
    """The repr of what ``call`` returns, or the type and message of the
    ValueError or PlanError it raises: equal reprs are equal bit for bit."""
    try:
        return repr(call(*args, **kwargs))
    except (ValueError, PlanError) as exc:
        return type(exc).__name__, str(exc)


def test_windows_plans_and_stages_equal_the_per_angle_oracle_bit_for_bit():
    """The planner resolves each object's angles in one contact pass; the
    oracle calls resolve_contacts and lift_check once per angle.  The pair
    slides up to 25 mm off the module heights, where capacity grows as the
    gripper closes, and masses up to 100 times the envelope's make weight
    bind there, so windows bisect; the jaws touch nothing at a plan's last
    stage."""
    rng = np.random.default_rng(26)
    bisected = untouched = feasible = 0
    for _ in range(60):
        scene = _moved(oracles.random_stacked_scene(rng), 10.0 ** rng.uniform(0.0, 2.0), rng.uniform(-25.0, 25.0))
        model = dict(config=scene.config, material=scene.material, mu=scene.mu, safety=scene.safety,
                     torque_scale=scene.torque_scale)
        for obj in (scene.top, scene.bottom):
            window = hold_window(obj, **model)
            assert repr(window) == repr(oracles.per_angle_hold_window(obj, **model))
            bisected += window is not None and window.limiting_factor is LimitingFactor.LIFT_CAPACITY
        with mock.patch.object(planner, "hold_window", oracles.per_angle_hold_window):
            reference = _outcome(plan_stacked, scene)
        assert _outcome(plan_stacked, scene) == reference
        try:
            plan = plan_stacked(scene)
        except PlanError:
            continue
        feasible += 1
        assert repr(simulate_plan(scene, plan)) == repr(oracles.per_angle_stages(scene, plan))
        untouched += not resolve_contacts(plan.theta_release_top, scene.top, scene.config, scene.material)
    assert bisected >= 5 and feasible >= 5 and untouched == feasible, (bisected, feasible, untouched)


BALLS = make_stacked_scene(sphere(60.0, 0.10), sphere(50.0, 0.06), config=CFG4)  # both enveloped
AWAY = sphere(60.0, 0.10, pose=Pose(z=300.0))  # above every module face: no angle touches it


@pytest.mark.parametrize("obj, changes, raised", [
    (BALLS.top, dict(mu=-0.1), "mu"),
    (BALLS.top, dict(safety=0.5), "safety"),  # the upper edge touches the ball: safety is judged there
    (AWAY, dict(safety=0.5), None),  # no angle touches: safety is never judged, and nothing holds
    (BALLS.top, dict(torque_scale=-1.0), "torque_scale"),
    (AWAY, dict(mu=-0.1, torque_scale=-1.0), "mu"),  # mu is judged before any contact
])
def test_windows_raise_what_the_per_angle_path_raises(obj, changes, raised):
    model = dict(config=CFG4, material=SIL950, mu=0.5, safety=1.2, torque_scale=1.0) | changes
    window = _outcome(hold_window, obj, **model)
    assert window == _outcome(oracles.per_angle_hold_window, obj, **model)
    assert window == "None" if raised is None else window[1].startswith(f"{raised} ")
    for theta in (45.0, 58.0):  # inside the strain band of a 60 mm ball
        assert _outcome(holds_at, theta, obj, **model) == _outcome(
            oracles.carries, theta, obj, CFG4, SIL950, model["mu"], model["torque_scale"], model["safety"])


@pytest.mark.parametrize("changes, angles", [
    (dict(mu=-0.1), (57.6, 44.1, 0.0)),
    (dict(mu=-0.1), (57.6, 120.0, 0.0)),  # mu before the angle range
    (dict(torque_scale=-1.0), (57.6, 120.0, 0.0)),  # the grasp stage touches before 120 deg is reached
    (dict(torque_scale=-1.0), (0.0, 120.0, 57.6)),  # nothing touches at 0 deg: 120 deg is reached first
    (dict(torque_scale=-1.0), (0.0, 0.0, 0.0)),  # nothing touches: no torque scale is judged
])
def test_a_stage_replay_raises_what_the_per_angle_path_raises(changes, angles):
    """simulate_plan resolves each object's stage angles in one pass, and a
    hand-built plan or scene can be bad in two ways at once: the first
    problem stage by stage, top object first, is the one raised."""
    scene = dataclasses.replace(BALLS, **changes)
    plan = dataclasses.replace(plan_stacked(BALLS), theta_grasp=angles[0], theta_release_bottom=angles[1],
                               theta_release_top=angles[2])
    assert _outcome(simulate_plan, scene, plan) == _outcome(oracles.per_angle_stages, scene, plan)


@pytest.mark.parametrize("name", ["stacked_cubes", "stacked_cuboids", "stacked_sphere_cube", "stacked_spheres"])
def test_a_bundled_stacked_scene_runs_at_most_four_contact_passes(name, monkeypatch):
    """Two hold windows and two stage replays: four passes of the contact
    model when no window bisects, whether the planner calls the pass
    directly or through resolve_contacts."""
    passes = []
    resolve = grasp._resolve

    def counted(thetas, *args):
        passes.append(len(thetas))
        return resolve(thetas, *args)

    for module in (grasp, planner):
        monkeypatch.setattr(module, "_resolve", counted)
    record = run_scenario(load_scenario(demo_scene_path(name)))
    assert record["plan"]["top_limiting_factor"] != "lift_capacity"
    assert record["plan"]["bottom_limiting_factor"] != "lift_capacity"
    assert 0 < len(passes) <= 4, passes
