"""Sweeps against the per-point oracle, and what a sweep parses and decides once.

A sweep point parses the written scene with its value on the axis, which
defines the material it uses; a theta sweep of a single grasp parses
nothing, resolves every point of the scenario it is given in one pass of
the contact model and decides the closure of every point in one call.
The oracle ``oracles.sweep_rows`` parses a deep copy of the whole scene
at every point, so any value, message or error order the shortcuts
change shows up here.
"""

import dataclasses
import math
from functools import cache

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from origrip import RANGES, PlanError, ScenarioError, list_demo_scenes, load_scenario, parse_scenario, run_sweep
from origrip import grasp, run_scenario, scenario
from origrip.demo import demo_scene_path
from origrip.scenario import MATERIALS_ENV_VAR, run_single_grasp, scenario_to_dict
from origrip.shapes import width_along
from origrip.transmission import FINGER_COUNTS, finger_bearings, opening, theta_for_opening

# top and bottom are one YAML mapping, which builds differently under each key
SHARED_ANCHOR = """\
kind: stacked
name: shared_anchor
material: sil950
gripper: {finger_count: 4}
top: &ball {shape: sphere, size: [50.0], mass: 0.06}
bottom: *ball
"""
SCENES = [*list_demo_scenes(), "shared_anchor"]


@cache
def _scene(name):
    if name == "shared_anchor":
        return parse_scenario(yaml.safe_load(SHARED_ANCHOR))
    return load_scenario(demo_scene_path(name))


def _numeric_axes(data, prefix=""):
    """Dotted paths of the scalar numbers of a written scene."""
    for key, value in data.items():
        if isinstance(value, dict):
            yield from _numeric_axes(value, f"{prefix}{key}.")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield prefix + key


def _at(data, path):
    for part in path.split("."):
        data = data[part]
    return data


def _nearby(data, axis):
    """Values near the scene's own, which mostly read cleanly."""
    current = _at(data, axis)
    return [current] if type(current) is int else [current, current * 0.9, current * 1.2 + 1.0]


def _edges(data, axis):
    """Values worth sweeping ``axis`` through: its range bounds and the floats
    just outside them, a non-integer finger count, and thetas outside the
    law, whether theta or the law is swept."""
    key = axis.rpartition(".")[2]
    values = {0.0, -1.0, 1e300}
    if key in RANGES:
        bounds = RANGES[key]
        for bound, outward in ((bounds.lo, -math.inf), (bounds.hi, math.inf)):
            if math.isfinite(bound):
                values |= {bound, math.nextafter(bound, outward)}
    if key == "finger_count":
        values |= {2, 3, 4, 2.5}
    law = data.get("gripper", {}).get("law")
    theta = data.get("theta")
    if key == "theta":
        values |= {law["theta_min"] - 1.0, law["theta_max"] + 1.0}
    elif key == "theta_min" and theta is not None:
        values.add(theta + 1.0)
    elif key == "theta_max" and theta is not None:
        values.add(theta - 1.0)
    return sorted(values)


def _outcome(sweep, *args):
    try:
        return "rows", [list(row.items()) for row in sweep(*args)]
    except ScenarioError as exc:
        return "invalid", exc.errors
    except PlanError as exc:
        return "infeasible", exc.reason


@pytest.mark.parametrize("name", SCENES)
@settings(max_examples=8, derandomize=True, deadline=None)
@given(data=st.data())
def test_sweeps_match_the_per_point_oracle(name, data):
    scn = _scene(name)
    written = scenario_to_dict(scn)
    seed = data.draw(st.sampled_from([None, 7]), label="seed")
    for axis in _numeric_axes(written):
        value = st.sampled_from(_nearby(written, axis)) | st.sampled_from(_edges(written, axis))
        values = data.draw(st.lists(value, min_size=1, max_size=4), label=axis)
        expected = _outcome(oracles.sweep_rows, scn, axis, values, seed)
        assert _outcome(run_sweep, scn, axis, values, seed) == expected


def _parsed(data):
    try:
        scn = parse_scenario(data)
    except ScenarioError as exc:
        return exc.errors
    return scn, scenario_to_dict(scn)


BAD_GRIPPER = {
    "kind": "single_grasp",
    "material": "tpu95a",
    "theta": 60.0,
    "gripper": {"law": {"r0": -1.0}},
    "object": {"shape": "sphere", "size": [60.0]},
}
BAD_MATERIAL_ENTRY = {
    "kind": "single_grasp",
    "material": "soft",
    "materials": {"soft": {"plateau_force": 1.0}, "hard": {"plateau_force": 5.0, "plateau_torque": 20.0}},
    "theta": 60.0,
    "object": {"shape": "sphere", "size": [60.0]},
}


@pytest.mark.parametrize("data", [BAD_GRIPPER, BAD_MATERIAL_ENTRY], ids=["bad_gripper", "bad_material_entry"])
def test_a_section_that_failed_fails_the_same_when_read_again(data):
    fresh = _parsed(data)
    assert _parsed(data) == fresh
    assert _parsed(data) == fresh


def test_a_shared_mapping_builds_top_and_bottom_under_their_own_names():
    data = yaml.safe_load(SHARED_ANCHOR)
    assert data["top"] is data["bottom"]
    fresh = _parsed(data)
    for _ in range(2):
        scn, written = _parsed(data)
        assert (scn.scene.top.name, scn.scene.bottom.name) == ("top", "bottom")
        assert (scn, written) == fresh


@pytest.mark.parametrize(
    "name, material, axis, start, step",
    [
        pytest.param("grasp_parallel", None, "theta", 30.0, 1.0, id="theta-30.0"),
        pytest.param("grasp_parallel", None, "materials.tpu95a.plateau_torque", 20.0, 1.0,
                     id="materials.tpu95a.plateau_torque-20.0"),
        pytest.param("stacked_spheres", None, "top.mass", 0.01, 0.002, id="top.mass-0.01"),
        pytest.param("grasp_parallel", "foam", "object.mass", 0.1, 0.01, id="foam-object.mass-0.1"),
    ],
)
def test_a_sweep_reads_no_materials_file(monkeypatch, tmp_path, name, material, axis, start, step):
    env_file = tmp_path / "materials.yaml"
    env_file.write_text("foam: {plateau_force: 2.0, plateau_torque: 20.0}\n")
    monkeypatch.setenv(MATERIALS_ENV_VAR, str(env_file))
    scn = load_scenario(demo_scene_path(name))
    if material is not None:  # a material from the file, which the written scene then defines
        scn = scenario.edit_scenario(scn, {"material": material})
        assert scn.material.plateau_force == 2.0
    calls = []
    table = scenario.material_table
    monkeypatch.setattr(scenario, "material_table", lambda: calls.append(1) or table())
    rows = run_sweep(scn, axis, [start + step * n for n in range(20)])
    assert len(rows) == 20
    assert calls == []


def test_a_theta_sweep_reads_no_scene_file_and_no_materials_file(monkeypatch, tmp_path):
    env_file = tmp_path / "materials.yaml"
    env_file.write_text("foam: {plateau_force: 2.0, plateau_torque: 20.0}\n")
    monkeypatch.setenv(MATERIALS_ENV_VAR, str(env_file))
    scene_file = tmp_path / "grasp_parallel.yaml"
    scene_file.write_bytes(demo_scene_path("grasp_parallel").read_bytes())
    scn = load_scenario(scene_file)
    values = [30.0 + 2.0 * n for n in range(10)]
    expected = oracles.sweep_rows(scn, "theta", values)
    env_file.unlink()
    scene_file.unlink()
    assert [list(row.items()) for row in run_sweep(scn, "theta", values)] == [
        list(row.items()) for row in expected
    ]


def test_a_theta_sweep_resolves_one_object_and_gripper(monkeypatch):
    seen = []
    resolve = scenario._resolve

    def recording(thetas, obj, config, *args):
        seen.append((tuple(thetas), obj, config))
        return resolve(thetas, obj, config, *args)

    monkeypatch.setattr(scenario, "_resolve", recording)
    scn = load_scenario(demo_scene_path("grasp_enveloping"))
    run_sweep(scn, "theta", [30.0, 40.0, 50.0, 60.0])
    # every point in one pass of the contact model, on the scenario's own object and gripper
    assert seen == [((30.0, 40.0, 50.0, 60.0), scn.obj, scn.config)]
    assert seen[0][1] is scn.obj and seen[0][2] is scn.config


def _closure_key(primitives):
    primitives = np.asarray(primitives, dtype=float)
    return primitives.shape, primitives.tobytes()


def _record_hulls(monkeypatch):
    """Keys of the primitive sets whose hulls are built, in call order:
    every set that reaches the stacked decision behind closure."""
    hulled = []
    decide = grasp._decide
    monkeypatch.setattr(grasp, "_decide", lambda stack: hulled.extend(map(_closure_key, stack)) or decide(stack))
    return hulled


def test_a_plateau_sweep_builds_the_hull_once_per_primitive_set(monkeypatch):
    # inside the force plateau every theta presses with the same forces at the same contacts
    scn = load_scenario(demo_scene_path("grasp_enveloping"))
    hulled = _record_hulls(monkeypatch)
    thetas = [30.0 + 2.0 * n for n in range(16)]
    rows = run_sweep(scn, "theta", thetas)
    assert all(row["force_closure"] for row in rows)
    _, contacts, bounds = grasp._resolve(thetas, scn.obj, scn.config, scn.material, scn.mu, scn.torque_scale)
    primitives = grasp.contact_wrench_primitives(contacts)
    points = [_closure_key(primitives[2 * lo:2 * hi]) for lo, hi in zip(bounds, bounds[1:])]
    assert len(set(hulled)) == len(hulled) == len(set(points)) < len(points) == 16
    assert set(hulled) == set(points)


def test_a_one_shot_run_after_a_sweep_decides_closure_again(monkeypatch):
    scn = load_scenario(demo_scene_path("grasp_enveloping"))
    hulled = _record_hulls(monkeypatch)
    swept = run_sweep(scn, "theta", [scn.theta, scn.theta])
    assert len(hulled) == 1
    outputs = run_scenario(scn)
    assert len(hulled) == 2 and hulled[0] == hulled[1]
    assert (outputs["force_closure"], outputs["closure_margin"]) == (
        swept[0]["force_closure"], swept[0]["closure_margin"]
    )


@pytest.mark.parametrize(
    "name, axis, values, error, parses",
    [
        # a theta sweep parses nothing: each theta is checked alone, as a theta field
        ("grasp_enveloping", "theta", [45.0, 200.0], ScenarioError, 0),
        ("stacked_spheres", "top.mass", [0.1, 50.0], PlanError, 2),
    ],
    ids=["invalid", "infeasible"],
)
def test_the_memo_ends_with_a_sweep_that_stops_partway(monkeypatch, name, axis, values, error, parses):
    scn = load_scenario(demo_scene_path(name))
    expected = _outcome(oracles.sweep_rows, scn, axis, values, None)
    parsed = []
    parse = scenario.parse_scenario
    monkeypatch.setattr(scenario, "parse_scenario", lambda data: parsed.append(data) or parse(data))
    with pytest.raises(error):
        run_sweep(scn, axis, values)
    assert len(parsed) == parses
    assert _outcome(run_sweep, scn, axis, values) == expected


# theta sweeps of single grasps run every point in one pass of the contact model

_STIFF = {"stiff": {"plateau_force": 1e4, "force_band": 0.2, "plateau_torque": 20.0}}


@st.composite
def _grasp_scenes(draw):
    """Single-grasp scenes whose objects the jaws reach over part of the angle range."""
    shape = draw(st.sampled_from(("sphere", "cube", "cuboid", "cylinder", "curved_block")))
    width = draw(st.floats(30.0, 76.0))
    height = draw(st.floats(20.0, 120.0))
    size = {
        "sphere": [width],
        "cube": [width],
        "cuboid": [width, draw(st.floats(30.0, 76.0)), height],
        "cylinder": [width, height],
        "curved_block": [draw(st.floats(max(width, height) / 2.0 + 1.0, 2.0 * max(width, height))), width, height],
    }[shape]
    scene = {
        "kind": "single_grasp",
        "material": draw(st.sampled_from(("tpu95a", "sil950", "stiff"))),
        "materials": _STIFF,
        "mu": draw(st.just(0.0) | st.floats(0.0, 1.5)),
        "theta": 45.0,
        "gripper": {
            "finger_count": draw(st.sampled_from(FINGER_COUNTS)),
            "module_levels": sorted(draw(st.lists(st.floats(5.0, 100.0), min_size=1, max_size=3))),
            "curvature_threshold": draw(st.floats(0.2, 2.0)),
        },
        "object": {
            "shape": shape,
            "size": size,
            "z": draw(st.floats(-20.0, 20.0)),
            "yaw": draw(st.floats(0.0, 90.0)),
        },
    }
    return parse_scenario(scene)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    scn=_grasp_scenes(),
    values=st.lists(st.floats(0.0, 90.0) | st.floats(45.0, 90.0), min_size=1, max_size=8),
    bad=st.none() | st.none() | st.tuples(st.integers(0, 8), st.sampled_from([-1.0, 91.0, math.nan, math.inf])),
    seed=st.sampled_from([None, 1, 2, 3]),
)
def test_theta_sweeps_of_random_grasps_match_the_per_point_oracle(scn, values, bad, seed):
    if bad is not None:  # one theta outside the law, anywhere in the list
        values.insert(bad[0], bad[1])
    expected = _outcome(oracles.sweep_rows, scn, "theta", values, seed)
    assert _outcome(run_sweep, scn, "theta", values, seed) == expected


_SHARED_FACTS = ("squeeze_force", "side_squeeze_force", "pullout_capacity", "force_closure", "closure_margin")


def _typed_bits(values):
    return [(type(v), v.hex() if type(v) is float else v) for v in values]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(scn=_grasp_scenes(), start=st.floats(0.0, 90.0), steps=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=7))
def test_theta_sweep_points_with_one_contact_set_share_their_sums_and_closure(scn, start, steps):
    # the paper's plateau claim: inside the constant-force plateau a point whose
    # contacts press with the same forces at the same places reads the same
    # squeeze, capacity and force closure bit for bit, whatever its theta
    thetas = [min(start + sum(steps[:n]), 90.0) for n in range(len(steps) + 1)]
    rows = run_sweep(scn, "theta", thetas)
    shared: dict[tuple, list] = {}
    for theta, row in zip(thetas, rows):
        outputs = run_single_grasp(dataclasses.replace(scn, theta=theta))
        table = outputs.pop("contacts")
        # a row is the one-shot grasp, less its contact table
        assert (list(row), _typed_bits(row.values())) == (list(outputs), _typed_bits(outputs.values()))
        contact_set = tuple(
            (c["finger"], c["level"], c["mode"], c["normal_force"], c["inclination"], c["engagement"]) for c in table
        )
        facts = _typed_bits(row[key] for key in _SHARED_FACTS)
        assert shared.setdefault(contact_set, facts) == facts


_SMALL_BALL = parse_scenario({
    "kind": "single_grasp", "material": "tpu95a", "theta": 45.0,
    "gripper": {"finger_count": 4}, "object": {"shape": "sphere", "size": [40.0]},
})


@settings(max_examples=150, derandomize=True, deadline=None)
@given(scn=_grasp_scenes(), theta=st.floats(0.0, 90.0))
@example(scn=_SMALL_BALL, theta=10.0)  # nothing presses
def test_one_shot_contact_tables_of_random_grasps_match_the_scalar_oracle(scn, theta):
    scn = dataclasses.replace(scn, theta=theta)
    rows = oracles.level_contacts(theta, scn.obj, scn.config, scn.material, scn.mu, 0.0, scn.torque_scale)
    expected = [
        {
            "finger": rec.finger_index,
            "level": rec.level,
            "mode": rec.mode.value,
            "penetration": rec.penetration,
            "bend_angle": rec.bend_angle,
            "normal_force": rec.normal_force,
            "inclination": rec.inclination,
            "engagement": rec.engagement,
            "overcompressed": rec.overcompressed,
            "overfolded": rec.overfolded,
        }
        for rec in rows
    ]
    table = run_scenario(scn)["contacts"]
    assert [[(key, type(value), value) for key, value in row.items()] for row in table] == [
        [(key, type(value), value) for key, value in row.items()] for row in expected
    ]


def _one_contact_theta(scn):
    """A theta at which only one face presses: the yawless cuboid is wider
    along the finger at 180 deg than along the one at 0 deg by one ulp."""
    widths = [width_along(scn.obj, bearing) for bearing in finger_bearings(scn.config)]
    assert widths[2] > widths[0]
    theta = theta_for_opening(widths[0], scn.config)
    while not widths[0] <= opening(theta, scn.config) < widths[2]:
        theta = math.nextafter(theta, math.inf if opening(theta, scn.config) > widths[0] else -math.inf)
    return theta


def test_theta_sweeps_cover_points_of_one_contact_and_of_none_on_finger_0():
    scn = parse_scenario({
        "kind": "single_grasp", "material": "tpu95a", "theta": 45.0,
        "gripper": {"finger_count": 4, "module_levels": [20.0]},
        "object": {"shape": "cuboid", "size": [50.0, 40.0, 80.0]},
    })
    # no contact, one (finger 2 alone), fingers 0 and 2, all four
    values = [10.0, _one_contact_theta(scn), 60.0, 70.0]
    rows = run_sweep(scn, "theta", values)
    assert [row["contact_count"] for row in rows] == [0, 1, 2, 4]
    assert [row["side_squeeze_force"] for row in rows][:2] == [0, 0]
    assert type(rows[1]["side_squeeze_force"]) is int and rows[1]["squeeze_force"] > 0.0
    assert rows == oracles.sweep_rows(scn, "theta", values)
    across = parse_scenario({**scenario_to_dict(scn), "object": {"shape": "cuboid", "size": [40.0, 50.0, 80.0]}})
    rows = run_sweep(across, "theta", [60.0, 70.0])  # fingers 1 and 3 press first
    assert [(row["contact_count"], row["side_squeeze_force"]) for row in rows][0] == (2, 0)
    assert rows == oracles.sweep_rows(across, "theta", [60.0, 70.0])


@pytest.mark.parametrize("values", [np.linspace(30.0, 60.0, 7).tolist(), [0.0], []], ids=["range", "zero", "empty"])
def test_a_theta_sweep_takes_any_iterable_of_angles(values):
    scn = load_scenario(demo_scene_path("grasp_parallel"))
    expected = oracles.sweep_rows(scn, "theta", values)
    for given_values in (np.array(values), iter(values)):
        rows = run_sweep(scn, "theta", given_values)
        assert [list(row.items()) for row in rows] == [list(row.items()) for row in expected]
        assert all(type(row["theta"]) is float for row in rows)


@pytest.mark.parametrize(
    "values, seed, message",
    [
        ([45.0, 50.0, 55.0, 200.0], None, "theta: must be <= 90, got 200"),
        ([45.0, math.nan, 55.0], None, "theta: must be finite, got nan"),
        # the seed draws the material at the first point, before a later theta is judged
        ([45.0, 50.0, 55.0, 200.0], 1, "--seed: material 'stiff' drawn with seed 1"),
        ([200.0, 50.0], 1, "theta: must be <= 90, got 200"),
        ([45.0, 50.0, 55.0, 200.0], 2, "theta: must be <= 90, got 200"),
    ],
    ids=["bad_later_theta", "nan_theta", "seed_before_bad_theta", "bad_first_theta_before_seed", "good_seed"],
)
def test_a_theta_sweep_fails_where_the_per_point_loop_fails(values, seed, message):
    scn = parse_scenario({
        "kind": "single_grasp", "material": "stiff", "materials": _STIFF, "theta": 45.0,
        "object": {"shape": "cuboid", "size": [60.0, 50.0, 80.0]},
    })
    outcome = _outcome(run_sweep, scn, "theta", values, seed)
    assert outcome == _outcome(oracles.sweep_rows, scn, "theta", values, seed)
    assert outcome[0] == "invalid" and outcome[1][0].startswith(message)


def test_a_theta_sweep_judges_every_theta_by_the_scene_theta_convert_alone(monkeypatch):
    scn = load_scenario(demo_scene_path("grasp_parallel"))
    law = scn.config.law
    thetas = [30.0, 40.0, math.nextafter(law.theta_max, 0.0), law.theta_max]
    expected = oracles.sweep_rows(scn, "theta", thetas)
    judged = []

    def recording(theta, values):
        judged.append((theta, values))
        return scenario._theta_in_law(theta, values)

    monkeypatch.setattr(scenario, "_THETA", dataclasses.replace(scenario._THETA, convert=recording))
    monkeypatch.setattr(scenario, "_read_field", None)  # a theta sweep reads no field
    assert run_sweep(scn, "theta", thetas) == expected
    # one rule for every theta, strictly inside the law or on its bound
    assert judged == [(theta, {"gripper": scn.config}) for theta in thetas]


@pytest.mark.parametrize("seed", [None, 7])
def test_a_theta_sweep_of_a_hand_built_scenario_fails_as_running_it_does(seed):
    # a scene file with mu -1 is a ScenarioError; the built scenario reaches the model's own check
    scn = dataclasses.replace(load_scenario(demo_scene_path("grasp_parallel")), mu=-1.0)
    with pytest.raises(ValueError) as ran:
        run_scenario(scn, seed=seed)
    with pytest.raises(ValueError) as swept:
        run_sweep(scn, "theta", [30.0, 40.0], seed)
    assert type(swept.value) is type(ran.value) is ValueError
    assert str(swept.value) == str(ran.value) == "mu must be >= 0, got -1"
