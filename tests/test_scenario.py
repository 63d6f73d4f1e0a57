import hashlib
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from origrip.demo import (
    demo_scene_path,
    list_demo_scenes,
    run_demo_suite,
)
from origrip.scenario import (
    MATERIALS_ENV_VAR,
    _load_yaml,
    PickPlaceScenario,
    ScenarioError,
    edit_scenario,
    load_scenario,
    make_result_record,
    material_table,
    parse_scenario,
    run_scenario,
    run_sweep,
    save_scenario,
    scenario_digest,
    scenario_to_dict,
    write_csv,
    write_json,
)

DEMO_NAMES = [
    "grasp_enveloping",
    "grasp_parallel",
    "pickplace_comparison",
    "pullout_enveloping",
    "pullout_parallel",
    "stacked_cubes",
    "stacked_cuboids",
    "stacked_sphere_cube",
    "stacked_spheres",
]


def minimal_grasp(**overrides):
    data = {
        "kind": "single_grasp",
        "material": "tpu95a",
        "theta": 60.0,
        "object": {"shape": "sphere", "size": [60.0], "mass": 0.1},
    }
    data.update(overrides)
    return data


# --------------------------------------------------------------------------
# loading and validation
# --------------------------------------------------------------------------


def test_demo_scenes_load():
    assert list_demo_scenes() == DEMO_NAMES
    kinds = {}
    for name in DEMO_NAMES:
        scn = load_scenario(demo_scene_path(name))
        assert scn.name == name
        kinds[name] = scn.kind
    assert kinds["grasp_enveloping"] == "single_grasp"
    assert kinds["pullout_parallel"] == "pullout"
    assert kinds["stacked_spheres"] == "stacked"
    assert kinds["pickplace_comparison"] == "pickplace"


def test_unknown_demo_scene():
    with pytest.raises(ValueError, match="no demo scene named"):
        demo_scene_path("does_not_exist")


def test_round_trip_preserves_results():
    for name in DEMO_NAMES:
        scn = load_scenario(demo_scene_path(name))
        rebuilt = parse_scenario(scenario_to_dict(scn), source=name)
        original = json.dumps(run_scenario(scn), sort_keys=True)
        again = json.dumps(run_scenario(rebuilt), sort_keys=True)
        assert original == again, name


def test_save_and_reload(tmp_path):
    scn = load_scenario(demo_scene_path("stacked_spheres"))
    path = tmp_path / "copy.yaml"
    save_scenario(scn, path)
    reloaded = load_scenario(path)
    assert json.dumps(run_scenario(scn), sort_keys=True) == json.dumps(
        run_scenario(reloaded), sort_keys=True
    )


def test_validation_reports_every_problem():
    bad = minimal_grasp(
        theta=200.0,
        mu=-0.25,
        object={"shape": "sphere", "size": [60.0, 1.0], "mass": -2.0},
        bogus=1,
    )
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario(bad)
    errors = exc_info.value.errors
    assert len(errors) == 5
    joined = "\n".join(errors)
    assert "bogus: unknown key" in joined
    assert "mu: must be >= 0" in joined
    assert "theta: must be <= 90" in joined
    assert "object.size: expected 1 value(s), got 2" in joined
    assert "object.mass: must be >= 0" in joined
    assert "5 problem(s)" in str(exc_info.value)


@pytest.mark.parametrize("shape", [{"shape": "blob"}, {"shape": 5}, {}], ids=["unknown", "not_text", "missing"])
def test_a_failed_shape_hides_no_other_object_problem(shape):
    obj = {**shape, "size": [60.0, math.nan], "mass": -1.0, "yaw": math.nan, "z": math.inf}
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario(minimal_grasp(object=obj))
    assert exc_info.value.errors[0].startswith("object.shape: ")
    assert exc_info.value.errors[1:] == [
        "object.size[1]: must be finite, got nan",
        "object.mass: must be >= 0, got -1",
        "object.yaw: must be finite, got nan",
        "object.z: must be finite, got inf",
    ]


@pytest.mark.parametrize(
    "shape, size, problem",
    [
        ("sphere", [60.0, 1.0], "object.size: expected 1 value(s), got 2"),
        ("curved_block", [60.0], "object.size: expected 2 or 3 value(s), got 1"),
        # a count no shape takes, and a bad number before a count the shape does not take
        ("sphere", [60.0, 1.0, 2.0, 3.0], "object.size: expected 1 or 2 or 3 value(s), got 4"),
        ("sphere", [], "object.size: expected 1 or 2 or 3 value(s), got 0"),
        ("sphere", [60.0, -1.0], "object.size[1]: must be > 0, got -1"),
        ("blob", [60.0, 1.0, 2.0, 3.0], "object.size: expected 1 or 2 or 3 value(s), got 4"),
    ],
)
def test_a_size_is_counted_against_the_shape_read_before_it(shape, size, problem):
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario(minimal_grasp(object={"shape": shape, "size": size}))
    assert problem in exc_info.value.errors
    assert len(exc_info.value.errors) == 1 + (shape == "blob")


@pytest.mark.parametrize("name", ["mine", "tpu95a"])
def test_a_failed_own_material_named_by_material_is_not_unknown(name):
    bad = {"plateau_force": -1.0, "plateau_torque": 16.0}
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario(minimal_grasp(material=name, materials={name: bad}))
    assert exc_info.value.errors == [f"materials.{name}.plateau_force: must be > 0, got -1"]
    # another name is unknown, and the failed entry is not among the known ones
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario(minimal_grasp(material="other", materials={name: bad}))
    assert exc_info.value.errors[1] == "material: unknown material 'other'; known: sil950, tpu95a"


def test_a_failed_materials_section_leaves_a_name_it_may_define_unjudged():
    mine = {"mine": {"plateau_force": 2.0, "plateau_torque": 16.0}}
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario(minimal_grasp(material="mine", materials=[mine]))  # a list, not a mapping
    assert exc_info.value.errors == ["materials: expected a mapping, got list"]
    # a built-in still reads, and a typo next to a section that reads is still reported
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario(minimal_grasp(material="sil950", materials=[mine]))
    assert exc_info.value.errors == ["materials: expected a mapping, got list"]
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario(minimal_grasp(material="mien", materials=mine))
    assert exc_info.value.errors == ["material: unknown material 'mien'; known: mine, sil950, tpu95a"]


TOO_TALL = {
    "kind": "stacked", "material": "sil950", "clearance": 9000.0,
    "top": {"shape": "sphere", "size": [9000.0]}, "bottom": {"shape": "sphere", "size": [8000.0]},
}


def test_a_problem_of_the_whole_scene_names_the_scene(tmp_path):
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario(TOO_TALL)
    assert exc_info.value.errors == ["scenario: z must be <= 10000, got 17000"]
    path = tmp_path / "too_tall.yaml"
    path.write_text(yaml.safe_dump(TOO_TALL))
    with pytest.raises(ScenarioError) as exc_info:
        load_scenario(path)
    assert exc_info.value.errors == [f"{path}: z must be <= 10000, got 17000"]


def test_unknown_kind_rejected():
    with pytest.raises(ScenarioError, match="kind"):
        parse_scenario({"kind": "teleport"})
    with pytest.raises(ScenarioError):
        parse_scenario(["not", "a", "mapping"])


def test_missing_required_fields():
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario({"kind": "single_grasp"})
    joined = "\n".join(exc_info.value.errors)
    assert "material: required field is missing" in joined
    assert "theta: required field is missing" in joined
    assert "object: required field is missing" in joined


def test_stacked_objects_cannot_set_height():
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario(
            {
                "kind": "stacked",
                "material": "sil950",
                "top": {"shape": "sphere", "size": [60.0], "z": 5.0},
                "bottom": {"shape": "sphere", "size": [50.0]},
            }
        )
    assert exc_info.value.errors == ["top.z: unknown key"]


@pytest.mark.parametrize(
    "key, body", [("gripper", {"finger_count": 3, "bogus": "x"}), ("materials", "not a mapping")]
)
def test_a_pickplace_scene_takes_no_grasping_sections(key, body):
    data = yaml.safe_load(demo_scene_path("pickplace_comparison").read_text())
    assert isinstance(parse_scenario(data), PickPlaceScenario)  # kind, name and cycle
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario({**data, key: body})
    assert exc_info.value.errors == [f"{key}: unknown key"]


def test_unknown_material_lists_known_names():
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario(minimal_grasp(material="unobtainium"))
    assert "unknown material 'unobtainium'" in exc_info.value.errors[0]
    assert "sil950" in exc_info.value.errors[0]
    assert "tpu95a" in exc_info.value.errors[0]


def test_scene_level_material_definition():
    data = minimal_grasp(
        material="softer",
        materials={"softer": {"plateau_force": 2.0, "plateau_torque": 16.0}},
    )
    scn = parse_scenario(data)
    assert scn.material.name == "softer"
    assert scn.material.plateau_force == 2.0
    assert scn.material.overload_stiffness == pytest.approx(200.0)  # 10x plateau / min strain
    # the scene table can also shadow a built-in name
    shadowed = parse_scenario(
        minimal_grasp(materials={"tpu95a": {"plateau_force": 1.5, "plateau_torque": 12.0}})
    )
    assert shadowed.material.plateau_force == 1.5


def test_environment_material_file(tmp_path, monkeypatch):
    env_file = tmp_path / "extra.yaml"
    env_file.write_text("foam:\n  plateau_force: 2.0\n  plateau_torque: 16.0\n")
    monkeypatch.setenv(MATERIALS_ENV_VAR, str(env_file))
    table = material_table()
    assert set(table) == {"foam", "sil950", "tpu95a"}
    scn = parse_scenario(minimal_grasp(material="foam"))
    assert scn.material.plateau_force == 2.0
    # a scene-level entry with the same name wins over the environment file
    scn = parse_scenario(
        minimal_grasp(
            material="foam",
            materials={"foam": {"plateau_force": 3.0, "plateau_torque": 24.0}},
        )
    )
    assert scn.material.plateau_force == 3.0


def test_environment_material_file_missing(tmp_path, monkeypatch):
    monkeypatch.setenv(MATERIALS_ENV_VAR, str(tmp_path / "not_there.yaml"))
    with pytest.raises(ScenarioError, match="cannot read"):
        parse_scenario(minimal_grasp())


def test_gripper_section():
    data = minimal_grasp(
        theta=100.0,
        gripper={"finger_count": 2, "law": {"theta_max": 120.0}},
    )
    scn = parse_scenario(data)  # custom law range admits the larger angle
    assert scn.config.finger_count == 2
    assert scn.config.law.theta_max == 120.0
    with pytest.raises(ScenarioError, match="finger_count"):
        parse_scenario(minimal_grasp(gripper={"finger_count": 3}))
    with pytest.raises(ScenarioError, match="gripper"):
        parse_scenario(minimal_grasp(gripper={"module_levels": [60.0, 20.0]}))
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(minimal_grasp(gripper={"wingspan": 1.0}))


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------


def test_run_single_grasp_outputs():
    scn = load_scenario(demo_scene_path("grasp_enveloping"))
    out = run_scenario(scn)
    assert out["theta"] == 60.0
    assert out["opening"] == pytest.approx(44.666666666666664)
    assert out["grasp_mode"] == "v_enveloping"
    assert out["contact_count"] == 4
    assert out["pullout_capacity"] == pytest.approx(3.0, abs=1e-9)
    assert out["side_squeeze_force"] == pytest.approx(out["squeeze_force"] / 2.0)
    assert out["force_closure"] is True
    assert out["closure_margin"] == pytest.approx(0.32415526830095914, abs=1e-9)
    assert out["form_closure"] is False
    assert out["wrap_coverage"] == pytest.approx(182.33187922441334, abs=1e-6)
    assert len(out["contacts"]) == 4
    for rec in out["contacts"]:
        assert rec["mode"] == "bending"  # enveloping contacts load the hinges
        assert rec["normal_force"] == pytest.approx(2.6)


def test_run_single_grasp_parallel_has_no_form_closure():
    scn = load_scenario(demo_scene_path("grasp_parallel"))
    out = run_scenario(scn)
    assert out["grasp_mode"] == "parallel"
    assert out["form_closure"] is None
    assert out["wrap_coverage"] is None
    assert out["pullout_capacity"] == pytest.approx(5.277777777777778, abs=1e-9)


def test_run_pullout_outputs():
    scn = load_scenario(demo_scene_path("pullout_enveloping"))
    out = run_scenario(scn)
    assert out["capacity"] == pytest.approx(3.0, abs=1e-9)
    assert out["peak_force"] == out["capacity"]  # resistance never exceeds the static hold
    assert out["markers"] == {"t1": 0.0, "t2": 10.0, "t3": 30.0, "t4": 70.0}
    lifts = out["trace"]["lift"]
    forces = out["trace"]["force"]
    assert len(lifts) == len(forces) > 100
    assert lifts[0] == 0.0
    assert lifts[1] - lifts[0] == pytest.approx(scn.lift_step)
    assert forces[0] == out["capacity"]
    assert forces[-1] == 0.0


def test_run_stacked_outputs():
    scn = load_scenario(demo_scene_path("stacked_spheres"))
    out = run_scenario(scn)
    plan = out["plan"]
    assert plan["theta_grasp"] == pytest.approx(57.6, abs=1e-9)
    assert plan["theta_release_bottom"] == pytest.approx(44.1, abs=1e-9)
    assert plan["theta_release_top"] == 0.0
    assert plan["grasp_window"] == pytest.approx([55.8, 59.4], abs=1e-9)
    assert plan["release_window"] == pytest.approx([37.8, 55.8], abs=1e-9)
    assert plan["top_limiting_factor"] == "strain_range"
    assert plan["bottom_limiting_factor"] == "strain_range"
    held = [(s["top_held"], s["bottom_held"]) for s in out["stages"]]
    assert held == [(True, True), (True, False), (False, False)]
    assert [s["stage"] for s in out["stages"]] == ["grasp", "release_bottom", "release_top"]


def test_run_pickplace_outputs():
    scn = load_scenario(demo_scene_path("pickplace_comparison"))
    out = run_scenario(scn)
    assert out["distance_reduction"] == pytest.approx(0.33, abs=1e-12)
    assert out["time_reduction"] == pytest.approx(0.31, abs=1e-12)
    assert out["sequential"]["distance"] == pytest.approx(693.0693069306931)
    assert out["multiobject"]["time"] == pytest.approx(50.21908652060898)


def test_seeded_runs_are_deterministic_but_differ_from_nominal():
    scn = load_scenario(demo_scene_path("grasp_enveloping"))
    nominal = run_scenario(scn)
    seeded_a = run_scenario(scn, seed=3)
    seeded_b = run_scenario(scn, seed=3)
    assert json.dumps(seeded_a, sort_keys=True) == json.dumps(seeded_b, sort_keys=True)
    assert seeded_a["squeeze_force"] != nominal["squeeze_force"]
    assert run_scenario(scn, seed=4)["squeeze_force"] != seeded_a["squeeze_force"]


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------


def test_sweep_over_closure_angle():
    scn = load_scenario(demo_scene_path("grasp_enveloping"))
    rows = run_sweep(scn, "theta", [40.0, 50.0, 60.0])
    assert [row["theta"] for row in rows] == [40.0, 50.0, 60.0]
    # constant-force modules: capacity plateaus across the angle band
    assert [row["pullout_capacity"] for row in rows] == pytest.approx([3.0, 3.0, 3.0], abs=1e-9)
    assert "squeeze_force" in rows[0] and "closure_margin" in rows[0]
    assert "contacts" not in rows[0]  # nested tables stay out of sweep rows


def test_sweep_over_nested_cycle_field():
    scn = load_scenario(demo_scene_path("pickplace_comparison"))
    rows = run_sweep(scn, "cycle.travel_speed", [10.0, 20.0])
    assert [row["cycle.travel_speed"] for row in rows] == [10.0, 20.0]
    assert rows[0]["time_reduction"] > rows[1]["time_reduction"]


def test_sweep_over_friction():
    scn = load_scenario(demo_scene_path("grasp_parallel"))
    rows = run_sweep(scn, "mu", [0.2, 0.4, 0.8])
    caps = [row["pullout_capacity"] for row in rows]
    assert caps[0] < caps[1] < caps[2]


def test_sweep_axis_validation():
    scn = load_scenario(demo_scene_path("grasp_parallel"))
    with pytest.raises(ScenarioError, match="no such field"):
        run_sweep(scn, "object.flavor", [1.0])
    with pytest.raises(ScenarioError, match="no such field"):
        run_sweep(scn, "wrong.path.here", [1.0])
    with pytest.raises(ScenarioError, match="not a numeric field"):
        run_sweep(scn, "material", [1.0])
    with pytest.raises(ScenarioError, match="materials.sil950.plateau_force: no such field"):
        run_sweep(scn, "materials.sil950.plateau_force", [1.0])  # a material the scene does not use


def test_edit_scenario_judges_changes_as_a_scene_file():
    scn = load_scenario(demo_scene_path("grasp_parallel"))
    edited = edit_scenario(scn, {"theta": 40.0, "object.mass": 0.2})
    assert edited == replace(scn, theta=40.0, obj=replace(scn.obj, mass=0.2))
    assert scn.theta == 30.0  # the input is left alone
    with pytest.raises(ScenarioError) as excinfo:
        edit_scenario(scn, {"theta": 95.0, "mu": float("nan")})
    assert excinfo.value.errors == ["mu: must be finite, got nan", "theta: must be <= 90, got 95"]
    with pytest.raises(ScenarioError, match="object.colour: no such field"):
        edit_scenario(scn, {"object.colour": "red"})


def test_sweep_reaches_default_valued_fields():
    rows = run_sweep(load_scenario(demo_scene_path("grasp_parallel")), "object.yaw", [0.0, 30.0])
    assert [row["object.yaw"] for row in rows] == [0.0, 30.0]
    rows = run_sweep(load_scenario(demo_scene_path("stacked_spheres")), "top.yaw", [0.0, 15.0])
    assert [row["top.yaw"] for row in rows] == [0.0, 15.0]


def test_sweep_over_integer_field():
    scn = load_scenario(demo_scene_path("grasp_parallel"))
    rows = run_sweep(scn, "gripper.finger_count", [2.0, 4.0])
    assert [row["gripper.finger_count"] for row in rows] == [2, 4]
    with pytest.raises(ScenarioError, match="gripper.finger_count: expected an integer, got 2.5"):
        run_sweep(scn, "gripper.finger_count", [2.0, 2.5])
    with pytest.raises(ScenarioError, match=r"gripper.finger_count: must be one of \[2, 4\], got 3"):
        run_sweep(scn, "gripper.finger_count", [3.0])


def test_sweep_rows_depend_only_on_value():
    scn = load_scenario(demo_scene_path("grasp_parallel"))
    forward = run_sweep(scn, "theta", [30.0, 45.0, 60.0])
    shuffled = run_sweep(scn, "theta", [60.0, 30.0, 45.0])
    by_theta = {row["theta"]: row for row in shuffled}
    for row in forward:
        assert row == by_theta[row["theta"]]


# --------------------------------------------------------------------------
# records and writers
# --------------------------------------------------------------------------


def test_scenario_digest_matches_sha256():
    path = demo_scene_path("grasp_parallel")
    expected = hashlib.sha256(path.read_bytes()).hexdigest()
    assert scenario_digest(path) == expected


def test_make_result_record():
    scn = load_scenario(demo_scene_path("grasp_parallel"))
    record = make_result_record("grasp", scn, {"a": 1})
    assert record["command"] == "grasp"
    assert record["scenario"] == "grasp_parallel"
    assert record["kind"] == "single_grasp"
    assert record["outputs"] == {"a": 1}
    assert "version" in record
    assert "digest" not in record and "seed" not in record
    record = make_result_record("grasp", scn, {}, digest="abc", seed=7)
    assert record["digest"] == "abc"
    assert record["seed"] == 7


def test_write_json_is_sorted_and_newline_terminated():
    buf = io.StringIO()
    write_json({"b": 2.0, "a": [1, 2]}, buf)
    text = buf.getvalue()
    assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 2.0\n}\n'


def test_write_json_rejects_non_finite_numbers():
    buf = io.StringIO()
    with pytest.raises(ValueError):
        write_json({"x": float("nan")}, buf)
    with pytest.raises(ValueError):
        write_json({"x": [1.0, float("inf")]}, buf)
    assert buf.getvalue() == ""  # nothing half-written


def reference_json(data):
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")])
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 1.7976931348623157e308]),
)
SCALARS = st.one_of(
    FLOATS,
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
    st.text(),
    FLOATS.map(np.float64),  # a float subclass: left to json.dumps
)
JSON_TREES = st.recursive(
    st.one_of(SCALARS, st.lists(FLOATS, max_size=20), st.lists(st.one_of(FLOATS, st.booleans()), max_size=8)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(), children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=3),  # non-str keys: left to json.dumps
        st.lists(st.dictionaries(st.text(max_size=3), children, max_size=3), max_size=3),
    ),
    max_leaves=30,
)
# a tree with a NaN or infinity somewhere under it
POISONED = st.recursive(
    st.one_of(NON_FINITE, st.tuples(st.lists(FLOATS), NON_FINITE, st.lists(FLOATS)).map(lambda t: [*t[0], t[1], *t[2]])),
    lambda children: st.one_of(
        st.tuples(st.lists(JSON_TREES, max_size=3), children, st.lists(JSON_TREES, max_size=3))
        .map(lambda t: [*t[0], t[1], *t[2]]),
        st.tuples(st.dictionaries(st.text(), JSON_TREES, max_size=3), st.text(), children)
        .map(lambda t: {**t[0], t[1]: t[2]}),
    ),
    max_leaves=6,
)

# rows that share one key set, as a sweep's or a contact table's, written as one table
CELLS = st.one_of(st.booleans(), st.integers(), FLOATS, FLOATS.map(np.float64), st.none(), st.text(max_size=4))
ROW_KEYS = st.lists(st.text(max_size=4), min_size=1, max_size=5, unique=True)
TABLES = ROW_KEYS.flatmap(
    lambda keys: st.lists(
        st.fixed_dictionaries({key: CELLS | st.lists(FLOATS, max_size=2) for key in keys}), min_size=2, max_size=6
    )
)
MIXED_ROWS = st.lists(st.dictionaries(st.sampled_from("abc"), CELLS, max_size=3), min_size=2, max_size=6)
SHARED_LIST = [1.5, -0.0]  # one list object in two rows of a table


def _poisoned_table(table_cell_bad):
    table, (row, column), bad = table_cell_bad
    row %= len(table)
    key = sorted(table[row])[column % len(table[row])]
    table[row][key] = bad
    return table


POISONED_TABLES = st.tuples(TABLES, st.tuples(st.integers(0), st.integers(0)), NON_FINITE).map(_poisoned_table)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.one_of(JSON_TREES, TABLES, MIXED_ROWS, st.dictionaries(st.text(max_size=3), TABLES, max_size=2)))
@example({"é✓": [-0.0, 5e-324, 1e16, True, 10**30], "a": [], "b": {}, "c": ({"d": [{}]},)})
@example([{"b": 1.5, "a": None, "é": "x"}, {"a": True, "b": -0.0, "é": np.float64(2.0)},
          {"a": 3, "é": "", "b": 5e-324}])
@example(({"a": [1.0]}, {"a": {}}))
# a table writes a cell's text once while its column repeats: cells that compare equal but print differently
@example([{"a": 0.0}, {"a": -0.0}])
@example([{"a": True}, {"a": 1}, {"a": 1.0}])
@example([{"a": {"a": 0.0}}, {"a": {"a": -0.0}}])
@example([{"a": SHARED_LIST}, {"a": SHARED_LIST}])
@example([{"a": 2.0}, {"a": np.float64(2.0)}])
def test_write_json_matches_the_json_module_byte_for_byte(data):
    buf = io.StringIO()
    write_json(data, buf)
    assert buf.getvalue() == reference_json(data)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.one_of(POISONED, POISONED_TABLES, st.tuples(TABLES, POISONED_TABLES).map(lambda t: {"a": t[0], "b": t[1]})))
@example([{"a": 1.0, "b": math.nan}, {"a": math.inf, "b": 2.0}])  # the first in key order, row by row
def test_write_json_refuses_non_finite_numbers_at_any_depth(data):
    with pytest.raises(ValueError) as expected:
        reference_json(data)
    buf = io.StringIO()
    with pytest.raises(ValueError) as refused:
        write_json(data, buf)
    assert str(refused.value) == str(expected.value)
    assert buf.getvalue() == ""


def yaml_outcome(load, text):
    try:
        value = load(text)
    except yaml.YAMLError as exc:
        return type(exc), str(exc)
    return type(value), repr(value), containers(value)  # repr: a loaded NaN equals no other


def containers(value, seen=None):
    """Which container each container of ``value`` is, numbered in the order
    first seen: an alias shares one object, which repr does not show."""
    seen = {} if seen is None else seen
    if not isinstance(value, (dict, list, tuple, set)):
        return []
    if id(value) in seen:
        return [seen[id(value)]]
    order = [seen.setdefault(id(value), len(seen))]
    for item in [*value.keys(), *value.values()] if isinstance(value, dict) else value:
        order += containers(item, seen)
    return order


YAML_TEXTS = {
    **{name: demo_scene_path(name).read_text() for name in DEMO_NAMES},
    "nan": "x: .nan\n", "1e3": "x: 1e3\n", "hex": "x: 0x1F\n", "underscore": "x: 1_000\n", "yes": "x: yes\n",
    "tilde": "x: ~\n", "date": "x: 2024-01-02\n", "duplicate": "x: 1\nx: 2\n", "alias": "a: &p {b: 1}\nc: *p\n",
    "control": "x: a\x07b\n", "surrogate": 'x: "\\ud800"\n', "malformed": "x: [1, 2\ny: 3\n", "empty": "",
}


@pytest.mark.parametrize("libyaml", [True, False])
@pytest.mark.parametrize("text", YAML_TEXTS.values(), ids=YAML_TEXTS.keys())
def test_yaml_loaders_agree(monkeypatch, text, libyaml):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert yaml_outcome(_load_yaml, text) == yaml_outcome(yaml.safe_load, text)


@pytest.mark.parametrize("libyaml", [True, False])
@pytest.mark.parametrize("text", ["[" * 600, "{a: " * 600, "[" * 5_000 + "]" * 5_000], ids=["open", "open_map", "closed"])
def test_deep_nesting_is_a_yaml_error_not_a_recursion_error(monkeypatch, text, libyaml):
    # past _LIBYAML_NESTING marks the Python loader reads the text, and its recursion limit is a YAML error
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    with pytest.raises(yaml.YAMLError, match="^collections nested too deeply to read$"):
        _load_yaml(text)


SPELLINGS = [
    # YAML 1.1 numbers, booleans, nulls and strings, each in more than one spelling
    "0", "-0", "017", "0o17", "0x1F", "0b101", "1_000", "+12", "1:30", "-1:30:15.5", "1.5", "-.5", "+1.0e+3",
    "1e3", "1_0.2_5", "-0.0", ".Inf", "-.inf", ".NaN", "1.0e+999", "yes", "No", "on", "OFF", "true", "~", "null",
    "''", '""', "'a b'", "abc", "x_1", "2024-01-02", "2024-01-02 10:30:00.5 +01:00",
    # explicit tags that convert, some from an odd spelling
    "!!str 12", "!!float 1", "!!float ' 2.5'", "!!float inf", "!!int '0x10'", "!!bool YES", "!!null ''",
    "!!binary aGVsbG8=", "!!timestamp 2024-01-02",
]
UNREADABLE = [  # a tag that cannot read its value, or an unknown tag
    "!!int 1.5", "!!float abc", "!!bool maybe", "!!timestamp xyz", '!!int ""', "!!float '1__0'", "!!binary '@'",
    "!foo bar",
]
KEYS = ["a", "b", "1", "1.0", "yes", "~", "'a'", "=", "!!int 2"]  # repeats: 1 and 1.0, a and 'a'
RARELY = st.integers(0, 15).map(lambda n: n == 0)


@st.composite
def yaml_nodes(draw, anchors, depth=0):
    """One flow-style YAML node; ``anchors`` holds the anchors declared so
    far, so an alias may name an enclosing node (a recursive alias)."""
    if anchors and draw(st.integers(0, 5)) == 0:
        return "*" + draw(st.sampled_from(anchors))
    kind = draw(st.sampled_from(["scalar"] * 3 + ["map", "list"] * (depth < 3)))
    if kind == "scalar":
        return draw(st.sampled_from(UNREADABLE if draw(RARELY) else SPELLINGS))
    head = ""
    if draw(st.integers(0, 3)) == 0:
        head = f"&n{len(anchors)} "
        anchors.append(head[1:-1])
    if kind == "list":
        tag = draw(st.sampled_from(["!!seq ", "!!omap ", "!!pairs ", "!!set "])) if draw(RARELY) else ""
        items = draw(st.lists(yaml_nodes(anchors, depth + 1), max_size=4))
        return f"{tag}{head}[{', '.join(items)}]"
    tag = draw(st.sampled_from(["!!map ", "!!set ", "!!int ", "!!str "])) if draw(RARELY) else ""
    entries = [draw(yaml_entries(anchors, depth)) for _ in range(draw(st.integers(0, 4)))]
    return f"{tag}{head}{{{', '.join(f'? {key} : {value}' for key, value in entries)}}}"


@st.composite
def yaml_entries(draw, anchors, depth):
    """A key and a value of a map at ``depth``."""
    if draw(RARELY):  # a merge key, of a map, a list of maps or anything
        if draw(RARELY):
            return "<<", draw(yaml_nodes(anchors, 2))
        maps = draw(st.lists(yaml_nodes(anchors, 2).map(lambda node: f"{{a: {node}}}"), min_size=1, max_size=2))
        return "<<", maps[0] if len(maps) == 1 else f"[{', '.join(maps)}]"
    key = draw(yaml_nodes(anchors, 2) if draw(RARELY) else st.sampled_from(KEYS))  # now and then not a scalar
    return key, draw(yaml_nodes(anchors, depth + 1))


@st.composite
def yaml_texts(draw):
    """A block map of flow-style values, one flow-style node, or (rarely)
    zero or two documents."""
    if draw(RARELY):
        return draw(st.sampled_from(["", "# nothing\n", "---\n", "--- a\n--- b\n", "--- 1\n...\n"]))
    anchors: list[str] = []
    if draw(st.integers(0, 3)) == 0:
        return draw(yaml_nodes(anchors)) + "\n"
    entries = draw(st.lists(yaml_entries(anchors, 0), min_size=1, max_size=5))
    return "".join(f"{key}: {value}\n" for key, value in entries)


@pytest.mark.parametrize("libyaml", [True, False])
@settings(max_examples=300, derandomize=True, deadline=None)
@given(text=yaml_texts())
@example(text="a: &x [1, *x]\nb: *x\n")
@example(text="a: &x {b: 1}\nc: *x\n")
@example(text="<<: [{a: 1}, {b: 2}]\nb: 3\n")
@example(text="theta: !!int 1.5\n")
def test_generated_yaml_loads_as_safe_load_loads_it(text, libyaml):
    try:
        expected = yaml_outcome(yaml.safe_load, text)
    except Exception:  # a tag whose constructor cannot convert its value
        expected = None
    with pytest.MonkeyPatch.context() as patch:
        if not libyaml:
            patch.delattr(yaml, "CSafeLoader", raising=False)
        outcome = yaml_outcome(_load_yaml, text)
    if expected is None:  # read as a YAML error, marked at the value
        assert outcome[0] is yaml.constructor.ConstructorError and outcome[1].startswith("cannot read "), text
        assert outcome[1].count("^") == 1, text
    else:
        assert outcome == expected, text


@pytest.mark.parametrize("libyaml", [True, False])
def test_a_path_resolver_both_loaders_see_is_honoured(monkeypatch, libyaml):
    resolver = yaml.resolver.Resolver
    monkeypatch.setattr(resolver, "yaml_path_resolvers", dict(resolver.yaml_path_resolvers))
    resolver.add_path_resolver("tag:yaml.org,2002:int", ["a"], yaml.ScalarNode)
    text = "a: '12'\nb: '12'\n"
    expected = yaml.safe_load(text)
    assert expected == {"a": 12, "b": "12"}
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert _load_yaml(text) == expected


@pytest.mark.parametrize("libyaml", [True, False])
@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_line_ends_read_as_lf(monkeypatch, tmp_path, end, libyaml):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path = tmp_path / "scene.yaml"

    def outcome(text, ends):
        raw = text.replace("\n", ends).encode()
        path.write_bytes(raw)
        try:
            scn, digest = load_scenario(path, with_digest=True)
        except ScenarioError as exc:
            return str(exc)
        assert digest == hashlib.sha256(raw).hexdigest()  # taken over the bytes as written
        return scn

    for name in DEMO_NAMES:
        lines = demo_scene_path(name).read_text().splitlines(keepends=True)
        broken = "".join(lines[:5] + ["oops: [1, 2\n"] + lines[5:])  # an unclosed flow list, mid-file
        assert outcome("".join(lines), end) == outcome("".join(lines), "\n")
        message = outcome(broken, end)
        assert message == outcome(broken, "\n") and "not valid YAML: while parsing" in message
    for text in YAML_TEXTS.values():
        assert yaml_outcome(_load_yaml, text.replace("\n", end)) == yaml_outcome(_load_yaml, text)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="libyaml not installed")
def test_valid_yaml_is_read_by_libyaml(monkeypatch):
    text = demo_scene_path("grasp_parallel").read_text()
    expected = yaml.safe_load(text)
    monkeypatch.setattr(yaml, "safe_load", None)
    assert _load_yaml(text) == expected


def _scaled(data, rng):
    """``data`` with every float multiplied by a random factor, near 1 or
    anywhere from 1e-8 to 1e8, so floats are written in every form."""
    if isinstance(data, dict):
        return {key: _scaled(value, rng) for key, value in data.items()}
    if isinstance(data, list):
        return [_scaled(value, rng) for value in data]
    if isinstance(data, float):
        return data * (rng.uniform(0.9, 1.1) if rng.random() < 0.5 else 10 ** rng.uniform(-8, 8))
    return data


def _refuse(*args):
    raise AssertionError("PyYAML's constructor ran")


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_scene_files_are_built_without_pyyaml_constructor(monkeypatch, tmp_path, name):
    """Bundled scenes, and scenes written as ``yaml.safe_dump`` writes them,
    are built by the walk alone: a refactor that sends them through
    PyYAML's slower constructor fails here."""
    rng = np.random.default_rng(sum(map(ord, name)))
    written = scenario_to_dict(load_scenario(demo_scene_path(name)))
    texts = [demo_scene_path(name).read_text()] + [
        yaml.safe_dump(_scaled(written, rng), sort_keys=True, default_flow_style=flow)
        for flow in (False, None, True) * 4
    ]
    expected = [yaml.safe_load(text) for text in texts]
    monkeypatch.setattr(yaml.constructor.SafeConstructor, "construct_document", _refuse)
    for index, (text, data) in enumerate(zip(texts, expected)):
        assert _load_yaml(text) == data
        path = tmp_path / f"{index}.yaml"
        path.write_text(text)
        try:
            load_scenario(path)
        except ScenarioError:  # a scaled number out of its range
            pass
    assert load_scenario(demo_scene_path(name)).name == name


def test_written_scene_keeps_its_own_materials_only():
    data = {
        "kind": "single_grasp",
        "material": "hard",
        "materials": {
            "soft": {"plateau_force": 0.8, "plateau_torque": 8.0},
            "hard": {"plateau_force": 6.0, "plateau_torque": 50.0},
        },
        "theta": 60.0,
        "object": {"shape": "sphere", "size": [50.0]},
    }
    scn = parse_scenario(data)
    written = scenario_to_dict(scn)
    assert sorted(written["materials"]) == ["hard", "soft"]
    assert parse_scenario(written) == scn
    assert edit_scenario(scn, {"material": "soft"}).material.plateau_force == 0.8
    # a built-in material in use is written back; the rest of the table is not
    builtin = load_scenario(demo_scene_path("grasp_parallel"))
    assert list(scenario_to_dict(builtin)["materials"]) == [builtin.material.name]


def test_write_csv_trace():
    data = {"outputs": {"trace": {"lift": [0.0, 0.5], "force": [3.0, 2.5]}}}
    buf = io.StringIO()
    write_csv(data, buf)
    assert buf.getvalue() == "lift,force\n0,3\n0.5,2.5\n"


def test_write_csv_row_list_uses_union_header():
    rows = [{"theta": 30.0, "cap": 1.0}, {"theta": 40.0, "cap": 2.0, "extra": True}]
    buf = io.StringIO()
    write_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "theta,cap,extra"
    assert lines[1] == "30,1,"
    assert lines[2] == "40,2,True"


def test_write_csv_flat_fallback():
    buf = io.StringIO()
    write_csv({"outputs": {"alpha": 1.5, "nested": {"beta": "x"}}}, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "field,value"
    assert "outputs.alpha,1.5" in lines
    assert "outputs.nested.beta,x" in lines


# --------------------------------------------------------------------------
# demo suite
# --------------------------------------------------------------------------


def test_demo_suite_writes_expected_files(tmp_path):
    manifest = run_demo_suite(tmp_path / "out")
    assert sorted(manifest) == DEMO_NAMES
    files = sorted(p.name for p in (tmp_path / "out").iterdir())
    expected = sorted(
        [f"{name}.json" for name in DEMO_NAMES]
        + ["pullout_enveloping_trace.csv", "pullout_parallel_trace.csv", "index.json"]
    )
    assert files == expected
    record = json.loads((tmp_path / "out" / "stacked_spheres.json").read_text())
    assert record["kind"] == "stacked"
    assert record["digest"] == scenario_digest(demo_scene_path("stacked_spheres"))


def test_demo_suite_is_byte_deterministic(tmp_path):
    first = run_demo_suite(tmp_path / "a")
    second = run_demo_suite(tmp_path / "b")
    assert first == second
    for entry in sorted((tmp_path / "a").iterdir()):
        twin = tmp_path / "b" / entry.name
        assert entry.read_bytes() == twin.read_bytes(), entry.name
