"""Sweeps against the per-point oracle, and what a sweep parses and decides once.

A sweep point re-reads only the mappings on the axis path and reuses the
finished value of every other section, the materials table and the
closure verdict of every wrench set an earlier point decided.  The oracle
``oracles.sweep_rows`` parses a deep copy of the whole scene at every
point, so any value or message the reuse changes shows up here.
"""

import math
from contextlib import contextmanager
from functools import cache

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from origrip import RANGES, PlanError, ScenarioError, list_demo_scenes, load_scenario, parse_scenario, run_sweep
from origrip import grasp, run_scenario, scenario
from origrip._finite import SWEEP_MEMO
from origrip.demo import demo_scene_path
from origrip.scenario import MATERIALS_ENV_VAR, scenario_to_dict

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


@contextmanager
def _sweep_memo():
    token = SWEEP_MEMO.set({})
    try:
        yield
    finally:
        SWEEP_MEMO.reset(token)


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
def test_a_section_that_failed_is_read_again_under_a_sweep_memo(data):
    fresh = _parsed(data)
    with _sweep_memo():
        assert _parsed(data) == fresh
        assert _parsed(data) == fresh  # the sections that read cleanly are now in the memo
    assert SWEEP_MEMO.get() is None


def test_a_shared_mapping_builds_top_and_bottom_under_their_own_names():
    data = yaml.safe_load(SHARED_ANCHOR)
    assert data["top"] is data["bottom"]
    fresh = _parsed(data)
    with _sweep_memo():
        for _ in range(2):
            scn, written = _parsed(data)
            assert (scn.scene.top.name, scn.scene.bottom.name) == ("top", "bottom")
            assert (scn, written) == fresh


@pytest.mark.parametrize("axis, start", [("theta", 30.0), ("materials.tpu95a.plateau_torque", 20.0)])
def test_a_sweep_reads_the_materials_file_once(monkeypatch, tmp_path, axis, start):
    env_file = tmp_path / "materials.yaml"
    env_file.write_text("foam: {plateau_force: 2.0, plateau_torque: 20.0}\n")
    monkeypatch.setenv(MATERIALS_ENV_VAR, str(env_file))
    scn = load_scenario(demo_scene_path("grasp_parallel"))
    calls = []
    table = scenario.material_table
    monkeypatch.setattr(scenario, "material_table", lambda: calls.append(1) or table())
    rows = run_sweep(scn, axis, [start + n for n in range(20)])
    assert len(rows) == 20
    assert len(calls) == 1


def test_a_theta_sweep_resolves_one_object_and_gripper(monkeypatch):
    seen = []
    resolve = scenario.resolve_contacts

    def recording(theta, obj, config, *args):
        seen.append((obj, config))
        return resolve(theta, obj, config, *args)

    monkeypatch.setattr(scenario, "resolve_contacts", recording)
    run_sweep(load_scenario(demo_scene_path("grasp_enveloping")), "theta", [30.0, 40.0, 50.0, 60.0])
    assert len(seen) == 4
    obj, config = seen[0]
    assert all(o is obj and c is config for o, c in seen)
    assert SWEEP_MEMO.get() is None


def _closure_key(primitives):
    primitives = np.asarray(primitives, dtype=float)
    return primitives.shape, primitives.tobytes()


def _record_closure(monkeypatch):
    """Keys of the primitive sets handed to ``is_force_closure`` and to the
    hull routine behind it, in call order."""
    decided, hulled = [], []
    decide, hull = grasp.is_force_closure, grasp._hull_margin
    monkeypatch.setattr(grasp, "is_force_closure", lambda p: decided.append(_closure_key(p)) or decide(p))
    monkeypatch.setattr(grasp, "_hull_margin", lambda p, scale: hulled.append(_closure_key(p)) or hull(p, scale))
    return decided, hulled


def test_a_plateau_sweep_builds_the_hull_once_per_primitive_set(monkeypatch):
    # inside the force plateau every theta presses with the same forces at the same contacts
    scn = load_scenario(demo_scene_path("grasp_enveloping"))
    decided, hulled = _record_closure(monkeypatch)
    rows = run_sweep(scn, "theta", [30.0 + 2.0 * n for n in range(16)])
    assert all(row["force_closure"] for row in rows)
    assert len(set(hulled)) == len(hulled) == len(set(decided)) < len(decided) == 16


def test_a_one_shot_run_after_a_sweep_decides_closure_again(monkeypatch):
    scn = load_scenario(demo_scene_path("grasp_enveloping"))
    decided, hulled = _record_closure(monkeypatch)
    swept = run_sweep(scn, "theta", [scn.theta, scn.theta])
    assert len(decided) == 2 and len(hulled) == 1
    outputs = run_scenario(scn)
    assert len(decided) == 3 and len(hulled) == 2
    assert (outputs["force_closure"], outputs["closure_margin"]) == (
        swept[0]["force_closure"], swept[0]["closure_margin"]
    )


@pytest.mark.parametrize(
    "name, axis, values, error",
    [
        ("grasp_enveloping", "theta", [45.0, 200.0], ScenarioError),
        ("stacked_spheres", "top.mass", [0.1, 50.0], PlanError),
    ],
    ids=["invalid", "infeasible"],
)
def test_the_memo_ends_with_a_sweep_that_stops_partway(monkeypatch, name, axis, values, error):
    scn = load_scenario(demo_scene_path(name))
    memos = []
    parse = scenario.parse_scenario
    monkeypatch.setattr(scenario, "parse_scenario", lambda data: memos.append(SWEEP_MEMO.get()) or parse(data))
    with pytest.raises(error):
        run_sweep(scn, axis, values)
    assert len(memos) == 2 and memos[0] is memos[1] and memos[0]  # the first point filled it
    assert SWEEP_MEMO.get() is None
