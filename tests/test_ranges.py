"""Every range in ``origrip.RANGES``, driven from the table itself.

1. The scene reader and the model dataclass or API guard accept and reject
   the same values at each bound and just outside it, and word a range
   problem the same way.
2. Every bundled scene with one bounded field set just inside a bound ends
   cleanly: finite output that ``write_json`` accepts, ``ScenarioError``, or
   ``PlanError``.
"""

import io
import math
from dataclasses import replace
from functools import cache

import pytest

from origrip import (
    RANGES,
    PlanError,
    ScenarioError,
    default_lift_grid,
    closure_summary,
    edit_scenario,
    lift_check,
    list_demo_scenes,
    load_scenario,
    make_result_record,
    make_stacked_scene,
    resolve_contacts,
    run_scenario,
    scenario_to_dict,
    write_json,
)
from origrip.demo import demo_scene_path

ALL = "all"  # set every item of a number list


def _replace(attr, key, wrap=lambda v: v):
    """API call: the parsed scene's ``attr`` object with ``key`` set to the value."""
    return lambda s, v: replace(getattr(s, attr), **{key: wrap(v)})


def _contacts(s, **changes):
    kwargs = {"mu": s.mu, "torque_scale": s.torque_scale, **changes}
    return resolve_contacts(s.theta, s.obj, s.config, s.material, **kwargs)


def _stacked(s, v):
    scene = s.scene
    return make_stacked_scene(scene.top, scene.bottom, v, scene.config, scene.material, scene.mu, scene.safety,
                              scene.torque_scale)


def _safety(s, v):
    scene = s.scene
    contacts = resolve_contacts(60.0, scene.top, scene.config, scene.material, scene.mu, scene.torque_scale)
    return lift_check(contacts, scene.top, safety=v)


def _enveloping(call):
    """API call on the enveloping scene's contacts, for a key no scene fills."""
    def api(s, v):
        scn = _scene("grasp_enveloping")
        return call(_contacts(scn), scn.obj, scn.config, v)
    return api


def _pair(v):
    return (v, v)


# table key -> (bundled scene, dotted path in it, list item or ALL, API call
# taking the parsed scene and the value); no scene path for a model field
# that no scene key fills
CASES = {
    "z": ("grasp_enveloping", "object.z", None, lambda s, v: replace(s.obj.pose, z=v)),
    "size": ("grasp_enveloping", "object.size", ALL, _replace("obj", "dims", lambda v: (v, v, v))),
    "dims": ("grasp_parallel", "object.size", 1, _replace("obj", "dims", lambda v: (63.0, v, 100.0))),
    "mass": ("grasp_enveloping", "object.mass", None, _replace("obj", "mass")),
    "r0": ("grasp_enveloping", "gripper.law.r0", None, lambda s, v: replace(s.config.law, r0=v)),
    # a steep slope closes the guide past the module offset, which only the gripper judges
    "slope": ("grasp_enveloping", "gripper.law.slope", None,
              lambda s, v: replace(s.config, law=replace(s.config.law, slope=v))),
    **{
        key: ("grasp_enveloping", f"gripper.{key}", None, _replace("config", key))
        for key in ("module_offset", "module_height", "rest_depth", "panel_span", "bend_lever_arm",
                    "curvature_threshold")
    },
    "module_levels": ("grasp_enveloping", "gripper.module_levels", ALL, _replace("config", "module_levels", _pair)),
    **{
        key: ("grasp_enveloping", f"materials.tpu95a.{key}", None, _replace("material", key))
        for key in ("plateau_force", "plateau_torque", "overload_stiffness", "force_band", "torque_band")
    },
    "strain_range": ("grasp_enveloping", "materials.tpu95a.strain_range", ALL,
                     lambda s, v: replace(s.material, strain_lo=v, strain_hi=v)),
    "strain_lo": ("grasp_enveloping", "materials.tpu95a.strain_range", 0, _replace("material", "strain_lo")),
    "strain_hi": ("grasp_enveloping", "materials.tpu95a.strain_range", 1, _replace("material", "strain_hi")),
    "angle_range": ("grasp_enveloping", "materials.tpu95a.angle_range", ALL,
                    lambda s, v: replace(s.material, angle_lo=v, angle_hi=v)),
    "angle_lo": ("grasp_enveloping", "materials.tpu95a.angle_range", 0, _replace("material", "angle_lo")),
    "angle_hi": ("grasp_enveloping", "materials.tpu95a.angle_range", 1, _replace("material", "angle_hi")),
    "mu": ("grasp_enveloping", "mu", None, lambda s, v: _contacts(s, mu=v)),
    # the enveloping probe bends its modules, so the torque scale is judged
    "torque_scale": ("grasp_enveloping", "torque_scale", None, lambda s, v: _contacts(s, torque_scale=v)),
    "lift_step": ("pullout_enveloping", "lift_step", None, lambda s, v: default_lift_grid(s.probe, s.config, v)),
    "clearance": ("stacked_spheres", "clearance", None, _stacked),
    "safety": ("stacked_spheres", "safety", None, _safety),
    "gravity": (None, None, None, _enveloping(lambda c, obj, config, v: lift_check(c, obj, gravity=v))),
    "slip_margin": (None, None, None, _enveloping(lambda c, obj, config, v: closure_summary(c, obj, config, v))),
    **{key: ("pickplace_comparison", f"cycle.{key}", ALL, _replace("spec", key, _pair))
       for key in ("pick", "place_bottom", "place_top")},
    **{
        key: ("pickplace_comparison", f"cycle.{key}", None, _replace("spec", key))
        for key in ("approach_height", "descend_speed", "ascend_speed", "travel_speed", "grasp_dwell",
                    "release_dwell")
    },
}


@cache
def _scene(name):
    return load_scenario(demo_scene_path(name))


def _at(data, path):
    for part in path.split("."):
        data = data[part]
    return data


def _edge_values(bounds):
    """The finite bounds of a range and the floats just outside them."""
    values = []
    if math.isfinite(bounds.lo):
        values += [bounds.lo, math.nextafter(bounds.lo, -math.inf)]
    if math.isfinite(bounds.hi):
        values += [bounds.hi, math.nextafter(bounds.hi, math.inf)]
    return values


def test_every_table_entry_has_a_case():
    assert set(CASES) == set(RANGES)


@pytest.mark.parametrize("key", sorted(RANGES))
def test_scene_and_api_apply_the_same_range(key):
    bounds = RANGES[key]
    scene_name, path, item, api = CASES[key]
    for value in _edge_values(bounds):
        why = bounds.problem(value)
        try:
            api(_scene(scene_name) if scene_name else None, value)
            api_error = None
        except ValueError as exc:
            api_error = str(exc)
        if why is not None:
            assert api_error is not None and api_error.endswith(f" {why}"), (value, api_error)
        if scene_name is None:
            assert (api_error is None) == (why is None), (value, api_error)
            continue
        scn = _scene(scene_name)
        current = _at(scenario_to_dict(scn), path)
        if item is None:
            new = value
        elif item is ALL:
            new = [value] * len(current)
        else:
            new = [value if i == item else old for i, old in enumerate(current)]
        try:
            edit_scenario(scn, {path: new})
            scene_errors = None
        except ScenarioError as exc:
            scene_errors = exc.errors
        assert (scene_errors is None) == (api_error is None), (value, scene_errors, api_error)
        if why is not None:
            assert any(error.startswith(path) and error.endswith(f": {why}") for error in scene_errors)


def _bounded_paths(data, prefix=""):
    """Dotted paths of the numbers and number lists in a written scene whose
    key has a range in the table."""
    for key, value in data.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _bounded_paths(value, path + ".")
        elif key in RANGES and not isinstance(value, (str, bool)):
            yield path


def _inside_values(bounds):
    """The finite bounds of a range, or for an open bound the float just inside it."""
    values = []
    if math.isfinite(bounds.lo):
        values.append(math.nextafter(bounds.lo, math.inf) if bounds.lo_open else bounds.lo)
    if math.isfinite(bounds.hi):
        values.append(bounds.hi)
    return values


@pytest.mark.parametrize("name", list_demo_scenes())
def test_bundled_scenes_end_cleanly_with_a_field_at_its_bound(name):
    scn = _scene(name)
    data = scenario_to_dict(scn)
    for path in _bounded_paths(data):
        current = _at(data, path)
        for value in _inside_values(RANGES[path.rpartition(".")[2]]):
            new = [value] * len(current) if isinstance(current, list) else value
            try:
                edited = edit_scenario(scn, {path: new})
                outputs = run_scenario(edited)
            except (ScenarioError, PlanError):
                continue
            write_json(make_result_record(edited.kind, edited, outputs), io.StringIO())
