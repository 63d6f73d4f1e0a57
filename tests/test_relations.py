"""Exact relations between runs of scaled scenes.

The model carries no hidden force unit: doubling every force scale of a
scene (the module plateaus, the overload stiffness and every mass) doubles
every force, capacity and closure margin it reports and leaves everything
else as it was.  Doubling is exact in binary floating point, so the
relation holds bit for bit, with no tolerance.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origrip._finite import MAX_FORCE, MAX_STIFFNESS, MAX_TORQUE
from origrip.demo import demo_scene_path, list_demo_scenes
from origrip.planner import PlanError
from origrip.scenario import load_scenario, parse_scenario, run_scenario, scenario_to_dict
from origrip.transmission import FINGER_COUNTS

FORCE_SCENES = [name for name in list_demo_scenes() if not name.startswith("pickplace")]
_OBJECTS = ("object", "top", "bottom")
_FORCE_SCALES = ("plateau_force", "plateau_torque", "overload_stiffness")
_GRASP_FORCES = ("squeeze_force", "side_squeeze_force", "pullout_capacity", "closure_margin")


def _written(name: str) -> dict:
    return scenario_to_dict(load_scenario(demo_scene_path(name)))


def _run(data: dict):
    """The outputs of a written scene, or an infeasible plan's reason and message."""
    try:
        return run_scenario(parse_scenario(data))
    except PlanError as exc:
        return exc.reason.value, str(exc)


def _forces_doubled(data: dict) -> dict:
    materials = {
        name: {**material, **{key: 2.0 * material[key] for key in _FORCE_SCALES}}
        for name, material in data["materials"].items()
    }
    objects = {key: {**data[key], "mass": 2.0 * data[key]["mass"]} for key in _OBJECTS if key in data}
    return {**data, "materials": materials, **objects}


def _expected_doubled(kind: str, outputs):
    """``outputs`` with every force doubled, of the same type (a grasp with
    no contact squeezes with the int 0): what the doubled scene must give."""
    if kind == "single_grasp":
        contacts = [{**c, "normal_force": 2 * c["normal_force"]} for c in outputs["contacts"]]
        return {**outputs, **{key: 2 * outputs[key] for key in _GRASP_FORCES}, "contacts": contacts}
    if kind == "pullout":
        trace = {**outputs["trace"], "force": [2 * f for f in outputs["trace"]["force"]]}
        return {**outputs, "capacity": 2 * outputs["capacity"], "peak_force": 2 * outputs["peak_force"],
                "trace": trace}
    return outputs  # a stacked plan weighs every force against a weight that doubles with it


def _assert_forces_scale(data: dict) -> None:
    # json.dumps writes each float by repr, so equal text is equal bits, and an int stays an int
    expected = json.dumps(_expected_doubled(data["kind"], _run(data)))
    assert json.dumps(_run(_forces_doubled(data))) == expected


@pytest.mark.parametrize("name", FORCE_SCENES)
def test_doubling_every_force_scale_doubles_every_force_of_a_bundled_scene(name):
    _assert_forces_scale(_written(name))


def _log_uniform(lo: float, hi: float):
    """Numbers from ``lo`` to ``hi``, drawn evenly in their logarithm."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda exponent: min(max(10.0 ** exponent, lo), hi))


@st.composite
def force_scenes(draw) -> dict:
    """A bundled grasp, pull-out or stacked scene with random angle,
    friction, fingers, yaw, masses and material, each drawn so that its
    doubled force scales stay inside ``RANGES``.  Friction and masses are 0
    or at least 0.01 and 1 g: a product of subnormal numbers rounds at a
    precision that doubling changes, so the relation is exact only above
    them."""
    data = _written(draw(st.sampled_from(FORCE_SCENES)))
    if "theta" in data:
        law = data["gripper"]["law"]
        data["theta"] = draw(st.floats(law["theta_min"], law["theta_max"]))
    data["mu"] = draw(st.just(0.0) | st.floats(0.01, 1.5))
    data["torque_scale"] = draw(st.floats(0.5, 2.0))
    data["gripper"] = {**data["gripper"], "finger_count": draw(st.sampled_from(FINGER_COUNTS))}
    for key in _OBJECTS:
        if key in data:
            mass, yaw = draw(st.just(0.0) | st.floats(1e-3, 0.3)), draw(st.floats(0.0, 90.0))
            data[key] = {**data[key], "mass": mass, "yaw": yaw}
    (name,) = data["materials"]
    data["materials"] = {name: {
        **data["materials"][name],
        "plateau_force": draw(_log_uniform(0.01, MAX_FORCE / 2.0)),
        "plateau_torque": draw(_log_uniform(0.1, MAX_TORQUE / 2.0)),
        "overload_stiffness": draw(_log_uniform(1.0, MAX_STIFFNESS / 2.0)),
    }}
    return data


@settings(max_examples=300, derandomize=True, deadline=None)
@given(force_scenes())
def test_doubling_every_force_scale_doubles_every_force(data):
    _assert_forces_scale(data)
