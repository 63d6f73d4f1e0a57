"""Exact relations between runs of scaled scenes.

The model carries no hidden unit of force, length or time:

- Doubling every force scale of a scene (the module plateaus, the overload
  stiffness and every mass) doubles every force, capacity and closure
  margin it reports.
- Scaling every length by 2 or by 1/2 (the law, the module geometry and
  levels, object sizes and heights, the lift step, the clearance, the
  cycle's sites and approach height), with the plateau torque in N*mm and
  the speeds in mm/s, scales every length it reports by the same factor.
- Doubling the three speeds and halving both dwells halves every time.

Everything else stays as it was.  Scaling by a power of two is exact in
binary floating point, so each relation holds bit for bit, with no
tolerance.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origrip._finite import MAX_DWELL, MAX_FORCE, MAX_LENGTH, MAX_STIFFNESS, MAX_TORQUE, MIN_LENGTH, MIN_SPEED
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


def _varied(draw, name: str, grow: float = 1.0) -> dict:
    """Bundled grasp, pull-out or stacked scene ``name`` with random angle,
    friction, fingers, yaw and masses, and its objects' sizes times
    ``grow``.  Friction and masses are 0 or at least 0.01 and 1 g: a
    product of subnormal numbers rounds at a precision that scaling
    changes, so the relations are exact only above them."""
    data = _written(name)
    if "theta" in data:
        law = data["gripper"]["law"]
        data["theta"] = draw(st.floats(law["theta_min"], law["theta_max"]))
    data["mu"] = draw(st.just(0.0) | st.floats(0.01, 1.5))
    data["torque_scale"] = draw(st.floats(0.5, 2.0))
    data["gripper"] = {**data["gripper"], "finger_count": draw(st.sampled_from(FINGER_COUNTS))}
    for key in _OBJECTS:
        if key in data:
            mass, yaw = draw(st.just(0.0) | st.floats(1e-3, 0.3)), draw(st.floats(0.0, 90.0))
            data[key] = {**data[key], "mass": mass, "yaw": yaw, "size": [grow * v for v in data[key]["size"]]}
    return data


@st.composite
def force_scenes(draw) -> dict:
    """A ``_varied`` bundled scene with a random material, drawn so that its
    doubled force scales stay inside ``RANGES``."""
    data = _varied(draw, draw(st.sampled_from(FORCE_SCENES)))
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


SCENES = list_demo_scenes()
_SPEEDS = ("descend_speed", "ascend_speed", "travel_speed")
_DWELLS = ("grasp_dwell", "release_dwell")
# scene keys that hold a length, or a unit with one length in it (N*mm, mm/s)
_LENGTH_KEYS = (
    "r0", "slope", "module_offset", "module_height", "rest_depth", "panel_span", "bend_lever_arm", "module_levels",
    "size", "z", "lift_step", "clearance", "pick", "place_bottom", "place_top", "approach_height", *_SPEEDS,
    "plateau_torque",
)
# output keys that hold lengths: everything under each of them
_LENGTH_OUTPUTS = ("opening", "object_width", "penetration", "markers", "lift", "distance", "distance_saved")
_TIME_OUTPUTS = ("time", "time_saved")


def _scaled(value, factors: dict, factor=None):
    """``value`` with every number under a key of ``factors``, at any depth
    and in any list, times that key's factor."""
    if isinstance(value, dict):
        return {key: _scaled(item, factors, factors.get(key, factor)) for key, item in value.items()}
    if isinstance(value, list):
        return [_scaled(item, factors, factor) for item in value]
    if factor is None or value is None or isinstance(value, (bool, str)):
        return value
    return factor * value


def _assert_relation(data: dict, inputs: dict, outputs: dict) -> None:
    ran, scaled = _run(data), _run(_scaled(data, inputs))
    if isinstance(ran, tuple):  # an infeasible plan, whose words may give the objects' widths
        assert scaled[0] == ran[0]
    else:  # json.dumps writes each float by repr, so equal text is equal bits
        assert json.dumps(scaled) == json.dumps(_scaled(ran, outputs))


def _assert_lengths_scale(data: dict, k: float) -> None:
    _assert_relation(data, dict.fromkeys(_LENGTH_KEYS, k), dict.fromkeys(_LENGTH_OUTPUTS, k))


@pytest.mark.parametrize("k", [2.0, 0.5])
@pytest.mark.parametrize("name", SCENES)
def test_scaling_every_length_scales_every_length_of_a_bundled_scene(name, k):
    _assert_lengths_scale(_written(name), k)


@st.composite
def cycles(draw) -> dict:
    """A random pick-and-place cycle that stays inside ``RANGES`` with its
    lengths and speeds scaled by 2 or by 1/2, and whose dwells are 0 or at
    least 1 ms, so that halving them is exact."""
    site = st.lists(st.floats(-MAX_LENGTH / 2.0, MAX_LENGTH / 2.0), min_size=2, max_size=2)
    speed = _log_uniform(2.0 * MIN_SPEED, 1e4)
    return {
        "kind": "pickplace",
        "cycle": {
            "pick": draw(site), "place_bottom": draw(site), "place_top": draw(site),
            "approach_height": draw(_log_uniform(2.0 * MIN_LENGTH, MAX_LENGTH / 2.0)),
            **{key: draw(speed) for key in _SPEEDS},
            **{key: draw(st.just(0.0) | st.floats(1e-3, MAX_DWELL)) for key in _DWELLS},
        },
    }


@st.composite
def length_scenes(draw) -> tuple[dict, float]:
    """A scale factor and a random cycle, or a ``_varied`` bundled scene
    whose objects are grown or shrunk together by up to a fifth; a pull-out
    probe only grows, since one that misses a module level fails in words
    that give its lengths."""
    k = draw(st.sampled_from([2.0, 0.5]))
    name = draw(st.sampled_from(SCENES))
    if name.startswith("pickplace"):
        return draw(cycles()), k
    return _varied(draw, name, draw(st.floats(1.0 if name.startswith("pullout") else 0.8, 1.2))), k


@settings(max_examples=300, derandomize=True, deadline=None)
@given(length_scenes())
def test_scaling_every_length_scales_every_length(case):
    data, k = case
    _assert_lengths_scale(data, k)


def _assert_times_halve(data: dict) -> None:
    inputs = {**dict.fromkeys(_SPEEDS, 2.0), **dict.fromkeys(_DWELLS, 0.5)}
    _assert_relation(data, inputs, dict.fromkeys(_TIME_OUTPUTS, 0.5))


def test_doubling_the_speeds_and_halving_the_dwells_halves_every_time_of_a_bundled_cycle():
    for name in SCENES:
        if name.startswith("pickplace"):
            _assert_times_halve(_written(name))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cycles())
def test_doubling_the_speeds_and_halving_the_dwells_halves_every_time(data):
    _assert_times_halve(data)
