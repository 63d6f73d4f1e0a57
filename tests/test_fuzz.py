"""The front end never crashes, whatever numbers it is handed.

1. Bundled scenes with one to four numeric leaves replaced by edge values
   either fail as ``ScenarioError`` or ``PlanError``, or give finite output
   that ``write_json`` accepts.
2. ``cli.main`` with generated argv exits 0, 1 or 2, never prints a
   traceback, and writes nothing to stdout when it exits 2.
3. So does ``cli.main`` on bundled scene and materials files mangled byte
   by byte: bytes that are not UTF-8, NUL bytes, a byte order mark, a cut,
   an explicit tag on a value.
4. Two fields of a bundled scene broken together, neither judged against
   the other, report the problems of each broken alone, no more and no
   fewer.
"""

import io
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from origrip import RANGES, PlanError, ScenarioError, list_demo_scenes, load_scenario, make_result_record
from origrip import parse_scenario, run_scenario, scenario_to_dict, write_json
from origrip.cli import main
from origrip.demo import demo_scene_path
from origrip.scenario import MATERIALS_ENV_VAR

EDGES = [
    0.0, -0.0, -1.0, 5e-324, 1e-300, 1e-3, 0.5, 1.0, 2, 3, 45.0, 90.0, 91.0, 1e4, 1e6, 1e7,
    1e300, -1e300, 1.7976931348623157e308, 10**400, math.inf, -math.inf, math.nan,
]
SCENES = list_demo_scenes()


@cache
def _written(name):
    return scenario_to_dict(load_scenario(demo_scene_path(name)))


def _leaves(data, where=(), types=(int, float)):
    """Where the numbers (or other values of ``types``) of a written scene
    sit: keys and list indices."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, where + (key,), types)
        elif isinstance(value, types) and not isinstance(value, bool):
            yield where + (key,)


def _edge_values(data, where):
    """The common edges, values near the leaf's own, and the bounds of its
    range and the floats just outside them."""
    key = next(part for part in reversed(where) if isinstance(part, str))
    current = data
    for part in where:
        current = current[part]
    values = EDGES + [current * 0.9, current * 1.2 + 1.0]
    if key in RANGES:
        bounds = RANGES[key]
        for bound, outward in ((bounds.lo, -math.inf), (bounds.hi, math.inf)):
            if math.isfinite(bound):
                values += [bound, math.nextafter(bound, outward)]
    return values


@st.composite
def mutated_scenes(draw):
    data = _written(draw(st.sampled_from(SCENES)))
    leaves = sorted(_leaves(data), key=repr)
    changes = draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=4, unique=True))
    for where in changes:
        value = draw(st.sampled_from(_edge_values(data, where)))
        data = _replaced(data, where, value)
    return data


def _replaced(data, where, value):
    """``data`` with the leaf at ``where`` set to ``value``, copying only the
    containers on the way."""
    head, *rest = where
    copy = dict(data) if isinstance(data, dict) else list(data)
    copy[head] = _replaced(data[head], rest, value) if rest else value
    return copy


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mutated_scenes(), st.sampled_from([None, 0, 7]))
def test_mutated_scenes_fail_cleanly_or_give_finite_output(data, seed):
    try:
        scn = parse_scenario(data)
        outputs = run_scenario(scn, seed=seed)
    except (ScenarioError, PlanError):
        return
    write_json(make_result_record(scn.kind, scn, outputs, seed=seed), io.StringIO())


NUMBERS = ["nan", "inf", "-inf", "-1", "0", "1e-300", "0.5", "2", "45", "90", "95", "1e300", "abc", ""]
FINE = ["0.3", "1", "30", "45", "60"]  # values most fields accept
KINDS = {"grasp": "single_grasp", "pullout": "pullout", "multi": "stacked", "compare": "pickplace"}
FLAGS = {
    "--theta": NUMBERS + FINE,
    "--mu": NUMBERS + FINE,
    "--grid": NUMBERS + FINE,
    "--seed": ["0", "7", "-1", "x", "99999999999999999999"],
    "--format": ["json", "csv", "xml"],
}
OWN_FLAGS = {"grasp": ("--theta", "--mu"), "pullout": ("--theta", "--mu", "--grid")}
AXES = sorted({".".join(map(str, where)) for name in SCENES for where in _leaves(_written(name))
               if all(isinstance(part, str) for part in where)})
VALUE_SPECS = st.one_of(
    st.lists(st.sampled_from(FINE), min_size=1, max_size=4).map(",".join),
    st.lists(st.sampled_from(NUMBERS + FINE), min_size=1, max_size=4).map(",".join),
    st.sampled_from(["30:60:15", "0:1:0.25", "1:0:1", "0:1:0", "nan:1:1", "0:1e300:1", "a:b:c", ","]),
)
RARELY = st.sampled_from([False, False, False, True])


@st.composite
def argvs(draw):
    """Mostly command lines a user might type: a scene of the command's kind,
    the command's own flags and the scene's own axes; now and then any of them."""
    command = draw(st.sampled_from([*KINDS, "sweep"]))
    kind = KINDS.get(command)
    own_scenes = [name for name in SCENES if kind in (None, _written(name)["kind"])]
    scene = draw(st.sampled_from(SCENES if draw(RARELY) else own_scenes))
    argv = [command, "--scene", str(demo_scene_path(scene))]
    if command == "sweep":
        own_axes = [axis for axis in AXES if axis.split(".")[0] in _written(scene)]
        argv += ["--axis", draw(st.sampled_from(AXES if draw(RARELY) else own_axes)),
                 "--values", draw(VALUE_SPECS)]
    flags = ("--seed", "--format", *OWN_FLAGS.get(command, ()))
    for flag, values in FLAGS.items():
        if draw(st.booleans()) and (flag in flags or draw(RARELY)):
            argv += [flag, draw(st.sampled_from(values))]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argvs())
def test_generated_command_lines_exit_cleanly(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert out == "", (argv, out)


MATERIALS = b"foam: {plateau_force: 2.0, plateau_torque: 20.0}\n"
NOT_UTF8 = [b"\x80", b"\xc3", b"\xff", b"\xfe\xff", b"\xc0\xaf", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]
MARKS = [b"\xef\xbb\xbf", b"\xff\xfe", b"\xfe\xff", b"\x00", b"\x00\x00"]
COMMANDS = {kind: command for command, kind in KINDS.items()}


TAGS = [b"!!int ", b"!!float ", b"!!bool ", b"!!null ", b"!!str ", b"!!timestamp ", b"!!binary ", b"!!set ",
        b"!!omap ", b"!!map ", b"!foo "]


@st.composite
def mangled(draw, raw):
    """``raw`` with bytes that are not UTF-8, a NUL or a byte order mark put
    in, a byte replaced, its end cut off, or an explicit tag put on a value."""
    at = draw(st.integers(0, len(raw)))
    how = draw(st.sampled_from(["insert", "replace", "cut", "tag"]))
    if how == "cut":
        return raw[:at]
    if how == "tag":
        values = [i + 2 for i in range(len(raw)) if raw.startswith(b": ", i)]
        at = draw(st.sampled_from(values))
        return raw[:at] + draw(st.sampled_from(TAGS)) + raw[at:]
    bad = draw(st.sampled_from(NOT_UTF8 + MARKS) | st.binary(min_size=1, max_size=3))
    return raw[:at] + bad + raw[at + (how == "replace"):]


@st.composite
def mangled_runs(draw):
    """An argv naming a mangled scene file, or a bundled scene run with a
    mangled ``ORIGRIP_MATERIALS`` file, and that file's bytes."""
    name = draw(st.sampled_from(SCENES))
    kind = _written(name)["kind"]
    if draw(st.booleans()):
        command = draw(st.sampled_from(["material-curve", COMMANDS[kind]]))
        return command, str(demo_scene_path(name)), draw(mangled(MATERIALS))
    command = draw(st.sampled_from([COMMANDS[kind], "sweep"]))
    return command, None, draw(mangled(demo_scene_path(name).read_bytes()))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mangled_runs())
def test_mangled_files_exit_cleanly(run):
    command, scene, raw = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "mangled.yaml")
        path.write_bytes(raw)
        env = {} if scene is None else {MATERIALS_ENV_VAR: str(path)}
        argv = [command, "--material", "tpu95a"] if command == "material-curve" else [
            command, "--scene", scene or str(path)]
        if command == "sweep":
            argv += ["--axis", "mu", "--values", "0.3,0.6"]
        with mock.patch.dict(os.environ, env):
            code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, raw, code, err)
    assert "Traceback" not in err, (argv, raw, err)
    if code == 2:
        assert out == "", (argv, raw, out)


def _judged_together(a, b):
    """Whether one of two fields is judged against the other: an object's
    size against its shape, theta against the gripper, the material against
    the scene's own materials."""
    if {a[0], b[0]} in ({"gripper", "theta"}, {"materials", "material"}):
        return True
    return a[0] == b[0] and {a[1:2], b[1:2]} == {("shape",), ("size",)}


@st.composite
def broken_pairs(draw):
    """A bundled scene and two of its fields, each with a value that fails
    to read: a number where text belongs, text or NaN where a number does,
    or null."""
    name = draw(st.sampled_from(SCENES))
    fields = sorted((where for where in _leaves(_written(name), types=(int, float, str)) if where != ("kind",)),
                    key=repr)
    a = draw(st.sampled_from(fields))
    b = draw(st.sampled_from([where for where in fields if where != a and not _judged_together(a, where)]))
    breaks = []
    for where in (a, b):
        text = isinstance(_get(_written(name), where), str)
        breaks.append((where, draw(st.sampled_from([5, None] if text else [math.nan, "x", None]))))
    return name, *breaks


def _get(data, where):
    for part in where:
        data = data[part]
    return data


def _problems(data):
    try:
        parse_scenario(data)
    except ScenarioError as exc:
        return exc.errors
    return []


@settings(max_examples=300, derandomize=True, deadline=None)
@given(broken_pairs())
@example(("grasp_parallel", (("object", "shape"), 5), (("object", "mass"), math.nan)))
def test_problems_of_independent_fields_add_up(case):
    name, (a, bad_a), (b, bad_b) = case
    data = _written(name)
    alone_a, alone_b = _problems(_replaced(data, a, bad_a)), _problems(_replaced(data, b, bad_b))
    assert alone_a and alone_b
    both = _problems(_replaced(_replaced(data, a, bad_a), b, bad_b))
    assert sorted(both) == sorted(alone_a + alone_b)
