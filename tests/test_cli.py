import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml

from origrip import cli, scenario
from origrip.cli import EXIT_INFEASIBLE, EXIT_INVALID, EXIT_OK, main
from origrip.demo import demo_scene_path
from origrip.scenario import MATERIALS_ENV_VAR, scenario_digest

ENVELOPING = str(demo_scene_path("grasp_enveloping"))
PARALLEL = str(demo_scene_path("grasp_parallel"))
STACKED = str(demo_scene_path("stacked_spheres"))
PICKPLACE = str(demo_scene_path("pickplace_comparison"))
PULLOUT = str(demo_scene_path("pullout_enveloping"))


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    record = json.loads(captured.out) if captured.out else None
    return code, record, captured.err


def test_kinematics_forward(capsys):
    code, record, _ = run_json(capsys, ["kinematics", "--theta", "0"])
    assert code == EXIT_OK
    out = record["outputs"]
    assert out["theta"] == 0.0
    assert out["opening"] == 78.0
    assert out["finger_radius"] == 54.0
    lo, hi = out["opening_range"]
    assert lo < hi == 78.0


def test_kinematics_inverse(capsys):
    code, record, _ = run_json(capsys, ["kinematics", "--opening", "53"])
    assert code == EXIT_OK
    assert record["outputs"]["theta"] == pytest.approx(45.0)
    assert record["outputs"]["finger_radius"] == pytest.approx(41.5)


def test_kinematics_angle_out_of_range(capsys):
    code, record, err = run_json(capsys, ["kinematics", "--theta", "120"])
    assert code == EXIT_INVALID
    assert record is None
    assert "origrip:" in err and "servo angle" in err


def test_kinematics_flags_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["kinematics", "--theta", "30", "--opening", "53"])
    assert exc_info.value.code == 2


def test_material_curve_compression(capsys):
    code, record, _ = run_json(
        capsys, ["material-curve", "--material", "sil950", "--samples", "13"]
    )
    assert code == EXIT_OK
    rows = record["outputs"]
    assert len(rows) == 13
    assert rows[0] == {"strain": 0.0, "force": 0.0}
    plateau = [r["force"] for r in rows if 0.1 <= r["strain"] <= 0.5]
    assert plateau and all(f == 1.0 for f in plateau)


def test_material_curve_bending(capsys):
    code, record, _ = run_json(
        capsys, ["material-curve", "--material", "sil950", "--mode", "bending", "--samples", "7"]
    )
    assert code == EXIT_OK
    rows = record["outputs"]
    assert len(rows) == 7
    assert {"angle", "torque"} == set(rows[0])
    plateau = [r["torque"] for r in rows if 5.0 <= r["angle"]]
    assert plateau and all(t == 9.5 for t in plateau)


def test_material_curve_csv(capsys):
    code = main(["material-curve", "--material", "tpu95a", "--format", "csv", "--samples", "5"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "strain,force"
    assert len(lines) == 6


def test_material_curve_unknown_material(capsys):
    code, _, err = run_json(capsys, ["material-curve", "--material", "adamantium"])
    assert code == EXIT_INVALID
    assert "unknown material 'adamantium'" in err


@pytest.mark.parametrize(
    "materials, err",
    [
        (None, "origrip: invalid scenario (1 problem(s)):\n"
               "  - --material: unknown material 'adamantium'; known: sil950, tpu95a\n"),
        ("foam: {plateau_force: 2.0, plateau_torque: 20.0}\n", "origrip: invalid scenario (1 problem(s)):\n"
         "  - --material: unknown material 'adamantium'; known: foam, sil950, tpu95a\n"),
        ("foam: [1, 2\n", "origrip: invalid scenario (1 problem(s)):\n"
         "  - materials: cannot read ORIGRIP_MATERIALS file {path!r}: "),
    ],
    ids=["built_in", "materials_file", "unreadable_materials_file"],
)
def test_material_curve_names_materials_as_a_scene_does(capsys, monkeypatch, tmp_path, materials, err):
    path = tmp_path / "materials.yaml"
    if materials is not None:
        path.write_text(materials)
        monkeypatch.setenv(MATERIALS_ENV_VAR, str(path))
    code, record, got = run_json(capsys, ["material-curve", "--material", "adamantium", "--samples", "1"])
    assert code == EXIT_INVALID and record is None
    assert got.startswith(err.format(path=str(path)))  # one problem, in its words to the end of the line


def test_material_curve_needs_two_samples(capsys):
    code, _, err = run_json(capsys, ["material-curve", "--material", "tpu95a", "--samples", "1"])
    assert code == EXIT_INVALID
    assert "--samples" in err


@pytest.mark.parametrize("mode", ["compression", "bending"])
def test_material_curve_samples_are_capped_before_sampling(capsys, monkeypatch, mode):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled past the cap")

    monkeypatch.setattr(cli, "sample_compression_curve", refuse)
    monkeypatch.setattr(cli, "sample_bending_curve", refuse)
    argv = ["material-curve", "--material", "tpu95a", "--mode", mode, "--samples", "100001"]
    code, record, err = run_json(capsys, argv)
    assert code == EXIT_INVALID and record is None
    assert "--samples: 100001 samples, more than 100000" in err


def test_material_curve_seeded_spread(capsys):
    base = ["material-curve", "--material", "tpu95a", "--samples", "9"]
    _, nominal, _ = run_json(capsys, base)
    _, seeded_a, _ = run_json(capsys, base + ["--seed", "11"])
    _, seeded_b, _ = run_json(capsys, base + ["--seed", "11"])
    assert seeded_a == seeded_b
    assert seeded_a != nominal
    assert seeded_a["seed"] == 11
    plateau = [r["force"] for r in seeded_a["outputs"] if 0.1 <= r["strain"] <= 0.5]
    assert all(4.5 <= f <= 5.0 for f in plateau)  # stays inside the 5% spread band


def test_grasp_command(capsys):
    code, record, _ = run_json(capsys, ["grasp", "--scene", ENVELOPING])
    assert code == EXIT_OK
    assert record["command"] == "grasp"
    assert record["kind"] == "single_grasp"
    assert record["digest"] == scenario_digest(ENVELOPING)
    assert record["outputs"]["grasp_mode"] == "v_enveloping"
    assert record["outputs"]["pullout_capacity"] == pytest.approx(3.0, abs=1e-9)


def test_grasp_overrides(capsys):
    code, record, _ = run_json(
        capsys,
        ["grasp", "--scene", ENVELOPING, "--theta", "45", "--material", "sil950", "--mu", "0.3"],
    )
    assert code == EXIT_OK
    assert record["outputs"]["theta"] == 45.0
    assert record["outputs"]["pullout_capacity"] == pytest.approx(1.0290970548976035, abs=1e-9)


def test_grasp_rejects_negative_mu(capsys):
    code, _, err = run_json(capsys, ["grasp", "--scene", ENVELOPING, "--mu", "-0.1"])
    assert code == EXIT_INVALID
    assert "--mu" in err


SOFT_SCENE = """\
kind: single_grasp
material: soft
materials:
  soft: {plateau_force: 0.8, plateau_torque: 8.0}
theta: 45.0
object: {shape: sphere, size: [50.0]}
"""


def test_material_override_names_a_scene_material(capsys, tmp_path):
    scene = tmp_path / "soft.yaml"
    scene.write_text(SOFT_SCENE)
    code, as_loaded, _ = run_json(capsys, ["grasp", "--scene", str(scene)])
    assert code == EXIT_OK
    code, overridden, err = run_json(capsys, ["grasp", "--scene", str(scene), "--material", "soft"])
    assert code == EXIT_OK, err
    assert overridden == as_loaded
    code, _, err = run_json(capsys, ["grasp", "--scene", str(scene), "--material", "hard"])
    assert code == EXIT_INVALID
    assert "--material: unknown material 'hard'; known: " in err and "soft" in err


@pytest.mark.parametrize("content", [None, "soft: [1, 2\n"], ids=["missing", "not_yaml"])
def test_a_scene_that_defines_its_material_reads_no_materials_file(capsys, monkeypatch, tmp_path, content):
    scene = tmp_path / "soft.yaml"
    scene.write_text(SOFT_SCENE)
    code, expected, err = run_json(capsys, ["grasp", "--scene", str(scene)])
    assert code == EXIT_OK, err
    env_file = tmp_path / "materials.yaml"
    if content is not None:
        env_file.write_text(content)
    monkeypatch.setenv(MATERIALS_ENV_VAR, str(env_file))
    code, record, err = run_json(capsys, ["grasp", "--scene", str(scene)])
    assert code == EXIT_OK, err
    assert record == expected
    # a built-in material is looked up in the table that the file extends
    code, record, err = run_json(capsys, ["grasp", "--scene", PARALLEL])
    assert code == EXIT_INVALID and record is None
    assert f"materials: cannot read ORIGRIP_MATERIALS file {str(env_file)!r}: " in err


TWO_MATERIAL_SCENE = """\
kind: single_grasp
material: hard
materials:
  soft: {plateau_force: 0.8, plateau_torque: 8.0}
  hard: {plateau_force: 6.0, plateau_torque: 50.0}
theta: 60.0
object: {shape: sphere, size: [50.0]}
"""


def test_overrides_keep_the_scene_materials_not_in_use(capsys, tmp_path):
    scene = tmp_path / "two_materials.yaml"
    scene.write_text(TWO_MATERIAL_SCENE)
    code, hard, err = run_json(capsys, ["grasp", "--scene", str(scene)])
    assert code == EXIT_OK, err
    code, soft, err = run_json(capsys, ["grasp", "--scene", str(scene), "--material", "soft"])
    assert code == EXIT_OK, err
    # bending contacts: capacity scales with the plateau torque
    ratio = soft["outputs"]["pullout_capacity"] / hard["outputs"]["pullout_capacity"]
    assert ratio == pytest.approx(8.0 / 50.0)
    code, rows, err = run_json(
        capsys,
        ["sweep", "--scene", str(scene), "--axis", "materials.soft.plateau_force", "--values", "1,2"],
    )
    assert code == EXIT_OK, err
    assert [row["materials.soft.plateau_force"] for row in rows["outputs"]] == [1.0, 2.0]
    assert rows["outputs"][0]["pullout_capacity"] == hard["outputs"]["pullout_capacity"]


def test_overrides_follow_the_scene_file_rules(capsys):
    code, record, err = run_json(capsys, ["grasp", "--scene", ENVELOPING, "--theta", "95"])
    assert code == EXIT_INVALID
    assert record is None
    assert "--theta: must be <= 90, got 95" in err
    code, _, err = run_json(capsys, ["grasp", "--scene", ENVELOPING, "--theta", "-1", "--mu", "-0.5"])
    assert code == EXIT_INVALID
    assert "--theta: must be >= 0, got -1" in err and "--mu: must be >= 0, got -0.5" in err


def test_grasp_rejects_wrong_scene_kind(capsys):
    code, _, err = run_json(capsys, ["grasp", "--scene", STACKED])
    assert code == EXIT_INVALID
    assert "scene kind is 'stacked'" in err


def test_pullout_grid_override(capsys):
    code, record, _ = run_json(capsys, ["pullout", "--scene", PULLOUT, "--grid", "10"])
    assert code == EXIT_OK
    lifts = record["outputs"]["trace"]["lift"]
    assert lifts[1] - lifts[0] == pytest.approx(10.0)
    assert record["outputs"]["capacity"] == pytest.approx(3.0, abs=1e-9)
    code, _, err = run_json(capsys, ["pullout", "--scene", PULLOUT, "--grid", "0"])
    assert code == EXIT_INVALID
    assert "--grid" in err


def test_pullout_short_probe_is_invalid(capsys, tmp_path):
    scene = tmp_path / "short_probe.yaml"
    scene.write_text(
        "kind: pullout\nmaterial: tpu95a\ntheta: 30.0\nobject:\n  shape: cube\n  size: [40.0]\n"
    )
    code, record, err = run_json(capsys, ["pullout", "--scene", str(scene)])
    assert code == EXIT_INVALID
    assert record is None
    assert "origrip:" in err and "object: probe span [0, 40] mm does not cover" in err



def test_pullout_probe_below_the_modules_names_the_uncovered_level(capsys, tmp_path):
    # wholly below the bottom face, so the default lift grid is empty
    scene = tmp_path / "low_probe.yaml"
    scene.write_text(
        "kind: pullout\nmaterial: tpu95a\ntheta: 30.0\n"
        "object:\n  shape: curved_block\n  size: [45.5, 67.0, 10.0]\n  z: -100\n"
    )
    code, record, err = run_json(capsys, ["pullout", "--scene", str(scene)])
    assert code == EXIT_INVALID
    assert record is None
    assert "object: probe span [-100, -90] mm does not cover the module level at 20 mm" in err
    assert "lift_grid" not in err

@pytest.mark.parametrize(
    "size, extra, message",
    [
        # a huge probe at the default step: the length bound stops it first
        ("[1.0e+9]", [], "object.size[0]: must be <= 10000, got 1e+09"),
        ("[100.0]", ["--grid", "1e-6"], "lift_step: lift grid of"),  # a tiny step
    ],
    ids=["[1.0e+9]-extra0", "[100.0]-extra1"],
)
def test_pullout_oversized_lift_grid_is_invalid(capsys, tmp_path, size, extra, message):
    scene = tmp_path / "long_grid.yaml"
    scene.write_text(
        f"kind: pullout\nmaterial: tpu95a\ntheta: 30.0\nobject:\n  shape: cube\n  size: {size}\n"
    )
    code, record, err = run_json(capsys, ["pullout", "--scene", str(scene), *extra])
    assert code == EXIT_INVALID
    assert record is None
    assert err.startswith("origrip: ") and message in err
    assert "Traceback" not in err


def _scene_with(tmp_path, scene, dotted, literal):
    data = yaml.safe_load(Path(scene).read_text())
    *parents, leaf = dotted.split(".")
    node = data
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = "@VALUE@"
    path = tmp_path / "scene.yaml"
    path.write_text(yaml.safe_dump(data).replace("'@VALUE@'", literal))
    return str(path)


@pytest.mark.parametrize(
    "command, scene, where, value",
    [
        ("grasp", ENVELOPING, "mu", ".nan"),
        ("grasp", ENVELOPING, "mu", ".inf"),
        ("grasp", ENVELOPING, "theta", ".nan"),
        ("grasp", ENVELOPING, "object.mass", ".inf"),
        ("grasp", ENVELOPING, "object.size", "[.nan, 67.0, 80.0]"),
        ("pullout", PULLOUT, "mu", ".nan"),
        ("multi", STACKED, "mu", ".nan"),
        ("multi", STACKED, "top.mass", ".inf"),
        ("compare", PICKPLACE, "cycle.travel_speed", ".inf"),
        ("grasp", ENVELOPING, "--mu", "nan"),
        ("grasp", ENVELOPING, "--mu", "inf"),
        ("pullout", PULLOUT, "--grid", "nan"),
        ("pullout", PULLOUT, "--grid", "inf"),
    ],
)
def test_non_finite_numbers_are_invalid(capsys, tmp_path, command, scene, where, value):
    if where.startswith("--"):
        argv = [command, "--scene", scene, where, value]
        expected = f"{where}: must be finite"
    else:
        argv = [command, "--scene", _scene_with(tmp_path, scene, where, value)]
        expected = "must be finite"
    code, record, err = run_json(capsys, argv)
    assert code == EXIT_INVALID
    assert record is None
    assert err.startswith("origrip:") and expected in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, scene, where, value, message",
    [
        pytest.param("grasp", PARALLEL, "object.size", "[63, 1.0e+300, 100]",
                     "object.size[1]: must be <= 10000, got 1e+300", id="grasp-size"),
        pytest.param("pullout", PULLOUT, "object.size", "[1.0e+300, 67, 80]",
                     "object.size[0]: must be <= 10000, got 1e+300", id="pullout-size"),
        pytest.param("compare", PICKPLACE, "cycle.descend_speed", "1.0e-307",
                     "cycle.descend_speed: must be >= 0.001, got 1e-307", id="compare-speed"),
        # a vanishing module depth or lever arm made the contact forces infinite
        pytest.param("grasp", PARALLEL, "gripper.rest_depth", "1.0e-307",
                     "gripper.rest_depth: must be >= 0.001, got 1e-307", id="grasp-rest-depth"),
        pytest.param("pullout", PULLOUT, "gripper.bend_lever_arm", "1.0e-307",
                     "gripper.bend_lever_arm: must be >= 0.001, got 1e-307", id="pullout-lever-arm"),
    ],
)
def test_lengths_and_speeds_outside_physical_bounds_are_invalid(capsys, tmp_path, command, scene, where, value,
                                                                message):
    code, record, err = run_json(capsys, [command, "--scene", _scene_with(tmp_path, scene, where, value)])
    assert code == EXIT_INVALID
    assert record is None
    assert err.startswith("origrip:") and message in err
    assert "Traceback" not in err


PULLOUT_PARALLEL = str(demo_scene_path("pullout_parallel"))
HEAVY_MATERIAL = "{heavy: {plateau_force: 1.0e+300, plateau_torque: 1.0e+300, overload_stiffness: 1.0e+308}}"
STIFF_MATERIAL = "{tpu95a: {plateau_force: 4.75, plateau_torque: 39.0, overload_stiffness: 1.0e+308}}"


@pytest.mark.parametrize(
    "command, scene, changes, message",
    [
        # each of these ended in a JSON overflow or a LinAlgError traceback
        pytest.param("compare", PICKPLACE, {"cycle.grasp_dwell": "1.7e+308"},
                     "cycle.grasp_dwell: must be <= 3600, got 1.7e+308", id="compare-dwell"),
        pytest.param("grasp", PARALLEL, {"materials": HEAVY_MATERIAL, "material": "heavy", "theta": "80"},
                     "materials.heavy.plateau_force: must be <= 10000, got 1e+300", id="grasp-material"),
        pytest.param("grasp", PARALLEL, {"materials": STIFF_MATERIAL, "theta": "80"},
                     "materials.tpu95a.overload_stiffness: must be <= 1e+07, got 1e+308", id="grasp-overload"),
        pytest.param("grasp", PARALLEL, {"mu": "1.0e+308"}, "mu: must be <= 10, got 1e+308", id="grasp-mu"),
        pytest.param("pullout", PULLOUT_PARALLEL, {"mu": "1.0e+308"}, "mu: must be <= 10, got 1e+308",
                     id="pullout-mu"),
        pytest.param("grasp", ENVELOPING, {"torque_scale": "1.0e+308"},
                     "torque_scale: must be <= 1e+06, got 1e+308", id="grasp-torque-scale"),
        pytest.param("pullout", PULLOUT, {"torque_scale": "1.0e+308"},
                     "torque_scale: must be <= 1e+06, got 1e+308", id="pullout-torque-scale"),
        # an integer past the float range ended in an OverflowError traceback
        pytest.param("grasp", PARALLEL, {"mu": "1" + "0" * 400}, "mu: must be finite, got inf",
                     id="grasp-huge-integer"),
        pytest.param("compare", PICKPLACE, {"cycle.pick": "[0, -1" + "0" * 400 + "]"},
                     "cycle.pick[1]: must be finite, got -inf", id="compare-huge-integer"),
    ],
)
def test_forces_friction_and_dwells_above_physical_bounds_are_invalid(capsys, tmp_path, command, scene, changes,
                                                                      message):
    for where, literal in changes.items():
        scene = _scene_with(tmp_path, scene, where, literal)
    code, record, err = run_json(capsys, [command, "--scene", scene])
    assert code == EXIT_INVALID
    assert record is None
    assert err.startswith("origrip:") and message in err
    assert "Traceback" not in err


def test_a_seeded_plateau_drawn_past_its_bound_is_invalid(capsys, tmp_path):
    scene = tmp_path / "heavy.yaml"
    scene.write_text(
        "kind: single_grasp\nmaterial: big\ntheta: 30.0\nobject: {shape: cuboid, size: [63.0, 45.4, 100.0]}\n"
        "materials:\n  big: {plateau_force: 9999.0, force_band: 0.2, plateau_torque: 39.0}\n"
    )
    code, record, err = run_json(capsys, ["grasp", "--scene", str(scene), "--seed", "1"])
    assert code == EXIT_INVALID
    assert record is None
    assert "--seed: material 'big' drawn with seed 1: plateau_force must be <= 10000, got 10046.3" in err
    assert run_json(capsys, ["grasp", "--scene", str(scene), "--seed", "2"])[0] == EXIT_OK


def test_multi_command(capsys):
    code, record, _ = run_json(capsys, ["multi", "--scene", STACKED])
    assert code == EXIT_OK
    assert record["outputs"]["plan"]["theta_grasp"] == pytest.approx(57.6, abs=1e-9)
    held = [(s["top_held"], s["bottom_held"]) for s in record["outputs"]["stages"]]
    assert held == [(True, True), (True, False), (False, False)]


def test_multi_infeasible_scene(capsys, tmp_path):
    scene = tmp_path / "upside_down.yaml"
    scene.write_text(
        "kind: stacked\n"
        "material: sil950\n"
        "top:\n  shape: sphere\n  size: [50.0]\n  mass: 0.05\n"
        "bottom:\n  shape: sphere\n  size: [60.0]\n  mass: 0.05\n"
    )
    code, record, _ = run_json(capsys, ["multi", "--scene", str(scene)])
    assert code == EXIT_INFEASIBLE
    assert record["infeasible"] is True
    assert record["reason"] == "size_order"
    assert record["outputs"] == {}
    assert "message" in record


def test_compare_command(capsys):
    code, record, _ = run_json(capsys, ["compare", "--scene", PICKPLACE])
    assert code == EXIT_OK
    assert record["outputs"]["distance_reduction"] == pytest.approx(0.33, abs=1e-12)
    assert record["outputs"]["time_reduction"] == pytest.approx(0.31, abs=1e-12)


@pytest.mark.parametrize(
    "key, body", [("gripper", {"finger_count": 3, "bogus": "x"}), ("materials", "not a mapping")]
)
def test_a_pickplace_scene_with_a_grasping_section_is_invalid(capsys, tmp_path, key, body):
    path = tmp_path / "scene.yaml"
    path.write_text(yaml.safe_dump({**yaml.safe_load(Path(PICKPLACE).read_text()), key: body}))
    code, record, err = run_json(capsys, ["compare", "--scene", str(path)])
    assert code == EXIT_INVALID
    assert record is None
    assert err.startswith("origrip:") and f"{key}: unknown key" in err
    assert "Traceback" not in err


def test_sweep_range_values(capsys):
    code, record, _ = run_json(
        capsys, ["sweep", "--scene", ENVELOPING, "--axis", "theta", "--values", "30:60:15"]
    )
    assert code == EXIT_OK
    assert record["axis"] == "theta"
    assert [row["theta"] for row in record["outputs"]] == [30.0, 45.0, 60.0]


def _float_run_starts(rows: list[dict]) -> list[str]:
    """The bits of each float cell of a table, row by row in key order, that
    does not repeat the cell above it: an equal float of the same sign."""
    starts = []
    for above, row in zip([{}, *rows], rows):
        for key in sorted(row):
            value, last = row[key], above.get(key)
            same = type(last) is float and last == value and math.copysign(1.0, last) == math.copysign(1.0, value)
            if type(value) is float and not same:
                starts.append(value.hex())
    return starts


@pytest.mark.parametrize("scene", [PARALLEL, ENVELOPING])
def test_a_bundled_grasp_and_theta_sweep_run_no_svd_and_write_a_column_run_once(monkeypatch, capsys, scene):
    # the scan's triple determinants prove every set solid, and a table writes a run of equal cells once
    svd_calls, written = [], []
    svd, write = np.linalg.svd, scenario._SCALAR_TEXT[float]
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: svd_calls.append(args) or svd(*args, **kwargs))
    monkeypatch.setitem(scenario._SCALAR_TEXT, float, lambda value: written.append(value.hex()) or write(value))
    code, record, _ = run_json(capsys, ["grasp", "--scene", scene])
    assert code == EXIT_OK and record["outputs"]["force_closure"]
    written.clear()
    code, record, _ = run_json(capsys, ["sweep", "--scene", scene, "--axis", "theta", "--values", "10:60:2.5"])
    assert code == EXIT_OK and len(record["outputs"]) == 21
    assert svd_calls == []
    assert written == _float_run_starts(record["outputs"])
    assert len(written) < sum(type(value) is float for row in record["outputs"] for value in row.values())


def test_sweep_ranges_step_from_the_start_and_stop_at_the_end(capsys):
    # adding the step 300 times ends at 90.000000000001, past the law's theta_max of 90
    argv = ["sweep", "--scene", PARALLEL, "--axis", "theta", "--values"]
    code, record, err = run_json(capsys, argv + ["30:90:0.2"])
    assert code == EXIT_OK, err
    thetas = [row["theta"] for row in record["outputs"]]
    assert len(thetas) == 301 and thetas[-1] == 90.0
    code, record, err = run_json(capsys, argv + ["30:90:0.3"])
    assert code == EXIT_OK, err
    thetas = [row["theta"] for row in record["outputs"]]
    assert thetas == [round(30.0 + 0.3 * k, 12) for k in range(201)]
    assert 85.8 in thetas and thetas[-1] == 90.0
    code, record, err = run_json(capsys, argv + ["45:45:1e-12"])  # lo == hi is one point, however small the step
    assert code == EXIT_OK, err
    assert [row["theta"] for row in record["outputs"]] == [45.0]


def test_a_sweep_list_that_starts_below_zero_is_written_with_an_equals_sign(capsys):
    argv = ["sweep", "--scene", ENVELOPING, "--axis", "object.z"]
    code, record, err = run_json(capsys, argv + ["--values=-10,0"])
    assert code == EXIT_OK, err
    assert [row["object.z"] for row in record["outputs"]] == [-10.0, 0.0]
    for spaced in ("-10,0", "-10:0:5"):  # argparse reads the separate token as an option
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["--values", spaced])
        err = capsys.readouterr().err
        assert exc_info.value.code == EXIT_INVALID
        assert "argument --values: expected one argument" in err and "Traceback" not in err


def test_sweep_comma_values_csv(capsys):
    code = main(
        [
            "sweep",
            "--scene",
            ENVELOPING,
            "--axis",
            "theta",
            "--values",
            "40,60",
            "--format",
            "csv",
        ]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("theta,")
    assert len(lines) == 3


def test_sweep_bad_values(capsys):
    for bad in ("abc", "10:5:1", "1:10:0", "1:10"):
        code, _, err = run_json(
            capsys, ["sweep", "--scene", ENVELOPING, "--axis", "theta", "--values", bad]
        )
        assert code == EXIT_INVALID, bad
        assert "--values" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("0:inf:1", "expected 'a,b,c' or finite 'lo:hi:step'"),
        ("1e20:2e20:1", "'1e20:2e20:1' spans 1e+20 points, more than 10000"),  # 1 never moves 1e20
        ("0:90:1e-6", "'0:90:1e-6' spans 9e+07 points, more than 10000"),
        ("0:90:0.009", "'0:90:0.009' spans 10001 points, more than 10000"),  # read 1e+04 with 3 digits
        ("0:1e308:1e-300", "'0:1e308:1e-300' spans inf points, more than 10000"),  # no whole count of inf
    ],
    ids=["endless", "step-too-small-to-move", "too-many-points", "one-point-too-many", "overflowing-span"],
)
def test_sweep_ranges_without_end_are_invalid(capsys, spec, message):
    code, record, err = run_json(capsys, ["sweep", "--scene", ENVELOPING, "--axis", "theta", "--values", spec])
    assert code == EXIT_INVALID
    assert record is None
    assert err.startswith("origrip:") and f"--values: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ["0:90:0.00900045", "0:89.9955:0.009"])
def test_a_sweep_range_of_exactly_the_cap_runs(capsys, spec):
    # each spans 10000.5 steps, so it builds 10000 values: the cap is on the values built
    code, record, err = run_json(capsys, ["sweep", "--scene", ENVELOPING, "--axis", "theta", "--values", spec])
    assert code == EXIT_OK and err == ""
    thetas = [row["theta"] for row in record["outputs"]]
    lo, hi, step = map(float, spec.split(":"))
    assert len(thetas) == 10_000 and thetas[0] == lo and hi - step < thetas[-1] <= hi


def test_sweep_value_lists_are_capped_like_ranges(capsys):
    scene = demo_scene_path("pickplace_comparison")
    argv = ["sweep", "--scene", str(scene), "--axis", "cycle.travel_speed", "--values"]
    code, record, err = run_json(capsys, argv + [",".join(["12"] * 10_001)])
    assert code == EXIT_INVALID
    assert record is None
    assert err.startswith("origrip:") and "--values: a list of 10001 points, more than 10000" in err
    code, record, _ = run_json(capsys, argv + [",".join(["12"] * 3)])
    assert code == EXIT_OK and len(record["outputs"]) == 3


def test_sweep_bad_axis(capsys):
    code, _, err = run_json(
        capsys, ["sweep", "--scene", ENVELOPING, "--axis", "object.flavor", "--values", "1,2"]
    )
    assert code == EXIT_INVALID
    assert "no such field" in err


def test_output_to_file(capsys, tmp_path):
    out_file = tmp_path / "result.json"
    code = main(["grasp", "--scene", ENVELOPING, "--out", str(out_file)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    record = json.loads(out_file.read_text())
    assert record["outputs"]["pullout_capacity"] == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("target", ["missing/result.json", "."])
def test_unwritable_output_is_invalid(capsys, tmp_path, target):
    out = str(tmp_path / target)
    code, record, err = run_json(capsys, ["kinematics", "--theta", "30", "--out", out])
    assert code == EXIT_INVALID and record is None
    assert err.startswith(f"origrip: --out: cannot write {out!r}: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("fmt, data, error", [
    ("json", {"outputs": {"trace": [0.5, float("nan")]}}, ValueError),
    ("csv", "not a table", TypeError),
])
def test_output_file_is_written_only_once_rendered(tmp_path, fmt, data, error):
    out_file = tmp_path / "result.out"
    out_file.write_text("previous result\n")
    with pytest.raises(error):
        cli._emit(data, argparse.Namespace(out=str(out_file), format=fmt))
    assert out_file.read_text() == "previous result\n"


def call(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_cached_parser_answers_every_call_as_a_fresh_one(capsys):
    sequence = [
        ["grasp", "--theta", "30"],  # usage error: no --scene
        ["--version"],
        ["grasp", "--scene", ENVELOPING, "--theta", "30"],
        ["grasp", "--scene", ENVELOPING],
    ]
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(call(capsys, argv))
    parser = cli.build_parser()
    assert [call(capsys, argv) for argv in sequence] == fresh
    assert cli.build_parser() is parser
    assert [code for code, _, _ in fresh] == [2, 0, EXIT_OK, EXIT_OK]
    assert "the following arguments are required: --scene" in fresh[0][2]
    assert json.loads(fresh[2][1])["outputs"] != json.loads(fresh[3][1])["outputs"]


ARGV_TABLE = [
    # every command with typical flags
    ["kinematics", "--theta", "30"],
    ["kinematics", "--opening", "53", "--format", "csv", "--out", "k.csv"],
    ["material-curve", "--material", "sil950", "--mode", "bending", "--samples", "7", "--seed", "3"],
    ["grasp", "--scene", PARALLEL, "--theta", "30", "--mu", "0.4", "--material", "tpu95a", "--seed", "7"],
    ["pullout", "--scene", PULLOUT, "--grid", "2.5", "--format", "csv"],
    ["multi", "--scene", STACKED], ["compare", "--scene", PICKPLACE, "--out", "-"],
    ["sweep", "--scene", PARALLEL, "--axis", "theta", "--values", "30:60:10", "--seed", "1"],
    ["scenes"], ["scenes", "--format", "csv"],
    # --opt=value, abbreviations, negative numbers, repeats, "--"
    ["grasp", f"--scene={PARALLEL}", "--theta=-5", "--mu=0"],
    ["sweep", "--sc", PARALLEL, "--ax", "mu", "--val", "0.1,0.2", "--form", "csv"],
    ["kinematics", "--th", "-1e3"], ["pullout", "--theta", "1", "--theta", "2", "--scene", PULLOUT],
    ["grasp", "--scene", PARALLEL, "--", "x"], ["grasp", "--", "--scene", PARALLEL],
    # help and version after a command
    ["grasp", "-h"], ["sweep", "--help"], ["kinematics", "--he"], ["grasp", "--version"],
    ["scenes", "--version", "-h"],
    # unknown options and arguments, a missing required option, bad values and choices
    ["grasp", "--scene", PARALLEL, "--bogus"], ["multi", "--scene", STACKED, "extra", "--also", "-x"],
    ["grasp"], ["sweep", "--scene", PARALLEL, "--axis", "theta"], ["kinematics"],
    ["kinematics", "--theta", "1", "--opening", "2"], ["kinematics", "--theta", "abc"],
    ["grasp", "--scene", PARALLEL, "--format", "xml"], ["material-curve", "--material", "sil950", "--mode", "twist"],
    ["grasp", "--scene"], ["grasp", "--s", PARALLEL], ["grasp", "--scene", PARALLEL, "--=1"],
    # no command, or not a known one
    [], ["--version"], ["-h"], ["grap"], ["Grasp", "--scene", PARALLEL], ["--version", "grasp"],
    ["--bogus", "grasp"], ["-", "grasp"],
]


def _parsed(capsys, parse, argv):
    try:
        namespace, code = parse(argv), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return type(namespace), vars(namespace) if namespace else None, code, captured.out, captured.err


def _argv_id(argv):
    return " ".join(argv).replace(str(Path(PARALLEL).parent) + os.sep, "") or "(none)"


@pytest.mark.parametrize("argv", ARGV_TABLE, ids=_argv_id)
def test_a_command_line_parses_as_the_top_level_parser_parses_it(capsys, argv):
    expected = _parsed(capsys, cli.build_parser().parse_args, argv)
    assert _parsed(capsys, cli._parse_args, argv) == expected


def test_a_known_command_never_reaches_the_top_level_parser(capsys):
    parser = cli.build_parser()
    commands = ("kinematics", "material-curve", "grasp", "pullout", "multi", "compare", "sweep", "scenes")
    # a "--=" token goes to the top-level parser, which calls it ambiguous before the command sees it
    known = [argv for argv in ARGV_TABLE if argv and argv[0] in commands and "--=1" not in argv]
    refuse = mock.Mock(side_effect=AssertionError("the top-level parser read the command line"))
    with mock.patch.object(parser, "parse_args", refuse), mock.patch.object(parser, "parse_known_args", refuse):
        for argv in known:
            try:
                cli._parse_args(argv)
            except SystemExit:
                pass
    capsys.readouterr()
    assert refuse.call_count == 0
    assert len(known) > 30


def test_malformed_yaml_is_reported_with_its_source_line(capsys, tmp_path):
    scene = tmp_path / "bad.yaml"
    scene.write_text("kind: single_grasp\ntheta: [1, 2\nmaterial: tpu95a\n")
    code, record, err = run_json(capsys, ["grasp", "--scene", str(scene)])
    assert code == EXIT_INVALID and record is None
    assert "not valid YAML: while parsing a flow sequence" in err
    assert "\n    theta: [1, 2\n           ^\n" in err


TAGGED_THETAS = ["!!int 1.5", "!!float abc", "!!bool maybe", "!!timestamp xyz", '!!int ""']


@pytest.mark.parametrize("theta", TAGGED_THETAS)
def test_a_tag_that_cannot_read_its_value_is_invalid_yaml(capsys, tmp_path, theta):
    scene = tmp_path / "tagged.yaml"
    scene.write_text(Path(PARALLEL).read_text().replace("theta: 30.0", f"theta: {theta}"))
    code, record, err = run_json(capsys, ["grasp", "--scene", str(scene)])
    assert code == EXIT_INVALID and record is None
    assert f"{scene}: not valid YAML: cannot read " in err
    assert f"\n    theta: {theta}\n           ^\n" in err  # marked at the value, with its source line
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["!!float abc", "!!int 1.5"])
def test_a_tag_that_cannot_read_its_value_fails_the_materials_file(capsys, monkeypatch, tmp_path, value):
    env_file = tmp_path / "materials.yaml"
    env_file.write_text(f"foam: {{plateau_force: {value}, plateau_torque: 20.0}}\n")
    monkeypatch.setenv(MATERIALS_ENV_VAR, str(env_file))
    code, record, err = run_json(capsys, ["material-curve", "--material", "tpu95a"])
    assert code == EXIT_INVALID and record is None
    assert f"materials: cannot read ORIGRIP_MATERIALS file {str(env_file)!r}: cannot read " in err


@pytest.mark.parametrize(
    "argv",
    [
        ["grasp"],
        ["sweep", "--axis", "theta", "--values", "30,40"],
        ["multi"],
        ["material-curve", "--material", "tpu95a"],
    ],
    ids=["grasp", "sweep", "multi", "materials_file"],
)
def test_files_that_are_not_utf8_are_invalid(capsys, monkeypatch, tmp_path, argv):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"\xff\xfe\x00k")
    if argv[0] == "material-curve":
        monkeypatch.setenv(MATERIALS_ENV_VAR, str(bad))
    else:
        argv = [argv[0], "--scene", str(bad), *argv[1:]]
    code, record, err = run_json(capsys, argv)
    assert code == EXIT_INVALID and record is None
    assert str(bad) in err and "'utf-8' codec can't decode byte 0xff in position 0" in err


def test_scenes_listing(capsys):
    code, record, _ = run_json(capsys, ["scenes"])
    assert code == EXIT_OK
    names = [row["name"] for row in record["outputs"]]
    assert len(names) == 9
    assert "stacked_spheres" in names and names == sorted(names)


def test_missing_scene_file(capsys, tmp_path):
    code, _, err = run_json(capsys, ["grasp", "--scene", str(tmp_path / "nope.yaml")])
    assert code == EXIT_INVALID
    assert "cannot read file" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("origrip ")


@pytest.mark.parametrize("nest", ["[" * 50_000 + "]" * 50_000, "- " * 50_000 + "x"], ids=["flow", "block"])
def test_a_scene_nested_50000_levels_deep_is_invalid_yaml(tmp_path, nest):
    # libyaml's composer recurses in C per level and would overrun the C stack (a segfault, exit 139)
    scene = tmp_path / "deep.yaml"
    scene.write_text(f"kind: {nest}\n" if nest[0] == "[" else f"{nest}\n")
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "origrip.cli", "grasp", "--scene", str(scene)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (EXIT_INVALID, "")
    assert proc.stderr == f"origrip: invalid scenario (1 problem(s)):\n  - {scene}: not valid YAML: " \
                          "collections nested too deeply to read\n"


def test_a_stacked_pose_past_its_range_names_the_scene_file(capsys, tmp_path):
    scene = tmp_path / "too_tall.yaml"
    scene.write_text(
        "kind: stacked\nmaterial: sil950\nclearance: 9000\n"
        "top: {shape: sphere, size: [9000]}\nbottom: {shape: sphere, size: [8000]}\n"
    )
    code, record, err = run_json(capsys, ["multi", "--scene", str(scene)])
    assert code == EXIT_INVALID and record is None
    assert err == f"origrip: invalid scenario (1 problem(s)):\n  - {scene}: z must be <= 10000, got 17000\n"
