"""Byte-level golden outputs: the demo suite, one CLI sweep per scene kind
and a few more, one record of every other command (JSON, and the flat
``field,value`` CSV whose row order follows the record's key order), and
``grasp`` records of four-finger scenes written from the dicts below.

The manifest ``golden_manifest.json`` maps each output file to the sha256
of its bytes.  Refactors must leave every hash unchanged.  A deliberate
output change first shows what moved, value by value, then regenerates the
manifest, and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --dump OLD    # before the change
    PYTHONPATH=src python tests/test_golden.py --dump NEW    # after it
    PYTHONPATH=src python tests/test_golden.py --diff OLD NEW
    PYTHONPATH=src python tests/test_golden.py --write

The demo suite never serialises a scene, so the sweeps on axes other than
``theta`` (which round-trip the scene through ``scenario_to_dict`` for
every point) are what pin the serialise direction.
"""

import csv
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

from origrip.cli import EXIT_INFEASIBLE, EXIT_OK, main
from origrip.demo import demo_scene_path, run_demo_suite
from origrip.scenario import make_result_record, parse_scenario, run_scenario, write_json

MANIFEST = Path(__file__).with_name("golden_manifest.json")

# four-finger grasps: no bundled scene pins contact records off bearing 0
GRASPS = {
    "grasp_sphere_four_fingers.json": {
        "kind": "single_grasp",
        "name": "sphere_four_fingers",
        "gripper": {"finger_count": 4, "module_levels": [15.0, 35.0]},
        "material": "tpu95a",
        "mu": 0.3,
        "theta": 45.0,
        "object": {"shape": "sphere", "size": [60.0], "mass": 0.05},
    },
    "grasp_yawed_cuboid_four_fingers.json": {
        "kind": "single_grasp",
        "name": "yawed_cuboid_four_fingers",
        "gripper": {"finger_count": 4},
        "material": "sil950",
        "mu": 0.4,
        "theta": 40.0,
        "object": {"shape": "cuboid", "size": [50.0, 40.0, 80.0], "yaw": 30.0, "mass": 0.05},
    },
}

SWEEPS = {
    "sweep_grasp_enveloping_theta.json": ("grasp_enveloping", "theta", "30:60:10"),
    "sweep_pullout_parallel_lift_step.json": ("pullout_parallel", "lift_step", "0.5,1,2.5"),
    "sweep_stacked_spheres_mu.json": ("stacked_spheres", "mu", "0.5,0.65,0.8"),
    "sweep_pickplace_comparison_travel_speed.json": (
        "pickplace_comparison",
        "cycle.travel_speed",
        "10,12.696841112682696,50",
    ),
    "sweep_grasp_parallel_object_yaw.json": ("grasp_parallel", "object.yaw", "0,20,40"),
    "sweep_grasp_parallel_gripper_law_r0.json": ("grasp_parallel", "gripper.law.r0", "48,51,54"),
    "sweep_pullout_enveloping_plateau_torque.json": (
        "pullout_enveloping",
        "materials.tpu95a.plateau_torque",
        "20,39,60",
    ),
    # both theta sweeps cross first touch: rows of no contact, the force ramp and the plateau
    "sweep_grasp_parallel_theta.json": ("grasp_parallel", "theta", "10:40:2.5"),
    "sweep_sphere_four_fingers_theta.json": (GRASPS["grasp_sphere_four_fingers.json"], "theta", "25:70:2.5"),
}

# a stacked pair whose bottom object is the wider one: no plan, exit 1
UPSIDE_DOWN = {
    "kind": "stacked",
    "name": "upside_down",
    "material": "sil950",
    "top": {"shape": "sphere", "size": [50.0], "mass": 0.05},
    "bottom": {"shape": "sphere", "size": [60.0], "mass": 0.05},
}

# file name: (argv, scene or None for a command that reads none, exit code)
COMMANDS = {
    "kinematics_theta_30.json": (["kinematics", "--theta", "30"], None, EXIT_OK),
    "kinematics_theta_30.csv": (["kinematics", "--theta", "30", "--format", "csv"], None, EXIT_OK),
    "material_curve_sil950_bending_seed_3.json": (
        ["material-curve", "--material", "sil950", "--mode", "bending", "--seed", "3"], None, EXIT_OK
    ),
    "scenes.json": (["scenes"], None, EXIT_OK),
    "grasp_parallel.csv": (["grasp", "--format", "csv"], "grasp_parallel", EXIT_OK),
    "multi_stacked_spheres.csv": (["multi", "--format", "csv"], "stacked_spheres", EXIT_OK),
    "compare_pickplace_comparison.csv": (["compare", "--format", "csv"], "pickplace_comparison", EXIT_OK),
    "multi_upside_down.json": (["multi"], UPSIDE_DOWN, EXIT_INFEASIBLE),
    "multi_upside_down.csv": (["multi", "--format", "csv"], UPSIDE_DOWN, EXIT_INFEASIBLE),
}


def write_golden(out_dir: Path) -> dict[str, Path]:
    """Write every golden output under ``out_dir``; map manifest names to paths."""
    demo_dir = out_dir / "demo"
    manifest = run_demo_suite(demo_dir)
    files = sorted(name for names in manifest.values() for name in names) + ["index.json"]
    paths = {f"demo/{name}": demo_dir / name for name in files}
    runs = {name: (["sweep", "--axis", axis, "--values", values], scene, EXIT_OK)
            for name, (scene, axis, values) in SWEEPS.items()}
    with tempfile.TemporaryDirectory() as scene_dir:
        for filename, (argv, scene, code) in {**runs, **COMMANDS}.items():
            if isinstance(scene, dict):  # a scene of its own, written as JSON (which is YAML)
                scene_path = Path(scene_dir, filename)
                scene_path.write_text(json.dumps(scene, sort_keys=True) + "\n")
                argv = [*argv, "--scene", str(scene_path)]
            elif scene is not None:
                argv = [*argv, "--scene", str(demo_scene_path(scene))]
            path = out_dir / filename
            if main([*argv, "--out", str(path)]) != code:
                raise AssertionError(f"{filename} did not exit {code}")
            paths[filename] = path
    for filename, scene in GRASPS.items():
        scn = parse_scenario(scene)
        path = out_dir / filename
        with path.open("w") as fh:
            write_json(make_result_record("grasp", scn, run_scenario(scn)), fh)
        paths[filename] = path
    return paths


def golden_hashes(out_dir: Path) -> dict[str, str]:
    paths = write_golden(out_dir)
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}


def leaves(path: Path) -> dict[str, object]:
    """Every scalar of a JSON or CSV output, keyed by where it sits."""
    if path.suffix == ".csv":
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {f"[{n}].{key}": value for n, row in enumerate(rows) for key, value in row.items()}
    found = {}

    def walk(value, where):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{where}.{key}")
        elif isinstance(value, list):
            for n, item in enumerate(value):
                walk(item, f"{where}[{n}]")
        else:
            found[where] = value

    walk(json.loads(path.read_text()), "")
    return found


def leaf_diff(old_dir: Path, new_dir: Path) -> list[str]:
    """One line per output value that differs between two dumps."""
    lines = []
    names = sorted({p.relative_to(d).as_posix() for d in (old_dir, new_dir) for p in d.rglob("*.*")})
    for name in names:
        if not (old_dir / name).exists() or not (new_dir / name).exists():
            lines.append(f"{name}: only in {old_dir if (old_dir / name).exists() else new_dir}")
            continue
        old, new = leaves(old_dir / name), leaves(new_dir / name)
        for key in sorted(old.keys() | new.keys()):
            a, b = old.get(key), new.get(key)
            if a == b:
                continue
            change = ""
            try:
                x, y = float(a), float(b)
            except (TypeError, ValueError):
                x = y = math.nan
            if 0.0 < max(abs(x), abs(y)) < math.inf:
                change = f" (relative change {abs(y - x) / max(abs(x), abs(y)):.3g})"
            lines.append(f"{name}: {key}: {a!r} -> {b!r}{change}")
    return lines


def test_outputs_match_golden_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text())
    actual = golden_hashes(tmp_path)
    assert len(actual) == 32
    mismatched = sorted(name for name in expected if actual.get(name) != expected[name])
    assert sorted(actual) == sorted(expected)
    assert mismatched == []


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--write"]:
        with tempfile.TemporaryDirectory() as tmp:
            hashes = golden_hashes(Path(tmp))
        MANIFEST.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(hashes)} hashes to {MANIFEST}")
    elif len(args) == 2 and args[0] == "--dump":
        print(f"wrote {len(write_golden(Path(args[1])))} golden outputs under {args[1]}")
    elif len(args) == 3 and args[0] == "--diff":
        diff = leaf_diff(Path(args[1]), Path(args[2]))
        print("\n".join(diff) or "no value differs")
    else:
        sys.exit(__doc__)
