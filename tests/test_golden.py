"""Byte-level golden outputs: the demo suite, one CLI sweep per scene kind,
and ``grasp`` records of four-finger scenes written from the dicts below.

The manifest ``golden_manifest.json`` maps each output file to the sha256
of its bytes.  Refactors must leave every hash unchanged; a deliberate
output change regenerates the manifest with

    PYTHONPATH=src python tests/test_golden.py --write

and says why in CHANGES.md.  The demo suite never serialises a scene, so
the sweeps (which round-trip the scene through ``scenario_to_dict`` for
every point) are what pin the serialise direction.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from origrip.cli import EXIT_OK, main
from origrip.demo import demo_scene_path, run_demo_suite
from origrip.scenario import make_result_record, parse_scenario, run_scenario, write_json

MANIFEST = Path(__file__).with_name("golden_manifest.json")

SWEEPS = {
    "sweep_grasp_enveloping_theta.json": ("grasp_enveloping", "theta", "30:60:10"),
    "sweep_pullout_parallel_lift_step.json": ("pullout_parallel", "lift_step", "0.5,1,2.5"),
    "sweep_stacked_spheres_mu.json": ("stacked_spheres", "mu", "0.5,0.65,0.8"),
    "sweep_pickplace_comparison_travel_speed.json": (
        "pickplace_comparison",
        "cycle.travel_speed",
        "10,12.696841112682696,50",
    ),
}

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


def golden_hashes(out_dir: Path) -> dict[str, str]:
    demo_dir = out_dir / "demo"
    manifest = run_demo_suite(demo_dir)
    files = sorted(name for names in manifest.values() for name in names) + ["index.json"]
    paths = {f"demo/{name}": demo_dir / name for name in files}
    for filename, (scene, axis, values) in SWEEPS.items():
        path = out_dir / filename
        argv = ["sweep", "--scene", str(demo_scene_path(scene)), "--axis", axis,
                "--values", values, "--out", str(path)]
        if main(argv) != EXIT_OK:
            raise AssertionError(f"sweep {filename} did not exit 0")
        paths[filename] = path
    for filename, scene in GRASPS.items():
        scn = parse_scenario(scene)
        path = out_dir / filename
        with path.open("w") as fh:
            write_json(make_result_record("grasp", scn, run_scenario(scn)), fh)
        paths[filename] = path
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}


def test_outputs_match_golden_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text())
    actual = golden_hashes(tmp_path)
    assert len(actual) == 18
    mismatched = sorted(name for name in expected if actual.get(name) != expected[name])
    assert sorted(actual) == sorted(expected)
    assert mismatched == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        hashes = golden_hashes(Path(tmp))
    MANIFEST.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {MANIFEST}")
