"""Bundled demonstration scenes and a one-call runner for all of them.

The package ships a set of ready-made scene files covering every scenario
kind: calibration-style pull-out probes for both grasp modes, four stacked
pairs (spheres, cubes, a sphere on a cube, and cuboids on a two-finger
gripper), and a transport-efficiency comparison.  ``run_demo_suite`` runs
each scene and writes one JSON record per scene (plus a CSV trace for the
pull-out scenes); the output bytes are deterministic, so two runs into
different directories produce identical files.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .scenario import (
    PulloutScenario,
    load_scenario,
    make_result_record,
    run_scenario,
    write_csv,
    write_json,
)


def demo_scene_dir() -> Path:
    return Path(str(resources.files("origrip") / "scenes"))


def list_demo_scenes() -> list[str]:
    return sorted(p.stem for p in demo_scene_dir().glob("*.yaml"))


def demo_scene_path(name: str) -> Path:
    path = demo_scene_dir() / f"{name}.yaml"
    if not path.exists():
        known = ", ".join(list_demo_scenes())
        raise ValueError(f"no demo scene named {name!r}; available: {known}")
    return path


def run_demo_suite(out_dir: str | Path, seed: int | None = None) -> dict[str, list[str]]:
    """Run every bundled scene, writing results under ``out_dir``.

    Returns a manifest mapping scene name to the files written for it
    (paths relative to ``out_dir``).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, list[str]] = {}
    for name in list_demo_scenes():
        path = demo_scene_path(name)
        scn, digest = load_scenario(path, with_digest=True)
        outputs = run_scenario(scn, seed=seed)
        record = make_result_record(command=scn.kind, scn=scn, outputs=outputs, digest=digest, seed=seed)
        files = []
        json_path = out_dir / f"{name}.json"
        with json_path.open("w") as fh:
            write_json(record, fh)
        files.append(json_path.name)
        if isinstance(scn, PulloutScenario):
            csv_path = out_dir / f"{name}_trace.csv"
            with csv_path.open("w") as fh:
                write_csv(record, fh)
            files.append(csv_path.name)
        manifest[name] = files
    index_path = out_dir / "index.json"
    with index_path.open("w") as fh:
        write_json(manifest, fh)
    return manifest
