#!/usr/bin/env python3
"""Run every bundled scene with one numeric leaf at a time set to an edge value.

Each bundled scene is written as ``scenario_to_dict`` writes it, materials
included.  Every numeric leaf of it is set, one at a time, to each value
that ``_edge_values`` in ``tests/test_fuzz.py`` gives for that leaf: the
common edges (zero, subnormals, huge and non-finite numbers), values near
the leaf's own, and the bounds of its range and the floats just outside
them.  Each such scene is saved as YAML and run through ``origrip.cli.main``
in this process with its kind's command, every warning shown.  A run fails
when it exits 0 but writes to stderr (a numpy warning, say), exits with a
code other than 0, 1 or 2, or raises.

Prints a JSON summary (runs, seconds, runs per exit code, failures) and
exits 1 when any run failed, 0 otherwise.

Usage:
    python scripts/edge_scan.py [--scene NAME ...]
"""

import argparse
import json
import sys
import tempfile
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from test_fuzz import COMMANDS, SCENES, _edge_values, _leaves, _replaced, _run, _written  # noqa: E402


def scan(scenes: list[str], scene_file: Path) -> tuple[int, Counter, list[dict]]:
    """Run each scene of ``scenes`` with each leaf at each of its edge values,
    writing each variant to ``scene_file``: the run count, the runs per exit
    code and one record per failed run."""
    runs, codes, failures = 0, Counter(), []
    for name in scenes:
        data = _written(name)
        command = COMMANDS[data["kind"]]
        for where in _leaves(data):
            for value in _edge_values(data, where):
                scene_file.write_text(yaml.safe_dump(_replaced(data, where, value), sort_keys=True))
                try:
                    code, _, err = _run([command, "--scene", str(scene_file)])
                except Exception:
                    code, err = "raised", traceback.format_exc()
                runs += 1
                codes[str(code)] += 1
                if code not in (0, 1, 2) or (code == 0 and err):
                    leaf = ".".join(map(str, where))
                    failures.append({"scene": name, "leaf": leaf, "value": repr(value), "exit": code, "stderr": err})
    return runs, codes, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scene", action="append", choices=SCENES, help="a bundled scene to scan (default: all)")
    args = parser.parse_args()
    warnings.simplefilter("always")  # a warning repeated at one line is shown for every run, not only the first
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="edge-scan-") as tmp:
        runs, codes, failures = scan(args.scene or SCENES, Path(tmp, "scene.yaml"))
    summary = {
        "runs": runs,
        "seconds": round(time.perf_counter() - start, 1),
        "exit_codes": dict(sorted(codes.items())),
        "failures": failures,
    }
    print(json.dumps(summary, indent=2))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
