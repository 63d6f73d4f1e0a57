import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_calibrate_friction_fits_the_bench_target():
    proc = run_script("calibrate_friction.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "probe contacts per side : 2\n"
        "friction slope          : 5.13643 N per unit mu\n"
        "hooking intercept       : 0.57143 N\n"
        "fitted mu               : 0.1807815360\n"
        "tpu95a   side capacity  1.5000 N   total  3.0000 N   side squeeze  5.1364 N\n"
        "sil950   side capacity  0.3654 N   total  0.7308 N   side squeeze  1.2512 N\n"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (["--target", "0.5", "--theta", "45"], "below the frictionless wrap resistance"),
        (["--theta", "0"], "probe makes no contact"),
        (["--theta", "200"], "outside guide range"),
        (["--target", "nan"], "target must be finite, got nan"),
        (["--target", "inf"], "target must be finite, got inf"),
        (["--target", "100"], "needs a friction coefficient out of range: mu must be <= 10, got 19.3575"),
    ],
)
def test_calibrate_friction_rejects_unfittable_input(args, message):
    proc = run_script("calibrate_friction.py", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("calibrate_friction.py: error: ") and message in last


def test_hold_windows_prints_one_row_per_size():
    proc = run_script("hold_windows.py", "--sizes", "40:50:5")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert rows[0].split() == ["size", "window", "lo", "window", "hi", "limiting"]
    assert [row.split()[0] for row in rows[1:]] == ["40.0", "45.0", "50.0"]


def test_hold_windows_reaches_the_top_of_the_size_range():
    # adding the step ten times drifted past 10000, the scene bound, and crashed
    proc = run_script("hold_windows.py", "--sizes", "9999:10000:0.1")
    assert proc.returncode == 0, proc.stderr
    sizes = [row.split()[0] for row in proc.stdout.splitlines()[1:]]
    assert len(sizes) == 11 and sizes[-1] == "10000.0"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--sizes", "40:70:0"], "--sizes: need finite numbers with 0 < lo <= hi and step > 0"),  # looped forever
        (["--sizes", "40:70:-5"], "step > 0"),
        (["--sizes", "70:40:5"], "lo <= hi"),
        (["--sizes", "40:inf:5"], "finite"),
        (["--sizes", "0:10:5"], "0 < lo"),
        (["--sizes", "abc"], "--sizes: expected lo:hi:step, got 'abc'"),
        (["--sizes", "40:70"], "expected lo:hi:step"),
        (["--sizes", "40:1e9:1e-3"], "more than 1000 sizes"),
        (["--sizes", "6.4:16.4:0.01"], "gives more than 1000 sizes"),  # 1001 sizes: the division leaves 999.99...
        (["--sizes", "1:2:1e-320"], "gives more than 1000 sizes"),  # a span past the float range
        (["--mass", "nan"], "--mass: must be finite, got nan"),
        (["--mu", "-0.5"], "--mu: must be >= 0, got -0.5"),
        (["--material", "adamantium"], "--material: unknown material 'adamantium'"),
        (["--mu", "1e308"], "--mu: must be <= 10, got 1e+308"),  # the scene bound on mu
        (["--sizes", "9000:20000:1000"], "--sizes: largest size must be <= 10000, got 20000"),  # a traceback
    ],
)
def test_hold_windows_rejects_bad_input(args, message):
    proc = run_script("hold_windows.py", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("hold_windows.py: error: ") and message in last


def test_compare_outcomes_names_the_first_operation_whose_outcome_differs(tmp_path):
    proc = run_script("compare_outcomes.py", str(ROOT), str(ROOT))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(" operations: identical outcomes\n")
    assert proc.stdout.startswith("demo suites with no seed and with --seed 7: ")
    # a copy whose version differs writes a different record for every command
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    version = copy / "src" / "origrip" / "_version.py"
    version.write_text('__version__ = "0.0.0-changed"\n')
    proc = run_script("compare_outcomes.py", str(ROOT), str(copy))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith("first difference: theta_sweep seed 3 op sweep/")
    assert "stdout differs for: origrip sweep --scene " in proc.stdout


def test_compare_outcomes_names_the_first_demo_file_that_differs(tmp_path):
    # a copy whose demo suite writes its index differently, every command's outcome unchanged
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    demo = copy / "src" / "origrip" / "demo.py"
    source = demo.read_text()
    assert source.count("write_json(manifest, fh)") == 1
    demo.write_text(source.replace("write_json(manifest, fh)", 'write_json({**manifest, "changed": []}, fh)'))
    proc = run_script("compare_outcomes.py", str(ROOT), str(copy))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "first difference: demo suite with no seed: index.json differs\n"


def test_edge_scan_of_one_scene_runs_every_leaf_cleanly():
    proc = run_script("edge_scan.py", "--scene", "grasp_parallel")
    assert proc.returncode == 0, proc.stdout[-2000:]
    summary = json.loads(proc.stdout)
    assert summary["failures"] == []
    # some edges are accepted and some refused; none is infeasible for a single grasp
    assert set(summary["exit_codes"]) == {"0", "2"}
    assert summary["runs"] == sum(summary["exit_codes"].values())
