import os
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
    ],
)
def test_calibrate_friction_rejects_unfittable_input(args, message):
    proc = run_script("calibrate_friction.py", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("calibrate_friction.py: error: ") and message in last
