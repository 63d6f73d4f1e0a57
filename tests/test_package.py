import os
import subprocess
import sys
import types
from pathlib import Path

import origrip

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_runs_closure_without_loading_scipy():
    # closure comes from numpy alone: neither the import nor a grasp or a
    # theta sweep (which decide closure) may load any scipy module
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    probe = (
        "import contextlib, io, sys\n"
        "import origrip.cli\n"
        "from origrip.demo import demo_scene_path\n"
        "scene = str(demo_scene_path('grasp_enveloping'))\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    codes = [origrip.cli.main(['grasp', '--scene', scene]),\n"
        "             origrip.cli.main(['sweep', '--scene', scene, '--axis', 'theta', '--values', '40:60:5'])]\n"
        "print(codes, '\"closure_margin\"' in out.getvalue())\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0] True", "[]"]


def test_all_names_resolve_and_none_is_a_module():
    for name in origrip.__all__:
        assert not isinstance(getattr(origrip, name), types.ModuleType), name
    assert "is_force_closure" in origrip.__all__ and "__version__" in origrip.__all__
