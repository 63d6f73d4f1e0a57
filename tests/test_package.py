import os
import subprocess
import sys
import types
from pathlib import Path

import origrip

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_does_not_load_scipy_optimize():
    # closure is decided by a convex hull alone, so no LP solver is loaded
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    probe = "import sys, origrip.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_all_names_resolve_and_none_is_a_module():
    for name in origrip.__all__:
        assert not isinstance(getattr(origrip, name), types.ModuleType), name
    assert "is_force_closure" in origrip.__all__ and "__version__" in origrip.__all__
