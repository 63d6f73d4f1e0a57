import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import origrip
import origrip.cli
from origrip.demo import demo_scene_path

SRC = Path(__file__).resolve().parents[1] / "src"


def _tracer_tables() -> dict[str, dict]:
    """``SPANNED`` and ``COUNTED`` of ``perfbench/tracing.py``, read without
    importing it: span or count name -> where the tracer finds its functions."""
    tree = ast.parse((SRC.parent / "perfbench" / "tracing.py").read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("SPANNED", "COUNTED")
    }


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


def test_every_function_the_benchmark_tracer_wraps_exists():
    # perfbench/tracing.py looks these names up with getattr and no default,
    # so a rename here breaks `perfbench/run.py --trace 1`; the file is only read
    tables = _tracer_tables()
    named = [(module, func) for module, funcs in tables["SPANNED"].values() for func in funcs]
    named += list(tables["COUNTED"].values())
    assert len(named) > len(tables["SPANNED"])
    for module, func in named:
        assert callable(getattr(importlib.import_module(f"origrip.{module}"), func, None)), f"{module}.{func}"


_SCENE_SPANS = {"main", "build_parser", "load_scenario", "parse_scenario", "run_scenario"}

# one command line of each command, and the front-end functions it must enter
FRONT_END = [
    (["kinematics", "--theta", "30"], {"main", "build_parser", "write_json"}),
    (["material-curve", "--material", "tpu95a", "--format", "csv"], {"main", "build_parser", "write_csv"}),
    (["scenes"], {"main", "build_parser", "write_json"}),
    (["grasp", "--scene", "grasp_parallel"], _SCENE_SPANS | {"write_json"}),
    (["pullout", "--scene", "pullout_parallel", "--format", "csv"], _SCENE_SPANS | {"write_csv"}),
    (["multi", "--scene", "stacked_spheres"], _SCENE_SPANS | {"write_json"}),
    (["compare", "--scene", "pickplace_comparison"], _SCENE_SPANS | {"write_json"}),
    (["sweep", "--scene", "grasp_parallel", "--axis", "mu", "--values", "0.4,0.6"],
     _SCENE_SPANS | {"run_sweep", "scenario_to_dict", "write_json"}),
]


def _counting(name, fn, entered: set):
    def wrapper(*args, **kwargs):
        entered.add(name)
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("argv, expected", FRONT_END, ids=[argv[0] for argv, _ in FRONT_END])
def test_the_benchmark_tracer_sees_each_command_enter_the_front_end(monkeypatch, argv, expected):
    # the tracer swaps each cli and scenario function it spans for a wrapper
    # wherever a module binds it by name; a call through any other reference,
    # such as a table that holds the function itself, escapes it
    entered = set()
    modules = [m for name, m in sys.modules.items() if name == "origrip" or name.startswith("origrip.")]
    for module, funcs in _tracer_tables()["SPANNED"].values():
        if module not in ("cli", "scenario"):
            continue
        for func in funcs:
            original = getattr(importlib.import_module(f"origrip.{module}"), func)
            wrapper = _counting(func, original, entered)
            for namespace in modules:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        monkeypatch.setattr(namespace, attr, wrapper)
    if "--scene" in argv:
        at = argv.index("--scene") + 1
        argv = [*argv[:at], str(demo_scene_path(argv[at])), *argv[at + 1:]]
    assert origrip.cli.main(argv) == 0
    assert expected - entered == set()


def test_no_module_imports_inside_a_function():
    # every import sits at module level, where a reader sees what a module depends on
    nested = []
    for path in sorted((SRC / "origrip").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested += [
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert nested == []


def test_sources_parse_as_the_declared_python_floor():
    # syntax only: ast's feature_version rejects newer grammar (such as
    # `except*` or PEP 695 type parameters), not newer library names
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    assert floor, "pyproject.toml states no requires-python floor"
    version = tuple(map(int, floor.groups()))
    sources = sorted((SRC / "origrip").glob("*.py")) + sorted((SRC.parent / "scripts").glob("*.py"))
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)
