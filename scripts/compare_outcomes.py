#!/usr/bin/env python3
"""Compare two source trees' outcomes on the benchmark's operation pools.

Builds the seed-3 and seed-7 pools of the three benchmark workloads with
this checkout's ``perfbench/workloads.py`` and writes their scene files to
a temporary directory.  Each tree then runs every operation through its own
``origrip.cli.main``, in a subprocess whose working directory is the tree's
root and whose path holds the tree's ``src``: once as given, and once with
``--format csv`` (every command takes it) unless the operation already
gives a format.  The exit code, stdout and stderr of each run are
compared.  Each tree also writes the demo suite (``run_demo_suite``) once
with no seed and once with seed 7, and every file it writes is compared
byte for byte.  The first operation whose outcome differs is named, or,
when every operation agrees, the first demo file that differs; the script
exits 1 on any difference, 0 when every outcome and file is identical.

Usage:
    python scripts/compare_outcomes.py PARENT CHANGE
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, build_pool, write_pool  # noqa: E402

SEEDS = (3, 7)
DEMO_SEEDS = {"with no seed": None, "with --seed 7": 7}

# Runs inside each tree: reads the argv lists as JSON on stdin and writes,
# per operation, one [argv, exit code, stdout, stderr] per run to the file
# named by argv[2], then writes the demo suite into each [directory, seed]
# of the JSON list argv[3].
RUNNER = """
import contextlib, io, json, sys, traceback
from pathlib import Path

import origrip.cli as cli
from origrip.demo import run_demo_suite

src = Path(sys.argv[1]).resolve()
if src not in Path(cli.__file__).resolve().parents:
    sys.exit(f"imported origrip from {cli.__file__}, not from {src}")
outcomes = []
for argv in json.load(sys.stdin):
    outcomes.append([])
    for run in [argv] if "--format" in argv else [argv, argv + ["--format", "csv"]]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(run))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "uncaught " + traceback.format_exc().splitlines()[-1]
        outcomes[-1].append([run, code, out.getvalue(), err.getvalue()])
Path(sys.argv[2]).write_text(json.dumps(outcomes))
for out_dir, seed in json.loads(sys.argv[3]):
    run_demo_suite(out_dir, seed=seed)
"""


def start(tree: Path, ops: list, out: Path, demo: Path) -> subprocess.Popen:
    """Run ``ops`` through ``tree``'s CLI in a subprocess, writing the outcomes
    to ``out``, then the demo suite under ``demo``, one directory per seed."""
    env = {key: value for key, value in os.environ.items() if key != "ORIGRIP_MATERIALS"}
    env["PYTHONPATH"] = str(tree / "src")
    demo_runs = [[str(demo / str(seed)), seed] for seed in DEMO_SEEDS.values()]
    proc = subprocess.Popen(
        [sys.executable, "-c", RUNNER, str(tree / "src"), str(out), json.dumps(demo_runs)],
        cwd=tree, env=env, stdin=subprocess.PIPE, text=True,
    )
    proc.stdin.write(json.dumps(ops))
    proc.stdin.close()
    return proc


def first_difference(labels: list, parent: list, change: list) -> str | None:
    """Where the two trees' outcomes of the labelled operations first differ, or None."""
    for label, want_runs, got_runs in zip(labels, parent, change):
        if len(want_runs) != len(got_runs):
            return f"{label}: {len(want_runs)} runs against {len(got_runs)}"
        for (argv, *want), (_, *got) in zip(want_runs, got_runs):
            for name, before, after in zip(("exit code", "stdout", "stderr"), want, got):
                if before != after:
                    return f"{label}: {name} differs for: origrip {' '.join(argv)}"
    return None


def first_file_difference(parent: Path, change: Path) -> str | None:
    """The first file, by relative path, that the two directories do not hold with the same bytes, or None."""
    names = sorted({path.relative_to(root).as_posix() for root in (parent, change) for path in root.rglob("*")})
    for name in names:
        before, after = parent / name, change / name
        if before.is_file() != after.is_file() or (before.is_file() and before.read_bytes() != after.read_bytes()):
            return f"{name} differs"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the first tree (holding src/origrip)")
    parser.add_argument("change", type=Path, help="root of the second tree")
    args = parser.parse_args()
    trees = [path.resolve() for path in (args.parent, args.change)]
    for tree in trees:
        if not (tree / "src" / "origrip" / "cli.py").is_file():
            parser.error(f"no origrip sources under {tree / 'src'}")
    with tempfile.TemporaryDirectory(prefix="compare-outcomes-") as tmp:
        ops, labels = [], []
        for workload in WORKLOADS:
            for seed in SEEDS:
                pool = build_pool(workload, seed, f"{tmp}/{workload}-{seed}")
                write_pool(pool, Path(tmp))  # absolute scene paths, since each tree runs in its own root
                ops += [list(op.argv) for op in pool.ops]
                labels += [f"{workload} seed {seed} op {op.id}" for op in pool.ops]
        outs = [Path(tmp) / f"outcomes-{n}.json" for n in range(2)]
        demos = [Path(tmp) / f"demo-{n}" for n in range(2)]
        procs = [start(tree, ops, out, demo) for tree, out, demo in zip(trees, outs, demos)]
        for tree, proc in zip(trees, procs):
            if proc.wait() != 0:
                print(f"compare_outcomes.py: the run under {tree} failed", file=sys.stderr)
                return 2
        parent, change = (json.loads(out.read_text()) for out in outs)
        where = first_difference(labels, parent, change)
        for label, seed in DEMO_SEEDS.items():
            if where is None and (file := first_file_difference(*(demo / str(seed) for demo in demos))):
                where = f"demo suite {label}: {file}"
        files = sum(1 for path in demos[0].rglob("*") if path.is_file())
    if where is not None:
        print(f"first difference: {where}")
        return 1
    runs = sum(map(len, parent))
    print(f"demo suites {' and '.join(DEMO_SEEDS)}: {files} files, byte-identical")
    print(f"{runs} runs of {len(ops)} operations: identical outcomes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
