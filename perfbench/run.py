"""origrip benchmark: one closed-loop client driving ``origrip.cli.main``.

Usage (from the repository root):

    python3 perfbench/run.py --workload theta_sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each operation is one in-process call of ``origrip.cli.main(argv)`` with
stdout and stderr captured in memory; the next one starts when it returns,
on a single thread.  Scene files are generated from the seed before timing
starts.  Every outcome is checked after the timed region (see check.py).

``--trace 0`` reports the end-to-end metrics: set-up time and peak memory
from fresh interpreters, then throughput, CPU per operation and latency
quantiles from ``--seconds`` of untraced calls that cycle through the
workload's operation pool, at least once through all of it.  The host is
shared and other tenants slow it down by up to 2x for seconds to minutes at
a time, so every timing is scaled by the host speed measured around it with a
fixed calibration kernel (calibrate.py), and the timing metrics are taken
over all scaled calls.  The ``#`` lines also give the unscaled figures.
``--trace 1`` runs one pass over the workload's operation pool untraced and
once more with the per-layer tracer (tracing.py), and reports the per-layer
metrics.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  ``attempted`` counts the pool operations run and ``failed`` those
whose check failed, including the seed defects listed in
known_failures.json; ``correct`` is false only when a failure is not on
that list.  Repeats of an operation must print what its first call printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# One thread: the loop has a single client on a 2-vCPU host, and idle BLAS
# worker threads would only compete with it.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import calibrate  # noqa: E402
import check  # noqa: E402
from workloads import WORKLOADS, build_pool, write_pool  # noqa: E402

WORK_DIR = ".perfbench"
SETUP_STARTS = 5            # fresh interpreters per run for setup_s / peak_rss_mb
CALIBRATE_EVERY_S = 0.1     # run the calibration kernel this often while timing
PROBE_OPS = {"theta_sweep": 3, "pullout_trace": 6, "cli_mixed": 40}
WARMUP_OPS = {"theta_sweep": 2, "pullout_trace": 4, "cli_mixed": 149}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_ops_s": "1/s",
    "cpu_ms_per_op": "ms",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}


class BenchmarkError(RuntimeError):
    pass


def call(cli, argv) -> check.Outcome:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # recorded and judged by the checker
        error = type(exc).__name__
    return check.Outcome(code, out.getvalue(), err.getvalue(), error)


def import_cli():
    import origrip.cli as cli

    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise BenchmarkError(f"imported origrip from {cli.__file__}, not from {src}")
    return cli


def _probe(args: list[str], stdin: str = "") -> dict:
    cmd = [sys.executable, str(HERE / "probe.py"), *args]
    proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(pool) -> dict:
    """Median import time, each scaled by the reference import started right
    after it (calibrate.py), and peak RSS over fresh interpreters."""
    argv_lists = json.dumps([list(op.argv) for op in pool.ops[: PROBE_OPS[pool.workload]]])
    reports, scaled = [], []
    for _ in range(SETUP_STARTS):
        report = _probe([str(ROOT / "src")], argv_lists)
        yardstick = _probe(["--reference"])["import_s"]
        reports.append(report)
        scaled.append(report["import_s"] * calibrate.REFERENCE_IMPORT_S / yardstick)
    return {
        "setup_s": statistics.median(scaled),
        "raw_setup_s": statistics.median(r["import_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in reports) / 1024.0,
        "versions": {k: reports[0][k] for k in ("python", "numpy", "scipy")},
    }


class Judge:
    """Checks outcomes, remembering the first one of every pool op and
    requiring repeats of an op to print exactly the same output."""

    def __init__(self, workload: str, seed: int, ops):
        self.workload, self.seed, self.ops = workload, seed, ops
        self.first: dict[int, check.Outcome] = {}
        self.repeat_mismatch: set[int] = set()

    def record(self, idx: int, res: check.Outcome) -> None:
        first = self.first.setdefault(idx, res)
        if first is not res and (res.code, res.error, res.stdout) != (first.code, first.error, first.stdout):
            self.repeat_mismatch.add(idx)

    def verdict(self) -> dict:
        """Counts are per pool operation, so a seed always gives the same ones."""
        oracle = check.OracleCheck(ROOT)
        reference = check.load_reference()
        known = check.load_known_failures()
        failed, unexpected = 0, []
        for idx, res in sorted(self.first.items()):
            op = self.ops[idx]
            problem = None
            try:
                check.check_outcome(op, res)
                oracle.check(op, res)
                ref = check.reference_for(reference, self.workload, self.seed, idx, op)
                if ref is not None:
                    diff = check.same(check.canonical(op, res), ref)
                    if diff:
                        raise check.CheckFailure(f"differs from the stored reference at {diff}")
            except check.CheckFailure as exc:
                problem = str(exc)
            if problem is not None:
                failed += 1
                signature = check.failure_signature(op, res)
                if signature not in known:
                    unexpected.append(f"{op.id} {' '.join(op.argv)}: {problem} [{signature}]")
            elif idx in self.repeat_mismatch:
                failed += 1
                unexpected.append(f"{op.id}: output changed between repeats")
        return {
            "attempted": len(self.first),
            "failed": failed,
            "unexpected": unexpected,
            "oracle_closure_checks": oracle.closure_checked,
            "oracle_window_checks": oracle.windows_checked,
        }


def _quantiles(lat: list[float]) -> tuple[float, float, float]:
    """Throughput, p50 and p90 of latencies in seconds."""
    return len(lat) / sum(lat), statistics.median(lat), statistics.quantiles(lat, n=10)[8]


def run_end_to_end(pool, seconds: float) -> tuple[dict, dict]:
    cli = import_cli()  # first, so the probes find warm bytecode and file caches
    setup = measure_setup(pool)
    ops = pool.ops
    for op in ops[: WARMUP_OPS[pool.workload]]:
        call(cli, op.argv)
    calibrate.kernel()  # its first run pays scipy's lazy set-up
    judge = Judge(pool.workload, pool.seed, ops)
    samples: list[tuple[float, float, float]] = []   # (midpoint, wall s, CPU s) per call
    marks = [calibrate.measure()]
    clock, cpu_clock = time.perf_counter, time.process_time
    deadline = clock() + seconds
    next_mark = clock() + CALIBRATE_EVERY_S
    i = 0
    while True:
        idx = i % len(ops)
        c0, t0 = cpu_clock(), clock()
        res = call(cli, ops[idx].argv)
        t1, c1 = clock(), cpu_clock()
        samples.append((0.5 * (t0 + t1), t1 - t0, c1 - c0))
        judge.record(idx, res)
        i += 1
        if t1 >= next_mark:
            marks.append(calibrate.measure())
            next_mark = clock() + CALIBRATE_EVERY_S
        if t1 >= deadline and i >= len(ops):
            break
    marks.append(calibrate.measure())
    verdict = judge.verdict()
    # Scale every call by the host speed around it (calibrate.py).
    scale = calibrate.Scale(marks)
    ref = calibrate.REFERENCE_S
    wall, cpu = [], []
    for t, w, c in samples:
        kernel_wall, kernel_cpu = scale.at(t)
        wall.append(w * ref / kernel_wall)
        cpu.append(c * ref / kernel_cpu)
    throughput, p50, p90 = _quantiles(wall)
    metrics = {
        "setup_s": setup["setup_s"],
        "peak_rss_mb": setup["peak_rss_mb"],
        "throughput_ops_s": throughput,
        "cpu_ms_per_op": 1e3 * statistics.fmean(cpu),
        "latency_p50_ms": 1e3 * p50,
        "latency_p90_ms": 1e3 * p90,
    }
    raw_throughput, raw_p50, raw_p90 = _quantiles([w for _, w, _ in samples])
    info = dict(
        verdict,
        versions=setup["versions"],
        calls=i,
        above_p90=sum(1 for t in wall if t > p90),
        host_slowdown=statistics.median(m[1] for m in marks) / ref,
        unscaled=(
            f"setup_s={setup['raw_setup_s']:.4g} throughput_ops_s={raw_throughput:.4g} "
            f"latency_p50_ms={1e3 * raw_p50:.4g} latency_p90_ms={1e3 * raw_p90:.4g}"
        ),
    )
    return {m: (metrics[m], END_TO_END_UNITS[m]) for m in END_TO_END_UNITS}, info


def run_traced(pool) -> tuple[dict, dict]:
    from tracing import PER_LAYER_UNITS, Tracer

    cli = import_cli()
    ops = pool.ops
    for op in ops[: WARMUP_OPS[pool.workload]]:
        call(cli, op.argv)
    def untraced_pass() -> float:
        t0 = time.perf_counter()
        for op in ops:
            call(cli, op.argv)
        return time.perf_counter() - t0

    before = untraced_pass()
    judge = Judge(pool.workload, pool.seed, ops)
    with Tracer() as tracer:
        t0 = time.perf_counter()
        for idx, op in enumerate(ops):
            judge.record(idx, call(cli, op.argv))
        traced = time.perf_counter() - t0
    # untraced passes on both sides of the traced one, so drift cancels
    untraced = 0.5 * (before + untraced_pass())
    tracer.write(ROOT / WORK_DIR / f"trace-{pool.workload}.csv.gz")
    values = tracer.per_layer(len(ops), traced / untraced)
    return {m: (values[m], PER_LAYER_UNITS[m]) for m in PER_LAYER_UNITS}, judge.verdict()


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    scene_dir = f"{WORK_DIR}/scenes-{os.getpid()}/{workload}-{seed}"
    pool = build_pool(workload, seed, scene_dir)
    write_pool(pool, ROOT)
    try:
        metrics, info = run_traced(pool) if trace else run_end_to_end(pool, seconds)
    finally:
        shutil.rmtree(ROOT / scene_dir.rsplit("/", 1)[0], ignore_errors=True)
    result = {
        "correct": not info["unexpected"],
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, info


def _summary(workload: str, result: dict, info: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"# {workload:13s} {name:45s} {m['value']:14.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"# {workload:13s} {'fail_ratio':45s} {ratio:14.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    if "versions" in info:
        v = info["versions"]
        print(f"# {workload:13s} timed_calls={info['calls']} above_p90={info['above_p90']} "
              f"host_slowdown={info['host_slowdown']:.3f}")
        print(f"# {workload:13s} unscaled: {info['unscaled']}")
        print(f"# {workload:13s} machine={platform.machine()} cpus={os.cpu_count()} "
              f"python={v['python']} numpy={v['numpy']} scipy={v['scipy']}")
    print(f"# {workload:13s} oracle checks: closure={info['oracle_closure_checks']} "
          f"hold_windows={info['oracle_window_checks']}")
    for line in info["unexpected"]:
        print(f"# {workload:13s} UNEXPECTED FAILURE {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "origrip" / "cli.py").is_file():
        print(f"perfbench: no origrip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, info = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _summary(name, result, info)
            results[name] = result
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
