"""Self-tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, build_pool, write_pool  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _materialise(pool, tmp_path: Path) -> dict[str, bytes]:
    write_pool(pool, tmp_path)
    return {rel: (tmp_path / rel).read_bytes() for rel in pool.files}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload, tmp_path):
    a = build_pool(workload, 7, "scenes")
    b = build_pool(workload, 7, "scenes")
    c = build_pool(workload, 8, "scenes")
    assert [op.argv for op in a.ops] == [op.argv for op in b.ops]
    assert _materialise(a, tmp_path / "a") == _materialise(b, tmp_path / "b")
    assert [op.argv for op in a.ops] != [op.argv for op in c.ops] or a.files != c.files
    assert _materialise(a, tmp_path / "a") != _materialise(c, tmp_path / "c")


def test_pool_mix_is_fixed_across_seeds():
    for workload in WORKLOADS:
        mixes = {
            tuple(sorted((op.argv[0], op.expect, op.mutation is not None) for op in build_pool(workload, s, "d").ops))
            for s in (1, 2, 3)
        }
        assert len(mixes) == 1, workload


@pytest.fixture(scope="module")
def cli_mixed_outcomes(tmp_path_factory):
    """A real outcome for every op of a cli_mixed pool, keyed by op id."""
    cli = run.import_cli()
    root = tmp_path_factory.mktemp("pool")
    pool = build_pool("cli_mixed", 3, str(root / "scenes"))
    write_pool(pool, root)
    return {op.id: (op, run.call(cli, op.argv)) for op in pool.ops}


def _find(outcomes, prefix: str, fmt: str = "json"):
    for op, res in outcomes.values():
        if op.id.startswith(prefix) and (check.option(op.argv, "--format") or "json") == fmt and res.code == 0:
            return op, res
    raise LookupError(prefix)


def test_checker_accepts_real_outputs(cli_mixed_outcomes):
    for op, res in cli_mixed_outcomes.values():
        if op.mutation is None:
            check.check_outcome(op, res)


def _planted(res: check.Outcome, edit) -> check.Outcome:
    record = json.loads(res.stdout)
    edit(record["outputs"])
    return dataclasses.replace(res, stdout=json.dumps(record))


@pytest.mark.parametrize(
    "prefix, edit",
    [
        ("grasp/", lambda out: out["contacts"][0].__setitem__("normal_force", -1.0)),
        ("grasp/", lambda out: out.__setitem__("squeeze_force", float("nan"))),
        ("pullout/", lambda out: out["markers"].__setitem__("t2", out["markers"]["t4"] + 1.0)),
        ("multi/", lambda out: out["plan"].__setitem__("theta_release_bottom", out["plan"]["theta_grasp"] + 1.0)),
        ("multi/", lambda out: out["plan"].__setitem__("top_window", [-5.0, 40.0])),
        ("compare/", lambda out: out["sequential"].__setitem__("time", 0.0)),
    ],
)
def test_checker_flags_planted_wrong_output(cli_mixed_outcomes, prefix, edit):
    op, res = _find(cli_mixed_outcomes, prefix)
    with pytest.raises(check.CheckFailure):
        check.check_outcome(op, _planted(res, edit))


def test_checker_flags_planted_wrong_verdict_against_oracle(cli_mixed_outcomes):
    oracle = check.OracleCheck(ROOT)
    for op, res in cli_mixed_outcomes.values():
        if not op.id.startswith("grasp/") or res.code != 0 or "--format" in op.argv:
            continue
        flipped = _planted(res, lambda out: out.__setitem__("force_closure", not out["force_closure"]))
        try:
            oracle.check(op, flipped)
        except check.CheckFailure:
            return
    pytest.fail("no flipped closure verdict was caught by the oracle")


def _first_float_path(node, path=()):
    if isinstance(node, float):
        return path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        found = _first_float_path(child, path + (key,))
        if found is not None:
            return found
    return None


def test_checker_flags_reference_difference():
    reference = check.load_reference()
    for stored in reference["bundled"].values():
        *parents, leaf = _first_float_path(stored)
        for rel, caught in ((1e-12, False), (1e-6, True)):
            changed = json.loads(json.dumps(stored))
            node = changed
            for key in parents:
                node = node[key]
            node[leaf] = node[leaf] * (1.0 + rel) + rel
            assert (check.same(changed, stored) is not None) is caught
    assert check.same({"exit": 0}, {"exit": 1}) is not None
    assert check.same({"exit": 0, "out": {"mode": "a"}}, {"exit": 0, "out": {"mode": "b"}}) is not None


def test_checker_flags_planted_exit_codes(cli_mixed_outcomes):
    op, res = _find(cli_mixed_outcomes, "grasp/")
    for code in (1, 2, 3):
        with pytest.raises(check.CheckFailure):
            check.check_outcome(op, dataclasses.replace(res, code=code))
    with pytest.raises(check.CheckFailure):
        check.check_outcome(op, dataclasses.replace(res, code=None, error="ValueError"))
    invalid = next(o for o, _ in cli_mixed_outcomes.values() if o.mutation == "unknown_key")
    with pytest.raises(check.CheckFailure):
        check.check_outcome(invalid, check.Outcome(0, res.stdout, ""))
    with pytest.raises(check.CheckFailure):
        check.check_outcome(invalid, check.Outcome(1, "", "origrip: infeasible"))


def test_tracer_restores_bindings_and_keeps_outputs(cli_mixed_outcomes):
    from tracing import Tracer

    import origrip.grasp
    import origrip.planner

    cli = run.import_cli()
    original = origrip.grasp.resolve_contacts
    with Tracer() as tracer:
        assert origrip.planner.resolve_contacts is origrip.grasp.resolve_contacts is not original
        traced = {i: run.call(cli, op.argv) for i, (op, _) in cli_mixed_outcomes.items()}
    assert origrip.grasp.resolve_contacts is original
    assert origrip.planner.resolve_contacts is original
    for i, (op, res) in cli_mixed_outcomes.items():
        assert (traced[i].code, traced[i].stdout) == (res.code, res.stdout), op.id
    agg = tracer.aggregate()
    assert agg["cli.main"]["calls"] == len(cli_mixed_outcomes)
    self_sum = sum(a["self_ns"] for a in agg.values())
    assert self_sum == pytest.approx(agg["cli.main"]["total_ns"], rel=1e-9)


def test_judge_counts_each_pool_op_once(cli_mixed_outcomes):
    ops = [op for op, _ in cli_mixed_outcomes.values()]
    judge = run.Judge("cli_mixed", 3, ops)
    for _ in range(3):
        for idx, (_, res) in enumerate(cli_mixed_outcomes.values()):
            judge.record(idx, res)
    verdict = judge.verdict()
    assert verdict["attempted"] == len(ops)
    assert verdict["failed"] == len(check.load_known_failures())
    assert verdict["unexpected"] == []


def test_calibration_scale_follows_the_host():
    ref = calibrate.REFERENCE_S
    # one kernel run every 0.1 s; the host turns 1.5x slower at t = 10 s
    marks = [(0.1 * k, ref * (1.5 if k >= 100 else 1.0), ref) for k in range(200)]
    scale = calibrate.Scale(marks)
    assert scale.at(5.0) == (pytest.approx(ref), pytest.approx(ref))
    assert scale.at(15.0)[0] == pytest.approx(1.5 * ref)
    assert scale.at(60.0)[0] == pytest.approx(1.5 * ref)   # past the last run: the nearest one
    assert scale.at(-60.0)[0] == pytest.approx(ref)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", "cli_mixed", "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    names = [m["name"] for m in BENCHMARK[section]]
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCHMARK["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", "theta_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
