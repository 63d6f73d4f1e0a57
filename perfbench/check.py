"""Output checker: judges every operation's result outside the timed region.

An operation fails when any of these does not hold:

* the exit code is 0, 1 or 2, and matches what the input calls for
  (1 only for ``multi`` with a valid ``InfeasibleReason``, 2 for every
  invalid scene, never an uncaught exception);
* stdout parses as JSON or CSV and every number in it is finite;
* physical invariants hold (non-negative forces, ordered stage markers,
  hold windows inside the drive range, release angles below the grab angle);
* on a sample, verdicts agree with the brute-force oracles in
  ``tests/oracles.py`` (closure by direction sampling, hold windows by a
  swept predicate);
* outputs match the stored reference where one exists.

Failures whose signature is listed in ``known_failures.json`` are still
failures; they are only kept apart so that a new defect shows up as an
unexpected one.
"""

from __future__ import annotations

import csv
import dataclasses
import importlib.util
import io
import json
import math
from pathlib import Path

from workloads import (
    EXPECT_INVALID,
    EXPECT_OK,
    EXPECT_PLAN,
    EXPECT_SIZE_ORDER,
    THETA_MAX,
    THETA_MIN,
    Op,
)

HERE = Path(__file__).resolve().parent
KNOWN_FAILURES = HERE / "known_failures.json"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
REFERENCE_OPS = 10          # leading pool ops stored per workload for the default seed
REL_TOL = 1e-9

# oracle samples per run: closure-checked sweep rows / grasps, swept hold windows
CLOSURE_SAMPLES = 60
WINDOW_SAMPLES = 4

INFEASIBLE_REASONS = ("size_order", "no_common_hold", "no_release_gap")


@dataclasses.dataclass
class Outcome:
    """What one call of ``cli.main`` produced."""

    code: int | None            # None when an exception escaped
    stdout: str
    stderr: str
    error: str | None = None    # exception type name


class CheckFailure(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _reject_constant(name: str):
    raise CheckFailure(f"non-finite number {name} in JSON output")


def parse_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def parse_csv(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    _require(len(rows) >= 2, "CSV output has no data rows")
    width = len(rows[0])
    for row in rows:
        _require(len(row) == width, "ragged CSV row")
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            _require(math.isfinite(value), f"non-finite number {cell!r} in CSV output")
    return rows


def _finite(value, what: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value),
        f"{what} is not a finite number: {value!r}",
    )
    return float(value)


def _nonneg(value, what: str) -> float:
    value = _finite(value, what)
    _require(value >= 0.0, f"{what} is negative: {value!r}")
    return value


def option(argv: tuple[str, ...], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _scene_law(op: Op) -> tuple[float, float]:
    law = (op.scene or {}).get("gripper", {}).get("law", {})
    return law.get("theta_min", THETA_MIN), law.get("theta_max", THETA_MAX)


# --------------------------------------------------------------------------
# per-command invariants on parsed JSON
# --------------------------------------------------------------------------


def _check_grasp_outputs(out: dict) -> None:
    _require(out["grasp_mode"] in ("parallel", "v_enveloping"), "unknown grasp mode")
    _require(out["contact_count"] == len(out["contacts"]), "contact count mismatch")
    for key in ("squeeze_force", "side_squeeze_force", "pullout_capacity", "closure_margin"):
        _nonneg(out[key], key)
    for rec in out["contacts"]:
        _nonneg(rec["normal_force"], "contact normal force")
        _nonneg(rec["penetration"], "contact penetration")
        _require(0.0 < _finite(rec["engagement"], "engagement") <= 1.0, "engagement outside (0, 1]")
        _require(rec["mode"] in ("compression", "bending"), "unknown contact mode")
    _require(isinstance(out["force_closure"], bool), "force_closure is not a verdict")
    _require(out["form_closure"] in (None, True, False), "form_closure is not a verdict")
    if not out["force_closure"]:
        _require(out["closure_margin"] == 0.0, "open grasp with a positive margin")
    if out["wrap_coverage"] is not None:
        _require(0.0 <= _finite(out["wrap_coverage"], "wrap coverage") <= 360.0, "wrap coverage")


def _check_pullout_outputs(out: dict) -> None:
    m = out["markers"]
    marks = [_finite(m[k], k) for k in ("t1", "t2", "t3", "t4")]
    _require(marks == sorted(marks), f"stage markers out of order: {marks}")
    lifts, forces = out["trace"]["lift"], out["trace"]["force"]
    _require(len(lifts) == len(forces) and lifts, "trace columns differ in length")
    for v in lifts:
        _finite(v, "lift")
    _require(all(a < b for a, b in zip(lifts, lifts[1:])), "lift grid not ascending")
    for f in forces:
        _nonneg(f, "trace force")
    _require(_nonneg(out["capacity"], "capacity") == forces[0], "capacity is not the first trace point")
    _require(_nonneg(out["peak_force"], "peak force") == max(forces), "peak is not the trace maximum")


def _check_plan_outputs(out: dict, op: Op) -> None:
    plan = out["plan"]
    t_lo, t_hi = _scene_law(op)
    for key in ("top_window", "bottom_window", "grasp_window", "release_window"):
        lo, hi = (_finite(v, key) for v in plan[key])
        _require(lo <= hi, f"{key} is inverted")
        if key in ("top_window", "bottom_window"):
            _require(t_lo <= lo and hi <= t_hi, f"{key} [{lo}, {hi}] leaves the drive range")
    g, rb, rt = (_finite(plan[k], k) for k in ("theta_grasp", "theta_release_bottom", "theta_release_top"))
    _require(rt <= rb < g, f"release schedule out of order: top {rt}, bottom {rb}, grasp {g}")
    stages = out["stages"]
    _require([s["stage"] for s in stages] == ["grasp", "release_bottom", "release_top"], "stage names")
    for s in stages:
        _require(isinstance(s["top_held"], bool) and isinstance(s["bottom_held"], bool), "held flags")


def _check_compare_outputs(out: dict) -> None:
    for mode in ("sequential", "multiobject"):
        _require(_finite(out[mode]["distance"], "distance") > 0.0, "non-positive path distance")
        _require(_finite(out[mode]["time"], "time") > 0.0, "non-positive cycle time")
    for key in ("distance_reduction", "time_reduction"):
        _require(0.0 <= _finite(out[key], key) < 1.0, f"{key} outside [0, 1)")
    for key in ("distance_saved", "time_saved"):
        _nonneg(out[key], key)


def _check_sweep_outputs(rows: list, op: Op) -> None:
    axis = option(op.argv, "--axis")
    _require(len(rows) == len(op.values), f"sweep has {len(rows)} rows, expected {len(op.values)}")
    for row, value in zip(rows, op.values):
        _require(math.isclose(row[axis], value, rel_tol=1e-9, abs_tol=1e-9), "sweep axis value")
        for key, cell in row.items():
            if isinstance(cell, (int, float)) and not isinstance(cell, bool):
                _finite(cell, key)
        if axis == "theta":
            for key in ("squeeze_force", "pullout_capacity", "closure_margin"):
                _nonneg(row[key], key)
            _require(isinstance(row["force_closure"], bool), "force_closure is not a verdict")


def _check_json(record, op: Op, code: int) -> None:
    command = op.argv[0]
    if code == 1:
        _require(command == "multi" and record.get("infeasible") is True, "exit 1 outside multi")
        _require(record["reason"] in INFEASIBLE_REASONS, f"unknown reason {record['reason']!r}")
        if op.expect == EXPECT_SIZE_ORDER:
            _require(record["reason"] == "size_order", f"reason {record['reason']!r}, not size_order")
        return
    out = record["outputs"]
    if command == "grasp":
        _check_grasp_outputs(out)
    elif command == "pullout":
        _check_pullout_outputs(out)
    elif command == "multi":
        _check_plan_outputs(out, op)
    elif command == "compare":
        _check_compare_outputs(out)
    elif command == "sweep":
        _check_sweep_outputs(out, op)
    elif command == "kinematics":
        lo, hi = (_finite(v, "opening range") for v in out["opening_range"])
        _require(lo <= _finite(out["opening"], "opening") <= hi, "opening outside its range")
        _require(_finite(out["finger_radius"], "finger radius") > 0.0, "finger radius")
    elif command == "material-curve":
        _require(len(out) == int(option(op.argv, "--samples")), "sample count")
        for row in out:
            for key, value in row.items():
                _nonneg(value, key)
    elif command == "scenes":
        _require(len(out) > 0 and all(isinstance(r["name"], str) for r in out), "scene list")


def _check_csv(rows: list[list[str]], op: Op) -> None:
    header = rows[0]
    if op.argv[0] == "pullout":
        _require(header == ["lift", "force"], f"pullout CSV header {header}")
        for _, force in rows[1:]:
            _require(float(force) >= 0.0, "negative trace force in CSV")
    elif op.argv[0] == "material-curve":
        _require(header in (["strain", "force"], ["angle", "torque"]), f"curve CSV header {header}")
    elif op.argv[0] != "sweep":
        _require(header == ["field", "value"], f"CSV header {header}")


def check_outcome(op: Op, res: Outcome) -> None:
    """Raise CheckFailure unless the outcome is right for this operation."""
    _require(res.error is None, f"uncaught {res.error}")
    _require(res.code in (0, 1, 2), f"exit code {res.code}")
    if op.expect == EXPECT_INVALID:
        _require(res.code == 2, f"invalid input exited {res.code}, expected 2")
        _require(res.stdout == "", "invalid input produced output")
        _require(res.stderr.startswith("origrip:"), "invalid input without a clean message")
        _require("Traceback" not in res.stderr, "traceback on stderr")
        return
    expected = {EXPECT_OK: (0,), EXPECT_PLAN: (0, 1), EXPECT_SIZE_ORDER: (1,)}[op.expect]
    _require(res.code in expected, f"exit {res.code}, expected {expected}: {res.stderr.strip()[:200]}")
    fmt = option(op.argv, "--format") or "json"
    if fmt == "csv":
        _require(res.code == 0, "CSV output for a non-zero exit")
        _check_csv(parse_csv(res.stdout), op)
        return
    try:
        record = parse_json(res.stdout)
        _check_json(record, op, res.code)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckFailure(f"malformed output: {type(exc).__name__}: {exc}") from None


def failure_signature(op: Op, res: Outcome) -> str:
    """Stable label of a failure, used to match the known-failure list."""
    if res.error is not None:
        what = f"raises {res.error}"
    else:
        what = f"exit {res.code}"
    return f"{op.mutation or op.id}: {op.argv[0]} {what}"


# --------------------------------------------------------------------------
# oracles and reference
# --------------------------------------------------------------------------


def load_oracles(root: Path):
    """Import ``tests/oracles.py`` by path, without touching ``sys.path``."""
    spec = importlib.util.spec_from_file_location("origrip_test_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class OracleCheck:
    """Cross-checks sampled outputs against ``tests/oracles.py``."""

    def __init__(self, root: Path):
        from origrip import grasp, scenario

        self.oracles = load_oracles(root)
        self.grasp = grasp
        self.scenario = scenario
        self.closure_checked = 0
        self.windows_checked = 0

    def _closure_agrees(self, scn, theta: float, verdict: bool) -> None:
        if self.closure_checked >= CLOSURE_SAMPLES:
            return
        contacts = self.grasp.resolve_contacts(theta, scn.obj, scn.config, scn.material, scn.mu, scn.torque_scale)
        if len(contacts) < 2:
            return
        prims = self.grasp.contact_wrench_primitives(contacts)
        if not self.oracles.sampling_decisive(prims):
            return
        self.closure_checked += 1
        expected = self.oracles.positive_span_closed(prims)
        _require(verdict == expected, f"closure verdict {verdict} at theta {theta}, oracle says {expected}")

    def _window_agrees(self, obj, scene, key: str, window: list) -> None:
        try:
            swept = self.oracles.swept_hold_window(obj, scene.config, scene.material, scene.mu, scene.safety)
        except AssertionError as exc:  # the oracle found a non-contiguous holdable set
            raise CheckFailure(f"{key}: {exc}") from None
        _require(swept is not None, f"{key}: oracle finds no hold window")
        lo, hi = window
        _require(
            abs(lo - swept[0]) <= 0.1 + 1e-9 and abs(hi - swept[1]) <= 0.1 + 1e-9,
            f"{key} [{lo}, {hi}] vs swept [{swept[0]}, {swept[1]}]",
        )

    def check(self, op: Op, res: Outcome) -> None:
        command = op.argv[0]
        if res.code != 0 or option(op.argv, "--format") == "csv" or op.expect == EXPECT_INVALID:
            return
        if self.closure_checked < CLOSURE_SAMPLES and command == "grasp" and "--seed" not in op.argv:
            out = parse_json(res.stdout)["outputs"]
            if out["contact_count"] >= 2:
                self._closure_agrees(self._load(op), out["theta"], out["force_closure"])
        elif self.closure_checked < CLOSURE_SAMPLES and command == "sweep" and option(op.argv, "--axis") == "theta":
            scn = self._load(op)
            rows = parse_json(res.stdout)["outputs"]
            for row in rows[:: max(1, len(rows) // 4)]:
                if row["contact_count"] >= 2:
                    self._closure_agrees(scn, row["theta"], row["force_closure"])
        elif command == "multi" and self.windows_checked < WINDOW_SAMPLES:
            self.windows_checked += 1
            scene = self._load(op).scene
            plan = parse_json(res.stdout)["outputs"]["plan"]
            self._window_agrees(scene.top, scene, "top_window", plan["top_window"])
            self._window_agrees(scene.bottom, scene, "bottom_window", plan["bottom_window"])

    def _load(self, op: Op):
        scn = self.scenario.load_scenario(option(op.argv, "--scene"))
        changes = {}
        if option(op.argv, "--theta") is not None:
            changes["theta"] = float(option(op.argv, "--theta"))
        if option(op.argv, "--mu") is not None:
            changes["mu"] = float(option(op.argv, "--mu"))
        if option(op.argv, "--material") is not None:
            changes["material"] = self.scenario.material_table()[option(op.argv, "--material")]
        return dataclasses.replace(scn, **changes) if changes else scn


def canonical(op: Op, res: Outcome):
    """Comparable form of an outcome: exit code plus parsed output."""
    if res.error is not None:
        return {"exit": None, "error": res.error}
    if not res.stdout:
        return {"exit": res.code}
    if option(op.argv, "--format") == "csv":
        out = list(csv.reader(io.StringIO(res.stdout)))
    else:
        out = json.loads(res.stdout)
        out.pop("version", None)
    return {"exit": res.code, "out": out}


def same(a, b, path: str = "") -> str | None:
    """First difference between two canonical outcomes, or None.  Floats
    (and numeric CSV cells) compare within REL_TOL; everything else exactly."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return f"{path}: keys {sorted(a)} vs {sorted(b)}"
        for key in a:
            diff = same(a[key], b[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = same(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(a, str) and isinstance(b, str):
        try:
            a, b = float(a), float(b)
        except ValueError:
            return None if a == b else f"{path}: {a!r} vs {b!r}"
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
            return f"{path}: {a!r} vs {b!r}"
        return None if math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12) else f"{path}: {a!r} vs {b!r}"
    return None if (a == b and type(a) is type(b)) else f"{path}: {a!r} vs {b!r}"


def load_reference() -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())


def reference_for(reference: dict, workload: str, seed: int, pool_index: int, op: Op):
    """Stored outcome this op must match, or None when there is none."""
    if op.id.startswith("bundled/"):
        return reference.get("bundled", {}).get(" ".join(op.argv))
    if seed == reference.get("default_seed") and pool_index < REFERENCE_OPS:
        return reference.get("seeded", {}).get(workload, {}).get(op.id)
    return None


def load_known_failures() -> set[str]:
    if not KNOWN_FAILURES.is_file():
        return set()
    return set(json.loads(KNOWN_FAILURES.read_text())["failures"])
