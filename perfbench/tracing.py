"""Per-layer tracing from the benchmark's side.

The tracer replaces each listed public function with a wrapper in every
``origrip`` module namespace that binds it (``resolve_contacts`` is bound in
``grasp``, ``planner``, ``scenario`` and the package itself), records one
span per call (name, start, end, parent) plus a few counts, and restores the
originals on exit.  Self time is a span's duration minus the time its child
spans cover.  Spans stay in memory and are written out when the run ends.

Two high-frequency helpers (``shapes.local_width``, ``transmission.opening``)
are only counted: a span each would cost more than the call itself.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter
from pathlib import Path

# span name -> (defining module, function names)
SPANNED = {
    "cli.main": ("cli", ("main",)),
    "cli.build_parser": ("cli", ("build_parser",)),
    "scenario.load_scenario": ("scenario", ("load_scenario",)),
    "scenario.parse_scenario": ("scenario", ("parse_scenario",)),
    "scenario.scenario_to_dict": ("scenario", ("scenario_to_dict",)),
    "scenario.run_sweep": ("scenario", ("run_sweep",)),
    "scenario.run_scenario": ("scenario", ("run_scenario",)),
    "scenario.write": ("scenario", ("write_json", "write_csv")),
    "grasp.resolve_contacts": ("grasp", ("resolve_contacts",)),
    "grasp.contact_wrench_primitives": ("grasp", ("contact_wrench_primitives",)),
    "grasp.is_force_closure": ("grasp", ("is_force_closure",)),
    "grasp.is_form_closure": ("grasp", ("is_form_closure",)),
    "grasp.lift_check": ("grasp", ("lift_check",)),
    "grasp.pullout_trace": ("grasp", ("pullout_trace",)),
    "mechanics.state": ("mechanics", ("compression_state", "bending_state", "bending_contact_force")),
    "planner.plan_stacked": ("planner", ("plan_stacked",)),
    "planner.hold_window": ("planner", ("hold_window",)),
    "planner.simulate_plan": ("planner", ("simulate_plan",)),
    "trajectory.compare_cycles": ("trajectory", ("compare_cycles",)),
}
COUNTED = {
    "shapes.local_width": ("shapes", "local_width"),
    "transmission.opening": ("transmission", "opening"),
}

# metric name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "grasp.is_force_closure.calls": "count",
    "grasp.is_force_closure.self_ms": "ms",
    "grasp.is_force_closure.closed_ratio": "ratio",
    "grasp.contact_wrench_primitives.self_ms": "ms",
    "grasp.contact_wrench_primitives.rows": "count",
    "grasp.pullout_trace.calls": "count",
    "grasp.pullout_trace.self_ms": "ms",
    "grasp.pullout_trace.points": "count",
    "grasp.pullout_trace.us_per_point": "us",
    "mechanics.state.calls": "count",
    "mechanics.state.self_ms": "ms",
    "shapes.local_width.calls": "count",
    "grasp.resolve_contacts.calls": "count",
    "grasp.resolve_contacts.self_ms": "ms",
    "grasp.resolve_contacts.records": "count",
    "grasp.is_form_closure.self_ms": "ms",
    "grasp.lift_check.calls": "count",
    "transmission.opening.calls": "count",
    "planner.plan_stacked.calls": "count",
    "planner.plan_stacked.self_ms": "ms",
    "planner.plan_stacked.infeasible_ratio": "ratio",
    "planner.hold_window.calls": "count",
    "planner.hold_window.self_ms": "ms",
    "planner.hold_window.resolve_calls_per_window": "ratio",
    "planner.simulate_plan.calls": "count",
    "planner.simulate_plan.self_ms": "ms",
    "trajectory.compare_cycles.calls": "count",
    "trajectory.compare_cycles.self_ms": "ms",
    "scenario.parse_scenario.calls": "count",
    "scenario.parse_scenario.self_ms": "ms",
    "scenario.scenario_to_dict.calls": "count",
    "scenario.scenario_to_dict.self_ms": "ms",
    "scenario.run_sweep.self_ms": "ms",
    "scenario.load_scenario.calls": "count",
    "scenario.load_scenario.self_ms": "ms",
    "scenario.validation_errors": "count",
    "scenario.write.calls": "count",
    "scenario.write.self_ms": "ms",
    "scenario.write.bytes": "bytes",
    "scenario.run_scenario.self_ms": "ms",
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "cli.main.total_ms": "ms",
    "cli.build_parser.self_ms": "ms",
    "trace.ops": "count",
    "trace.overhead_ratio": "ratio",
}


def _origrip_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "origrip" or name.startswith("origrip.")]


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span_name, start, end, parent, stack = self.span_name, self.start, self.end, self.parent, self._stack
        counts, clock = self.counts, time.perf_counter_ns
        on_result = _RESULT_HOOKS.get(name)
        on_error = _ERROR_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            before = _stream_pos(args) if name == "scenario.write" else None
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(counts, exc)
                raise
            end[idx] = clock()
            stack.pop()
            if on_result is not None:
                on_result(counts, result)
            if before is not None:
                after = _stream_pos(args)
                if after is not None:
                    counts["scenario.write.bytes"] += after - before
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts, key = self.counts, f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in _origrip_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def __enter__(self) -> "Tracer":
        for span, (module, funcs) in SPANNED.items():
            for func in funcs:
                original = getattr(sys.modules[f"origrip.{module}"], func)
                self._replace_everywhere(original, self._spanned(span, original))
        for name, (module, func) in COUNTED.items():
            original = getattr(sys.modules[f"origrip.{module}"], func)
            self._replace_everywhere(original, self._counted(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ns, self ns."""
        n = len(self.span_name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        agg = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in SPANNED}
        for i in range(n):
            a = agg[self.names[self.span_name[i]]]
            a["calls"] += 1
            a["total_ns"] += dur[i]
            a["self_ns"] += dur[i] - child[i]
        return agg

    def resolve_calls_under(self, parent_name: str, child_name: str) -> int:
        pid = self.name_id.get(parent_name)
        cid = self.name_id.get(child_name)
        if pid is None or cid is None:
            return 0
        return sum(
            1
            for i, nid in enumerate(self.span_name)
            if nid == cid and self.parent[i] >= 0 and self.span_name[self.parent[i]] == pid
        )

    def per_layer(self, ops: int, overhead_ratio: float) -> dict[str, float]:
        agg = self.aggregate()
        c = self.counts

        def ms(name: str) -> float:
            return agg[name]["self_ns"] / 1e6

        def calls(name: str) -> int:
            return agg[name]["calls"]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        points = c["grasp.pullout_trace.points"]
        values = {
            "trace.ops": ops,
            "trace.overhead_ratio": overhead_ratio,
            "cli.main.total_ms": agg["cli.main"]["total_ns"] / 1e6,
            "grasp.is_force_closure.closed_ratio": ratio(
                c["grasp.is_force_closure.closed"], calls("grasp.is_force_closure")
            ),
            "grasp.pullout_trace.us_per_point": ratio(agg["grasp.pullout_trace"]["total_ns"] / 1e3, points),
            "planner.plan_stacked.infeasible_ratio": ratio(
                c["planner.plan_stacked.infeasible"], calls("planner.plan_stacked")
            ),
            "planner.hold_window.resolve_calls_per_window": ratio(
                self.resolve_calls_under("planner.hold_window", "grasp.resolve_contacts"),
                calls("planner.hold_window"),
            ),
        }
        for metric in PER_LAYER_UNITS:
            if metric in values:
                continue
            span, stat = metric.rsplit(".", 1)
            if stat == "self_ms":
                values[metric] = ms(span)
            elif span in agg and stat == "calls":
                values[metric] = calls(span)
            else:  # kept by a result hook or a counted-only wrapper
                values[metric] = c[metric]
        return {m: values[m] for m in PER_LAYER_UNITS}

    def write(self, path: Path) -> None:
        """Span table as gzip'd CSV: index, name, start_ns, end_ns, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,start_ns,end_ns,parent\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i},{self.names[self.span_name[i]]},{self.start[i]},{self.end[i]},{self.parent[i]}\n")
            for name, value in sorted(self.counts.items()):
                fh.write(f"count,{name},{value},,\n")


def _stream_pos(args) -> int | None:
    try:
        return args[1].tell()
    except (AttributeError, IndexError, OSError, ValueError):
        return None


def _count_closed(counts, result) -> None:
    counts["grasp.is_force_closure.closed"] += bool(result.closed)


def _count_rows(counts, result) -> None:
    counts["grasp.contact_wrench_primitives.rows"] += len(result)


def _count_points(counts, result) -> None:
    counts["grasp.pullout_trace.points"] += len(result.lifts)


def _count_records(counts, result) -> None:
    counts["grasp.resolve_contacts.records"] += len(result)


def _count_infeasible(counts, exc) -> None:
    if type(exc).__name__ == "PlanError":
        counts["planner.plan_stacked.infeasible"] += 1


def _count_validation(counts, exc) -> None:
    if type(exc).__name__ == "ScenarioError":
        counts["scenario.validation_errors"] += 1


_RESULT_HOOKS = {
    "grasp.is_force_closure": _count_closed,
    "grasp.contact_wrench_primitives": _count_rows,
    "grasp.pullout_trace": _count_points,
    "grasp.resolve_contacts": _count_records,
}
_ERROR_HOOKS = {
    "planner.plan_stacked": _count_infeasible,
    "scenario.load_scenario": _count_validation,
}
