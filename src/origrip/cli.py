"""Command-line front end.

Subcommands:

    kinematics      closure angle <-> finger radius / jaw opening
    material-curve  sample a module's compression or bending response
    grasp           contacts, forces, and closure for a single-object scene
    pullout         extraction-resistance trace for a clamped probe
    multi           release schedule and timeline for a stacked-pair scene
    compare         sequential vs. multi-object transport cost
    sweep           re-run a scene stepping one numeric field
    scenes          list bundled demo scenes

``main`` hands each command to its ``_run_*`` function in ``_RUNNERS``,
which writes the command's record, built by ``scenario.result_record``, to
stdout (or ``--out``) as JSON or CSV.  Exit codes: 0 on success, 1 when a
stacked plan is infeasible, 2 for invalid scenes or arguments.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from functools import cache

from ._version import __version__
from .demo import list_demo_scenes
from .mechanics import sample_bending_curve, sample_compression_curve
from .planner import PlanError
from .scenario import (
    Scenario,
    ScenarioError,
    _pick_material,
    edit_scenario,
    load_scenario,
    make_result_record,
    result_record,
    run_scenario,
    run_sweep,
    seeded_material,
    write_csv,
    write_json,
)
from .transmission import (
    AngleRangeError,
    GripperConfig,
    OpeningRangeError,
    finger_radius,
    opening,
    opening_range,
    theta_for_opening,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INVALID = 2

_MAX_SWEEP_POINTS = 10_000  # each point is a whole scene run
_MAX_SAMPLES = 100_000  # as many as the points of a pull-out lift grid


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="-", help="output file, '-' for stdout")
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def _add_scene_args(parser: argparse.ArgumentParser, kind: str | None = None) -> None:
    """The arguments of a command that reads a scene: of ``kind``, which the
    namespace carries as ``scene_kind``, or of any kind when None."""
    parser.set_defaults(scene_kind=kind)
    parser.add_argument("--scene", required=True, help="scene YAML file")
    parser.add_argument(
        "--seed", type=int, default=None, help="sample material spread with this seed"
    )
    _add_output_args(parser)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    ``parse_args`` leaves a parser as it was, so one serves every ``main``
    call; callers must not add to it.  ``main`` hands a known command's
    tokens straight to that command's parser (see ``_parse_args``); the
    parser built here reads only a command line that names no known
    command (none, ``-h``, ``--version`` or a mistyped command).
    """
    parser = argparse.ArgumentParser(
        prog="origrip",
        description="constant-force origami gripper: grasp mechanics and planning",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    kin = sub.add_parser("kinematics", help="closure angle vs. finger radius and opening")
    group = kin.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", type=float, help="closure angle, deg")
    group.add_argument("--opening", type=float, help="jaw opening to invert, mm")
    _add_output_args(kin)

    mat = sub.add_parser("material-curve", help="module force/torque response samples")
    mat.add_argument("--material", required=True, help="material name")
    mat.add_argument("--mode", choices=("compression", "bending"), default="compression")
    mat.add_argument("--samples", type=int, default=50)
    mat.add_argument("--seed", type=int, default=None, help="sample plateau spread with this seed")
    _add_output_args(mat)

    grasp_cmd = sub.add_parser("grasp", help="single-object contact and closure report")
    pull_cmd = sub.add_parser("pullout", help="extraction-resistance trace")
    for cmd, kind in ((grasp_cmd, "single_grasp"), (pull_cmd, "pullout")):
        _add_scene_args(cmd, kind)
        cmd.add_argument("--theta", type=float, default=None, help="override the scene's closure angle")
        cmd.add_argument("--material", default=None, help="override the scene's material by name")
        cmd.add_argument("--mu", type=float, default=None, help="override the scene's friction coefficient")
    pull_cmd.add_argument("--grid", type=float, default=None, help="override the lift grid step, mm")

    for name, blurb, kind in (
        ("multi", "stacked-pair release schedule", "stacked"),
        ("compare", "sequential vs. multi-object transport", "pickplace"),
    ):
        _add_scene_args(sub.add_parser(name, help=blurb), kind)

    swp = sub.add_parser("sweep", help="step one numeric scene field")
    _add_scene_args(swp)
    swp.add_argument("--axis", required=True, help="dotted field path, e.g. theta or object.mass")
    swp.add_argument(
        "--values", required=True,
        help="comma list (30,45,60) or range lo:hi:step; write one that starts below 0 as --values=-10,0",
    )

    scenes = sub.add_parser("scenes", help="list bundled demo scenes")
    _add_output_args(scenes)

    return parser


class _OutputError(Exception):
    """The ``--out`` file cannot be written."""


def _emit(data, args) -> None:
    """Render ``data`` whole, then write it; a render that fails (a NaN for
    JSON) leaves an existing ``--out`` file as it was."""
    rendered = io.StringIO()
    (write_json if args.format == "json" else write_csv)(data, rendered)
    if args.out == "-":
        sys.stdout.write(rendered.getvalue())
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(rendered.getvalue())
    except OSError as exc:
        raise _OutputError(f"--out: cannot write {args.out!r}: {exc.strerror or exc}") from None


def _parse_values(spec: str) -> list[float]:
    """The sweep values of ``--values``: at least one, at most ``_MAX_SWEEP_POINTS``."""
    usage = f"--values: expected 'a,b,c' or finite 'lo:hi:step' with step > 0, got {spec!r}"
    if ":" not in spec:
        parts = [p for p in spec.split(",") if p.strip() != ""]
        if not parts:
            raise ScenarioError(["--values: empty value list"])
        if len(parts) > _MAX_SWEEP_POINTS:
            raise ScenarioError([f"--values: a list of {len(parts)} points, more than {_MAX_SWEEP_POINTS}"])
    try:
        if ":" not in spec:
            return [float(p) for p in parts]
        lo, hi, step = map(float, spec.split(":"))
    except ValueError:
        raise ScenarioError([usage]) from None
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise ScenarioError([usage])
    # a billionth of a step of slack keeps an end that the division leaves short
    points = (hi - lo) / step + 1.0 + 1e-9
    count = math.floor(points) if points < math.inf else points
    if count > _MAX_SWEEP_POINTS:
        raise ScenarioError([f"--values: {spec!r} spans {count:.6g} points, more than {_MAX_SWEEP_POINTS}"])
    # each value from lo and its index, so rounding cannot build up over the steps and carry one past hi
    return [min(round(lo + k * step, 12), hi) for k in range(count)]


def _run_kinematics(args) -> int:
    config = GripperConfig()
    theta = args.theta if args.theta is not None else theta_for_opening(args.opening, config)
    lo, hi = opening_range(config)
    outputs = {
        "theta": theta,
        "finger_radius": finger_radius(theta, config.law),
        "opening": opening(theta, config),
        "opening_range": [lo, hi],
    }
    _emit(result_record(args.command, outputs), args)
    return EXIT_OK


def _run_material_curve(args) -> int:
    try:  # the built-ins and the ORIGRIP_MATERIALS file, as a scene without materials of its own
        material = _pick_material(args.material, {"materials": {}})
    except ScenarioError:  # the ORIGRIP_MATERIALS file cannot be read
        raise
    except ValueError as exc:
        raise ScenarioError([f"--material: {exc}"]) from None
    if args.samples < 2:
        raise ScenarioError([f"--samples: need at least 2, got {args.samples}"])
    if args.samples > _MAX_SAMPLES:
        raise ScenarioError([f"--samples: {args.samples} samples, more than {_MAX_SAMPLES}"])
    material = seeded_material(material, args.seed)
    if args.mode == "compression":
        strains, forces = sample_compression_curve(material, samples=args.samples)
        rows = [{"strain": s, "force": f} for s, f in zip(strains.tolist(), forces.tolist())]
    else:
        angles, torques = sample_bending_curve(material, samples=args.samples)
        rows = [{"angle": a, "torque": t} for a, t in zip(angles.tolist(), torques.tolist())]
    _emit(result_record(args.command, rows, seed=args.seed, material=args.material, mode=args.mode), args)
    return EXIT_OK


_OVERRIDES = {"theta": "theta", "mu": "mu", "material": "material", "grid": "lift_step"}  # flag: field


def _apply_overrides(args, scn: Scenario) -> Scenario:
    """``scn`` edited by the given override flags under the scene-file rules."""
    given = {key: flag for flag, key in _OVERRIDES.items() if getattr(args, flag, None) is not None}
    if not given:
        return scn
    try:
        return edit_scenario(scn, {key: getattr(args, flag) for key, flag in given.items()})
    except ScenarioError as exc:  # name the flag the user typed, not the field
        split = [error.partition(": ") for error in exc.errors]
        raise ScenarioError([f"--{given[path]}: {why}" if path in given else path + sep + why
                             for path, sep, why in split]) from None


def _run_scene_command(args) -> int:
    """A command that runs one scene of its ``scene_kind``; an infeasible
    plan writes its reason in place of outputs."""
    scn, digest = load_scenario(args.scene, with_digest=True)
    if scn.kind != args.scene_kind:
        raise ScenarioError(
            [f"{args.scene}: scene kind is {scn.kind!r} but this command needs {args.scene_kind!r}"]
        )
    scn = _apply_overrides(args, scn)
    try:
        outputs = run_scenario(scn, seed=args.seed)
    except PlanError as exc:
        record = make_result_record(args.command, scn, {}, digest=digest, seed=args.seed)
        record.update(infeasible=True, reason=exc.reason.value, message=str(exc))
        _emit(record, args)
        return EXIT_INFEASIBLE
    _emit(make_result_record(args.command, scn, outputs, digest=digest, seed=args.seed), args)
    return EXIT_OK


def _run_sweep(args) -> int:
    scn, digest = load_scenario(args.scene, with_digest=True)
    values = _parse_values(args.values)
    try:
        rows = run_sweep(scn, args.axis, values, seed=args.seed)
    except PlanError as exc:
        print(f"origrip: sweep point infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    record = result_record(args.command, rows, digest=digest, seed=args.seed, scenario=scn.name, axis=args.axis)
    _emit(record, args)
    return EXIT_OK


def _run_scenes(args) -> int:
    _emit(result_record(args.command, [{"name": n} for n in list_demo_scenes()]), args)
    return EXIT_OK


# command: runner.  Runners call the writers, ``load_scenario``, ``run_scenario``
# and ``run_sweep`` by their module names, never through a table: a profiler
# that wraps those names in place sees every call.
_RUNNERS = {
    "kinematics": _run_kinematics,
    "material-curve": _run_material_curve,
    "grasp": _run_scene_command,
    "pullout": _run_scene_command,
    "multi": _run_scene_command,
    "compare": _run_scene_command,
    "sweep": _run_sweep,
    "scenes": _run_scenes,
}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, reading a known command's tokens once.

    The top-level parser would classify every token, then hand the tokens
    after the command to the command's parser, which reads them again.
    This takes the second step alone, as argparse's subparser action takes
    it: the command's parser reads the tokens, ``command`` is set, and
    leftover tokens are the top-level parser's "unrecognized arguments"
    error.  A token ``--=...`` goes the long way, since the top-level
    parser reports it as an ambiguous option before the command sees it.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    if not argv or argv[0] not in commands or any(token.startswith("--=") for token in argv):
        return parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:])
    args.command = argv[0]
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    """Run the command line ``argv`` (``sys.argv[1:]`` when None); return its exit code."""
    args = _parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except (ScenarioError, AngleRangeError, OpeningRangeError, _OutputError) as exc:
        print(f"origrip: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
