"""Seeded operation pools for the three benchmark workloads.

Every operation is one ``origrip`` command line.  A pool is a fixed,
stratified multiset of input categories (shape, material, finger count,
command, mutation kind); the seed draws the continuous parameters and the
order.  Keeping the category mix fixed is what keeps the per-run figures
steady across seeds: a run cycles through its pool, so every run sees the
same mix whatever the seed.

The package only ever sees the scene files written here and the argv
lists; nothing in this module imports ``origrip``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml

WORKLOADS = ("theta_sweep", "pullout_trace", "cli_mixed")

SHAPES = ("sphere", "cube", "cuboid", "cylinder", "curved_block")
MATERIALS = ("tpu95a", "sil950")
FINGERS = (2, 4)
BUNDLED_DIR = "src/origrip/scenes"

# Default drive geometry (transmission.TransmissionLaw / GripperConfig):
# opening(theta) = 2 * (r0 - slope * theta - module_offset).
_R0, _SLOPE, _OFFSET = 54.0, 25.0 / 90.0, 15.0
THETA_MIN, THETA_MAX = 0.0, 90.0

SWEEP_POINTS = 20

# Invalid-input family for cli_mixed; every pool holds one op per mutation
# kind and one per non-finite case.
MUTATIONS = ("unknown_key", "missing_field", "out_of_range", "malformed_yaml", "short_probe")
# (command, dotted field, YAML literal) for the non-finite mutation.
NONFINITE_CASES = (
    ("grasp", "mu", ".nan"),
    ("grasp", "mu", ".inf"),
    ("grasp", "object.mass", ".inf"),
    ("grasp", "theta", ".nan"),
    ("pullout", "mu", ".nan"),
    ("multi", "mu", ".nan"),
    ("multi", "top.mass", ".inf"),
    ("compare", "cycle.travel_speed", ".inf"),
)

# Expected outcome classes used by the checker.
EXPECT_OK = "ok"                       # exit 0
EXPECT_PLAN = "plan"                   # exit 0, or exit 1 with a valid reason
EXPECT_SIZE_ORDER = "size_order"       # exit 1, reason size_order
EXPECT_INVALID = "invalid"             # exit 2, clean message, no output


@dataclass(frozen=True)
class Op:
    """One command line plus what the checker needs to judge its output."""

    id: str
    argv: tuple[str, ...]
    expect: str
    scene: dict | None = None          # the mapping written to the scene file
    mutation: str | None = None        # invalid-input label, e.g. "nonfinite:grasp:mu=.nan"
    values: tuple[float, ...] = ()     # sweep values, in order


@dataclass
class Pool:
    workload: str
    seed: int
    ops: list[Op]
    files: dict[str, str] = field(default_factory=dict)   # relative path -> text


class _Rng(random.Random):
    """``random.Random`` that draws from a fixed stratified design.

    Every ``uniform(lo, hi)`` range is cut into STRATA equal bins.  Which bin
    each successive draw from a range falls in, and which item each
    ``choice`` picks, come from a design fixed per workload: every run of
    STRATA draws visits every bin once.  Only the position inside the bin
    comes from the seed, and the builders shuffle the finished pool with
    it.  Pools from different seeds thus hold different values with the
    same spread and pairing, so per-run figures depend little on the seed.
    """

    STRATA = 8

    def __init__(self, seed: str, design: str):
        self._design = random.Random(design)
        self._queues: dict[tuple, list] = {}
        super().__init__(seed)

    def _next(self, key: tuple, fresh) -> object:
        queue = self._queues.setdefault(key, [])
        if not queue:
            queue.extend(fresh())
            self._design.shuffle(queue)
        return queue.pop()

    def uniform(self, lo: float, hi: float) -> float:
        k = self._next(("uniform", lo, hi), lambda: range(self.STRATA))
        return lo + (hi - lo) * (k + self.random()) / self.STRATA

    def choice(self, seq):
        return self._next(("choice", tuple(seq)), lambda: list(seq))


def theta_touch(width: float) -> float:
    """Closure angle at which the jaws first touch an object of this width."""
    return (_R0 - _OFFSET - width / 2.0) / _SLOPE


def _u(rng: _Rng, lo: float, hi: float, nd: int = 3) -> float:
    return round(rng.uniform(lo, hi), nd)


def _object(rng: _Rng, shape: str, tall: bool) -> tuple[dict, float]:
    """Random object mapping and its grasp width.  ``tall`` objects span
    both module levels (heights 20 and 60 mm) from z = 0."""
    h_lo = 64.0 if tall else 40.0
    if shape == "sphere":
        d = _u(rng, 64.0 if tall else 50.0, 76.0)
        return {"shape": shape, "size": [d]}, d
    if shape == "cube":
        e = _u(rng, 64.0 if tall else 50.0, 76.0)
        return {"shape": shape, "size": [e]}, e
    if shape == "cuboid":
        w, d, h = _u(rng, 44.0, 76.0), _u(rng, 30.0, 70.0), _u(rng, h_lo, 110.0)
        return {"shape": shape, "size": [w, d, h]}, w
    if shape == "cylinder":
        d, h = _u(rng, 44.0, 76.0), _u(rng, h_lo, 110.0)
        return {"shape": shape, "size": [d, h]}, d
    w, h = _u(rng, 44.0, 76.0), _u(rng, max(h_lo, 50.0), 100.0)
    r = _u(rng, h / 2.0 + 5.0, 1.5 * h)
    return {"shape": "curved_block", "size": [r, w, h]}, w


def _mass(rng: _Rng) -> float:
    return _u(rng, 0.01, 0.2, 4)


def _single_grasp(rng, shape, material, fingers, tall=False) -> tuple[dict, float]:
    obj, width = _object(rng, shape, tall)
    obj["mass"] = _mass(rng)
    theta = min(THETA_MAX, theta_touch(width) + _u(rng, 1.0, 20.0))
    scene = {
        "kind": "single_grasp",
        "material": material,
        "mu": _u(rng, 0.05, 1.0),
        "theta": round(theta, 3),
        "gripper": {"finger_count": fingers},
        "object": obj,
    }
    return scene, width


def _pullout(rng, shape, material, fingers, lift_step=None) -> dict:
    obj, width = _object(rng, shape, tall=True)
    theta = min(THETA_MAX, theta_touch(width) + _u(rng, 2.0, 20.0))
    scene = {
        "kind": "pullout",
        "material": material,
        "mu": _u(rng, 0.05, 1.0),
        "theta": round(theta, 3),
        "gripper": {"finger_count": fingers},
        "object": obj,
    }
    if lift_step is not None:
        scene["lift_step"] = lift_step
    return scene


def _stacked(rng, top_shape, bottom_shape, material, fingers, gap: tuple[float, float]) -> dict:
    """Stacked pair in the planner's intended envelope; ``gap`` is the range
    of top-minus-bottom width (negative means the bottom is wider)."""
    top_w = _u(rng, 54.0, 66.0)
    bottom_w = round(top_w - rng.uniform(*gap), 3)
    return {
        "kind": "stacked",
        "material": material,
        "mu": 0.5,
        "clearance": _u(rng, 0.0, 4.0),
        "safety": 1.2,
        "gripper": {"finger_count": fingers},
        "top": {"shape": top_shape, "size": [top_w], "mass": _u(rng, 0.005, 0.02, 4)},
        "bottom": {"shape": bottom_shape, "size": [bottom_w], "mass": _u(rng, 0.005, 0.02, 4)},
    }


def _pickplace(rng) -> dict:
    x_bottom = _u(rng, 40.0, 250.0)
    return {
        "kind": "pickplace",
        "cycle": {
            "pick": [0.0, 0.0],
            "place_bottom": [x_bottom, _u(rng, -50.0, 50.0)],
            "place_top": [x_bottom + _u(rng, 30.0, 120.0), _u(rng, -50.0, 50.0)],
            "approach_height": _u(rng, 30.0, 90.0),
            "descend_speed": _u(rng, 5.0, 20.0),
            "ascend_speed": _u(rng, 5.0, 20.0),
            "travel_speed": _u(rng, 10.0, 60.0),
            "grasp_dwell": _u(rng, 0.5, 3.0),
            "release_dwell": _u(rng, 0.5, 3.0),
        },
    }


def _dump(scene: dict) -> str:
    return yaml.safe_dump(scene, sort_keys=True)


class _Builder:
    def __init__(self, workload: str, seed: int, scene_dir: str):
        self.rng = _Rng(f"origrip-perfbench:{workload}:{seed}", f"origrip-perfbench:{workload}")
        self.pool = Pool(workload, seed, [])
        self.scene_dir = scene_dir

    def scene_file(self, text: str) -> str:
        path = f"{self.scene_dir}/{len(self.pool.files):04d}.yaml"
        self.pool.files[path] = text
        return path

    def add(self, op_id: str, argv: list[str], expect: str, **kw) -> None:
        self.pool.ops.append(Op(op_id, tuple(argv), expect, **kw))

    def scene_op(self, op_id, command, scene, expect=EXPECT_OK, extra=(), **kw) -> None:
        path = self.scene_file(_dump(scene))
        self.add(op_id, [command, "--scene", path, *extra], expect, scene=scene, **kw)


def _categories(repeats: int) -> list[tuple]:
    return list(itertools.product(SHAPES, MATERIALS, FINGERS)) * repeats


def _build_theta_sweep(b: _Builder) -> None:
    for i, (shape, material, fingers) in enumerate(_categories(5)):
        scene, width = _single_grasp(b.rng, shape, material, fingers)
        lo = theta_touch(width) + _u(b.rng, 0.5, 3.0)
        step = round(min(_u(b.rng, 0.5, 1.5), (THETA_MAX - lo) / (SWEEP_POINTS - 0.5)), 4)
        lo = round(lo, 3)
        values = tuple(round(lo + k * step, 12) for k in range(SWEEP_POINTS))
        # half a step of slack keeps the CLI's float accumulation at SWEEP_POINTS
        spec = f"{lo:g}:{lo + (SWEEP_POINTS - 0.5) * step:.6f}:{step:g}"
        b.scene_op(
            f"sweep/{i:02d}/{shape}-{material}-{fingers}f",
            "sweep",
            scene,
            extra=("--axis", "theta", "--values", spec),
            values=values,
        )


_STEP_BINS = ((0.1, 0.15), (0.15, 0.2), (0.2, 0.25))


def _build_pullout_trace(b: _Builder) -> None:
    for i, (shape, material, fingers) in enumerate(_categories(5)):
        lo, hi = _STEP_BINS[i % len(_STEP_BINS)]
        scene = _pullout(b.rng, shape, material, fingers, lift_step=_u(b.rng, lo, hi))
        b.scene_op(f"pullout/{i:02d}/{shape}-{material}-{fingers}f", "pullout", scene)


_BUNDLED_OPS = (
    ("grasp", "grasp_enveloping"),
    ("grasp", "grasp_parallel"),
    ("pullout", "pullout_enveloping"),
    ("pullout", "pullout_parallel"),
    ("multi", "stacked_cubes"),
    ("multi", "stacked_cuboids"),
    ("multi", "stacked_sphere_cube"),
    ("multi", "stacked_spheres"),
    ("compare", "pickplace_comparison"),
)
_BLOCKS = 4


def _set_path(scene: dict, dotted: str, value) -> None:
    *parents, leaf = dotted.split(".")
    node = scene
    for key in parents:
        node = node[key]
    node[leaf] = value


def _valid_scene(b: _Builder, command: str) -> dict:
    rng = b.rng
    if command == "grasp":
        return _single_grasp(rng, rng.choice(SHAPES), rng.choice(MATERIALS), rng.choice(FINGERS))[0]
    if command == "pullout":
        return _pullout(rng, rng.choice(SHAPES), rng.choice(MATERIALS), rng.choice(FINGERS))
    if command == "multi":
        return _stacked(rng, "sphere", "cube", rng.choice(MATERIALS), rng.choice(FINGERS), (6.0, 12.0))
    return _pickplace(rng)


def _invalid_op(b: _Builder, kind: str | tuple, n: int) -> None:
    rng = b.rng
    command = rng.choice(("grasp", "pullout", "multi", "compare"))
    label = kind
    if isinstance(kind, tuple):
        command, dotted, literal = kind
        scene = _valid_scene(b, command)
        _set_path(scene, dotted, "@NONFINITE@")
        text = _dump(scene).replace("'@NONFINITE@'", literal)
        label = f"nonfinite:{command}:{dotted}={literal}"
    elif kind == "short_probe":
        command = "pullout"
        scene = _pullout(rng, "cube", rng.choice(MATERIALS), rng.choice(FINGERS))
        scene["object"] = {"shape": "cube", "size": [_u(rng, 30.0, 55.0)]}
        text = _dump(scene)
    else:
        scene = _valid_scene(b, command)
        if kind == "unknown_key":
            scene[rng.choice(("colour", "speed", "thetas"))] = 1
        elif kind == "missing_field":
            required = {"grasp": "theta", "pullout": "object", "multi": "top", "compare": "cycle"}
            del scene[required[command]]
        elif kind == "out_of_range":
            if command in ("grasp", "pullout"):
                scene["theta"] = _u(rng, 91.0, 150.0)
            elif command == "multi":
                scene["bottom"]["size"] = [-_u(rng, 1.0, 50.0)]
            else:
                scene["cycle"]["travel_speed"] = -_u(rng, 1.0, 50.0)
        text = _dump(scene)
        if kind == "malformed_yaml":
            text = text.rstrip("\n") + "\nextra: [1, 2\n"
    path = b.scene_file(text)
    b.add(f"invalid/{n:02d}/{label}", [command, "--scene", path], EXPECT_INVALID, mutation=label)


def _build_cli_mixed(b: _Builder) -> None:
    rng = b.rng
    # 13 of the pool's 117 scene files (about a tenth) are invalid
    invalid = list(MUTATIONS) + list(NONFINITE_CASES)
    chunks = [invalid[i::_BLOCKS] for i in range(_BLOCKS)]
    n_invalid = 0
    for block in range(_BLOCKS):
        for command, name in _BUNDLED_OPS:
            path = f"{BUNDLED_DIR}/{name}.yaml"
            expect = EXPECT_PLAN if command == "multi" else EXPECT_OK
            b.add(f"bundled/{command}/{name}", [command, "--scene", path], expect)
        for j in range(7):
            scene = _valid_scene(b, "grasp")
            extra: list[str] = []
            if j == 4:
                extra = ["--format", "csv"]
            elif j == 5:
                extra = ["--theta", f"{min(THETA_MAX, scene['theta'] + _u(rng, -5.0, 5.0)):g}"]
            elif j == 6:
                extra = ["--mu", f"{_u(rng, 0.05, 1.0):g}", "--material", rng.choice(MATERIALS)]
            b.scene_op(f"grasp/{block}/{j}", "grasp", scene, extra=extra)
        for j in range(2):
            extra = ["--format", "csv"] if j else []
            b.scene_op(f"pullout/{block}/{j}", "pullout", _valid_scene(b, "pullout"), extra=extra)
        for j in range(3):
            scene = _stacked(
                rng, rng.choice(("sphere", "cube")), rng.choice(("sphere", "cube")),
                rng.choice(MATERIALS), rng.choice(FINGERS), (6.0, 12.0),
            )
            extra = ["--format", "csv"] if j == 2 else []
            b.scene_op(f"multi/{block}/{j}", "multi", scene, EXPECT_PLAN, extra=extra)
        scene = _stacked(rng, "sphere", "sphere", rng.choice(MATERIALS), 4, (-12.0, -4.0))
        b.scene_op(f"multi/{block}/size_order", "multi", scene, EXPECT_SIZE_ORDER)
        scene = _stacked(rng, "cube", "cube", rng.choice(MATERIALS), 4, (22.0, 30.0))
        b.scene_op(f"multi/{block}/wide_gap", "multi", scene, EXPECT_PLAN)
        for j in range(2):
            extra = ["--format", "csv"] if j else []
            b.scene_op(f"compare/{block}/{j}", "compare", _pickplace(rng), extra=extra)
        speeds = sorted({_u(rng, 5.0, 80.0, 2) for _ in range(rng.randint(3, 6))})
        b.scene_op(
            f"sweep/{block}",
            "sweep",
            _pickplace(rng),
            extra=("--axis", "cycle.travel_speed", "--values", ",".join(f"{v:g}" for v in speeds)),
            values=tuple(speeds),
        )
        for j in range(4):
            if j == 2:
                argv = ["kinematics", "--opening", f"{_u(rng, 28.5, 77.5):g}"]
            else:
                argv = ["kinematics", "--theta", f"{_u(rng, THETA_MIN, THETA_MAX):g}"]
            if j == 3:
                argv += ["--format", "csv"]
            b.add(f"kinematics/{block}/{j}", argv, EXPECT_OK)
        for j in range(3):
            argv = [
                "material-curve",
                "--material", rng.choice(MATERIALS),
                "--mode", rng.choice(("compression", "bending")),
                "--samples", str(rng.randint(5, 150)),
            ]
            if j == 1:
                argv += ["--seed", str(rng.randint(0, 10_000))]
            if j == 2:
                argv += ["--format", "csv"]
            b.add(f"material-curve/{block}/{j}", argv, EXPECT_OK)
        b.add(f"scenes/{block}", ["scenes"], EXPECT_OK)
        for kind in chunks[block]:
            _invalid_op(b, kind, n_invalid)
            n_invalid += 1


_BUILDERS = {
    "theta_sweep": _build_theta_sweep,
    "pullout_trace": _build_pullout_trace,
    "cli_mixed": _build_cli_mixed,
}


def build_pool(workload: str, seed: int, scene_dir: str) -> Pool:
    """Operations and scene-file texts for one workload and seed.

    ``scene_dir`` is the directory (relative to the repository root) that
    the argv lists name; nothing is written here.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    builder = _Builder(workload, seed, scene_dir)
    _BUILDERS[workload](builder)
    builder.rng.shuffle(builder.pool.ops)
    return builder.pool


def write_pool(pool: Pool, root: Path) -> None:
    for rel, text in pool.files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
