"""Scene files, result records, and parameter sweeps.

Scenes are YAML mappings with a ``kind`` discriminator:

``single_grasp``
    One object squeezed at a fixed closure angle; reports contacts, squeeze
    force, extraction capacity, and closure properties.
``pullout``
    A clamped probe with the gripper rising; reports the full
    extraction-resistance trace and its stage markers.
``stacked``
    Two stacked objects; reports the release schedule and a simulated
    carry/drop timeline.
``pickplace``
    Workcell geometry only; reports sequential vs. multi-object transport
    distance and time.

The loader validates strictly: unknown keys and non-finite numbers are
rejected and all problems are reported in one pass with dotted field paths.
One field table per scene section (key, type, default) drives reading,
writing back, sweep axes and command-line overrides; a number's range is
the one ``_finite.RANGES`` gives its key.  Materials are looked up by name
in the built-in table, optionally extended by the YAML file named in the
``ORIGRIP_MATERIALS`` environment variable and by a scene-level
``materials`` section (scene entries win; the file is read only for a
material the scene does not define).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import cache
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Any, Union

import yaml

from ._finite import Range, field_problem
from ._version import __version__
from .grasp import ContactSet, _closures, _point_totals, _resolve, default_lift_grid, pullout_trace
from .mechanics import BUILTIN_MATERIALS, MaterialModel, perturbed
from .planner import PlanError, StackedScene, make_stacked_scene, plan_stacked, simulate_plan
from .shapes import DIM_COUNTS, ObjectShape, Pose, ShapeKind, grasp_width
from .trajectory import CycleSpec, compare_cycles
from .transmission import FINGER_COUNTS, GripperConfig, TransmissionLaw, opening

MATERIALS_ENV_VAR = "ORIGRIP_MATERIALS"


class ScenarioError(ValueError):
    """Validation failure carrying every problem found, not just the first."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        lines = "\n".join(f"  - {e}" for e in self.errors)
        super().__init__(f"invalid scenario ({len(self.errors)} problem(s)):\n{lines}")


# --------------------------------------------------------------------------
# loaded scenario types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SingleGraspScenario:
    name: str
    config: GripperConfig
    material: MaterialModel
    mu: float
    torque_scale: float
    theta: float
    obj: ObjectShape
    materials: tuple[MaterialModel, ...] = ()   # the scene's own, and the one in use

    kind = "single_grasp"


@dataclass(frozen=True)
class PulloutScenario:
    name: str
    config: GripperConfig
    material: MaterialModel
    mu: float
    torque_scale: float
    theta: float
    probe: ObjectShape
    lift_step: float
    materials: tuple[MaterialModel, ...] = ()   # the scene's own, and the one in use

    kind = "pullout"


@dataclass(frozen=True)
class StackedScenario:
    name: str
    scene: StackedScene
    clearance: float
    materials: tuple[MaterialModel, ...] = ()   # the scene's own, and the one in use

    kind = "stacked"


@dataclass(frozen=True)
class PickPlaceScenario:
    name: str
    spec: CycleSpec

    kind = "pickplace"


Scenario = Union[SingleGraspScenario, PulloutScenario, StackedScenario, PickPlaceScenario]


# --------------------------------------------------------------------------
# field tables
# --------------------------------------------------------------------------

NUMBER, INTEGER, TEXT, NUMBERS, SECTION, SECTIONS = (
    "number", "integer", "text", "number list", "section", "named sections"
)


@dataclass(frozen=True, eq=False)
class Field:
    """One key of a scene section: its type and default.

    A missing optional key reads as ``default``; None leaves it to the
    dataclass the section builds.  A number, and every item of a number
    list, must lie in the range ``_finite.RANGES`` gives for the key.
    ``attr`` is where the writer finds the value on the built object: a
    dotted attribute path (the key by default), one path per item for a
    number list kept as separate attributes, or for named sections the
    paths of all entries and of the one in use.  ``convert`` maps a checked
    value, given the section's earlier values that read cleanly, to what the
    section is built from, and raises ValueError when it cannot; one judging
    it against an earlier field that failed says nothing, as that field did.
    """

    key: str
    type: str = NUMBER
    required: bool = False
    default: Any = None
    choices: tuple | None = None
    lengths: tuple[int, ...] = ()
    section: Section | None = None
    attr: str | tuple[str, ...] | None = None
    convert: Callable[[Any, dict], Any] | None = None


@dataclass(frozen=True, eq=False)
class Section:
    """A mapping of fields, built into one object once every field reads
    cleanly; any other key is unknown."""

    fields: tuple[Field, ...]
    build: Callable[[dict], Any]

    def __post_init__(self):
        object.__setattr__(self, "keys", frozenset(f.key for f in self.fields))


def _write(fields: tuple[Field, ...], obj: Any) -> dict:
    """``fields`` of the built object ``obj`` as plain data: every field,
    defaults included."""
    out = {}
    for field in fields:
        attr = field.attr or field.key
        value = attrgetter(*attr)(obj) if isinstance(attr, tuple) else attrgetter(attr)(obj)
        if field.type == SECTION:
            value = _write(field.section.fields, value)
        elif field.type == SECTIONS:  # the scene's own materials and the one it uses
            entries, used = value
            value = {m.name: _write(field.section.fields, m) for m in (*entries, used)}
        elif field.type == NUMBERS:
            value = list(value)
        out[field.key] = value
    return out


_FAILED = object()  # a field or section that did not read cleanly


def _count_problem(counts: tuple[int, ...], got: int) -> str:
    return f"expected {' or '.join(map(str, counts))} value(s), got {got}"


def _size_of_shape(size: tuple[float, ...], values: dict) -> tuple[float, ...]:
    """``size`` with the shape's count of numbers; none to judge against when the shape failed."""
    if "shape" in values and len(size) not in (counts := DIM_COUNTS[ShapeKind(values["shape"])]):
        raise ValueError(_count_problem(counts, len(size)))
    return size


def _theta_in_law(theta: float, values: dict) -> float:
    """``theta`` inside the law's angle range; none to judge against when
    the gripper failed."""
    if "gripper" in values:
        law = values["gripper"].law
        if not law.theta_min <= theta <= law.theta_max:  # a NaN too
            raise ValueError(Range(law.theta_min, law.theta_max).problem(theta))
    return theta


def _pick_material(name: str, values: dict) -> MaterialModel:
    """The scene's own material ``name`` (_FAILED when that entry failed), else
    the one ``material_table`` gives.  When ``materials`` failed, a built-in,
    and _FAILED for any other name, which the failed section may define."""
    own = values.get("materials")
    if own is None:
        return BUILTIN_MATERIALS.get(name, _FAILED)
    if name in own:
        return own[name]
    table = {**material_table(), **{key: entry for key, entry in own.items() if entry is not _FAILED}}
    if name not in table:
        raise ValueError(f"unknown material {name!r}; known: {', '.join(sorted(table))}")
    return table[name]


def _carried_materials(values: dict) -> tuple[MaterialModel, ...]:
    """The scene's own materials plus the one in use, which a scene file
    written back defines; the rest of the lookup table stays out."""
    return tuple({**values["materials"], values["material"].name: values["material"]}.values())


def _object_section(default_name: str, with_z: bool) -> Section:
    def build(v: dict) -> ObjectShape:
        pose = Pose(**{k: v.pop(k) for k in ("z", "yaw") if k in v})
        name = v.pop("name", "") or default_name
        return ObjectShape(ShapeKind(v.pop("shape")), v.pop("size"), name=name, pose=pose, **v)

    fields = (
        Field("shape", TEXT, required=True, choices=tuple(kind.value for kind in ShapeKind), attr="kind.value"),
        Field("size", NUMBERS, required=True, lengths=tuple(sorted(set().union(*DIM_COUNTS.values()))),
              attr="dims", convert=_size_of_shape),
        Field("mass"),
        Field("name", TEXT),
        Field("yaw", attr="pose.yaw"),
    )
    z = Field("z", attr="pose.z")
    return Section(fields + ((z,) if with_z else ()), build)


_LAW = Section(tuple(map(Field, ("r0", "slope", "theta_min", "theta_max"))), lambda v: TransmissionLaw(**v))

_GRIPPER = Section(
    (
        Field("law", SECTION, section=_LAW),
        Field("finger_count", INTEGER, choices=FINGER_COUNTS),
        *(Field(key) for key in ("module_offset", "module_height", "rest_depth", "panel_span", "bend_lever_arm")),
        Field("curvature_threshold"),
        Field("module_levels", NUMBERS, lengths=(1, 2, 3, 4)),
    ),
    lambda v: GripperConfig(**v),
)

_MATERIAL = Section(
    (
        Field("plateau_force", required=True),
        Field("force_band", default=0.05),
        Field("plateau_torque", required=True),
        Field("torque_band", default=0.05),
        Field("strain_range", NUMBERS, lengths=(2,), attr=("strain_lo", "strain_hi")),
        Field("angle_range", NUMBERS, lengths=(2,), attr=("angle_lo", "angle_hi")),
        Field("overload_stiffness"),
    ),
    lambda v: MaterialModel(**v),
)

_CYCLE = Section(
    (
        *(Field(key, NUMBERS, lengths=(2,)) for key in ("pick", "place_bottom", "place_top")),
        *(Field(key) for key in ("approach_height", "descend_speed", "ascend_speed", "travel_speed")),
        *(Field(key) for key in ("grasp_dwell", "release_dwell")),
    ),
    lambda v: CycleSpec(**v),
)


def _mech_fields(src: str) -> tuple[Field, ...]:
    """Gripper, material and friction fields of the grasping kinds; ``src``
    is the attribute prefix under which the scenario keeps them."""
    return (
        Field("gripper", SECTION, section=_GRIPPER, attr=src + "config"),
        Field("materials", SECTIONS, section=_MATERIAL, attr=("materials", src + "material")),
        Field("material", TEXT, required=True, attr=src + "material.name", convert=_pick_material),
        Field("mu", default=0.5, attr=src + "mu"),
        Field("torque_scale", default=1.0, attr=src + "torque_scale"),
    )


_THETA = Field("theta", required=True, convert=_theta_in_law)


def _grasp_kind(cls: type, obj_attr: str, default_name: str, *extra: Field) -> Section:
    """A single-object kind: contact fields, theta, ``extra`` and the object."""
    obj = Field("object", SECTION, required=True, section=_object_section(default_name, True), attr=obj_attr)
    return Section(
        _mech_fields("") + (_THETA, *extra, obj),
        lambda v: cls(
            v["name"], v["gripper"], v["material"], v["mu"], v["torque_scale"], v["theta"], v["object"],
            *(v[f.key] for f in extra), _carried_materials(v),
        ),
    )


# each kind's section reads the scene less its ``kind`` and ``name``
_KINDS: dict[str, Section] = {
    "single_grasp": _grasp_kind(SingleGraspScenario, "obj", "object"),
    "pullout": _grasp_kind(
        PulloutScenario, "probe", "probe",
        Field("lift_step", default=0.5),
    ),
    "stacked": Section(
        _mech_fields("scene.") + (
            Field("clearance", default=0.0),
            Field("safety", default=1.2, attr="scene.safety"),
            Field("top", SECTION, required=True, section=_object_section("top", False), attr="scene.top"),
            Field("bottom", SECTION, required=True, section=_object_section("bottom", False),
                  attr="scene.bottom"),
        ),
        lambda v: StackedScenario(
            v["name"],
            make_stacked_scene(
                v["top"], v["bottom"], v["clearance"], v["gripper"], v["material"], v["mu"],
                v["safety"], v["torque_scale"],
            ),
            v["clearance"],
            _carried_materials(v),
        ),
    ),
    "pickplace": Section(
        (Field("cycle", SECTION, required=True, section=_CYCLE, attr="spec"),),
        lambda v: PickPlaceScenario(v["name"], v["cycle"]),
    ),
}

_KIND = Field("kind", TEXT, required=True, choices=tuple(_KINDS))
_NAME = Field("name", TEXT)

_ROOT = (_KIND, _NAME)


# --------------------------------------------------------------------------
# reading and writing through the tables
# --------------------------------------------------------------------------


def _fail(errors: list[str], path: str, message: str) -> object:
    errors.append(f"{path}: {message}")
    return _FAILED


def _read_section(errors: list[str], data: Any, path: str, section: Section, values: dict, label: str = "") -> Any:
    """Build ``section`` from mapping ``data``, or report why not and return
    _FAILED; its own problems are named ``label``, or else ``path``."""
    if not isinstance(data, Mapping):
        return _fail(errors, label or path, f"expected a mapping, got {type(data).__name__}")
    prefix = f"{path}." if path else ""
    if not section.keys.issuperset(data):
        for key in data:
            if key not in section.keys:
                _fail(errors, f"{prefix}{key}", "unknown key")
    clean = len(errors)
    for field in section.fields:
        value = _read_field(errors, data, prefix + field.key, field, values)
        if value is _FAILED or value is None:
            continue
        if isinstance(field.attr, tuple) and field.type == NUMBERS:
            values.update(zip(field.attr, value))
        else:
            values[field.key] = value
    if len(errors) > clean:
        return _FAILED
    try:
        return section.build(values)
    except ValueError as exc:
        return _fail(errors, label or path, str(exc))


def _read_field(errors: list[str], data: Mapping, where: str, field: Field, values: dict) -> Any:
    """The field's checked value, its default when missing, or _FAILED."""
    raw = data.get(field.key, _FAILED)
    if raw is None or raw is _FAILED:
        if field.section is not None and not field.required:
            raw = {}  # an absent or empty optional section takes its defaults
        elif raw is _FAILED:
            return _fail(errors, where, "required field is missing") if field.required else field.default
    kind = field.type
    if kind == NUMBER:
        value = _number(errors, raw, where, field)
    elif kind == SECTION:
        value = _read_section(errors, raw, where, field.section, {})
    elif kind == SECTIONS:
        value = _read_named(errors, raw, where, field.section)
    elif kind == NUMBERS and not isinstance(raw, (list, tuple)):
        value = _fail(errors, where, f"expected a list of numbers, got {type(raw).__name__}")
    elif kind == NUMBERS and len(raw) not in field.lengths:
        value = _fail(errors, where, _count_problem(field.lengths, len(raw)))
    elif kind == NUMBERS:
        value = tuple([_number(errors, item, where, field, i) for i, item in enumerate(raw)])
        value = _FAILED if _FAILED in value else value
    elif kind == TEXT and not isinstance(raw, str):
        value = _fail(errors, where, f"expected a string, got {type(raw).__name__}")
    elif kind == INTEGER and (isinstance(raw, bool) or not isinstance(raw, int)):
        value = _fail(errors, where, f"expected an integer, got {type(raw).__name__}")
    elif field.choices is not None and raw not in field.choices:
        value = _fail(errors, where, f"must be one of {list(field.choices)}, got {raw!r}")
    else:
        value = raw
    if value is not _FAILED and field.convert is not None:
        try:
            value = field.convert(value, values)
        except ScenarioError as exc:
            errors.extend(exc.errors)
            value = _FAILED
        except ValueError as exc:
            value = _fail(errors, where, str(exc))
    return value


def _number(errors: list[str], raw: Any, where: str, field: Field, index: int | None = None) -> Any:
    """``raw`` (item ``index`` of a list) as a finite float inside the
    key's range, or _FAILED."""
    if raw.__class__ is not float and (isinstance(raw, bool) or not isinstance(raw, (int, float))):
        why = f"expected a number, got {type(raw).__name__}"
    else:
        try:
            value = float(raw)
        except OverflowError:  # an integer past the float range reads as infinite
            value = math.inf if raw > 0 else -math.inf
        if (why := field_problem(field.key, value)) is None:
            return value
    return _fail(errors, where if index is None else f"{where}[{index}]", why)


def _read_named(errors: list[str], data: Any, path: str, section: Section) -> Any:
    """Each entry of a mapping of named sections, built, or _FAILED where it
    did not read cleanly, so that a field naming it reports nothing more."""
    if not isinstance(data, Mapping):
        return _fail(errors, path, f"expected a mapping, got {type(data).__name__}")
    return {
        str(name): _read_section(errors, body, f"{path}.{name}", section, {"name": str(name)})
        for name, body in data.items()
    }


def _field_at(fields: tuple[Field, ...], parts: Sequence[str]) -> Field | None:
    """Table entry for a dotted path into a written scene, if there is one."""
    for field in fields:
        if field.key == parts[0]:
            if len(parts) == 1:
                return field
            if field.section is None:
                return None
            rest = parts[1:] if field.type == SECTION else parts[2:]
            return _field_at(field.section.fields, rest) if rest else None
    return None


# --------------------------------------------------------------------------
# loading
# --------------------------------------------------------------------------


def parse_scenario(data: Any, source: str = "<dict>") -> Scenario:
    """Validate a raw mapping and assemble the typed scenario."""
    where = source if source != "<dict>" else "scenario"
    if not isinstance(data, Mapping):
        raise ScenarioError([f"{where}: expected a mapping, got {type(data).__name__}"])
    errors: list[str] = []
    kind = _read_field(errors, data, "kind", _KIND, {})
    if errors:
        raise ScenarioError(errors)
    name = _read_field(errors, data, "name", _NAME, {})
    if not isinstance(name, str) or not name:
        name = Path(source).stem if source not in ("<dict>", "") else "scenario"
    body = {key: value for key, value in data.items() if key not in ("kind", "name")}
    scn = _read_section(errors, body, "", _KINDS[kind], {"name": name}, where)
    if errors:
        raise ScenarioError(errors)
    return scn


_TAG = "tag:yaml.org,2002:"
_STR, _FLOAT, _SEQ, _MAP = (_TAG + name for name in ("str", "float", "seq", "map"))
_BAD_VALUE = (ValueError, LookupError, AttributeError, TypeError)  # what a tag's constructor raises on a bad value


def _marked(construct: Callable) -> Callable:
    """``construct`` raising a value it cannot convert as a YAMLError at its node."""
    def run(loader: Any, node: yaml.Node) -> Any:
        try:
            return construct(loader, node)
        except _BAD_VALUE:
            what = repr(node.value) if node.id == "scalar" else f"this {node.id}"
            raise yaml.constructor.ConstructorError(
                None, None, f"cannot read {what} as {node.tag}", node.start_mark) from None
    return run


_CONSTRUCTORS = {tag: _marked(construct) for tag, construct in yaml.SafeLoader.yaml_constructors.items()}
_SCALARS = {_TAG + name: yaml.SafeLoader.yaml_constructors[_TAG + name] for name in ("null", "bool", "int", "float")}


class _Unplain(Exception):
    """A node ``_build`` leaves to PyYAML's constructor."""


def _build(node: yaml.Node, loader: Any, built: dict) -> Any:
    """The data of a composed node, as ``SafeConstructor`` builds it; raises
    _Unplain at a node it leaves to PyYAML (see ``_load_yaml``).  ``built``
    holds the map and list of each node built so far."""
    kind = node.__class__
    if kind is yaml.ScalarNode:
        if node.tag == _STR:
            return node.value
        if node.tag == _FLOAT:
            try:
                value = float(node.value)
            except ValueError:  # ".inf", "1:30", "1__0.5": PyYAML's own spellings
                pass
            else:  # a finite float reads as PyYAML reads it; PyYAML makes its own inf and nan
                if math.isfinite(value):
                    return value
        construct = _SCALARS.get(node.tag)
        if construct is None:
            raise _Unplain
        return construct(loader, node)
    if node in built:  # an alias: one object, as PyYAML shares it
        return built[node]
    if kind is yaml.MappingNode and node.tag == _MAP:
        data = built[node] = {}
        for key_node, value_node in node.value:
            if key_node.__class__ is not yaml.ScalarNode:  # PyYAML refuses a list or map key
                raise _Unplain
            key = _build(key_node, loader, built)
            data[key] = _build(value_node, loader, built)
        return data
    if kind is yaml.SequenceNode and node.tag == _SEQ:
        data = built[node] = []
        for item in node.value:
            data.append(_build(item, loader, built))
        return data
    raise _Unplain


# Each collection a YAML text opens starts at one of these marks of its own
# (a flow '[' or '{', or the '-', ':' or '?' of a block's first entry), so
# their count bounds the depth of its nesting.  libyaml overruns an 8 MB C
# stack near 22,000 levels; a scene file holds a few dozen marks.
_NESTING_MARKS = "[{-:?"
_LIBYAML_NESTING = 1_000


@cache  # one class per loader class given
def _lean(loader_class: type) -> type:
    """``loader_class`` with the resolver hooks that its composer calls at
    every node cut to what a safe loader needs.  ``resolve`` returns the tag
    ``BaseResolver.resolve`` returns, from the same implicit resolvers: a
    plain scalar tries those filed under its first character, then those
    filed under None.  A safe loader has no path resolvers, so
    ``descend_resolver`` and ``ascend_resolver`` do nothing."""

    def resolve(self: Any, kind: type, value: Any, implicit: tuple[bool, bool]) -> str | None:
        if kind is yaml.ScalarNode:
            if implicit[0]:
                resolvers = self.yaml_implicit_resolvers
                for tag, regexp in resolvers.get(value[:1], ()):
                    if regexp.match(value):
                        return tag
                for tag, regexp in resolvers.get(None, ()):
                    if regexp.match(value):
                        return tag
            return self.DEFAULT_SCALAR_TAG
        if kind is yaml.SequenceNode:
            return self.DEFAULT_SEQUENCE_TAG
        if kind is yaml.MappingNode:
            return self.DEFAULT_MAPPING_TAG
        return None

    def skip(self: Any, *node: Any) -> None:
        pass

    hooks = {"resolve": resolve, "descend_resolver": skip, "ascend_resolver": skip}
    return type(loader_class.__name__, (loader_class,), hooks)


def _load_with(text: str, loader_class: type) -> Any:
    """``yaml.load(text, loader_class)`` as ``_load_yaml`` builds it."""
    loader = _lean(loader_class)(text)
    try:
        root = loader.get_single_node()
        if root is None:
            return None
        try:
            return _build(root, loader, {})
        except (_Unplain, RecursionError, *_BAD_VALUE):
            loader.yaml_constructors = _CONSTRUCTORS
            return loader.construct_document(root)
    finally:
        loader.dispose()


def _load_yaml(text: str) -> Any:
    """``yaml.safe_load(text)``, composed by libyaml when it is installed
    and the text cannot nest deeper than libyaml's C stack allows.

    The composed node tree is built into data by one walk, ``_build``: it
    builds ``str``, ``int``, ``float``, ``bool`` and ``null`` scalars (the
    last four through ``SafeConstructor``'s own constructors, or ``float``
    for a finite float), and plain maps and lists, one object per node so
    that aliases share it.  Any other node (a merge key ``<<``, a value key
    ``=``, a list or map as a key, a timestamp, binary, set, omap, pairs or
    unknown tag), a value its tag cannot convert, or nesting too deep for
    the walk hands the whole tree to PyYAML's ``construct_document``, so
    every text loads exactly as ``yaml.safe_load`` loads it, with one
    exception: a tag whose constructor cannot convert its value
    (``!!int 1.5``, ``!!bool maybe``, ``!!timestamp xyz``) raises a
    YAMLError marked at that node, not the ValueError, KeyError or other
    error PyYAML lets through.  Either loader composes through ``_lean``,
    whose resolver tags each node as PyYAML's does with less work per node.

    A text libyaml refuses is read again by the Python loader, whose
    verdict (and error message, with its source snippet) stands.  So is a
    text that may nest deeper than ``_LIBYAML_NESTING``: libyaml's composer
    recurses in C once per level and overruns the C stack, killing the
    process, where the Python loader's recursion stops at Python's limit,
    read here as a YAMLError.
    """
    fast = getattr(yaml, "CSafeLoader", None)
    try:
        if fast is not None and sum(map(text.count, _NESTING_MARKS)) <= _LIBYAML_NESTING:
            try:
                return _load_with(text, fast)
            except yaml.YAMLError:
                pass
        return _load_with(text, yaml.SafeLoader)
    except RecursionError:
        raise yaml.YAMLError("collections nested too deeply to read") from None


def _read_yaml(path: Path) -> tuple[Any, bytes]:
    """The YAML data in the UTF-8 file at ``path``, and the bytes read.

    Line ends read as ``Path.read_text`` reads them.  Raises OSError,
    UnicodeDecodeError or yaml.YAMLError.
    """
    raw = path.read_bytes()
    return _load_yaml(raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")), raw


def load_scenario(path: str | Path, *, with_digest: bool = False) -> Scenario | tuple[Scenario, str]:
    """The scenario in the scene file at ``path``.

    ``with_digest`` returns it paired with the ``scenario_digest`` of the
    bytes it was parsed from, so a command that records the digest reads
    the file once.
    """
    path = Path(path)
    try:
        data, raw = _read_yaml(path)
    except OSError as exc:
        raise ScenarioError([f"{path}: cannot read file: {exc}"]) from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError([f"{path}: not UTF-8 text: {exc}"]) from exc
    except yaml.YAMLError as exc:
        raise ScenarioError([f"{path}: not valid YAML: {exc}"]) from exc
    scn = parse_scenario(data, source=str(path))
    return (scn, _digest(raw)) if with_digest else scn


def scenario_digest(path: str | Path) -> str:
    """Stable identity of a scene file (sha256 of its bytes)."""
    return _digest(Path(path).read_bytes())


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def scenario_to_dict(scn: Scenario) -> dict:
    """Plain mapping that parses back to an equivalent scenario.

    Every table field is written, including those that hold their default,
    so any numeric field can be a sweep axis.  ``materials`` holds the
    scene's own materials and the one in use; the rest of the built-in and
    ``ORIGRIP_MATERIALS`` table is left out.
    """
    if not isinstance(scn, (SingleGraspScenario, PulloutScenario, StackedScenario, PickPlaceScenario)):
        raise TypeError(f"not a scenario: {type(scn).__name__}")
    return _write(_ROOT + _KINDS[scn.kind].fields, scn)


def edit_scenario(scn: Scenario, changes: Mapping[str, Any]) -> Scenario:
    """``scn`` with each dotted field path in ``changes`` set to its value,
    judged by the same rules as a scene file."""
    data = scenario_to_dict(scn)
    for path, value in changes.items():
        data = _set(data, path, value)
    return parse_scenario(data)


def _set(data: dict, path: str, value: Any) -> dict:
    """``data`` with the dotted ``path`` set to ``value``; only the mappings
    on the path are copied, since parsing never mutates its input."""
    *parents, leaf = path.split(".")
    data = node = dict(data)
    for part in parents:
        if not isinstance(node.get(part), dict):
            raise ScenarioError([f"{path}: no such field"])
        node[part] = dict(node[part])
        node = node[part]
    if leaf not in node:
        raise ScenarioError([f"{path}: no such field"])
    node[leaf] = value
    return data


def save_scenario(scn: Scenario, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(scenario_to_dict(scn), sort_keys=True))


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------


def seeded_material(material: MaterialModel, seed: int | None) -> MaterialModel:
    """``material`` with its plateaus drawn by ``seed``, unchanged without one."""
    if seed is None:
        return material
    try:
        return perturbed(material, seed)
    except ValueError as exc:  # a plateau near its bound drawn past it
        raise ScenarioError([f"--seed: material {material.name!r} drawn with seed {seed}: {exc}"]) from None


def run_single_grasp(scn: SingleGraspScenario, seed: int | None = None) -> dict:
    (outputs,), contacts = _grasp_points(scn, (scn.theta,), seeded_material(scn.material, seed))
    outputs["contacts"] = _contact_table(contacts)
    return outputs


def _grasp_points(
    scn: SingleGraspScenario, thetas: Sequence[float], material: MaterialModel
) -> tuple[list[dict], ContactSet]:
    """``run_single_grasp``'s outputs at each of ``thetas``, but the contact
    table, from one pass of the contact model, and every point's contacts
    laid end to end."""
    openings, contacts, bounds = _resolve(thetas, scn.obj, scn.config, material, scn.mu, scn.torque_scale)
    width = grasp_width(scn.obj)
    mode = contacts.grasp_mode.value
    points = [
        {
            "theta": theta,
            "opening": aperture,
            "object_width": width,
            "grasp_mode": mode,
            "contact_count": count,
            "squeeze_force": squeeze,
            "side_squeeze_force": side,
            "pullout_capacity": capacity,
            "force_closure": closed,
            "closure_margin": margin,
            "form_closure": form,
            "wrap_coverage": wrap,
        }
        for theta, aperture, count, squeeze, side, capacity, closed, margin, form, wrap in zip(
            thetas, openings, *_point_totals(contacts, bounds), *_closures(contacts, bounds, scn.obj, scn.config)
        )
    ]
    return points, contacts


def _contact_table(contacts: ContactSet) -> list[dict]:
    c = contacts
    mode = c.contact_mode.value
    bends = [None] * len(c) if c.bend_angle is None else c.bend_angle.tolist()
    return [
        {
            "finger": finger,
            "level": level,
            "mode": mode,
            "penetration": penetration,
            "bend_angle": bend,
            "normal_force": force,
            "inclination": inclination,
            "engagement": engagement,
            "overcompressed": overcompressed,
            "overfolded": overfolded,
        }
        for finger, level, penetration, bend, force, inclination, engagement, overcompressed, overfolded in zip(
            c.finger_index.tolist(), c.level.tolist(), c.penetration.tolist(), bends, c.normal_force.tolist(),
            c.inclination.tolist(), c.engagement.tolist(), c.overcompressed.tolist(), c.overfolded.tolist(),
        )
    ]


def run_pullout(scn: PulloutScenario, seed: int | None = None) -> dict:
    material = seeded_material(scn.material, seed)
    try:
        grid = default_lift_grid(scn.probe, scn.config, step=scn.lift_step)
    except ValueError as exc:  # a tiny step or a huge probe
        raise ScenarioError([f"lift_step: {exc}"]) from exc
    try:
        trace = pullout_trace(
            scn.theta, scn.probe, scn.config, material, scn.mu, grid, scn.torque_scale
        )
    except ValueError as exc:  # the probe does not reach every module level
        raise ScenarioError([f"object: {exc}"]) from exc
    return {
        "theta": scn.theta,
        "opening": opening(scn.theta, scn.config),
        "capacity": float(trace.forces[0]),
        "peak_force": float(trace.forces.max()),
        "markers": trace.markers,
        "trace": {
            "lift": trace.lifts.tolist(),
            "force": trace.forces.tolist(),
        },
    }


def run_stacked(scn: StackedScenario, seed: int | None = None) -> dict:
    scene = replace(scn.scene, material=seeded_material(scn.scene.material, seed))
    plan = plan_stacked(scene)
    stages = simulate_plan(scene, plan)
    return {
        "plan": {
            "theta_grasp": plan.theta_grasp,
            "theta_release_bottom": plan.theta_release_bottom,
            "theta_release_top": plan.theta_release_top,
            "grasp_window": list(plan.grasp_window),
            "release_window": list(plan.release_window),
            "top_window": [plan.top_window.theta_lo, plan.top_window.theta_hi],
            "bottom_window": [plan.bottom_window.theta_lo, plan.bottom_window.theta_hi],
            "top_limiting_factor": plan.top_window.limiting_factor.value,
            "bottom_limiting_factor": plan.bottom_window.limiting_factor.value,
        },
        "stages": [
            {
                "stage": s.stage,
                "theta": s.theta,
                "top_held": s.top_held,
                "bottom_held": s.bottom_held,
            }
            for s in stages
        ],
    }


def run_pickplace(scn: PickPlaceScenario, seed: int | None = None) -> dict:
    result = compare_cycles(scn.spec)
    return {
        "sequential": {
            "distance": result.sequential.path_distance,
            "time": result.sequential.process_time,
        },
        "multiobject": {
            "distance": result.multiobject.path_distance,
            "time": result.multiobject.process_time,
        },
        "distance_saved": result.distance_saved,
        "time_saved": result.time_saved,
        "distance_reduction": result.distance_reduction,
        "time_reduction": result.time_reduction,
    }


_RUNNERS: dict[str, Callable[..., dict]] = {
    "single_grasp": run_single_grasp,
    "pullout": run_pullout,
    "stacked": run_stacked,
    "pickplace": run_pickplace,
}


def run_scenario(scn: Scenario, seed: int | None = None) -> dict:
    return _RUNNERS[scn.kind](scn, seed=seed)


def result_record(
    command: str, outputs: Any, *, digest: str | None = None, seed: int | None = None, **header: Any
) -> dict:
    """The record a command writes: ``version``, ``command``, the command's
    own ``header`` fields, ``outputs``, then ``digest`` and ``seed`` when
    given.  The flat ``field,value`` CSV lists the fields in this order."""
    record = {"version": __version__, "command": command, **header, "outputs": outputs}
    if digest is not None:
        record["digest"] = digest
    if seed is not None:
        record["seed"] = seed
    return record


def make_result_record(
    command: str, scn: Scenario, outputs: dict, digest: str | None = None, seed: int | None = None
) -> dict:
    """The record of a scene command: ``result_record`` headed by the scene's name and kind."""
    return result_record(command, outputs, digest=digest, seed=seed, scenario=scn.name, kind=scn.kind)


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------


def run_sweep(
    scn: Scenario, axis: str, values: Sequence[float], seed: int | None = None
) -> list[dict]:
    """Re-run a scenario with one numeric field stepped through ``values``.

    ``axis`` is a dotted path into the scene mapping (for example ``theta``,
    ``mu``, ``object.mass``, or ``cycle.travel_speed``).  Rows keep the
    input order; outputs are flattened to scalar columns.  Each point
    parses the written scene with its value on the axis, which defines the
    material it uses, so no point reads the ``ORIGRIP_MATERIALS`` file.

    A ``theta`` sweep of a single grasp parses nothing: it runs ``scn``
    itself at every point, in one pass of the contact model, and judges
    each theta as a scene file's ``theta`` is judged.  A hand-built ``scn``
    that a scene file would reject therefore fails as ``run_scenario(scn)``
    does, with the model's ValueError rather than a ScenarioError.
    """
    cast = int if _axis_field(scn, axis).type == INTEGER else float
    values = list(values)
    for value in values:
        if cast is int and not float(value).is_integer():
            raise ScenarioError([f"{axis}: expected an integer, got {value:g}"])
    if axis == _THETA.key and scn.kind == "single_grasp" and values:
        return _theta_rows(scn, list(map(float, values)), seed)
    base = scenario_to_dict(scn)
    rows: list[dict] = []
    for value in map(cast, values):
        outputs = run_scenario(parse_scenario(_set(base, axis, value)), seed=seed)
        row: dict[str, Any] = {axis: value}
        _flatten("", outputs, row)
        rows.append(row)
    return rows


def _theta_rows(scn: SingleGraspScenario, thetas: list[float], seed: int | None) -> list[dict]:
    """Rows of a theta sweep of ``scn``, failing where the per-point loop
    would: each theta is judged by a scene ``theta``'s own convert, the
    first before the seed draws the material and the rest after it."""
    def judge(some: list[float]) -> None:
        try:
            for theta in some:
                _THETA.convert(theta, gripper)
        except ValueError as exc:
            raise ScenarioError([f"{_THETA.key}: {exc}"]) from None

    gripper = {"gripper": scn.config}
    judge(thetas[:1])
    material = seeded_material(scn.material, seed)
    judge(thetas[1:])
    return _grasp_points(scn, thetas, material)[0]  # flat rows, theta first as the axis column


def _axis_field(scn: Scenario, axis: str) -> Field:
    """Table entry of a dotted sweep axis."""
    field = _field_at(_ROOT + _KINDS[scn.kind].fields, axis.split("."))
    if field is None:
        raise ScenarioError([f"{axis}: no such field"])
    if field.type not in (NUMBER, INTEGER):
        raise ScenarioError([f"{axis}: not a numeric field"])
    return field


def _flatten(prefix: str, value: Any, out: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), item, out)
    elif isinstance(value, (list, tuple)):
        return  # tables and traces have their own output paths
    elif value is None or isinstance(value, (bool, int, float, str)):
        if prefix:
            out[prefix] = value


# --------------------------------------------------------------------------
# output writers
# --------------------------------------------------------------------------


def _fmt(value: Any) -> Any:
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return f"{value:.6g}"
    return value


def _finite_repr(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


_SCALAR_TEXT: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    float: _finite_repr,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_text(data: Any, indent: str) -> str:
    """``json.dumps(data, indent=2, sort_keys=True, allow_nan=False)`` for a
    value nested at ``indent``, without json's pure-Python encoder.

    Plain dicts with ``str`` keys, lists, tuples and scalars are written
    here; any other value is left to ``json.dumps``.  Dicts are written by
    ``_dict_texts``: one alone, or a list of rows that share one key set,
    such as a sweep's, as one table.
    """
    kind = type(data)
    write = _SCALAR_TEXT.get(kind)
    if write is not None:
        return write(data)
    inner = indent + "  "
    sep = ",\n" + inner
    if (kind is list or kind is tuple) and data:
        try:  # a list of floats in one pass; any other item (a bool too) raises TypeError
            body = sep.join(map(float.__repr__, data))
        except TypeError:
            body = sep.join(_dict_texts(data, inner) or [_json_text(item, inner) for item in data])
        else:
            if "n" in body:  # "nan", "inf" or "-inf": no finite float's text holds an n
                _finite_repr(next(v for v in data if not math.isfinite(v)))
        return f"[\n{inner}{body}\n{indent}]"
    if kind is dict:
        texts = _dict_texts((data,), indent)
        if texts:
            return texts[0]
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    return text.replace("\n", "\n" + indent) if indent else text


_NO_VALUE = object()  # a column's last value before its first row


def _dict_texts(rows: Sequence, indent: str) -> list[str] | None:
    """``_json_text`` of each item of ``rows`` at ``indent``, when they are
    dicts that share one nonempty key set of ``str`` keys, else None.  The
    keys are sorted and encoded once for all rows; a value of a scalar type
    goes straight to its writer, and any other to ``_json_text``.  Each key
    keeps its last value and item text, and a row reuses that text when its
    value is the same object, or an equal ``float`` of the same sign: equal
    floats of one sign print alike, where ``0.0`` and ``-0.0``, or ``1``
    and ``1.0``, do not."""
    first = rows[0]
    if type(first) is not dict or not first or not all(type(key) is str for key in first):
        return None
    keys = first.keys()
    if len(rows) > 1 and not all(type(row) is dict and row.keys() == keys for row in rows):
        return None
    names = sorted(keys)
    inner = indent + "  "
    sep = ",\n" + inner
    heads = [encode_basestring_ascii(key) + ": " for key in names]
    columns = range(len(names))
    last = [_NO_VALUE] * len(names)
    items = [""] * len(names)
    texts = []
    for row in rows:
        for index in columns:
            value = row[names[index]]
            before = last[index]
            if value is before or (type(value) is float and type(before) is float and value == before
                                   and (value or math.copysign(1.0, value) == math.copysign(1.0, before))):
                continue
            write = _SCALAR_TEXT.get(type(value))
            items[index] = heads[index] + (_json_text(value, inner) if write is None else write(value))
            last[index] = value
        texts.append(f"{{\n{inner}{sep.join(items)}\n{indent}}}")
    return texts


def write_json(data: Any, stream: io.TextIOBase) -> None:
    """Strict JSON (two-space indent, sorted keys): a NaN or infinite number
    raises ValueError before anything is written."""
    stream.write(_json_text(data, "") + "\n")


def write_csv(data: Any, stream: io.TextIOBase) -> None:
    """Tabular form: row lists as a table, traces as lift/force columns,
    anything else as flattened key,value pairs."""
    writer = csv.writer(stream, lineterminator="\n")
    body = data.get("outputs", data) if isinstance(data, dict) else data
    if isinstance(body, list) and body and all(isinstance(r, dict) for r in body):
        header: list[str] = []
        for row in body:
            for key in row:
                if key not in header:
                    header.append(key)
        writer.writerow(header)
        for row in body:
            writer.writerow([_fmt(row.get(key)) for key in header])
        return
    if isinstance(body, dict):
        trace = body.get("trace")
        if isinstance(trace, dict) and "lift" in trace and "force" in trace:
            writer.writerow(["lift", "force"])
            for lift, force in zip(trace["lift"], trace["force"]):
                writer.writerow([_fmt(lift), _fmt(force)])
            return
        flat: dict[str, Any] = {}
        _flatten("", data, flat)
        writer.writerow(["field", "value"])
        for key in flat:
            writer.writerow([key, _fmt(flat[key])])
        return
    raise TypeError("cannot render this result as CSV")


def material_table() -> dict[str, MaterialModel]:
    """Built-in materials plus any defined via the environment override."""
    table = dict(BUILTIN_MATERIALS)
    env_path = os.environ.get(MATERIALS_ENV_VAR)
    if env_path:
        try:
            raw = _read_yaml(Path(env_path))[0]
        except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
            message = f"cannot read {MATERIALS_ENV_VAR} file {env_path!r}: {exc}"
            raise ScenarioError([f"materials: {message}"]) from exc
        errors: list[str] = []
        entries = {} if raw is None else _read_named(errors, raw, MATERIALS_ENV_VAR, _MATERIAL)
        if errors:
            raise ScenarioError(errors)
        table.update(entries)
    return table
