"""Pick-and-place trajectory accounting: sequential vs. multi-object cycles.

A cycle is modeled as straight-line legs between waypoints plus fixed
dwells for actuation.  Transporting a two-object stack in one grip saves a
full return trip and one grasp dwell compared with moving the objects one
at a time:

    sequential: pick A+B site -> place B -> back to pick -> place A
    multi:      pick both     -> place B -> place A   (no return trip)

For pick, bottom-drop, and top-drop sites on one line (the top site beyond
the bottom one), the savings are exactly

    distance: 2 * |pick->bottom| + 2 * approach_height
    time:     2 * |pick->bottom| / travel_speed
              + approach_height / descend_speed + approach_height / ascend_speed
              + one grasp dwell

All distances are mm, speeds mm/s, dwells s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ._finite import require_finite


class Action(Enum):
    DESCEND = "descend"
    ASCEND = "ascend"
    TRAVEL = "travel"
    GRASP = "grasp"
    RELEASE = "release"


_MOVES = (Action.DESCEND, Action.ASCEND, Action.TRAVEL)


@dataclass(frozen=True)
class Segment:
    """One motion or dwell of a transport cycle."""

    action: Action
    length: float                # mm, 0 for dwells
    duration: float              # s

    def __post_init__(self):
        if self.length < 0.0:
            raise ValueError(f"segment length must be non-negative, got {self.length:g}")
        if self.duration < 0.0:
            raise ValueError(f"segment duration must be non-negative, got {self.duration:g}")
        if self.action not in _MOVES and self.length != 0.0:
            raise ValueError(f"{self.action.value} dwell cannot cover distance")


@dataclass(frozen=True)
class Trajectory:
    """A transport cycle as segments in order, with their total distance and time."""

    segments: tuple[Segment, ...]

    @property
    def path_distance(self) -> float:
        return sum(s.length for s in self.segments)

    @property
    def process_time(self) -> float:
        return sum(s.duration for s in self.segments)

    def count(self, action: Action) -> int:
        return sum(1 for s in self.segments if s.action is action)


@dataclass(frozen=True)
class CycleSpec:
    """Workcell layout and motion parameters for one transport task.

    ``pick`` holds the stack; the bottom object goes to ``place_bottom``
    and the top object to ``place_top``.  Sites are planar (x, y) in mm;
    vertical approaches all span ``approach_height``.
    """

    pick: tuple[float, float] = (0.0, 0.0)
    place_bottom: tuple[float, float] = (200.0, 0.0)
    place_top: tuple[float, float] = (300.0, 0.0)
    approach_height: float = 60.0
    descend_speed: float = 10.0
    ascend_speed: float = 10.0
    travel_speed: float = 50.0
    grasp_dwell: float = 2.0
    release_dwell: float = 2.0

    def __post_init__(self):
        require_finite(self)

    def site_distance(self, a: tuple[float, float], b: tuple[float, float]) -> float:
        return math.hypot(b[0] - a[0], b[1] - a[1])


def _route(spec: CycleSpec, *stops: tuple[tuple[float, float], Action]) -> Trajectory:
    """Visit each (site, ``Action.GRASP`` or ``Action.RELEASE``) stop in
    turn: descend, dwell and ascend at the site, then travel to the next."""
    h = spec.approach_height
    dwells = {Action.GRASP: spec.grasp_dwell, Action.RELEASE: spec.release_dwell}
    segs: list[Segment] = []
    for i, (site, act) in enumerate(stops):
        if i:
            d = spec.site_distance(stops[i - 1][0], site)
            segs.append(Segment(Action.TRAVEL, d, d / spec.travel_speed))
        segs += (
            Segment(Action.DESCEND, h, h / spec.descend_speed),
            Segment(act, 0.0, dwells[act]),
            Segment(Action.ASCEND, h, h / spec.ascend_speed),
        )
    return Trajectory(tuple(segs))


def build_sequential(spec: CycleSpec) -> Trajectory:
    """One object per trip: deliver the bottom object, return, deliver the top."""
    return _route(
        spec,
        (spec.pick, Action.GRASP),               # pick the bottom object
        (spec.place_bottom, Action.RELEASE),
        (spec.pick, Action.GRASP),               # come back for the top
        (spec.place_top, Action.RELEASE),
    )


def build_multiobject(spec: CycleSpec) -> Trajectory:
    """Both objects in one grip: drop the bottom en route, then the top."""
    return _route(
        spec,
        (spec.pick, Action.GRASP),               # pick the whole stack
        (spec.place_bottom, Action.RELEASE),     # partial open drops the bottom
        (spec.place_top, Action.RELEASE),        # full open drops the top
    )


@dataclass(frozen=True)
class CycleComparison:
    """A sequential and a multi-object cycle of one task, and the share of path and time saved."""

    sequential: Trajectory
    multiobject: Trajectory
    distance_reduction: float    # fraction of the sequential path saved
    time_reduction: float        # fraction of the sequential time saved

    @property
    def distance_saved(self) -> float:
        return self.sequential.path_distance - self.multiobject.path_distance

    @property
    def time_saved(self) -> float:
        return self.sequential.process_time - self.multiobject.process_time


def compare_cycles(spec: CycleSpec) -> CycleComparison:
    seq = build_sequential(spec)
    multi = build_multiobject(spec)
    return CycleComparison(
        sequential=seq,
        multiobject=multi,
        distance_reduction=1.0 - multi.path_distance / seq.path_distance,
        time_reduction=1.0 - multi.process_time / seq.process_time,
    )
