import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origrip.trajectory import (
    Action,
    CycleSpec,
    Segment,
    Trajectory,
    build_multiobject,
    build_sequential,
    compare_cycles,
)


def action_counts(traj):
    return {a: traj.count(a) for a in Action}


def test_segment_validation():
    Segment(Action.TRAVEL, 10.0, 1.0)
    Segment(Action.GRASP, 0.0, 2.0)
    with pytest.raises(ValueError):
        Segment(Action.TRAVEL, -1.0, 1.0)
    with pytest.raises(ValueError):
        Segment(Action.TRAVEL, 10.0, -1.0)
    with pytest.raises(ValueError):
        Segment(Action.GRASP, 5.0, 2.0)  # a dwell cannot move
    with pytest.raises(ValueError):
        Segment(Action.RELEASE, 5.0, 2.0)


def test_cycle_spec_validation():
    with pytest.raises(ValueError):
        CycleSpec(approach_height=0.0)
    with pytest.raises(ValueError):
        CycleSpec(travel_speed=0.0)
    with pytest.raises(ValueError):
        CycleSpec(descend_speed=-1.0)
    with pytest.raises(ValueError):
        CycleSpec(grasp_dwell=-0.5)
    with pytest.raises(ValueError):
        CycleSpec(release_dwell=-0.5)


def test_site_distance():
    spec = CycleSpec()
    assert spec.site_distance((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert spec.site_distance((1.0, 1.0), (1.0, 1.0)) == 0.0


def test_sequential_structure():
    traj = build_sequential(CycleSpec())
    assert len(traj.segments) == 15
    counts = action_counts(traj)
    assert counts[Action.DESCEND] == 4
    assert counts[Action.ASCEND] == 4
    assert counts[Action.TRAVEL] == 3
    assert counts[Action.GRASP] == 2
    assert counts[Action.RELEASE] == 2
    # two full trips with the default layout
    assert traj.path_distance == 8 * 60.0 + (200.0 + 200.0 + 300.0)
    assert traj.process_time == 8 * 6.0 + 700.0 / 50.0 + 4 * 2.0
    assert traj.path_distance == 1180.0
    assert traj.process_time == 70.0


def test_multiobject_structure():
    traj = build_multiobject(CycleSpec())
    assert len(traj.segments) == 11
    counts = action_counts(traj)
    assert counts[Action.DESCEND] == 3
    assert counts[Action.ASCEND] == 3
    assert counts[Action.TRAVEL] == 2
    assert counts[Action.GRASP] == 1
    assert counts[Action.RELEASE] == 2
    assert traj.path_distance == 6 * 60.0 + (200.0 + 100.0)
    assert traj.process_time == 6 * 6.0 + 300.0 / 50.0 + 3 * 2.0
    assert traj.path_distance == 660.0
    assert traj.process_time == 48.0


def test_default_savings_identity():
    comparison = compare_cycles(CycleSpec())
    # collinear sites: the saving is one return leg plus one approach pair
    assert comparison.distance_saved == 2 * 200.0 + 2 * 60.0
    assert comparison.time_saved == 2 * 200.0 / 50.0 + 60.0 / 10.0 + 60.0 / 10.0 + 2.0
    assert comparison.distance_reduction == pytest.approx(520.0 / 1180.0)
    assert comparison.time_reduction == pytest.approx(22.0 / 70.0)


def test_calibrated_scene_reductions():
    # layout chosen so both reduction fractions land on round percentages
    pick_to_bottom = 5490.0 / 101.0
    spec = CycleSpec(
        pick=(0.0, 0.0),
        place_bottom=(pick_to_bottom, 0.0),
        place_top=(pick_to_bottom + 50.0, 0.0),
        approach_height=60.0,
        descend_speed=10.0,
        ascend_speed=10.0,
        travel_speed=26930.0 / 2121.0,
        grasp_dwell=2.0,
        release_dwell=2.0,
    )
    comparison = compare_cycles(spec)
    assert comparison.distance_reduction == pytest.approx(0.33, abs=1e-12)
    assert comparison.time_reduction == pytest.approx(0.31, abs=1e-12)
    assert comparison.sequential.path_distance == pytest.approx(693.0693069306931, abs=1e-9)
    assert comparison.sequential.process_time == pytest.approx(72.78128481247678, abs=1e-9)
    assert comparison.multiobject.path_distance == pytest.approx(464.35643564356434, abs=1e-9)
    assert comparison.multiobject.process_time == pytest.approx(50.21908652060898, abs=1e-9)


sites = st.tuples(
    st.floats(min_value=-500.0, max_value=500.0),
    st.floats(min_value=-500.0, max_value=500.0),
)


@given(
    pick=sites,
    place_bottom=sites,
    place_top=sites,
    height=st.floats(min_value=1.0, max_value=200.0),
    travel_speed=st.floats(min_value=1.0, max_value=100.0),
)
@settings(max_examples=60)
def test_multiobject_never_slower(pick, place_bottom, place_top, height, travel_speed):
    spec = CycleSpec(
        pick=pick,
        place_bottom=place_bottom,
        place_top=place_top,
        approach_height=height,
        travel_speed=travel_speed,
    )
    comparison = compare_cycles(spec)
    # skipping the return trip always saves one approach pair and a grasp dwell
    assert comparison.distance_saved >= 2 * height - 1e-9
    floor = height / spec.descend_speed + height / spec.ascend_speed + spec.grasp_dwell
    assert comparison.time_saved >= floor - 1e-9
    assert comparison.distance_reduction > 0.0
    assert comparison.time_reduction > 0.0


@given(
    bottom_x=st.integers(min_value=1, max_value=400),
    extra_x=st.integers(min_value=1, max_value=200),
    height=st.integers(min_value=1, max_value=100),
)
@settings(max_examples=60)
def test_collinear_savings_exact(bottom_x, extra_x, height):
    spec = CycleSpec(
        pick=(0.0, 0.0),
        place_bottom=(float(bottom_x), 0.0),
        place_top=(float(bottom_x + extra_x), 0.0),
        approach_height=float(height),
    )
    comparison = compare_cycles(spec)
    assert comparison.distance_saved == 2.0 * bottom_x + 2.0 * height
    expected_time = (
        2.0 * bottom_x / spec.travel_speed
        + height / spec.descend_speed
        + height / spec.ascend_speed
        + spec.grasp_dwell
    )
    assert comparison.time_saved == pytest.approx(expected_time, abs=1e-9)
