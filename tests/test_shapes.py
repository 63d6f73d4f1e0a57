import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from origrip import (
    ObjectShape,
    Pose,
    ShapeKind,
    bounding_radius,
    cube,
    cuboid,
    curved_block,
    cylinder,
    equator_z,
    grasp_width,
    local_width,
    sphere,
    stack_on,
    width_along,
    z_span,
)
from origrip.shapes import equator_radius, vertical_extent, vertical_profile_radius


def test_constructors():
    assert sphere(60.0).dims == (60.0,)
    assert cube(52.0).dims == (52.0,)
    assert cuboid(63.0, 45.4, 100.0).dims == (63.0, 45.4, 100.0)
    assert cylinder(40.0, 70.0).dims == (40.0, 70.0)
    # two-dimension barrel: vertical extent defaults to the equator width
    assert curved_block(45.5, 67.0).dims == (45.5, 67.0, 67.0)
    assert curved_block(45.5, 67.0, 80.0).dims == (45.5, 67.0, 80.0)


def test_dimension_validation():
    with pytest.raises(ValueError):
        sphere(0.0)
    with pytest.raises(ValueError):
        cuboid(10.0, 10.0, -1.0)
    with pytest.raises(ValueError):
        sphere(60.0, mass=-0.1)
    with pytest.raises(ValueError):
        ObjectShape(ShapeKind.CUBOID, (1.0, 2.0))
    # barrel width/height cannot exceed the profile diameter
    with pytest.raises(ValueError):
        curved_block(20.0, 50.0)
    with pytest.raises(ValueError):
        curved_block(20.0, 30.0, 50.0)


def test_width_along_matches_polygon_projection():
    for w, d, yaw in ((60.0, 40.0, 0.0), (63.0, 45.4, 30.0), (52.0, 52.0, 17.0)):
        obj = cuboid(w, d, 100.0, pose=Pose(yaw=yaw))
        verts = oracles.rectangle_vertices(w, d, yaw)
        for bearing in np.arange(0.0, 360.0, 15.0):
            expected = oracles.polygon_support_width(verts, float(bearing))
            assert width_along(obj, float(bearing)) == pytest.approx(expected, abs=1e-9)


def test_width_along_round_shapes():
    for bearing in (0.0, 37.0, 90.0, 213.0):
        assert width_along(sphere(60.0), bearing) == 60.0
        assert width_along(cylinder(40.0, 70.0), bearing) == 40.0
        assert width_along(curved_block(45.5, 67.0, 80.0), bearing) == 67.0


def test_grasp_width():
    assert grasp_width(cuboid(63.0, 45.4, 100.0)) == 63.0
    assert grasp_width(cuboid(63.0, 45.4, 100.0, pose=Pose(yaw=90.0))) == pytest.approx(45.4)
    assert grasp_width(cube(52.0)) == 52.0


def test_vertical_extent_and_span():
    assert vertical_extent(sphere(60.0)) == 60.0
    assert vertical_extent(cuboid(63.0, 45.4, 100.0)) == 100.0
    assert vertical_extent(cylinder(40.0, 70.0)) == 70.0
    assert vertical_extent(curved_block(45.5, 67.0, 80.0)) == 80.0
    obj = sphere(60.0, pose=Pose(z=10.0))
    assert z_span(obj) == (10.0, 70.0)
    assert equator_z(obj) == 40.0
    assert equator_z(sphere(60.0, pose=Pose(z=-12.5))) == 17.5


def test_vertical_profile_radius():
    assert vertical_profile_radius(sphere(60.0)) == 30.0
    assert vertical_profile_radius(curved_block(45.5, 67.0, 80.0)) == 45.5
    assert vertical_profile_radius(cube(52.0)) is None
    assert vertical_profile_radius(cuboid(63.0, 45.4, 100.0)) is None
    assert vertical_profile_radius(cylinder(40.0, 70.0)) is None


def test_local_width_sphere_matches_chord():
    ball = sphere(60.0)
    assert local_width(ball, 0.0, 30.0) == 60.0
    # chord of the circular profile: 2 * sqrt(r^2 - dz^2)
    for dz in (6.0, 18.0, 24.0, 29.0):
        expected = 2.0 * math.sqrt(30.0**2 - dz**2)
        assert local_width(ball, 0.0, 30.0 + dz) == pytest.approx(expected, abs=1e-9)
        assert local_width(ball, 0.0, 30.0 - dz) == pytest.approx(expected, abs=1e-9)
    assert local_width(ball, 0.0, 60.0) == 0.0
    assert local_width(ball, 0.0, 61.0) == 0.0  # outside the span


def test_local_width_curved_block():
    block = curved_block(45.5, 67.0, 80.0)
    assert local_width(block, 0.0, 40.0) == 67.0
    dz = 10.0
    sagitta = 45.5 - math.sqrt(45.5**2 - dz**2)
    assert local_width(block, 0.0, 30.0) == pytest.approx(67.0 - 2.0 * sagitta, abs=1e-9)


def test_local_width_prism_constant():
    box = cuboid(63.0, 45.4, 100.0)
    for z in (0.0, 33.0, 100.0):
        assert local_width(box, 0.0, z) == 63.0
    assert local_width(box, 0.0, 100.1) == 0.0


def test_equator_radius():
    assert equator_radius(cube(52.0)) is None
    assert equator_radius(cuboid(63.0, 45.4, 100.0)) is None
    assert equator_radius(sphere(60.0)) == 30.0
    assert equator_radius(sphere(60.0, pose=Pose(z=-12.5))) == 30.0
    assert equator_radius(cylinder(40.0, 70.0)) == 20.0
    assert equator_radius(curved_block(45.5, 67.0, 80.0)) == 33.5


@st.composite
def _objects(draw):
    kind = draw(st.sampled_from(list(ShapeKind)))
    width, depth, height = (draw(st.floats(1.0, 200.0)) for _ in range(3))
    dims = {
        ShapeKind.SPHERE: (width,),
        ShapeKind.CUBE: (width,),
        ShapeKind.CUBOID: (width, depth, height),
        ShapeKind.CYLINDER: (width, height),
        ShapeKind.CURVED_BLOCK: (draw(st.floats(max(width, height) / 2.0, 300.0)), width, height),
    }[kind]
    return ObjectShape(kind, dims, pose=Pose(z=draw(st.floats(-100.0, 100.0)), yaw=draw(st.floats(-180.0, 180.0))))


@given(obj=_objects(), bearing=st.floats(-180.0, 180.0), height=st.floats(-0.1, 1.1))
@settings(max_examples=300, derandomize=True)
def test_widths_equal_the_scalar_oracle(obj, bearing, height):
    radius = equator_radius(obj)
    if obj.kind in (ShapeKind.CUBE, ShapeKind.CUBOID):
        assert radius is None
    else:
        assert radius == oracles.scalar_local_width(obj, 0.0, equator_z(obj)) / 2.0
    lo, hi = z_span(obj)
    z = lo + height * (hi - lo)  # a tenth of the extent past either end
    assert local_width(obj, bearing, z) == oracles.scalar_local_width(obj, bearing, z)


def test_an_object_is_centred_and_carries_no_unread_field():
    assert [f.name for f in dataclasses.fields(Pose)] == ["z", "yaw"]
    assert [f.name for f in dataclasses.fields(ObjectShape)] == ["kind", "dims", "mass", "name", "pose"]
    for key in ("x", "y", "stack_level"):
        with pytest.raises(TypeError):
            Pose(**{key: 1.0})
    with pytest.raises(TypeError):
        ObjectShape(ShapeKind.SPHERE, (60.0,), material="steel")
    with pytest.raises(TypeError):
        sphere(60.0, material="steel")


def test_bounding_radius():
    assert bounding_radius(cube(52.0)) == pytest.approx(52.0 * math.sqrt(2.0) / 2.0)
    assert bounding_radius(cuboid(60.0, 40.0, 100.0)) == pytest.approx(math.hypot(60.0, 40.0) / 2.0)
    assert bounding_radius(sphere(60.0)) == 30.0
    assert bounding_radius(curved_block(45.5, 67.0, 80.0)) == 33.5


def test_stack_on():
    bottom = cube(50.0)
    top = sphere(40.0)
    placed = stack_on(top, bottom)
    assert placed.pose.z == 50.0
    assert top.pose.z == 0.0  # original untouched
    with_gap = stack_on(top, bottom, gap=2.0)
    assert with_gap.pose.z == 52.0


@given(
    st.floats(min_value=10.0, max_value=120.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_sphere_local_width_never_exceeds_equator(diameter, frac):
    ball = sphere(diameter)
    z = frac * diameter
    assert 0.0 <= local_width(ball, 0.0, z) <= diameter + 1e-9
