import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from origrip import (
    AngleRangeError,
    GripperConfig,
    OpeningRangeError,
    TransmissionLaw,
    finger_bearings,
    finger_radius,
    opening,
    opening_range,
    theta_for_opening,
)


def test_default_endpoints():
    assert opening(0.0) == 78.0
    assert abs(opening(90.0) - 28.0) <= 1e-9
    assert finger_radius(0.0) == 54.0
    assert abs(finger_radius(90.0) - 29.0) <= 1e-9


def test_linear_midpoints():
    # independent evaluation of the linear law at hand-picked angles
    for theta in (9.0, 45.0, 72.0):
        assert finger_radius(theta) == pytest.approx(54.0 - 25.0 * theta / 90.0, abs=1e-12)
        assert opening(theta) == pytest.approx(78.0 - 50.0 * theta / 90.0, abs=1e-12)
    assert opening(45.0) == pytest.approx(53.0, abs=1e-12)


def test_opening_range():
    lo, hi = opening_range()
    assert hi == 78.0
    assert lo == pytest.approx(28.0, abs=1e-9)
    assert lo < hi


def test_angle_out_of_range_rejected():
    with pytest.raises(AngleRangeError) as exc_info:
        opening(120.0)
    err = exc_info.value
    assert str(err) == "servo angle 120 deg outside guide range [0, 90] deg"
    assert (err.theta, err.lo, err.hi) == (120.0, 0.0, 90.0)
    with pytest.raises(AngleRangeError):
        finger_radius(-5.0)
    # boundary angles are allowed
    opening(0.0)
    opening(90.0)


def test_unreachable_opening_rejected():
    with pytest.raises(OpeningRangeError) as exc_info:
        theta_for_opening(100.0)
    err = exc_info.value
    assert err.target == 100.0
    assert err.hi == 78.0
    assert err.lo == pytest.approx(28.0, abs=1e-9)
    with pytest.raises(OpeningRangeError):
        theta_for_opening(20.0)


def test_inverse_round_trip_dense():
    for theta in np.linspace(0.0, 90.0, 1000):
        back = theta_for_opening(opening(float(theta)))
        assert abs(back - theta) <= 1e-9


def test_inverse_at_bounds():
    assert theta_for_opening(78.0) == 0.0
    assert theta_for_opening(opening(90.0)) == pytest.approx(90.0, abs=1e-9)


@given(st.floats(min_value=0.0, max_value=90.0, allow_nan=False))
def test_inverse_round_trip_property(theta):
    assert abs(theta_for_opening(opening(theta)) - theta) <= 1e-9


@given(
    st.floats(min_value=0.0, max_value=90.0),
    st.floats(min_value=1e-6, max_value=90.0),
)
def test_opening_strictly_decreasing(theta, delta):
    wider = theta
    tighter = min(90.0, theta + delta)
    if tighter > wider:
        assert opening(tighter) < opening(wider)


def test_custom_law():
    law = TransmissionLaw(r0=40.0, slope=0.5, theta_min=10.0, theta_max=50.0)
    config = GripperConfig(law=law, module_offset=10.0)
    assert opening(10.0, config) == pytest.approx(50.0)
    assert opening(50.0, config) == pytest.approx(10.0)
    assert theta_for_opening(30.0, config) == pytest.approx(30.0)
    with pytest.raises(AngleRangeError):
        opening(5.0, config)


def test_law_validation():
    with pytest.raises(ValueError):
        TransmissionLaw(slope=-1.0)
    with pytest.raises(ValueError):
        TransmissionLaw(slope=0.0)
    with pytest.raises(ValueError):
        TransmissionLaw(theta_min=50.0, theta_max=50.0)


def test_finger_bearings():
    assert finger_bearings() == (0.0, 180.0)
    assert finger_bearings(GripperConfig(finger_count=4)) == (0.0, 90.0, 180.0, 270.0)
    with pytest.raises(ValueError):
        GripperConfig(finger_count=3)


def test_config_validation():
    with pytest.raises(ValueError):
        GripperConfig(module_offset=29.0)  # cannot exceed fully-closed radius
    with pytest.raises(ValueError):
        GripperConfig(module_levels=(60.0, 20.0))
    with pytest.raises(ValueError):
        GripperConfig(panel_span=0.0)
    with pytest.raises(ValueError):
        GripperConfig(curvature_threshold=-1.0)
    with pytest.raises(ValueError):
        GripperConfig(rest_depth=0.0)
