import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from origrip import (
    ClosureResult,
    ContactSet,
    GraspMode,
    GripperConfig,
    TPU95A,
    calibrate_friction,
    closure_summary,
    contact_wrench_primitives,
    cuboid,
    curved_block,
    is_force_closure,
    is_form_closure,
    resolve_contacts,
)

V_PROBE = curved_block(45.5, 67.0, 80.0)
P_PROBE = cuboid(63.0, 45.4, 100.0)
MU_STAR = calibrate_friction(V_PROBE, 60.0, material=TPU95A, target_side_force=1.5)


def test_primitive_layout():
    contacts = resolve_contacts(60.0, V_PROBE, material=TPU95A, mu=MU_STAR)
    prims = contact_wrench_primitives(contacts)
    assert prims.shape == (8, 3)  # two cone edges per contact
    # each edge has magnitude Fn * sqrt(1 + mu^2) in the force plane
    force_norms = np.linalg.norm(prims[:, :2], axis=1)
    assert np.allclose(force_norms, 2.6 * math.sqrt(1.0 + MU_STAR**2), atol=1e-9)


def test_two_finger_enveloping_closure():
    contacts = resolve_contacts(60.0, V_PROBE, material=TPU95A, mu=MU_STAR)
    prims = contact_wrench_primitives(contacts)
    result = is_force_closure(prims)
    assert result.closed
    assert result.margin == pytest.approx(0.324155268300959, abs=1e-9)
    assert oracles.positive_span_closed(prims)


def test_frictionless_opposed_contacts_never_closed():
    # a pure squeeze cannot resist tangential or torque disturbances
    rng = np.random.default_rng(11)
    for _ in range(25):
        fn = rng.uniform(0.5, 10.0)
        r = rng.uniform(5.0, 50.0)
        prims = np.array(
            [[-fn, 0.0, 0.0], [-fn, 0.0, 0.0], [fn, 0.0, 0.0], [fn, 0.0, 0.0]]
        )
        assert not is_force_closure(prims).closed
        assert not oracles.positive_span_closed(prims)
    # physically resolved version: flat probe squeezed without friction
    contacts = resolve_contacts(30.0, P_PROBE, material=TPU95A, mu=0.0)
    assert not is_force_closure(contact_wrench_primitives(contacts)).closed


def test_planar_forces_without_torque_span_not_closed():
    # three balanced forces through the centroid leave rotation unresisted
    prims = np.array(
        [
            [math.cos(a), math.sin(a), 0.0]
            for a in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
        ]
    )
    assert not is_force_closure(prims).closed
    assert not oracles.positive_span_closed(prims)
    # each force as two coincident cone edges (a frictionless contact): with
    # rounding-level torque noise the six rows span a thin hull around the
    # origin, which only the rank guard calls flat
    rng = np.random.default_rng(3)
    for _ in range(50):
        noisy = np.repeat(prims, 2, axis=0)
        noisy[:, 2] = rng.normal(0.0, 1e-13, 6)
        assert not is_force_closure(noisy).closed
        assert not oracles.positive_span_closed(noisy)


def test_force_closure_input_validation():
    with pytest.raises(ValueError):
        is_force_closure(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        is_force_closure(np.zeros((4, 2)))


def test_lp_agrees_with_direction_sampling():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 40:
        prims = oracles.random_contact_primitives(rng, int(rng.integers(2, 9)))
        if not oracles.sampling_decisive(prims):
            continue
        checked += 1
        assert is_force_closure(prims).closed == oracles.positive_span_closed(prims)


@given(st.floats(min_value=1e-12, max_value=1e12))
@settings(max_examples=30)
def test_scaling_never_flips_closure(scale):
    closed_contacts = resolve_contacts(60.0, V_PROBE, material=TPU95A, mu=MU_STAR)
    closed_prims = contact_wrench_primitives(closed_contacts)
    open_prims = np.array([[-1.0, 0.0, 0.0], [-1.0, 0.1, 0.0], [1.0, 0.0, 0.0], [1.0, 0.1, 0.1]])
    for prims in (closed_prims, open_prims):
        assert is_force_closure(scale * prims).closed == is_force_closure(prims).closed


def test_two_finger_wrap_coverage():
    contacts = resolve_contacts(60.0, V_PROBE, material=TPU95A, mu=MU_STAR)
    closed, coverage = is_form_closure(contacts, V_PROBE)
    assert not closed  # 182 deg of wrap, below the 210 deg requirement
    assert coverage == pytest.approx(182.3318792244, abs=1e-6)
    # with no slip margin the same wrap passes the bare half-circle bar
    barely, _ = is_form_closure(contacts, V_PROBE, slip_margin=0.0)
    assert barely


def test_four_finger_wrap_closes():
    config = GripperConfig(finger_count=4)
    contacts = resolve_contacts(60.0, V_PROBE, config, TPU95A, mu=MU_STAR)
    closed, coverage = is_form_closure(contacts, V_PROBE, config)
    assert closed
    assert coverage == 360.0


def test_coverage_matches_arc_union_oracle():
    for fingers in (2, 4):
        config = GripperConfig(finger_count=fingers)
        contacts = resolve_contacts(60.0, V_PROBE, config, TPU95A, mu=MU_STAR)
        _, coverage = is_form_closure(contacts, V_PROBE, config)
        # rebuild the wrap sectors from the contact geometry by hand
        intervals = []
        for rec in contacts.records:
            r_h = 33.5  # equator cross-section radius of the probe
            s = min(math.sqrt(2.0 * r_h * rec.penetration - rec.penetration**2), 25.0)
            edge = math.degrees(math.asin(s / r_h))
            center = rec.finger_index * (360.0 / fingers)
            intervals.append((center - edge, center + edge))
        expected = oracles.arc_union_measure(intervals)
        assert coverage == pytest.approx(expected, abs=0.2)


def test_form_closure_rejects_parallel_grasps():
    contacts = resolve_contacts(30.0, P_PROBE, material=TPU95A, mu=0.5)
    with pytest.raises(ValueError):
        is_form_closure(contacts, P_PROBE)


def test_closure_summary_enveloping():
    contacts = resolve_contacts(60.0, V_PROBE, material=TPU95A, mu=MU_STAR)
    summary = closure_summary(contacts, V_PROBE)
    assert summary.force_closure
    assert summary.form_closure is False
    assert summary.margin > 0.0
    assert summary.wrap_angle == pytest.approx(182.33, abs=0.01)


def test_closure_summary_parallel():
    contacts = resolve_contacts(30.0, P_PROBE, material=TPU95A, mu=0.5)
    summary = closure_summary(contacts, P_PROBE)
    assert summary.form_closure is None
    assert summary.wrap_angle is None
    assert summary.force_closure  # friction cones around four flat contacts


def test_closure_summary_single_contact():
    contacts = resolve_contacts(30.0, P_PROBE, material=TPU95A, mu=0.5)
    lone = ContactSet(contacts.records[:1], GraspMode.PARALLEL, 30.0, contacts.char_radius)
    summary = closure_summary(lone, P_PROBE)
    assert not summary.force_closure
    assert summary.margin == 0.0


def test_closure_summary_without_contacts():
    empty = resolve_contacts(0.0, V_PROBE, material=TPU95A, mu=MU_STAR)  # jaws wider than the probe
    assert len(empty) == 0 and empty.grasp_mode is GraspMode.V_ENVELOPING
    assert closure_summary(empty, V_PROBE) == ClosureResult(False, None, 0.0, None)


def test_arc_union_oracle_self_check():
    assert oracles.arc_union_measure([(0.0, 90.0)]) == pytest.approx(90.0, abs=0.1)
    assert oracles.arc_union_measure([(0.0, 90.0), (45.0, 135.0)]) == pytest.approx(135.0, abs=0.1)
    assert oracles.arc_union_measure([(350.0, 370.0)]) == pytest.approx(20.0, abs=0.1)
    assert oracles.arc_union_measure([(0.0, 400.0)]) == 360.0
