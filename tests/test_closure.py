import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from origrip import (
    ClosureResult,
    ContactSet,
    GraspMode,
    GripperConfig,
    Pose,
    TPU95A,
    calibrate_friction,
    closure_summary,
    contact_wrench_primitives,
    cube,
    cuboid,
    curved_block,
    cylinder,
    grasp,
    is_force_closure,
    is_form_closure,
    pullout_capacity,
    resolve_contacts,
    sphere,
    squeeze_force,
    z_span,
)
from origrip.grasp import _PLANE_TOL
from origrip.scenario import SingleGraspScenario, run_single_grasp
from origrip.transmission import opening_range, theta_for_opening

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


def test_closure_agrees_with_direction_sampling():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 40:
        prims = oracles.random_contact_primitives(rng, int(rng.integers(2, 9)))
        if not oracles.sampling_decisive(prims):
            continue
        checked += 1
        assert is_force_closure(prims).closed == oracles.positive_span_closed(prims)


def test_margin_lies_within_the_sampling_bracket():
    # the support minimum over the fine direction grid lies in
    # [margin, margin + lip * covering radius], which pins the margin itself
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 60:
        prims = oracles.random_contact_primitives(rng, int(rng.integers(2, 17)))
        result = is_force_closure(prims)
        if not (result.closed and oracles.sampling_decisive(prims)):
            continue
        checked += 1
        lip = float(np.linalg.norm(prims, axis=1).max())
        sampled = float((prims @ oracles._FINE_DIRECTIONS.T).max(axis=0).min())
        assert sampled - lip * 0.013 <= result.margin <= sampled


def _needles(rng: np.random.Generator, count: int, sizes: tuple[int, int] = (17, 33)) -> list[np.ndarray]:
    """Thin spindles of ``sizes`` rows, 17 to 32 by default, along the
    diagonal, tips at (1, 1, 1) and (-1, -1, -1): nearly every triple of
    their points nearly lines up, so their facet planes round at more than
    a few ulps."""
    sets = []
    for n in rng.integers(*sizes, count):
        along = rng.uniform(-0.9, 0.9, (n - 2, 1)) + rng.normal(0.0, 1e-3, (n - 2, 3))
        sets.append(np.vstack(([1.0, 1.0, 1.0], [-1.0, -1.0, -1.0], along)))
    return sets


def test_needle_whose_extreme_points_are_its_tips():
    for prims in _needles(np.random.default_rng(5), 5):
        result = is_force_closure(prims)
        assert result.closed
        lip = float(np.linalg.norm(prims, axis=1).max())
        sampled = float((prims @ oracles._FINE_DIRECTIONS.T).max(axis=0).min())
        assert sampled - lip * 0.013 <= result.margin <= sampled


def _solid(prims: np.ndarray) -> bool:
    """Rank 3 by ``is_force_closure``'s rank guard.  Frictionless grasps of
    3 or 4 levels are flat, but the rounding noise in their torques gives
    them a hull that exact arithmetic calls closed, with a margin below
    1e-34 of the largest component."""
    return bool(np.linalg.matrix_rank(prims, tol=1e-9 * np.abs(prims).max()) == 3)


def _qhull_closure(spatial, prims: np.ndarray) -> tuple[bool, float]:
    """Verdict and margin from Qhull's facet equations, behind the same rank guard."""
    if not _solid(prims):
        return False, 0.0
    try:
        hull = spatial.ConvexHull(prims)
    except spatial.QhullError:
        return False, 0.0
    margin = float(-np.max(hull.equations[:, -1]))  # a.x + d <= 0 inside, |a| = 1
    return (True, margin) if margin > 0.0 else (False, 0.0)


def _four_by_four_grasps() -> list[np.ndarray]:
    sets = []
    for obj in (sphere(60.0), V_PROBE):
        lo, hi = z_span(obj)
        config = GripperConfig(finger_count=4, module_levels=tuple(np.linspace(lo + 8.0, hi - 8.0, 4)))
        for theta in (30.0, 45.0, 60.0, 75.0):
            for mu in (0.0, 0.3, MU_STAR):
                contacts = resolve_contacts(theta, obj, config, TPU95A, mu=mu)
                if len(contacts) >= 2:
                    sets.append(contact_wrench_primitives(contacts))
    assert max(len(prims) for prims in sets) == 32
    return sets


def test_closure_matches_qhull():
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(23)
    base = [oracles.random_contact_primitives(rng, n) for n in range(2, 17) for _ in range(20)]
    flat = [np.column_stack((p[:, :2], rng.normal(0.0, 1e-13, len(p)))) for p in base[::4]]
    families = {
        "oracle": base,
        "doubled": [np.repeat(p, 2, axis=0) for p in base[::2] if len(p) <= 16],
        "x1e12": [p * 1e12 for p in base[::3]],
        "x1e-12": [p * 1e-12 for p in base[::3]],
        "half copy on a ray": [np.vstack((p, 0.5 * p[:1])) for p in base[::2] if len(p) < 32],
        "torque noise": flat + [p + rng.normal(0.0, 1e-13, p.shape) for p in base[::4]],
        "4 fingers x 4 levels": _four_by_four_grasps(),
        "needle": _needles(rng, 20),
    }
    for family, sets in families.items():
        closed = 0
        for prims in sets:
            result = is_force_closure(prims)
            expected, margin = _qhull_closure(spatial, prims)
            assert result.closed == expected, family
            # where the margin is tiny against the set's size, both round at a few
            # ulps of its largest component; a needle's nearly collinear facet
            # points round at more
            rounding = (1e-12 if family == "needle" else 4.0 * np.finfo(float).eps) * np.abs(prims).max()
            assert abs(result.margin - margin) <= max(1e-12 * margin, rounding), family
            closed += expected
        assert 0 < closed or family == "torque noise", family


def _small_grasps() -> list[np.ndarray]:
    """Resolved grasps of up to 8 contacts: 2 fingers x 4 levels and 4 x 2,
    whose symmetric contacts put many primitives on one facet plane."""
    sets = []
    for obj in (sphere(60.0), V_PROBE, P_PROBE):
        lo, hi = z_span(obj)
        for fingers, levels in ((2, 4), (4, 2)):
            config = GripperConfig(finger_count=fingers, module_levels=tuple(np.linspace(lo + 8.0, hi - 8.0, levels)))
            for theta in (30.0, 45.0, 60.0, 75.0):
                for mu in (0.0, 0.3, MU_STAR):
                    contacts = resolve_contacts(theta, obj, config, TPU95A, mu=mu)
                    if len(contacts) >= 2:
                        sets.append(contact_wrench_primitives(contacts))
    return sets


def _three_and_four_level_grasps() -> list[np.ndarray]:
    """Resolved 4-finger grasps of 3 and 4 module levels: up to 24 or 32
    primitives."""
    sets = []
    for obj in (sphere(60.0), V_PROBE, P_PROBE):
        lo, hi = z_span(obj)
        for levels in (3, 4):
            config = GripperConfig(finger_count=4, module_levels=tuple(np.linspace(lo + 8.0, hi - 8.0, levels)))
            for theta, mu in ((45.0, 0.3), (60.0, 0.0), (75.0, MU_STAR)):
                contacts = resolve_contacts(theta, obj, config, TPU95A, mu=mu)
                if len(contacts) > 8:
                    sets.append(contact_wrench_primitives(contacts))
    return sets


def test_closure_matches_the_exact_triple_oracle():
    # needs no scipy: every set here is small enough for exact arithmetic over all triples
    rng = np.random.default_rng(29)
    base = [oracles.random_contact_primitives(rng, n) for n in range(2, 9) for _ in range(30)]
    families = {
        "oracle": base,
        "doubled": [np.repeat(p, 2, axis=0) for p in base if len(p) <= 8],
        "x1e12": [p * 1e12 for p in base[::5]],
        "x1e-12": [p * 1e-12 for p in base[::5]],
        "half copy on a ray": [np.vstack((p, 0.5 * p[:1])) for p in base[::3]],
        "no torque": [np.column_stack((p[:, :2], np.zeros(len(p)))) for p in base[::7]],
        "resolved grasps": _small_grasps(),
        "needle": _needles(rng, 30, (6, 17)),
        "17 to 32 primitives": [
            *(oracles.random_contact_primitives(rng, n) for n in range(9, 17)),  # 18 to 32 primitives
            *(np.vstack((p, 0.5 * p[:1])) for p in base[-30::10] if len(p) == 16),
        ],
        "3 and 4 levels": _three_and_four_level_grasps(),
        "needle of 17 to 32": _needles(rng, 6),
    }
    assert {len(p) for p in families["17 to 32 primitives"]} >= {17, 18, 32}
    for family, sets in families.items():
        closed = 0
        for prims in sets:
            result = is_force_closure(prims)
            expected, margin = oracles.exact_hull_closure(prims)
            scale = float(np.abs(prims).max())
            if not _solid(prims):
                # flat up to rounding noise, which is open: an exact margin of at most
                # 1e-20 of the largest component (4.4e-35 on 3- and 4-level frictionless grasps)
                assert margin <= 1e-20 * scale, family
                expected, margin = False, 0.0
            assert result.closed == expected, family
            # _hull_margins: short by at most _PLANE_TOL of the largest component, plus a few
            # units of its last digit from rounding, and up to about 3e-13 of it on needles
            rounding = 3e-13 * scale if family.startswith("needle") else 4.0 * np.spacing(scale)
            assert -(_PLANE_TOL * scale + rounding) <= result.margin - margin <= rounding, family
            closed += expected
        assert 0 < closed or family == "no torque", family


@st.composite
def contact_sets(draw) -> ContactSet:
    normals, positions, forces, mus = [], [], [], []
    for _ in range(draw(st.integers(1, 16))):
        bearing = draw(st.floats(0.0, 2.0 * math.pi))
        reach = draw(st.floats(0.5, 100.0))
        outward = (math.cos(bearing), math.sin(bearing))
        normals.append((-outward[0], -outward[1]))
        positions.append((reach * outward[0], reach * outward[1]))
        forces.append(draw(st.floats(0.0, 50.0)))
        mus.append(draw(st.just(0.0) | st.floats(0.0, 2.0)))
    n = len(forces)
    return ContactSet(
        GraspMode.PARALLEL, draw(st.floats(1.0, 100.0)),
        finger_index=np.zeros(n, dtype=np.intp),
        level=np.zeros(n, dtype=np.intp),
        penetration=np.ones(n),
        bend_angle=None,
        normal_force=np.array(forces),
        normal=np.array(normals),
        position=np.array(positions),
        inclination=np.zeros(n),
        incl_cos=np.ones(n),
        incl_sin=np.zeros(n),
        mu=np.array(mus),
        engagement=np.ones(n),
        overcompressed=np.zeros(n, dtype=bool),
        overfolded=np.zeros(n, dtype=bool),
    )


def _oracle_primitives(contacts: ContactSet) -> np.ndarray:
    return oracles.wrench_primitives(oracles.contact_rows(contacts), contacts.char_radius)


@given(contact_sets())
@settings(max_examples=200, derandomize=True)
def test_wrench_primitives_equal_the_scalar_oracle(contacts):
    assert np.array_equal(contact_wrench_primitives(contacts), _oracle_primitives(contacts))


def test_wrench_primitives_of_resolved_contacts_equal_the_scalar_oracle():
    for mu in (0.0, MU_STAR):
        contacts = resolve_contacts(60.0, V_PROBE, material=TPU95A, mu=mu)
        lone = contacts._take(slice(0, 1))
        for subset in (contacts, lone):
            assert np.array_equal(contact_wrench_primitives(subset), _oracle_primitives(subset))


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
        for rec in oracles.contact_rows(contacts):
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
    lone = contacts._take(slice(0, 1))
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


def test_form_closure_needs_210_degrees_of_wrap(monkeypatch):
    # half the section plus 15 deg at each end: exactly 210 passes, the float below it fails
    contacts = resolve_contacts(60.0, V_PROBE, material=TPU95A, mu=MU_STAR)
    for coverage, closed in ((210.0, True), (math.nextafter(210.0, 0.0), False)):
        monkeypatch.setattr(grasp, "_coverages", lambda contacts, bounds, obj, config: [coverage])
        assert is_form_closure(contacts, V_PROBE) == (closed, coverage)
        assert closure_summary(contacts, V_PROBE).form_closure is closed


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_force_closure_rejects_primitives_that_are_not_finite(bad):
    prims = contact_wrench_primitives(resolve_contacts(60.0, V_PROBE, material=TPU95A, mu=MU_STAR))
    prims[3, 1] = bad
    with pytest.raises(ValueError, match="wrench primitives must be finite"):
        is_force_closure(prims)
    # so does a call that holds it among finite sets of other sizes
    with pytest.raises(ValueError, match="wrench primitives must be finite"):
        grasp._force_closures([np.roll(prims, 1, axis=0)[4:], prims, np.flipud(prims)])


def _primitive_stack(rows: int, seed: int, kinds: list[str]) -> list[np.ndarray]:
    """One set of ``rows`` primitives per kind, from random contacts: plain,
    with duplicate rows, frictionless (each contact's two cone edges
    coincide; at two contacts the set is flat), without torque (flat), thin
    (torque times 1e-9, so that the third singular value lies near the rank
    tolerance), or repeating the set before it."""
    rng = np.random.default_rng(seed)
    sets: list[np.ndarray] = []
    for kind in kinds:
        prims = oracles.random_contact_primitives(rng, (rows + 1) // 2)[:rows]
        if kind == "duplicates":
            prims[rows // 2:] = prims[:rows - rows // 2]
        elif kind == "frictionless":
            prims[1::2] = prims[0:rows - 1:2]
        elif kind == "no torque":
            prims[:, 2] = 0.0
        elif kind == "thin":
            prims[:, 2] *= 1e-9
        elif kind == "repeat" and sets:
            prims = sets[-1].copy()
        sets.append(prims)
    return sets


@st.composite
def primitive_stacks(draw) -> list[np.ndarray]:
    """One to eight sets of 4 to 16 primitives each, all of one size, of every kind ``_primitive_stack`` makes."""
    rows = draw(st.integers(4, 16), label="rows")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    kinds = draw(st.lists(st.sampled_from(("plain", "duplicates", "frictionless", "no torque", "thin", "repeat")),
                          min_size=1, max_size=8), label="kinds")
    return _primitive_stack(rows, seed, kinds)


def _bits(result) -> tuple[bool, str]:
    return result.closed, result.margin.hex()


def _typed_bits(values) -> list[tuple[type, object]]:
    """Each value with its type, a float by its exact bits."""
    return [(type(v), v.hex() if type(v) is float else v) for v in values]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(sets=primitive_stacks(), rows=st.integers(17, 32), seed=st.integers(0, 2**32 - 1))
@example(sets=_primitive_stack(8, 1, ["no torque", "no torque", "repeat"]), rows=20, seed=2)  # every set flat
@example(sets=_primitive_stack(12, 3, ["plain"]), rows=17, seed=4)  # a stack of one closed set
def test_deciding_sets_together_equals_deciding_each_alone(sets, rows, seed):
    # the sets of each size are decided in one stacked pass; each verdict
    # equals the one-set decision bit for bit
    large = oracles.random_contact_primitives(np.random.default_rng(seed), (rows + 1) // 2)[:rows]
    together = [*sets, large, *sets[:1]]
    alone = [_bits(is_force_closure(prims)) for prims in together]
    assert [_bits(result) for result in grasp._force_closures(together)] == alone
    assert [_bits(result) for result in grasp._decide(np.stack(sets))] == alone[:len(sets)]


def _oracle_bits(stack: np.ndarray) -> list[tuple[bool, str]]:
    return [(closed, margin.hex()) for closed, margin in oracles.svd_first_decisions(stack)]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(sets=primitive_stacks())
@example(sets=_primitive_stack(16, 0, ["thin", "thin", "thin", "plain"]))  # thin: two flat, one solid and closed
@example(sets=_primitive_stack(4, 2, ["frictionless", "no torque", "duplicates"]))
def test_the_rank_proof_decides_as_the_svd_first_oracle(sets):
    # a triple determinant from the scan proves a set solid; the SVD decides only what it leaves unproven
    stack = np.stack(sets)
    assert [_bits(result) for result in grasp._decide(stack)] == _oracle_bits(stack)


def test_a_rank_one_set_of_32_rows_stays_open():
    # rank 1: the rounding noise of its triples spans a hull around the origin, which the rank guard calls flat
    rng = np.random.default_rng(3)
    prims = np.outer(rng.uniform(-3.0, 3.0, 32), rng.normal(size=3))
    assert np.linalg.matrix_rank(prims) == 1
    assert grasp._scan(np.ldexp(prims, -np.frexp(np.abs(prims).max())[1])[None])[0][0] > 0.0
    assert _bits(is_force_closure(prims)) == (False, "0x0.0p+0")
    assert [_bits(result) for result in grasp._decide(prims[None])] == _oracle_bits(prims[None])


def test_a_wide_stack_is_scanned_in_chunks_of_whole_sets(monkeypatch):
    # 600 sets of 16 rows, flat ones among them, are more than one scan takes
    kinds = ["plain", "duplicates", "frictionless", "no torque", "thin", "repeat"] * 100
    stack = np.stack(_primitive_stack(16, 5, kinds))
    chunks = []
    scan = grasp._scan
    monkeypatch.setattr(grasp, "_scan", lambda points: chunks.append(points.shape) or scan(points))
    together = [_bits(result) for result in grasp._decide(stack)]
    assert len(chunks) > 1 and sum(k for k, _, _ in chunks) == 600
    assert {shape[1:] for shape in chunks} == {(16, 3)}
    assert together == [_bits(grasp._decide(prims[None])[0]) for prims in stack]
    assert together == _oracle_bits(stack)


def _near_collinear_rows(rng: np.random.Generator, rows: int) -> np.ndarray:
    """``rows`` rows on a ray from the origin, two of them moved off it by
    1e-3 of the largest component: solid, and open by a wide margin."""
    prims = np.outer(rng.uniform(0.5, 3.0, rows), rng.normal(size=3))
    prims[:2] += 1e-3 * np.abs(prims).max() * rng.normal(size=(2, 3))
    return prims


def test_a_near_collinear_set_of_32_rows_is_decided_in_one_scan(monkeypatch):
    prims = _near_collinear_rows(np.random.default_rng(3), 32)
    assert _solid(prims)
    calls = []
    scan = grasp._scan
    monkeypatch.setattr(grasp, "_scan", lambda points: calls.append(points.shape) or scan(points))
    assert _bits(is_force_closure(prims)) == (False, "0x0.0p+0")
    assert calls == [(1, 32, 3)]


def test_more_than_32_primitives_are_refused():
    rng = np.random.default_rng(9)
    limit = "at most 32 wrench primitives"
    assert is_force_closure(oracles.random_contact_primitives(rng, 16)).closed
    with pytest.raises(ValueError, match=limit + r" \(two per contact of 4 fingers x 4 module levels\), got 33$"):
        is_force_closure(_near_collinear_rows(rng, 33))
    contacts = resolve_contacts(30.0, P_PROBE, material=TPU95A, mu=0.5)  # 4 contacts
    many = contacts._take(np.arange(17) % len(contacts))
    with pytest.raises(ValueError, match=limit):
        closure_summary(many, P_PROBE)


def test_a_run_of_fewer_than_two_contacts_is_never_decided():
    contacts = resolve_contacts(30.0, P_PROBE, material=TPU95A, mu=0.5)
    doubled = contacts._take(np.r_[0, :len(contacts)])
    force = doubled.normal_force.copy()
    force[0] = math.nan
    runs = dataclasses.replace(doubled, normal_force=force)
    # a lone contact whose force is not finite, no contact, then the grasp's own contacts
    columns = grasp._closures(runs, [0, 1, 1, 1 + len(contacts)], P_PROBE, None)
    expected = [ClosureResult(False, None, 0.0, None)] * 2 + [closure_summary(contacts, P_PROBE)]
    fields = ("force_closure", "margin", "form_closure", "wrap_angle")
    assert [_typed_bits(column) for column in columns] == [
        _typed_bits([getattr(result, field) for result in expected]) for field in fields
    ]
    with pytest.raises(ValueError, match="wrench primitives must be finite"):
        grasp._closures(runs, [0, 2, 1 + len(contacts)], P_PROBE, None)


# Metamorphic relations of the grasp model: they need no oracle.


@st.composite
def pressing_grasps(draw):
    """An object, a gripper of 2 or 4 fingers with 1 to 4 module levels and
    a servo angle at which its jaws reach the object."""
    shape = draw(st.sampled_from(("sphere", "cube", "cuboid", "cylinder", "curved_block")))
    width = draw(st.floats(35.0, 76.0))
    height = draw(st.floats(40.0, 110.0))
    pose = Pose(z=draw(st.floats(-10.0, 10.0)), yaw=draw(st.floats(0.0, 90.0)))
    obj = {
        "sphere": lambda: sphere(width, pose=pose),
        "cube": lambda: cube(width, pose=pose),
        "cuboid": lambda: cuboid(width, draw(st.floats(35.0, 76.0)), height, pose=pose),
        "cylinder": lambda: cylinder(width, height, pose=pose),
        "curved_block": lambda: curved_block(draw(st.floats(max(width, height) / 2.0, 2.0 * max(width, height))),
                                             width, height, pose=pose),
    }[shape]()
    levels = draw(st.lists(st.floats(5.0, 100.0), min_size=1, max_size=4, unique=True))
    config = GripperConfig(
        finger_count=draw(st.sampled_from((2, 4))),
        module_levels=tuple(sorted(levels)),
        curvature_threshold=draw(st.floats(0.2, 2.0)),
    )
    lo, hi = opening_range(config)
    touch = theta_for_opening(min(max(width, lo), hi), config)
    return obj, config, min(touch + draw(st.floats(0.0, 30.0)), 90.0)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(grasped=pressing_grasps(), mus=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2, unique=True).map(sorted))
def test_more_friction_never_opens_a_closed_grasp_or_lowers_its_margin(grasped, mus):
    # Normal forces do not depend on mu, and each cone edge at the lower mu is a
    # convex combination of the two at the higher: the wrench hull only grows.
    obj, config, theta = grasped
    low, high = (resolve_contacts(theta, obj, config, TPU95A, mu) for mu in mus)
    low, high, scale = (closure_summary(low, obj, config), closure_summary(high, obj, config),
                        float(np.abs(grasp._primitives(high)).max(initial=0.0)))
    # the higher margin may come out short by _PLANE_TOL of the largest component; rounding adds far less
    tolerance = 2.0 * _PLANE_TOL * scale
    assert high.margin >= low.margin - tolerance
    assert high.force_closure or low.margin <= tolerance


@settings(max_examples=150, derandomize=True, deadline=None)
@given(grasped=pressing_grasps(), mu=st.floats(0.0, 1.5))
def test_turning_the_object_by_one_finger_pitch_changes_no_verdict(grasped, mu):
    # the turned object meets finger f + 1 as the object met finger f
    obj, config, theta = grasped
    pitch = 360.0 / config.finger_count
    turned = dataclasses.replace(obj, pose=dataclasses.replace(obj.pose, yaw=obj.pose.yaw + pitch))
    facts = []
    for placed in (obj, turned):
        contacts = resolve_contacts(theta, placed, config, TPU95A, mu)
        summary = closure_summary(contacts, placed, config)
        facts.append((
            (len(contacts), contacts.grasp_mode, summary.force_closure, summary.form_closure),
            (summary.margin, summary.wrap_angle or 0.0, squeeze_force(contacts), pullout_capacity(contacts)),
        ))
    (verdicts, values), (turned_verdicts, turned_values) = facts
    assert turned_verdicts == verdicts
    # bearings and widths of the turned object round differently: values agree to 1e-9 relative
    assert turned_values == pytest.approx(values, rel=1e-9, abs=1e-12)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(grasped=pressing_grasps(), masses=st.lists(st.floats(0.0, 1e3), min_size=2, max_size=2), mu=st.floats(0.0, 1.5))
def test_the_object_mass_changes_no_single_grasp_output(grasped, masses, mu):
    # tolerance 0: a single grasp reports contacts, forces and closure, none of
    # which reads the mass, so every output, contact table included, is bit-identical
    obj, config, theta = grasped
    outputs = [
        repr(run_single_grasp(SingleGraspScenario("s", config, TPU95A, mu, 1.0, theta,
                                                  dataclasses.replace(obj, mass=mass))))
        for mass in masses
    ]
    assert outputs[0] == outputs[1]
