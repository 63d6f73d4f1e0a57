"""End-to-end acceptance checks, one per headline capability.

Each test prints a one-line verdict even under pytest's capture so a full
run shows the scorecard at a glance.
"""

import time
from contextlib import contextmanager

import numpy as np

import oracles
from origrip import (
    BUILTIN_MATERIALS,
    GripperConfig,
    SIL950,
    TPU95A,
    cuboid,
    curved_block,
    hold_window,
)
from origrip.demo import demo_scene_path, run_demo_suite
from origrip.grasp import (
    calibrate_friction,
    default_lift_grid,
    is_force_closure,
    pullout_capacity,
    pullout_trace,
    resolve_contacts,
    squeeze_force,
)
from origrip.mechanics import bending_torques, compression_forces, perturbed
from origrip.scenario import load_scenario, run_scenario
from origrip.trajectory import CycleSpec, compare_cycles
from origrip.transmission import opening, theta_for_opening

V_PROBE = curved_block(45.5, 67.0, 80.0)
P_PROBE = cuboid(63.0, 45.4, 100.0)


@contextmanager
def criterion(capsys, number, summary):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {number}] FAIL - {summary}")
        raise
    with capsys.disabled():
        print(f"[criterion {number}] PASS - {summary}")


def test_criterion_1_constant_force_plateaus(capsys):
    with criterion(
        capsys, 1, "module plateaus hold at 1.0 N / 4.75 N and 9.5 / 39 N*mm within band"
    ):
        start = time.perf_counter()
        sil = BUILTIN_MATERIALS["sil950"]
        tpu = BUILTIN_MATERIALS["tpu95a"]
        strains = np.linspace(0.1, 0.5, 81)
        angles = np.linspace(5.0, 25.0, 81)
        assert (compression_forces(strains, sil) == 1.0).all()
        assert (compression_forces(strains, tpu) == 4.75).all()
        assert (bending_torques(angles, sil) == 9.5).all()
        assert (bending_torques(angles, tpu) == 39.0).all()
        for seed in range(10):
            sil_p = perturbed(sil, seed)
            tpu_p = perturbed(tpu, seed)
            assert all(4.5 <= f <= 5.0 for f in compression_forces(strains[::8], tpu_p))
            assert all(0.97 <= f <= 1.03 for f in compression_forces(strains[::8], sil_p))
            assert all(9.5 * 0.97 <= t <= 9.5 * 1.03 for t in bending_torques(angles[::8], sil_p))
            assert all(39.0 * 0.95 <= t <= 39.0 * 1.05 for t in bending_torques(angles[::8], tpu_p))
        assert time.perf_counter() - start < 1.0


def test_criterion_2_drive_kinematics(capsys):
    with criterion(
        capsys, 2, "jaw opening spans 78 -> 28 mm and the angle inverse round-trips to 1e-9"
    ):
        start = time.perf_counter()
        config = GripperConfig()
        assert opening(0.0, config) == 78.0
        assert abs(opening(90.0, config) - 28.0) <= 1e-9
        for theta in np.linspace(0.0, 90.0, 1000):
            back = theta_for_opening(opening(float(theta), config), config)
            assert abs(back - theta) <= 1e-9
        assert time.perf_counter() - start < 1.0


def test_criterion_3_friction_calibration(capsys):
    with criterion(
        capsys,
        3,
        "one fitted mu gives 1.5 N side / 3.0 N total extraction and 1-2 N silicone squeeze",
    ):
        config = GripperConfig()
        mu = calibrate_friction(V_PROBE, 60.0, config, TPU95A, target_side_force=1.5)
        assert 0.0 < mu < 1.0
        contacts = resolve_contacts(60.0, V_PROBE, config, TPU95A, mu)
        side = pullout_capacity(contacts.finger(0))
        total = pullout_capacity(contacts)
        assert abs(side - 1.5) <= 0.15
        assert abs(total - 3.0) <= 0.3
        silicone = resolve_contacts(60.0, V_PROBE, config, SIL950, mu)
        side_squeeze = squeeze_force(silicone, finger_index=0)
        assert 1.0 <= side_squeeze <= 2.0


def test_criterion_4_extraction_trace_stages(capsys):
    with criterion(
        capsys,
        4,
        "pull-out traces: two exact force plateaus for prisms, varying resistance for barrels",
    ):
        config = GripperConfig()
        for material in (TPU95A, SIL950):
            for theta in (30.0, 60.0):
                grid = default_lift_grid(P_PROBE, config, step=0.5)
                trace = pullout_trace(theta, P_PROBE, config, material, 0.5, grid)
                lifts = np.asarray(trace.lifts)
                forces = np.asarray(trace.forces)
                m = trace.markers
                first = forces[lifts <= m["t2"]]
                second = forces[(lifts >= m["t3"]) & (lifts <= m["t4"] - 20.0)]
                assert len(first) >= 2 and np.all(first == first[0])
                assert len(second) >= 2 and np.all(second == second[0])
                assert 0.0 < second[0] < first[0]
                assert np.all(np.diff(forces) <= 1e-12)  # a single monotone drop
                assert np.all(forces[lifts >= m["t4"]] == 0.0)

                barrel_grid = default_lift_grid(V_PROBE, config, step=0.5)
                barrel = pullout_trace(theta, V_PROBE, config, material, 0.5, barrel_grid)
                b_lifts = np.asarray(barrel.lifts)
                b_forces = np.asarray(barrel.forces)
                early = b_forces[b_lifts <= barrel.markers["t2"]]
                assert np.ptp(early) > 1e-6  # hooked contacts never sit on a plateau


def test_criterion_5_stacked_hold_release_windows(capsys):
    with criterion(
        capsys,
        5,
        "release schedules drop bottom-then-top on all stacked demos and 50 random stacks",
    ):
        start = time.perf_counter()
        demos = ("stacked_spheres", "stacked_cubes", "stacked_sphere_cube", "stacked_cuboids")
        for name in demos:
            out = run_scenario(load_scenario(demo_scene_path(name)))
            held = [(s["top_held"], s["bottom_held"]) for s in out["stages"]]
            assert held == [(True, True), (True, False), (False, False)], name
        spheres = run_scenario(load_scenario(demo_scene_path("stacked_spheres")))
        lo, hi = spheres["plan"]["release_window"]
        assert lo <= 40.0 <= hi

        rng = np.random.default_rng(20260825)
        for _ in range(50):
            scene = oracles.random_stacked_scene(rng)
            for obj in (scene.top, scene.bottom):
                window = hold_window(
                    obj, scene.config, scene.material, mu=scene.mu, safety=scene.safety
                )
                swept = oracles.swept_hold_window(
                    obj, scene.config, scene.material, scene.mu, scene.safety, step=0.1
                )
                assert window is not None and swept is not None
                assert abs(window.theta_lo - swept[0]) <= 0.1 + 1e-9
                assert abs(window.theta_hi - swept[1]) <= 0.1 + 1e-9
        assert time.perf_counter() - start < 30.0


def test_criterion_6_transport_savings(capsys):
    with criterion(
        capsys,
        6,
        "one-grip transport saves 33% distance / 31% time and matches the exact identity",
    ):
        out = run_scenario(load_scenario(demo_scene_path("pickplace_comparison")))
        assert abs(out["distance_reduction"] - 0.33) <= 0.03
        assert abs(out["time_reduction"] - 0.31) <= 0.03

        rng = np.random.default_rng(41)
        for _ in range(20):
            bottom_x = int(rng.integers(50, 400))
            top_x = bottom_x + int(rng.integers(10, 200))
            height = int(rng.integers(10, 100))
            spec = CycleSpec(
                pick=(0.0, 0.0),
                place_bottom=(float(bottom_x), 0.0),
                place_top=(float(top_x), 0.0),
                approach_height=float(height),
                descend_speed=float(rng.integers(5, 20)),
                ascend_speed=float(rng.integers(5, 20)),
                travel_speed=float(rng.integers(20, 80)),
                grasp_dwell=float(rng.integers(1, 5)),
                release_dwell=float(rng.integers(1, 5)),
            )
            result = compare_cycles(spec)
            assert result.distance_saved == 2.0 * bottom_x + 2.0 * height
            expected_time = (
                2.0 * bottom_x / spec.travel_speed
                + height / spec.descend_speed
                + height / spec.ascend_speed
                + spec.grasp_dwell
            )
            assert abs(result.time_saved - expected_time) <= 1e-9


def test_criterion_7_force_closure_validity(capsys):
    with criterion(
        capsys,
        7,
        "closure verdicts match direction sampling on 100 contact sets and obey invariances",
    ):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            primitives = oracles.random_contact_primitives(rng, int(rng.integers(2, 9)))
            if not oracles.sampling_decisive(primitives):
                continue
            verdict = is_force_closure(primitives).closed
            assert verdict == oracles.positive_span_closed(primitives)
            # the verdict is scale-free: a stronger or weaker grip of the
            # same geometry closes iff the original does
            scale = float(10.0 ** rng.uniform(-3.0, 3.0))
            assert is_force_closure(primitives * scale).closed == verdict
            checked += 1

        for _ in range(100):
            bearing = rng.uniform(0.0, 2.0 * np.pi)
            direction = np.array([np.cos(bearing), np.sin(bearing)])
            f1, f2 = rng.uniform(0.5, 5.0, 2)
            opposed = np.array(
                [[*(-f1 * direction), 0.0], [*(f2 * direction), 0.0]]
            )
            assert not is_force_closure(opposed).closed


def test_criterion_8_deterministic_outputs(capsys, tmp_path):
    with criterion(
        capsys, 8, "two full demo-suite runs produce byte-identical result files"
    ):
        first = run_demo_suite(tmp_path / "a")
        second = run_demo_suite(tmp_path / "b")
        assert first == second
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert len(names) == 12
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
