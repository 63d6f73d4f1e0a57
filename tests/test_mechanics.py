import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from origrip import (
    BUILTIN_MATERIALS,
    SIL950,
    TPU95A,
    MaterialModel,
    bending_contact_force,
    bending_state,
    bending_torques,
    compression_forces,
    compression_state,
    perturbed,
    sample_bending_curve,
    sample_compression_curve,
)

MATERIALS = (TPU95A, SIL950)


def test_builtin_materials():
    assert set(BUILTIN_MATERIALS) == {"tpu95a", "sil950"}
    assert TPU95A.plateau_force == 4.75
    assert TPU95A.plateau_torque == 39.0
    assert TPU95A.force_band == pytest.approx(0.25 / 4.75)
    assert TPU95A.torque_band == 0.05
    assert SIL950.plateau_force == 1.0
    assert SIL950.plateau_torque == 9.5
    assert SIL950.force_band == 0.03
    assert SIL950.torque_band == 0.03
    for m in MATERIALS:
        assert (m.strain_lo, m.strain_hi) == (0.1, 0.5)
        assert (m.angle_lo, m.angle_hi) == (5.0, 25.0)


def test_default_overload_stiffness():
    # ten times the loading-ramp slope plateau/strain_lo
    assert TPU95A.overload_stiffness == pytest.approx(475.0)
    assert SIL950.overload_stiffness == pytest.approx(100.0)


def test_compression_plateau_exactly_flat():
    for m in MATERIALS:
        strains = np.linspace(m.strain_lo, m.strain_hi, 100)
        assert (compression_forces(strains, m) == m.plateau_force).all()
        assert all(compression_state(float(strain), m).force == m.plateau_force for strain in strains)


def test_compression_ramp():
    assert compression_forces(np.array([0.0, 0.05]), TPU95A) == pytest.approx([0.0, 2.375])
    assert compression_forces(np.array([0.02]), SIL950) == pytest.approx([0.2])


def test_compression_overload_branch():
    assert compression_forces(np.array([0.6]), TPU95A) == pytest.approx([4.75 + 475.0 * 0.1], rel=1e-12)
    assert compression_forces(np.array([0.55]), SIL950) == pytest.approx([1.0 + 100.0 * 0.05], rel=1e-12)


def test_overcompression_flag():
    assert not compression_state(1.0, TPU95A).overcompressed
    assert compression_state(1.01, TPU95A).overcompressed
    state = compression_state(0.3, SIL950)
    assert state.force == 1.0 and not state.overcompressed


def test_bending_ramp_and_plateau():
    assert bending_torques(np.array([0.0, 2.5]), TPU95A) == pytest.approx([0.0, 19.5])
    angles = np.linspace(5.0, 25.0, 50)
    assert (bending_torques(angles, TPU95A) == 39.0).all()
    assert (bending_torques(angles, SIL950) == 9.5).all()
    assert all(bending_state(float(angle), SIL950).torque == 9.5 for angle in angles)
    # the fold holds its plateau past the working range
    assert bending_torques(np.array([30.0]), TPU95A) == [39.0]


def test_overfold_flag():
    assert not bending_state(25.0, TPU95A).overfolded
    assert bending_state(25.1, TPU95A).overfolded
    assert bending_state(26.0, TPU95A).torque == 39.0


def test_bending_contact_force():
    assert bending_contact_force(10.0, 15.0, TPU95A) == pytest.approx(2.6)
    assert bending_contact_force(10.0, 15.0, SIL950) == pytest.approx(9.5 / 15.0)
    assert bending_contact_force(10.0, 15.0, TPU95A, torque_scale=2.0) == pytest.approx(5.2)
    with pytest.raises(ValueError):
        bending_contact_force(10.0, 0.0, TPU95A)
    with pytest.raises(ValueError):
        bending_contact_force(10.0, 15.0, TPU95A, torque_scale=0.0)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError, match="strain must be non-negative, got -0.1"):
        compression_state(-0.1, TPU95A)
    with pytest.raises(ValueError, match="bend angle must be non-negative, got -1"):
        bending_state(-1.0, TPU95A)
    with pytest.raises(ValueError, match="bend angle must be non-negative, got -1"):
        bending_contact_force(-1.0, 15.0, TPU95A)


def test_material_validation():
    ok = dict(name="x", plateau_force=1.0, force_band=0.05, plateau_torque=10.0, torque_band=0.05)
    MaterialModel(**ok)
    with pytest.raises(ValueError):
        MaterialModel(**{**ok, "plateau_force": 0.0})
    with pytest.raises(ValueError):
        MaterialModel(**{**ok, "force_band": 0.3})
    with pytest.raises(ValueError):
        MaterialModel(**{**ok, "torque_band": -0.1})
    with pytest.raises(ValueError):
        MaterialModel(**{**ok, "strain_lo": 0.5, "strain_hi": 0.1})
    with pytest.raises(ValueError):
        MaterialModel(**{**ok, "angle_lo": 25.0, "angle_hi": 5.0})
    with pytest.raises(ValueError):
        MaterialModel(**{**ok, "overload_stiffness": -1.0})


def test_curve_continuity_at_breakpoints():
    eps = 1e-6
    for m in MATERIALS:
        for break_at in (m.strain_lo, m.strain_hi):
            below, above = compression_forces(np.array([break_at - eps, break_at + eps]), m)
            assert abs(above - below) <= 1e-3
        for break_at in (m.angle_lo, m.angle_hi):
            below, above = bending_torques(np.array([break_at - eps, break_at + eps]), m)
            assert abs(above - below) <= 1e-3


@given(
    st.sampled_from(MATERIALS),
    st.floats(min_value=0.0, max_value=1.2),
    st.floats(min_value=0.0, max_value=1.2),
)
def test_compression_monotone_nondecreasing(material, s1, s2):
    lo, hi = compression_forces(np.sort([s1, s2]), material)
    assert lo <= hi + 1e-12


@given(
    st.sampled_from(MATERIALS),
    st.floats(min_value=0.0, max_value=40.0),
    st.floats(min_value=0.0, max_value=40.0),
)
def test_bending_monotone_nondecreasing(material, a1, a2):
    lo, hi = bending_torques(np.sort([a1, a2]), material)
    assert lo <= hi + 1e-12


def test_perturbed_stays_in_band_and_is_deterministic():
    for m in MATERIALS:
        f_lo, f_hi = m.force_plateau_bounds
        t_lo, t_hi = m.torque_plateau_bounds
        for seed in range(25):
            p = perturbed(m, seed)
            assert f_lo <= p.plateau_force <= f_hi
            assert t_lo <= p.plateau_torque <= t_hi
            again = perturbed(m, seed)
            assert again.plateau_force == p.plateau_force
            assert again.plateau_torque == p.plateau_torque
            # overload stiffness tracks the perturbed plateau
            assert p.overload_stiffness == pytest.approx(10.0 * p.plateau_force / p.strain_lo)
        assert perturbed(m, 0).plateau_force != perturbed(m, 1).plateau_force


def test_sample_compression_curve():
    strains, forces = sample_compression_curve(SIL950)
    assert len(strains) == len(forces) == 121
    assert strains[0] == 0.0 and strains[-1] == pytest.approx(0.6)
    expected = np.array([oracles.scalar_compression_force(float(s), SIL950) for s in strains])
    assert np.array_equal(forces, expected)


def test_sample_bending_curve():
    angles, torques = sample_bending_curve(TPU95A, angle_max=25.0, samples=11)
    assert len(angles) == 11
    assert angles[-1] == pytest.approx(25.0)
    expected = np.array([oracles.scalar_bending_torque(float(a), TPU95A) for a in angles])
    assert np.array_equal(torques, expected)


@given(st.lists(st.floats(0.0, 2.0), max_size=50), st.sampled_from(MATERIALS))
def test_array_curves_equal_the_scalar_curves(strains, material):
    # strains past the overload knee, angles past the overfold limit
    forces = [oracles.scalar_compression_force(s, material) for s in strains]
    assert np.array_equal(compression_forces(np.array(strains), material), forces)
    assert [compression_state(s, material).force for s in strains] == forces
    angles = 40.0 * np.array(strains)
    torques = [oracles.scalar_bending_torque(a, material) for a in angles.tolist()]
    assert np.array_equal(bending_torques(angles, material), torques)
    assert [bending_state(a, material).torque for a in angles.tolist()] == torques
    contact_forces = [torque * 2.0 / 15.0 for torque in torques]
    assert np.array_equal(bending_contact_force(angles, 15.0, material, 2.0), contact_forces)
    assert [bending_contact_force(a, 15.0, material, 2.0) for a in angles.tolist()] == contact_forces


def test_an_integer_material_gives_the_curves_of_its_float_twin():
    # the curves return floats whatever the field types: an int array would truncate the ramp
    whole = MaterialModel("m", 5, 0.05, 40, 0.05, strain_lo=1, strain_hi=2, angle_lo=10, angle_hi=20,
                          overload_stiffness=3)
    twin = MaterialModel("m", 5.0, 0.05, 40.0, 0.05, strain_lo=1.0, strain_hi=2.0, angle_lo=10.0, angle_hi=20.0,
                         overload_stiffness=3.0)
    strains = np.array([0.0, 0.05, 0.3, 1.0, 1.5, 2.0, 2.5])
    for curve, values in ((compression_forces, strains), (bending_torques, 10.0 * strains)):
        assert curve(values, whole).dtype == float
        assert curve(values, whole).tobytes() == curve(values, twin).tobytes()


def test_array_curves_reject_negative_input():
    with pytest.raises(ValueError, match="strain must be non-negative, got -0.1"):
        compression_forces(np.array([0.2, -0.1, -0.3]), SIL950)
    with pytest.raises(ValueError, match="bend angle must be non-negative, got -1"):
        bending_torques(np.array([-1.0]), SIL950)
    with pytest.raises(ValueError, match="torque_scale must be > 0, got 0"):
        bending_contact_force(np.array([1.0]), 15.0, SIL950, 0.0)


def test_sampled_curves_reject_a_negative_range():
    with pytest.raises(ValueError, match="strain must be non-negative, got -0.000833333"):
        sample_compression_curve(SIL950, strain_max=-0.1)
    with pytest.raises(ValueError, match="bend angle must be non-negative, got -0.25"):
        sample_bending_curve(SIL950, angle_max=-30.0)
