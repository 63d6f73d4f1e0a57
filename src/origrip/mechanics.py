"""Constitutive response of a single constant-force origami module.

Both working modes are modeled as piecewise-linear curves with a flat
plateau across the useful deformation range:

    compression  force(strain):   0 -> plateau over [0, strain_lo],
                                  flat plateau over [strain_lo, strain_hi],
                                  stiffening overload branch beyond strain_hi
    bending      torque(angle):   0 -> plateau over [0, angle_lo],
                                  flat plateau over [angle_lo, angle_hi],
                                  held at plateau beyond (overfold flagged)

Strain is the face penetration normalized by the undeformed module depth.
Plateau torque numbers carry a configurable unit scale; the default treats
them as N*mm so that dividing by a mm lever arm yields a contact force in N.
The per-material deviation bands describe manufacturing spread used as
acceptance tolerance; nominal curves are exact and noise enters only through
the explicit seeded hook.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass

import numpy as np

from ._finite import require, require_finite

_MAX_SAMPLES = 100_000  # points of a sampled curve: as many as the points of a pull-out lift grid

# --------------------------------------------------------------------------
# material description
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MaterialModel:
    """Plateau levels, working ranges and tolerance bands for one material."""

    name: str
    plateau_force: float          # N
    force_band: float             # relative spread of the force plateau
    plateau_torque: float         # torque units (N*mm by default scale)
    torque_band: float            # relative spread of the torque plateau
    strain_lo: float = 0.1
    strain_hi: float = 0.5
    angle_lo: float = 5.0         # deg
    angle_hi: float = 25.0        # deg
    overload_stiffness: float | None = None   # N per unit strain beyond strain_hi

    def __post_init__(self):
        require_finite(self)
        if not self.strain_lo < self.strain_hi:
            raise ValueError("need 0 < strain_lo < strain_hi")
        if not self.angle_lo < self.angle_hi:
            raise ValueError("need 0 < angle_lo < angle_hi")
        if self.overload_stiffness is None:  # ten times the average loading-ramp slope
            object.__setattr__(self, "overload_stiffness", 10.0 * self.plateau_force / self.strain_lo)
            require("overload_stiffness", self.overload_stiffness)

    @property
    def force_plateau_bounds(self) -> tuple[float, float]:
        """Expected spread of the compression plateau, N."""
        return (
            self.plateau_force * (1.0 - self.force_band),
            self.plateau_force * (1.0 + self.force_band),
        )

    @property
    def torque_plateau_bounds(self) -> tuple[float, float]:
        return (
            self.plateau_torque * (1.0 - self.torque_band),
            self.plateau_torque * (1.0 + self.torque_band),
        )


TPU95A = MaterialModel(
    name="tpu95a",
    plateau_force=4.75,
    force_band=0.25 / 4.75,
    plateau_torque=39.0,
    torque_band=0.05,
)

SIL950 = MaterialModel(
    name="sil950",
    plateau_force=1.0,
    force_band=0.03,
    plateau_torque=9.5,
    torque_band=0.03,
)

BUILTIN_MATERIALS: dict[str, MaterialModel] = {m.name: m for m in (TPU95A, SIL950)}


# --------------------------------------------------------------------------
# constitutive curves
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CompressionState:
    """A module's axial force at one strain, and whether the strain exceeds full depth."""

    force: float
    overcompressed: bool


@dataclass(frozen=True)
class BendingState:
    """A panel's fold torque at one bend angle, and whether the angle exceeds the working range."""

    torque: float
    overfolded: bool


def compression_forces(strains: np.ndarray | float, material: MaterialModel) -> np.ndarray:
    """Axial module force (N) at each effective strain, the face penetration
    over the undeformed module depth."""
    strains = np.asarray(strains, dtype=float)
    _require_non_negative(strains, "strain")
    # each branch reads the strain clamped to its own side, so a branch not taken cannot overflow
    ramp = material.plateau_force * np.minimum(strains, material.strain_lo) / material.strain_lo
    excess = np.maximum(strains, material.strain_hi) - material.strain_hi
    overload = material.plateau_force + material.overload_stiffness * excess
    return np.where(
        strains < material.strain_lo,
        ramp,
        np.where(strains <= material.strain_hi, material.plateau_force, overload),
    )


# no caller in the package; public because perfbench/tracing.py wraps it by name
def compression_state(strain: float, material: MaterialModel) -> CompressionState:
    """Force plus the overcompression flag (strain beyond full depth)."""
    return CompressionState(
        force=float(compression_forces(strain, material)),
        overcompressed=strain > 1.0,
    )


def bending_torques(angles: np.ndarray | float, material: MaterialModel) -> np.ndarray:
    """Fold torque (configured torque units) at each panel bend angle in deg.
    Past the working range the fold holds its plateau: overfold is a flag."""
    angles = np.asarray(angles, dtype=float)
    _require_non_negative(angles, "bend angle")
    # clamped as in compression_forces: past angle_lo the plain ramp can overflow
    ramp = material.plateau_torque * np.minimum(angles, material.angle_lo) / material.angle_lo
    return np.where(angles < material.angle_lo, ramp, material.plateau_torque)


def _require_non_negative(values: np.ndarray, name: str) -> None:
    """The curves' sign check, naming the first negative entry."""
    negative = values[values < 0.0]
    if negative.size:
        raise ValueError(f"{name} must be non-negative, got {negative[0]:g}")


# no caller in the package; public because perfbench/tracing.py wraps it by name
def bending_state(angle: float, material: MaterialModel) -> BendingState:
    return BendingState(
        torque=float(bending_torques(angle, material)),
        overfolded=angle > material.angle_hi,
    )


def bending_contact_force(
    angle: float | np.ndarray,
    lever_arm: float,
    material: MaterialModel,
    torque_scale: float = 1.0,
) -> float | np.ndarray:
    """Contact force (N) of a wrapped panel: fold torque over its lever arm.

    ``torque_scale`` converts the material torque numbers to N*mm
    (1.0 when they are already N*mm).  An array of angles gives an array of
    forces.
    """
    require("bend_lever_arm", lever_arm)
    require("torque_scale", torque_scale)
    return bending_torques(angle, material) * torque_scale / lever_arm


# --------------------------------------------------------------------------
# deviation hook and curve sampling
# --------------------------------------------------------------------------


def perturbed(material: MaterialModel, noise_seed: int) -> MaterialModel:
    """Material copy with plateaus drawn uniformly inside their bands.

    Deterministic in ``noise_seed``; intended for robustness studies, never
    applied implicitly.
    """
    rng = np.random.default_rng(noise_seed)
    force_scale = 1.0 + material.force_band * rng.uniform(-1.0, 1.0)
    torque_scale = 1.0 + material.torque_band * rng.uniform(-1.0, 1.0)
    return dataclasses.replace(
        material,
        plateau_force=material.plateau_force * force_scale,
        plateau_torque=material.plateau_torque * torque_scale,
        overload_stiffness=None,
    )


def require_samples(samples: int) -> None:
    """Raise ValueError, led by ``samples:``, unless ``samples`` is an int from 2 to ``_MAX_SAMPLES``."""
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral):
        raise ValueError(f"samples: expected an integer, got {type(samples).__name__}")
    if samples < 2:
        raise ValueError(f"samples: need at least 2, got {samples}")
    if samples > _MAX_SAMPLES:
        raise ValueError(f"samples: {samples} samples, more than {_MAX_SAMPLES}")


def sample_compression_curve(material: MaterialModel, samples: int = 121) -> tuple[np.ndarray, np.ndarray]:
    """(strain, force) arrays for plotting or export, strain from 0 to 0.6."""
    require_samples(samples)
    strains = np.linspace(0.0, 0.6, samples)
    return strains, compression_forces(strains, material)


def sample_bending_curve(material: MaterialModel, samples: int = 121) -> tuple[np.ndarray, np.ndarray]:
    """(angle, torque) arrays for plotting or export, angle from 0 to 30 deg."""
    require_samples(samples)
    angles = np.linspace(0.0, 30.0, samples)
    return angles, bending_torques(angles, material)
