#!/usr/bin/env python3
"""Fit the contact friction coefficient against the bench pull test.

The bench test clamps an instrumented curved probe at a deep closure angle
and records the vertical force on one side at the moment it starts to
slide out.  Extraction resistance is linear in the friction coefficient
(normal forces do not depend on it), so a single measurement pins mu:

    side_capacity(mu) = mu * sum(Fn cos psi) + sum(Fn sin psi)

where psi is each contact's normal inclination (the hooking term that
resists extraction even without friction).

Usage:
    python scripts/calibrate_friction.py [--target 1.5] [--theta 60]
"""

import argparse

from origrip import (
    GripperConfig,
    SIL950,
    TPU95A,
    calibrate_friction,
    curved_block,
    pullout_capacity,
    resolve_contacts,
    squeeze_force,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--target", type=float, default=1.5, help="measured side force, N")
    parser.add_argument("--theta", type=float, default=60.0, help="closure angle, deg")
    args = parser.parse_args()

    config = GripperConfig()
    probe = curved_block(45.5, 67.0, 80.0)

    try:
        frictionless = resolve_contacts(args.theta, probe, config, TPU95A, mu=0.0)
        side = frictionless.finger(0)
        slope = squeeze_force(side)
        intercept = pullout_capacity(side)  # at mu = 0 only the hooking term is left
        mu = calibrate_friction(probe, args.theta, config, TPU95A, target_side_force=args.target)
    except ValueError as exc:  # angle out of range, no probe contact, or target too low
        parser.error(str(exc))

    print(f"probe contacts per side : {len(side)}")
    print(f"friction slope          : {slope:.5f} N per unit mu")
    print(f"hooking intercept       : {intercept:.5f} N")
    print(f"fitted mu               : {mu:.10f}")

    for material in (TPU95A, SIL950):
        contacts = resolve_contacts(args.theta, probe, config, material, mu=mu)
        print(
            f"{material.name:8s} side capacity {pullout_capacity(contacts.finger(0)):7.4f} N   "
            f"total {pullout_capacity(contacts):7.4f} N   "
            f"side squeeze {squeeze_force(contacts, 0):7.4f} N"
        )


if __name__ == "__main__":
    main()
