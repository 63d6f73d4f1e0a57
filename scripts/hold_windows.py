#!/usr/bin/env python3
"""Print secure hold windows over a range of object sizes.

Shows how the closure-angle window in which an object is securely held
slides linearly with its width, which is what makes size-ordered
sequential release of a stacked pair possible.

Usage:
    python scripts/hold_windows.py [--shape sphere] [--sizes 40:70:5]
        [--material sil950] [--fingers 4] [--mass 0.05]
"""

import argparse
import math

from origrip import GripperConfig, ObjectShape, Pose, ShapeKind, field_problem, hold_window, material_table
from origrip.scenario import stepped_values
from origrip.transmission import FINGER_COUNTS

MAX_ROWS = 1000


def size_range(spec: str) -> list[float]:
    """The sizes of ``lo:hi:step``: finite numbers with 0 < lo <= hi,
    step > 0, at most MAX_ROWS sizes and no size above the scene bound."""
    try:
        lo, hi, step = (float(p) for p in spec.split(":"))
    except ValueError:
        raise ValueError(f"expected lo:hi:step, got {spec!r}") from None
    if not all(map(math.isfinite, (lo, hi, step))) or not 0.0 < lo <= hi or step <= 0.0:
        raise ValueError(f"need finite numbers with 0 < lo <= hi and step > 0, got {spec!r}")
    count, sizes = stepped_values(lo, hi, step, MAX_ROWS)  # no size lies past hi, so none past the scene bound
    if count > MAX_ROWS:
        raise ValueError(f"{spec!r} gives more than {MAX_ROWS} sizes")
    if (why := field_problem("size", hi)) is not None:
        raise ValueError(f"largest size {why}")
    return sizes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shape", choices=("sphere", "cube"), default="sphere")
    parser.add_argument("--sizes", default="40:70:5", help="lo:hi:step in mm")
    parser.add_argument("--material", default="sil950")
    parser.add_argument("--fingers", type=int, choices=FINGER_COUNTS, default=4)
    parser.add_argument("--mass", type=float, default=0.05, help="kg")
    parser.add_argument("--mu", type=float, default=0.5)
    args = parser.parse_args()

    try:
        sizes = size_range(args.sizes)
    except ValueError as exc:
        parser.error(f"--sizes: {exc}")
    for flag, value in (("--mass", args.mass), ("--mu", args.mu)):
        if (why := field_problem(flag[2:], value)) is not None:
            parser.error(f"{flag}: {why}")
    table = material_table()
    if args.material not in table:
        parser.error(f"--material: unknown material {args.material!r}; known: {', '.join(sorted(table))}")
    config = GripperConfig(finger_count=args.fingers)
    material = table[args.material]

    print(f"{'size':>6}  {'window lo':>9}  {'window hi':>9}  limiting")
    for size in sizes:
        # center the widest section between the module levels
        mid = 0.5 * (config.module_levels[0] + config.module_levels[-1])
        obj = ObjectShape(
            ShapeKind(args.shape), (size,), mass=args.mass, pose=Pose(z=mid - size / 2.0)
        )
        window = hold_window(obj, config, material, mu=args.mu)
        if window is None:
            print(f"{size:6.1f}  {'--':>9}  {'--':>9}  none")
        else:
            print(
                f"{size:6.1f}  {window.theta_lo:9.2f}  {window.theta_hi:9.2f}  "
                f"{window.limiting_factor.value}"
            )


if __name__ == "__main__":
    main()
