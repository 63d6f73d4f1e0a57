"""Host-speed calibration for the timing metrics.

The benchmark host is shared.  Other tenants switch it between speeds every
few seconds to minutes, and a slow stretch makes every origrip call 20-90%
slower.  The kernel below does the same kind of work as an origrip call,
without origrip: it builds an argparse parser, loads a YAML scene, solves a
small HiGHS LP and runs a scalar loop that builds frozen dataclass records,
as the pull-out contact loop does.  Interleaved with the measured calls, it slows down with
them, so ``time * REFERENCE_S / kernel_time`` no longer depends on the host's
state.  No change to origrip can change the kernel's own time.

Set-up time has its own yardstick, because a slow stretch stretches file
reads and module execution less than compute: a fresh interpreter importing
origrip's heavy dependencies (numpy, scipy.optimize, yaml; see probe.py),
started right after each set-up probe.  A change to origrip cannot change
that time either, and an origrip that stops importing scipy still shows a
shorter set-up.

``REFERENCE_S`` and ``REFERENCE_IMPORT_S`` are the kernel's median wall
(and CPU) time and the dependency import time on that host when fast: an
x86_64 VM with 2 vCPUs, Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.  So
scaled times read as times on that machine.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np
import yaml
from scipy.optimize import linprog

REFERENCE_S = 0.0068
REFERENCE_IMPORT_S = 0.7
WINDOW_S = 1.0          # calibrations within this distance of a call scale it

_SCENE = yaml.safe_dump(
    {
        "kind": "single_grasp",
        "material": "tpu95a",
        "mu": 0.41,
        "theta": 55.5,
        "gripper": {"finger_count": 4, "modules": [{"height": 20.0}, {"height": 60.0}]},
        "object": {"shape": "cuboid", "size": [60.0, 40.0, 80.0], "mass": 0.05},
    }
)
_G = np.random.default_rng(0).normal(size=(6, 16))


@dataclass(frozen=True)
class _Record:
    z: float
    force: float
    moment: float


def _profile(z: float, k: float) -> float:
    return math.sqrt(z * z + k) * math.cos(z / (k + 1.0))


def kernel() -> int:
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command")
    for name in "abcdefg":
        cmd = sub.add_parser(name)
        for j in range(6):
            cmd.add_argument(f"--opt{j}", type=float, default=0.0, help=f"option {j} of {name}")
    parser.parse_args(["a", "--opt1", "2"])
    scene = yaml.safe_load(_SCENE)
    linprog(np.ones(16), A_eq=_G, b_eq=_G.sum(axis=1), bounds=(0, None), method="highs")
    records = []
    for i in range(1500):
        z = 0.01 * i
        force = _profile(z, 3.0) + max(z, 0.5) - min(z, 2.0)
        if force > 0.0:
            records.append(_Record(z, force, 0.5 * force))
    return len(json.dumps(scene)) + len(records)


def measure() -> tuple[float, float, float]:
    """One kernel run: (midpoint on the perf_counter clock, wall s, CPU s)."""
    c0, t0 = time.process_time(), time.perf_counter()
    kernel()
    t1, c1 = time.perf_counter(), time.process_time()
    return 0.5 * (t0 + t1), t1 - t0, c1 - c0


class Scale:
    """Local host speed over a run, from kernel runs spread through it."""

    def __init__(self, marks: list[tuple[float, float, float]]):
        if not marks:
            raise ValueError("no calibration runs")
        self.marks = sorted(marks)
        self.times = [m[0] for m in self.marks]

    def at(self, t: float) -> tuple[float, float]:
        """Median kernel (wall, CPU) time of the runs within WINDOW_S of ``t``
        (the nearest run if none is that close)."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        near = self.marks[lo:hi]
        if not near:
            k = bisect.bisect_left(self.times, t)
            near = [min(self.marks[max(k - 1, 0): k + 1], key=lambda m: abs(m[0] - t))]
        return statistics.median(m[1] for m in near), statistics.median(m[2] for m in near)
