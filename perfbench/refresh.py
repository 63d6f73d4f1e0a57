"""Regenerate the benchmark's stored expectations from the current program.

Usage (from the repository root):

    python3 perfbench/refresh.py

Writes two files next to this script:

* ``reference.json``: outcomes of the bundled-scene operations (checked on
  every seed) and of the first ``check.REFERENCE_OPS`` operations of each
  workload for ``check.DEFAULT_SEED``.
* ``known_failures.json``: signatures of the invalid-input operations the
  program mishandles, collected over ``KNOWN_FAILURE_SEEDS`` seeds.

Run it only when outputs change on purpose, and say so in the change that
commits the new files.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, build_pool, write_pool  # noqa: E402

KNOWN_FAILURE_SEEDS = range(100)


def _pool(workload: str, seed: int):
    pool = build_pool(workload, seed, f"{run.WORK_DIR}/refresh/{workload}-{seed}")
    write_pool(pool, run.ROOT)
    return pool


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    cli = run.import_cli()
    try:
        reference = {"default_seed": check.DEFAULT_SEED, "bundled": {}, "seeded": {}}
        for workload in WORKLOADS:
            pool = _pool(workload, check.DEFAULT_SEED)
            seeded = reference["seeded"][workload] = {}
            for idx, op in enumerate(pool.ops):
                if op.id.startswith("bundled/"):
                    key = " ".join(op.argv)
                    if key not in reference["bundled"]:
                        reference["bundled"][key] = check.canonical(op, run.call(cli, op.argv))
                elif idx < check.REFERENCE_OPS:
                    seeded[op.id] = check.canonical(op, run.call(cli, op.argv))

        failures = set()
        for seed in KNOWN_FAILURE_SEEDS:
            for op in _pool("cli_mixed", seed).ops:
                if op.mutation is None:
                    continue
                res = run.call(cli, op.argv)
                try:
                    check.check_outcome(op, res)
                except check.CheckFailure:
                    failures.add(check.failure_signature(op, res))
    finally:
        shutil.rmtree(run.ROOT / run.WORK_DIR / "refresh", ignore_errors=True)

    check.REFERENCE.write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")
    check.KNOWN_FAILURES.write_text(
        json.dumps(
            {
                "about": "invalid-input operations the program mishandles; still counted as failed",
                "failures": sorted(failures),
            },
            indent=2,
        )
        + "\n"
    )
    print(f"reference: {len(reference['bundled'])} bundled, "
          f"{sum(len(v) for v in reference['seeded'].values())} seeded outcomes")
    print(f"known failures: {len(failures)}")
    for sig in sorted(failures):
        print(f"  {sig}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
