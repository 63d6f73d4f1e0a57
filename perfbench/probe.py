"""Fresh-interpreter probe for set-up time and peak memory.

Usage: python3 perfbench/probe.py SRC_DIR < argv-lists.json
       python3 perfbench/probe.py --reference

Times ``import origrip.cli``, runs the given command lines with their output
discarded, and prints one JSON line: import seconds, peak RSS and versions.
With ``--reference`` it times the import of origrip's heavy dependencies
instead (calibrate.REFERENCE_IMPORT), the host-speed yardstick for set-up.
"""

import contextlib
import io
import json
import platform
import resource
import sys
import time


def reference() -> int:
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import yaml  # noqa: F401

    print(json.dumps({"import_s": time.perf_counter() - t0}))
    return 0


def main() -> int:
    if sys.argv[1] == "--reference":
        return reference()
    sys.path.insert(0, sys.argv[1])
    argv_lists = json.load(sys.stdin)
    t0 = time.perf_counter()
    import origrip.cli

    import_s = time.perf_counter() - t0
    for argv in argv_lists:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                origrip.cli.main(argv)
        except SystemExit:
            pass
        except Exception:  # seed defects on invalid inputs; judged by the checker, not here
            pass
    import numpy
    import scipy

    print(
        json.dumps(
            {
                "import_s": import_s,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "origrip_file": origrip.cli.__file__,
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
