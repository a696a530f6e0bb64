"""Set-up probe: a fresh interpreter imports qhckit and runs one warm-up op.

``run.py`` starts this script several times per run and reports the median
wall time of the whole process, minus the time spent building the op's
input, as ``setup_s``.  Prints one JSON line:
``{"import_ms": ..., "build_ms": ..., "op_ms": ...}``.

    python3 qhcbench/probe.py <workload> <seed> <workdir>
"""

import time

start = time.perf_counter()
import qhckit  # noqa: E402
import qhckit.cli  # noqa: E402,F401

imported = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = workloads.make(name, seed, workdir, dict(os.environ))
    workload.in_process = True
    try:
        t0 = time.perf_counter()
        op = workload.op(0)
        t1 = time.perf_counter()
        try:
            result, error = workload.execute(op), None
        except Exception as exc:  # a typed rejection is an expected outcome
            result, error = None, exc
        t2 = time.perf_counter()
        workload.check(op, result, error)
    finally:
        workload.close()
    print(json.dumps({
        "import_ms": (imported - start) * 1e3,
        "build_ms": (t1 - t0) * 1e3,
        "op_ms": (t2 - t1) * 1e3,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
