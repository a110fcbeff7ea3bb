"""Benchmark entry point: run one seeded workload and print its metrics.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fig4a-cold --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics.  ``--trace 1`` alternates traced and
untraced ops, reports the per-layer metrics and writes a Chrome trace under
``.perfbench/traces/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: everything a run writes: stores, compiled kernels, traces (gitignored)
WORK_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("fig4a-cold", "service-query")

#: one BLAS/OpenMP thread, so no thread pool competes with the load generator
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: set-up is timed this often per run, once in the measuring process and
#: the rest in fresh processes; ``setup_s`` is the median
SETUP_SAMPLES = 3

#: builds the compiled kernels (cached per source hash) and calls one once
_PROBE_BACKEND = """
import numpy as np
from repro.axnn.native import get_backend
backend = get_backend()
if backend is not None:
    out = np.zeros((1, 1), dtype=np.int64)
    backend.lut_matmul(np.zeros((1, 1), np.uint8), np.ones((1, 1), np.int8),
                       np.zeros((1, 1), np.uint8), np.zeros((256, 256), np.int16), out)
print(backend.name if backend is not None else "numpy")
"""


def isolate_environment() -> None:
    """Run the program as shipped: no inherited ``REPRO_*`` setting, one BLAS thread.

    Artifact hashes are salted only by the package version, so an inherited
    store (``REPRO_ARTIFACT_DIR``), remote tier (``REPRO_STORE_URL``) or
    fault plan (``REPRO_FAULT_PLAN``) would time another build's cached
    results or injected faults.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(PINNED_THREADS)
    os.environ["REPRO_NATIVE_CACHE"] = os.path.join(WORK_DIR, "native")
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)


def resolve_backend() -> str:
    """Name of the compiled backend, built in a child process before set-up is timed."""
    done = subprocess.run(
        [sys.executable, "-c", _PROBE_BACKEND],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=850,
    )
    if done.returncode != 0:
        raise RuntimeError(f"kernel backend probe failed: {done.stderr.strip()[-800:]}")
    return done.stdout.split()[-1]


def child_setup_s(args) -> float:
    """Set-up time of the workload in a fresh process (``--setup-only``)."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {done.stderr.strip()[-800:]}")
    return float(done.stdout.split()[-1])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for the set-up samples)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    isolate_environment()
    if args.setup_only:
        setup_start = time.perf_counter()
        import harness

        return harness.setup_only(args, setup_start, WORK_DIR)
    backend = resolve_backend()
    if backend == "numpy":
        print("perfbench: no compiled kernel backend resolved; the NumPy fallback "
              "is a different program, refusing to time it", file=sys.stderr)
        return 3
    # only the untraced run reports setup_s
    child_setups = [] if args.trace else [child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
    setup_start = time.perf_counter()
    # imports numpy and the program: part of set-up
    import harness

    return harness.run(args, backend, setup_start, WORK_DIR, child_setups)


if __name__ == "__main__":
    sys.exit(main())
