"""Seeded benchmark of the lidarreg registration toolkit.

Run from the repository root:

    python3 benchmarks/run.py --workload scene-lowinlier --seed 1 \\
        --seconds 30 --trace 0

The run imports lidarreg from ``src/`` of the current directory, pins
BLAS/OpenMP to one thread, sets up the workload's inputs from the seed
three times (``setup_s`` is the median), runs one untimed warm-up pair,
then runs units back to back for ``--seconds`` (closed loop, one client,
``--threads 1``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs
a fixed set of units, each once untraced and once with every layer
wrapped.  It reports the per-layer metrics and the tracing overhead and
writes the spans to ``.bench_out/``.  ``--smoke`` shrinks every workload
for the benchmark's own tests.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when a correctness check fails and 2 when lidarreg
cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("scene-lowinlier", "scene-dense", "trajectory-files")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def _import_program(root: Path) -> None:
    """Import lidarreg from root/src, refusing any other copy."""
    src = root / "src"
    if not (src / "lidarreg" / "__init__.py").is_file():
        raise ImportError(f"no lidarreg package under {src}")
    sys.path.insert(0, str(src))
    import lidarreg
    if Path(lidarreg.__file__).resolve().parent != (src / "lidarreg").resolve():
        raise ImportError(f"lidarreg was imported from {lidarreg.__file__}, "
                          f"not from {src}")


def main(argv=None) -> int:
    args = _parse(argv)
    # must precede the first numpy import
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = Path.cwd()
    try:
        _import_program(root)
    except ImportError as e:
        print(f"error: cannot import the program: {e}", file=sys.stderr)
        return 2
    import harness
    return harness.run(args, root, THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
