"""Benchmark of the mjpbounds command line on generated models.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_small --seed 100 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` prints the per-layer metrics of traced runs.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md in this
directory describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mjpbounds"

# Set before numpy loads: the matrices are small, and BLAS threads on top of
# the simulator's own would exceed the cores of a small machine.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=100)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare():
    """Point the interpreter at the checkout's library; False if it is absent."""
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no mjpbounds package under {PACKAGE.parent}", file=sys.stderr)
        return False
    os.environ.update(BLAS_THREADS)
    os.environ.pop("MJPBOUNDS_THREADS", None)  # the workloads' flags decide
    sys.path.insert(0, str(PACKAGE.parent))
    import mjpbounds

    if Path(mjpbounds.__file__).resolve().parent != PACKAGE:
        print(f"error: imported mjpbounds from {mjpbounds.__file__}", file=sys.stderr)
        return False
    return True


def main(argv=None):
    args = parse_args(argv)
    if not prepare():
        return 2
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        harness.run(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
