"""Benchmark for the clawrand verifier.

    python3 bench/run.py --workload honest-desk --seed 1 --seconds 30 --trace 0

Runs one workload from BENCHMARK.json in-process through the library's
public API, checks that its outputs are correct, and prints each metric by
name with its unit.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, from sessions run with the tracer installed, alternating with
untraced sessions so the tracing overhead can be measured.

The library is imported from src/ next to this directory, never from an
installed copy.  When that source is missing, the run exits with a
non-zero status before printing a result.  Full results, the run
environment and, for traced runs, every span go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Keep the process at the workloads' own threads: numpy's BLAS pool would
# otherwise start one thread per core at import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def _import_library():
    """Put src/ first on the path and import clawrand from it."""
    if not (SRC / "clawrand" / "__init__.py").is_file():
        sys.exit(f"run.py: no library source at {SRC}")
    sys.path.insert(0, str(SRC))
    import clawrand

    if Path(clawrand.__file__).resolve().parent != (SRC / "clawrand").resolve():
        sys.exit(f"run.py: imported clawrand from {clawrand.__file__}, not from {SRC}")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--probe-setup",
        action="store_true",
        help="internal: set up the workload's first op, print when it was ready and exit",
    )
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_library()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"run.py: unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    import measure  # imports clawrand, so only after _import_library

    if args.probe_setup:
        return measure.probe_setup(args.workload, args.seed)
    return measure.run(spec, args, ROOT, OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
