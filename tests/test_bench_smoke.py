"""Smoke test of the benchmark harness: one short traced wire-micro run.

It checks the result's schema and correctness gate, that the layers the
tracer patches were reached, and the modq reduction count; it asserts no
timings."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_wire_micro_traced_run():
    r = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wire-micro", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    # a renamed or bypassed traced function reads 0 here
    assert metrics["qsim.prepare.calls_per_op"]["value"] > 0
    assert metrics["trapdoor.exhaustive_invert.calls_per_op"]["value"] > 0
    # a call count, not a timing: residues are canonical by construction and
    # reduced only where arithmetic leaves [0, q), ~3.6 times a round here
    assert metrics["modq.reduce.calls_per_op"]["value"] < 6
