"""Smoke tests of the benchmark harness: one short traced and one short
untraced run of wire-micro and of honest-desk, and one short untraced
garbage-desk run.

The traced runs check the result's schema and correctness gate, that the
layers the tracer patches were reached, and on wire-micro the modq
reduction count.  The untraced runs are the ones whose numbers are
reported, and they probe their setup on their own, so their correctness
gates are checked too.  The honest-desk gate recomputes each session's
verdict and replays its keys to check the failed rounds.  None asserts
timings."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, trace: int) -> dict:
    r = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, r.stdout[-2000:]  # its FAILED lines name the problems
    assert result["failed"] == 0
    return result


def test_bench_wire_micro_untraced_run():
    _run("wire-micro", trace=0)


def test_bench_honest_desk_untraced_run():
    _run("honest-desk", trace=0)


def test_bench_garbage_desk_untraced_run():
    # the one workload that makes a fresh key, and so fresh float64 copies
    # of its matrices, on every trial
    _run("garbage-desk", trace=0)


def test_bench_wire_micro_traced_run():
    metrics = _run("wire-micro", trace=1)["metrics"]
    # a renamed or bypassed traced function reads 0 here
    assert metrics["qsim.prepare.calls_per_op"]["value"] > 0
    assert metrics["trapdoor.exhaustive_invert.calls_per_op"]["value"] > 0
    # a call count, not a timing: residues are canonical by construction and
    # reduced only where arithmetic leaves [0, q), ~3.6 times a round here
    assert metrics["modq.reduce.calls_per_op"]["value"] < 6


def test_bench_honest_desk_traced_run():
    metrics = _run("honest-desk", trace=1)["metrics"]
    # the gadget decode and the grading, reached through the names the
    # tracer patches: a grader that bypasses them reads 0 here
    assert metrics["trapdoor.invert.accept.calls_per_op"]["value"] > 0
    assert metrics["clawfree.grade.calls_per_op"]["value"] > 0
