"""Quick self-check of the benchmark: short runs of every workload.

    python3 bench/selfcheck.py

Runs each workload for one second untraced and traced.  For each run it
checks the result line's schema against the metrics in BENCHMARK.json and
the correctness gate, and that both runs reproduced the same session-0
transcript.  It asserts no timings.  Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def run(workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)


def check_result(proc, declared: list[dict]) -> list[str]:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit status {proc.returncode}: {proc.stderr.strip()[-1000:]}"]
    res = json.loads(lines[-1])
    errs = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"result keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0:
        errs.append(f"gate failed: correct={res.get('correct')} failed={res.get('failed')}")
    if not (isinstance(res.get("attempted"), int) and res["attempted"] >= 1):
        errs.append("attempted must be a whole number >= 1")
    units = {m["name"]: m["unit"] for m in declared}
    got = res.get("metrics", {})
    if set(got) != set(units):
        errs.append(f"metric names differ: {sorted(set(got) ^ set(units))}")
    for name, m in got.items():
        v = m.get("value")
        if set(m) != {"value", "unit"} or m.get("unit") != units.get(name):
            errs.append(f"{name}: {m}")
        elif not (isinstance(v, (int, float)) and math.isfinite(v)):
            errs.append(f"{name}: value {v!r} is not a finite number")
    return errs


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errs = []
    for w in spec["workloads"]:
        name = w["name"]
        digests = []
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            found = check_result(run(name, trace), declared)
            errs += [f"{name} trace={trace}: {e}" for e in found]
            saved = ROOT / ".bench_out" / f"{name}-seed{SEED}-trace{trace}.json"
            if not found:
                digests.append(json.loads(saved.read_text())["details"]["digest_session0"])
        if len(digests) == 2 and digests[0] != digests[1]:
            errs.append(f"{name}: session 0 transcript differs between two runs with seed {SEED}")
        print(f"{name}: checked", flush=True)

    for e in errs:
        print("FAIL " + e)
    print("selfcheck: " + ("ok" if not errs else f"{len(errs)} problem(s)"))
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
